/**
 * @file
 * Embedded RISC-V assembly sources: the Vortex native runtime (crt0 +
 * spawn_tasks, §5.3) and the benchmark kernels used throughout the paper's
 * evaluation — the Rodinia subset of §6.1 (compute-bound: sgemm, vecadd,
 * sfilter; memory-bound: saxpy, nearn, gaussian, bfs) and the texture
 * benchmarks of §6.4 (point/bilinear/trilinear, each with a hardware `tex`
 * variant and a pure-software variant).
 *
 * Every kernel is assembled together with the runtime by
 * runtime::Device::uploadKernel, producing the flat binary the simulator
 * fetches and decodes — the ISA-level equivalent of the POCL pipeline
 * output (DESIGN.md substitution #3).
 *
 * The Rodinia kernels are the checked-in examples/kernels/NAME.s files,
 * embedded at build time (common/embedded.h); editing a file changes the
 * built-in kernel. The runtime and the texture kernels have no `.s`
 * files and stay C++ string literals (runtime.cpp, texture.cpp).
 */

#pragma once

#include <string>
#include <vector>

#include "isa/assembler.h"
#include "isa/object.h"

namespace vortex::kernels {

/** crt0 + per-thread stack setup + spawn_tasks (wspawn/tmc/bar based). */
const char* runtimeSource();

/**
 * Assemble the native runtime followed by kernel @p source, named
 * @p name in diagnostics: how every runtime-hosted program is built.
 * The runtime calls `main`, so a kernel that does not define it is
 * reported at @p name:1:1, not at the runtime's call.
 */
isa::Program assembleWithRuntime(isa::Assembler& as, const std::string& name,
                                 const std::string& source);

/** assembleWithRuntime() into a relocatable object (isa/object.h). */
isa::ObjectFile assembleObjectWithRuntime(isa::Assembler& as,
                                          const std::string& name,
                                          const std::string& source);

//
// Rodinia subset (§6.1), examples/kernels/NAME.s. Argument layouts in
// runtime/kargs.h.
//
const char* vecadd();   ///< c[i] = a[i] + b[i] (int)       — compute group
const char* saxpy();    ///< y[i] = a*x[i] + y[i] (float)   — memory group
const char* sgemm();    ///< C = A*B (float, task per cell) — compute group
const char* sfilter();  ///< 3x3 blur stencil (float)       — compute group
const char* nearn();    ///< euclidean distances (fsqrt)    — memory group
const char* gaussian(); ///< gaussian elimination           — memory group
const char* bfs();      ///< frontier BFS                   — memory group

//
// Texture benchmarks (§6.4, Fig. 20): render a source texture to a
// destination target of the same size. HW variants use the `tex`
// instruction; SW variants implement the sampler in plain RISC-V code
// (the paper's software-rendering baseline).
//
const char* texPointHw();
const char* texBilinearHw();
const char* texTrilinearHw();
const char* texPointSw();
const char* texBilinearSw();
const char* texTrilinearSw();

//
// Registry: every shipped kernel by name, for tools that enumerate or
// look up kernels generically (vortex_verify, sweep pre-run checks).
//
struct NamedKernel
{
    const char* name;        ///< stable lookup name, e.g. "tex_point_hw"
    const char* (*source)(); ///< the kernel's assembly source
};

/** All shipped kernels in stable (documentation) order. */
const std::vector<NamedKernel>& allKernels();

/** Source of the kernel called @p name, or nullptr when unknown. */
const char* kernelSource(const std::string& name);

} // namespace vortex::kernels
