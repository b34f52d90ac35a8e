/**
 * @file
 * The shipped guest programs and the one way a guest is built: the
 * Vortex native runtime (crt0 + spawn_tasks, §5.3) and the benchmark
 * kernels used throughout the paper's evaluation — the Rodinia subset of
 * §6.1 (compute-bound: sgemm, vecadd, sfilter; memory-bound: saxpy,
 * nearn, gaussian, bfs) and the texture benchmarks of §6.4
 * (point/bilinear/trilinear, each with a hardware `tex` variant and a
 * pure-software variant).
 *
 * Every guest is a list of checked-in `.s` units, embedded at build time
 * (common/embedded.h): the Rodinia kernels are examples/kernels/NAME.s,
 * and the runtime and the texture units live in src/kernels/NAME.s.
 * assembleGuest() assembles the runtime followed by a guest's units into
 * a relocatable object, the ISA-level equivalent of the POCL pipeline
 * output (DESIGN.md substitution #3); runtime::Device::uploadKernel loads
 * that object and `--verify` analyzes it.
 */

#pragma once

#include <string>
#include <vector>

#include "isa/assembler.h"
#include "isa/object.h"

namespace vortex::kernels {

/** A guest program: the units assembled after the native runtime. */
struct Guest
{
    std::string name;                   ///< registry name or program path
    std::vector<isa::SourceUnit> units; ///< in assembly order
};

/** crt0 + per-thread stack setup + spawn_tasks (src/kernels/runtime.s). */
const char* runtimeSource();

/**
 * Assemble the native runtime followed by @p guest's units into an
 * object linked at @p base, and return it after a VXOB write and read
 * (isa/object.h), so every build exercises the serialized format. The
 * runtime calls `main`, so a guest that does not define it is reported
 * at its first unit, line 1, not at the runtime's call.
 */
isa::ObjectFile assembleGuest(Addr base, const Guest& guest);

/**
 * Every shipped kernel in stable (documentation) order. A Rodinia
 * kernel is its one file (argument layouts in runtime/kargs.h). A
 * texture kernel renders a source texture to a destination target of
 * the same size: tex_main.s, then tex_sw_bilinear.s for the software
 * bilinear variants, then the variant's task; tex_bilinear_hw runs
 * tex_point_hw's units, because the filter mode is texture state.
 */
const std::vector<Guest>& allKernels();

/** The shipped kernel called @p name, or nullptr when unknown. */
const Guest* findKernel(const std::string& name);

/** The shipped kernel called @p name; fatal when unknown. */
const Guest& kernel(const std::string& name);

/** Text of the one-unit shipped kernel called @p name (a Rodinia
 *  kernel), or nullptr when there is none. */
const char* kernelSource(const std::string& name);

} // namespace vortex::kernels
