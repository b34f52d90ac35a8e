/**
 * @file
 * Workload generators and verified runners for the paper's benchmarks.
 * Each runner builds a deterministic input, uploads the guest it is
 * given through the driver, executes it, checks the device results
 * against a host C++ reference, and returns the performance counters the
 * evaluation figures plot. Shared by the test suite, the bench
 * harnesses, and the examples.
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/outcome.h"
#include "kernels/kernels.h"
#include "runtime/device.h"

namespace vortex::runtime {

/** Outcome of one verified kernel execution. */
struct RunResult
{
    bool ok = false;        ///< device results matched the host reference
    /** How the run ended (docs/ROBUSTNESS.md). Ok means the simulation
     *  completed — `ok` may still be false on a verification mismatch
     *  (a silent data corruption under fault injection). */
    RunStatus status = RunStatus::Ok;
    uint64_t cycles = 0;
    uint64_t threadInstrs = 0;
    double ipc = 0.0;       ///< thread-instructions per cycle (paper metric)
    std::string error;      ///< first mismatch description when !ok
};

//
// Rodinia subset (§6.1). Each runner uploads @p guest, the shipped
// kernel unless the caller passes another (sweep::workloadGuest).
//
RunResult runVecAdd(Device& dev, uint32_t n,
                    const kernels::Guest& guest = kernels::kernel("vecadd"));
RunResult runSaxpy(Device& dev, uint32_t n,
                   const kernels::Guest& guest = kernels::kernel("saxpy"));
/** n x n matrices. */
RunResult runSgemm(Device& dev, uint32_t n,
                   const kernels::Guest& guest = kernels::kernel("sgemm"));
RunResult runSfilter(Device& dev, uint32_t width, uint32_t height,
                     const kernels::Guest& guest = kernels::kernel("sfilter"));
RunResult runNearn(Device& dev, uint32_t n,
                   const kernels::Guest& guest = kernels::kernel("nearn"));
/** n x n elimination. */
RunResult runGaussian(Device& dev, uint32_t n,
                      const kernels::Guest& guest =
                          kernels::kernel("gaussian"));
RunResult runBfs(Device& dev, uint32_t numNodes, uint32_t avgDegree,
                 const kernels::Guest& guest = kernels::kernel("bfs"));

/** Run the Rodinia harness @p name with a default problem size scaled
 *  by @p scale (1 = test-sized), uploading @p guest. */
RunResult runRodinia(Device& dev, const std::string& name, uint32_t scale,
                     const kernels::Guest& guest);

/** runRodinia() of the shipped kernel @p name. */
RunResult runRodinia(Device& dev, const std::string& name,
                     uint32_t scale = 1);

/** Does runRodinia() have a harness named @p name? */
bool isRodiniaKernel(const std::string& name);

/** The paper's benchmark grouping (§6.1). */
bool isComputeBound(const std::string& name);

//
// Texture benchmarks (§6.4).
//
enum class TexFilterMode { Point, Bilinear, Trilinear };

/** "point", "bilinear" or "trilinear": the spelling spec files use. */
const char* texFilterName(TexFilterMode mode);

/** Registry name of the shipped texture kernel: "tex_<filter>_<hw|sw>". */
std::string textureKernelName(TexFilterMode mode, bool hardware);

/**
 * Render a size x size texture to an equal render target with the given
 * filtering, in hardware (`tex` instruction) or software, uploading
 * @p guest. Device results are verified against the host functional
 * sampler (bit-exact for HW, +-2/channel for SW float-path differences).
 */
RunResult runTexture(Device& dev, TexFilterMode mode, bool hardware,
                     uint32_t size, const kernels::Guest& guest);

/** runTexture() of the shipped kernel textureKernelName(mode, hardware). */
RunResult runTexture(Device& dev, TexFilterMode mode, bool hardware,
                     uint32_t size);

//
// Harness-free runners (`[workload] check = ...` specs): the guest
// program IS the workload; there is no per-workload C++ setup.
//

/**
 * Run @p guest and judge it by its own verdict in the self-check
 * mailbox (docs/TOOLCHAIN.md "Self-check ABI"): ok iff the guest wrote
 * kSelfCheckPass. A FAIL verdict reports the guest's detail word; any
 * other status means the guest never reached its verdict and is
 * reported as such.
 */
RunResult runSelfCheck(Device& dev, const kernels::Guest& guest);

/**
 * Run @p guest, then hash the @p len bytes of device memory at @p addr
 * one RAM page at a time and compare their FNV-1a 64 with
 * @p expectedFnv (the `check = "memcmp:ADDR:LEN:FNV"` spec form). The
 * window must end inside the address space (addr + len <= 2^32).
 */
RunResult runMemcmp(Device& dev, const kernels::Guest& guest, Addr addr,
                    uint32_t len, uint64_t expectedFnv);

} // namespace vortex::runtime
