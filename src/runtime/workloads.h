/**
 * @file
 * Workload generators and verified runners for the paper's benchmarks.
 * Each runner builds a deterministic input, uploads the kernel through the
 * driver, executes it, checks the device results against a host C++
 * reference, and returns the performance counters the evaluation figures
 * plot. Shared by the test suite, the bench harnesses, and the examples.
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/outcome.h"
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
// Rodinia subset (§6.1).
//
RunResult runVecAdd(Device& dev, uint32_t n);
RunResult runSaxpy(Device& dev, uint32_t n);
RunResult runSgemm(Device& dev, uint32_t n);          ///< n x n matrices
RunResult runSfilter(Device& dev, uint32_t width, uint32_t height);
RunResult runNearn(Device& dev, uint32_t n);
RunResult runGaussian(Device& dev, uint32_t n);       ///< n x n elimination
RunResult runBfs(Device& dev, uint32_t numNodes, uint32_t avgDegree);

/** Dispatch one of the seven Rodinia kernels by name with a default
 *  problem size scaled by @p scale (1 = test-sized). */
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

/**
 * Render a size x size texture to an equal render target with the given
 * filtering, in hardware (`tex` instruction) or software. Device results
 * are verified against the host functional sampler (bit-exact for HW,
 * +-2/channel for SW float-path differences).
 */
RunResult runTexture(Device& dev, TexFilterMode mode, bool hardware,
                     uint32_t size);

//
// Harness-free runners (`[workload] check = ...` specs). Both expect a
// kernel override to be installed (Device::setKernelOverride) — the
// guest program IS the workload; there is no per-workload C++ setup.
//

/**
 * Run the installed kernel override and judge it by the guest's own
 * verdict in the self-check mailbox (docs/TOOLCHAIN.md "Self-check
 * ABI"): ok iff the guest wrote kSelfCheckPass. A FAIL verdict reports
 * the guest's detail word; any other status means the guest never
 * reached its verdict and is reported as such.
 */
RunResult runSelfCheck(Device& dev);

/**
 * Run the installed kernel override, then read @p len bytes of device
 * memory at @p addr and compare their FNV-1a 64 hash against
 * @p expectedFnv (the `check = "memcmp:ADDR:LEN:FNV"` spec form).
 */
RunResult runMemcmp(Device& dev, Addr addr, uint32_t len,
                    uint64_t expectedFnv);

} // namespace vortex::runtime
