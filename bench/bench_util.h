/**
 * @file
 * Helpers for the bench harnesses that drive single runs directly. The
 * paper's figures and tables are campaign presets instead
 * (`vortex_sweep run --preset NAME`, src/sweep/presets.h).
 */

#pragma once

#include <cstdio>
#include <string>

#include "common/log.h"
#include "runtime/workloads.h"
#include "sweep/presets.h"

namespace vortex::bench {

/** Baseline machine: the paper's 4W-4T core scaled to @p cores
 *  (forwards to sweep::baselineConfig). */
inline core::ArchConfig
baselineConfig(uint32_t cores = 1)
{
    return sweep::baselineConfig(cores);
}

/** Run one verified kernel; fatal on verification failure so the bench
 *  never reports numbers from a wrong result. */
inline runtime::RunResult
runVerified(const core::ArchConfig& cfg, const std::string& kernel,
            uint32_t scale = 1)
{
    runtime::Device dev(cfg);
    runtime::RunResult r = runtime::runRodinia(dev, kernel, scale);
    if (!r.ok)
        fatal("bench kernel '", kernel, "' failed verification: ", r.error);
    return r;
}

inline void
printHeader(const char* title)
{
    std::printf("\n==== %s ====\n", title);
}

} // namespace vortex::bench
