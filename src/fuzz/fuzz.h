/**
 * @file
 * Differential fuzzing of the guest toolchain and the simulator: a seeded
 * random generator of well-formed guest programs (balanced split/join,
 * bounded loops, in-bounds memory traffic) plus a differential oracle
 * that assembles each program through the full object pipeline
 * (assemble -> VXOB write/read -> load/relocate), verifies it with the
 * static analyzer, and runs it with the cores ticking in forward and in
 * reversed order (core::Processor::setReverseCoreOrder). Any divergence
 * in cycles, retired thread instructions, or scratch-memory contents
 * between the two orders fails the seed — the order the cores tick in
 * within a cycle must not matter (core/processor.h).
 *
 * Everything here is deterministic: the generator draws from Xorshift
 * only, and the guest programs index scratch memory through a
 * power-of-two mask so every access stays in bounds regardless of the
 * register soup feeding it.
 *
 * Generated programs are data-race-free across tasks by construction —
 * the lower half of the scratch buffer is read-only to the guest and
 * every store targets the storing task's own private slot in the upper
 * half. That is the scope of the orders' bit-identity contract:
 * cross-core *timing* interactions are staged and committed in core
 * order (core/processor.h), but functional stores land in RAM
 * immediately during the core phase, so in a guest in which two cores
 * race on the same word the winner depends on the tick order (exactly
 * like real hardware, where it is unspecified).
 */

#pragma once

#include <cstdint>
#include <string>

#include "core/config.h"

namespace vortex::fuzz {

/** Knobs of the random guest-program generator. The scratch buffer is
 *  split: words [0, scratchWords/2) are read-only to the guest, and each
 *  spawn round owns scratchWords/4 private store slots in the upper
 *  half, one per task id — so loads and stores can never race across
 *  tasks. maxTasks is clamped to scratchWords/4 (unique slot per id). */
struct GenOptions
{
    uint32_t maxBodyOps = 24;   ///< random body ops per task function
    uint32_t scratchWords = 256;///< guest scratch buffer (power of two)
    uint32_t maxTasks = 64;     ///< spawn_tasks count drawn from [1, max]
};

/** One generated guest program and the harness values it expects. */
struct GeneratedKernel
{
    std::string source;   ///< assembly text (main + task functions)
    uint32_t numTasks = 0;///< written to the kargs mailbox, word 0
    uint32_t scratchWords = 0; ///< size of the scratch buffer, word 1
};

/**
 * Deterministic random guest program for @p seed. The program defines
 * `main`, spawns 1-2 rounds of tasks, and touches only the scratch
 * buffer whose address the harness passes in the kargs mailbox plus a
 * read-only `.rodata` table baked into the program image. Task bodies
 * draw from balanced split/join blocks, uniformly-bounded loops (with
 * optional nesting), calls to shared barrier-free leaf helpers, rodata
 * table loads (half statically resolvable, half dynamically indexed),
 * and an ALU/FP/memory mix spanning RV32IM, sub-word accesses, and the
 * F extension.
 */
GeneratedKernel generateKernel(uint64_t seed, const GenOptions& opts = {});

/** Outcome of one differential run. */
struct FuzzResult
{
    bool ok = false;
    std::string detail; ///< failure description; empty when ok
    std::string source; ///< the generated program, for reproduction
    uint64_t cycles = 0;       ///< forward-order cycle count
    uint64_t threadInstrs = 0; ///< forward-order retired thread instrs
};

/** The small wide machine fuzzing runs on: 2 cores x 2 wavefronts x
 *  4 threads — enough geometry to exercise wspawn, divergence, and the
 *  cross-core commit phase while staying fast per seed. */
core::ArchConfig fuzzConfig();

/**
 * Generate the program for @p seed, push it through the object pipeline
 * onto a Device built from @p base, require a clean static-analysis
 * report, then run it to completion with the cores ticking in forward
 * order and again in reversed order, and compare cycles, retired thread
 * instructions, and the full scratch buffer byte-for-byte.
 */
FuzzResult runDifferential(uint64_t seed, const core::ArchConfig& base,
                           const GenOptions& opts = {});

} // namespace vortex::fuzz
