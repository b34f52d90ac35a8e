/**
 * @file
 * Core tick backends. The Processor delegates the per-cycle "tick every
 * awake core" phase to a TickEngine (sleeping cores are skipped,
 * ARCHITECTURE.md "Dormant cores and caches"):
 *
 *  - SerialTickEngine ticks the cores in index order on the caller's
 *    thread (the default).
 *  - ParallelTickEngine ticks them concurrently on a persistent host
 *    thread pool, barrier-synchronized per simulated cycle.
 *
 * Cores are independent within the tick phase by construction: every
 * cross-core interaction (L1 -> shared L2/L3/board-memory requests, global
 * barrier arrivals) is staged into producer-local buffers during the phase
 * and committed by the Processor in deterministic core order afterwards
 * (see mem::StagedMemPort and Processor::tick). Both backends use that
 * same commit phase and therefore produce bit-identical simulations —
 * same cycles(), threadInstrs(), and functional results. (The commit
 * phase itself is a small, uniform timing-model refinement over the
 * pre-staging simulator: cross-core effects — a queue push seen by a
 * sibling, a global barrier release — take effect at the cycle boundary
 * instead of mid-cycle in core-index order.)
 */

#pragma once

#include <memory>
#include <vector>

#include "common/types.h"

namespace vortex::core {

class Core;
struct ArchConfig;

/** Backend that advances every core by one simulated cycle. */
class TickEngine
{
  public:
    virtual ~TickEngine() = default;

    /** Tick each of @p awake, the cores not asleep(@p now) in core
     *  order, once for simulated cycle @p now. */
    virtual void tick(Cycle now, const std::vector<Core*>& awake) = 0;

    /** Backend name ("serial" / "parallel") for logs and benches. */
    virtual const char* name() const = 0;

    /** Host threads participating in the tick phase (1 for serial). */
    virtual uint32_t numWorkers() const = 0;
};

/**
 * Build the tick engine selected by @p config (ArchConfig::parallelTick /
 * ArchConfig::tickThreads, at most one worker per core). Falls back to the
 * serial backend when only one worker would be used.
 */
std::unique_ptr<TickEngine> makeTickEngine(const ArchConfig& config);

} // namespace vortex::core
