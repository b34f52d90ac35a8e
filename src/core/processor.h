/**
 * @file
 * Top-level processor: clusters of cores with optional shared L2 per
 * cluster and an optional L3 shared by the clusters, in front of the board
 * memory (paper §4.1: "a scalable architecture that allows clustering of
 * multiple cores with optional L2 and L3 caches"). Also hosts the global
 * (inter-core) barrier table. Each cache enters a lane of the level
 * below it, and each response returns on that lane (mem/memtypes.h
 * "link rule").
 *
 * A cycle has a core phase and a commit phase. In the core phase each
 * awake core ticks and touches only its own state: everything it sends
 * to a shared component (an L1 request into a lane of an L2, the L3 or
 * the board memory, a global barrier arrival) is staged in a buffer
 * the core owns (mem::StagedMemPort, the per-core arrival lists). The
 * commit phase then applies those buffers in core order. So the order
 * the core phase visits the cores in cannot change the simulated cycles
 * of a guest without same-cycle cross-core races, and
 * setReverseCoreOrder() is the test oracle that checks it. (The commit
 * phase is a uniform timing-model choice: a cross-core effect, a queue
 * push seen by a sibling or a global barrier release, takes effect at
 * the cycle boundary, not mid-cycle in core order.)
 */

#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/barrier.h"
#include "core/config.h"
#include "core/core.h"
#include "mem/memsim.h"
#include "mem/ram.h"
#include "mem/staging.h"

namespace vortex::core {

/** The full simulated device. */
class Processor : public BarrierHub
{
  public:
    /** Build and wire the whole device described by @p config: cores,
     *  optional L2/L3 clusters and board memory. */
    explicit Processor(const ArchConfig& config);

    mem::Ram& ram() { return ram_; }                     ///< backing RAM
    const ArchConfig& config() const { return config_; } ///< the machine

    /** Decode the program text at [@p base, @p base + @p bytes) once for
     *  every core (Device::uploadObject passes the span of the object's
     *  executable sections). A processor without a text, or a fetch
     *  outside it, decodes from RAM instead (core/text.h). */
    void loadText(Addr base, uint32_t bytes) { text_.load(base, bytes); }
    /** The decoded program text the cores fetch through. */
    const DecodedText& text() const { return text_; }

    /** Reset every core and start wavefront 0 of each at startPC. */
    void start();

    /** Advance one cycle. */
    void tick();

    /** Any core or memory component still working? */
    bool busy() const;

    /**
     * Run until completion. @return true if the device went idle within
     * @p max_cycles, false on timeout (a likely deadlock or runaway
     * kernel).
     */
    bool run(uint64_t max_cycles = 200000000ull);

    /** Cycles simulated so far. */
    Cycle cycles() const { return cycles_; }

    /** Total thread-instructions executed (the IPC numerator used in the
     *  paper's figures). */
    uint64_t threadInstrs() const;
    /** Total wavefront-instructions executed, summed across cores. */
    uint64_t warpInstrs() const;
    /** threadInstrs() / cycles() (0 before the first tick). */
    double ipc() const;

    size_t numCores() const { return cores_.size(); } ///< device core count
    Core& core(size_t i) { return *cores_.at(i); }    ///< core @p i
    /** Const view of core @p i. */
    const Core& core(size_t i) const { return *cores_.at(i); }
    mem::MemSim& memSim() { return *memSim_; } ///< the board-memory model
    /** Cluster @p cluster's L2 (nullptr when L2s are disabled). */
    mem::Cache* l2(size_t cluster)
    {
        return cluster < l2s_.size() ? l2s_[cluster].get() : nullptr;
    }
    /** The device L3 (nullptr when disabled). */
    mem::Cache* l3() { return l3_.get(); }

    /**
     * Test hook: tick the awake cores in descending core order in the
     * core phase (ascending is the default). The commit phase keeps core
     * order either way, because it defines the simulated cycles. A run
     * whose cycles, counters or memory differ between the two orders
     * leaks a same-cycle effect from one core into another: a model bug,
     * or a guest that races across cores. Not part of the machine: no
     * spec field sets it and no content hash sees it.
     */
    void setReverseCoreOrder(bool reversed) { reverseCoreOrder_ = reversed; }

    /**
     * Settle every sleeping core and shared cache (their counters are
     * exact only after it), then flatten every device StatGroup into
     * @p flat under "<group>.<key>"
     * names, summed across cores, in fixed hierarchy order (core-private
     * units first, then the shared levels outward: core, icache, dcache,
     * smem, tex, l2, l3, mem). The synthetic "core.thread_instrs" /
     * "core.warp_instrs" counters lead the core group so IPC curves can
     * be computed from a snapshot alone. Counters accumulate into any
     * the caller already has (@p flat need not be empty).
     */
    void collectStats(StatGroup& flat);

    /**
     * The per-interval counter time series recorded by this run (empty
     * unless ArchConfig::sampleInterval is nonzero). Samples are taken
     * after the cross-core commit phase of tick(), the cycle boundary
     * where every cross-core effect of the cycle has landed, plus one
     * final partial window when run() goes idle.
     */
    const TimeSeries& timeSeries() const { return sampler_.series(); }

    // BarrierHub: the arrival is buffered per core and applied in core
    // order in the commit phase.
    void globalArrive(uint32_t id, uint32_t count, CoreId core,
                      WarpId wid) override;

    /**
     * Install @p hook to be called once per tick(), after the
     * cross-core commit phase: the cycle boundary where no core is
     * mid-tick, so anything the hook mutates (registers, memory) lands
     * at the same point whatever order the cores ticked in. This is the
     * fault-injection attachment point (src/faults/fault.h). An empty
     * function uninstalls.
     */
    void setFaultHook(std::function<void(Processor&, Cycle)> hook)
    {
        faultHook_ = std::move(hook);
    }

    /**
     * Install @p check, polled periodically (every few thousand cycles)
     * by run(). When it returns true the run throws a Timeout-class
     * SimError — how the fabric service enforces a per-simulation
     * wall-clock deadline without a kill signal (docs/ROBUSTNESS.md).
     * An empty function uninstalls.
     */
    void setAbortCheck(std::function<bool()> check)
    {
        abortCheck_ = std::move(check);
    }

  private:
    /** Build the L2s and the L3 and link every cache to the level
     *  below it (mem/memtypes.h "link rule"). */
    void wire();

    /** Commit phase: staged L1 requests, then global barrier arrivals,
     *  of the cores that ticked this cycle. */
    void commitCrossCore();

    /** Credit every cycle slept through so far by a core or a shared
     *  cache (ARCHITECTURE.md "Dormant cores and caches"). */
    void settle();

    ArchConfig config_;
    mem::Ram ram_;
    DecodedText text_{ram_};
    std::unique_ptr<mem::MemSim> memSim_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<mem::Cache>> l2s_;
    std::unique_ptr<mem::Cache> l3_;
    /** L1 memory-side staging ports by core, each drained I$ then D$. */
    std::vector<std::array<std::unique_ptr<mem::StagedMemPort>, 2>>
        stagedPorts_;
    /** The cores that tick this cycle, in core order. */
    std::vector<Core*> awake_;
    bool reverseCoreOrder_ = false; ///< setReverseCoreOrder()

    /** A global-barrier arrival buffered during the tick phase. */
    struct PendingArrival
    {
        uint32_t id;
        uint32_t count;
        WarpId wid;
    };
    std::vector<std::vector<PendingArrival>> pendingArrivals_; ///< per core

    GlobalBarrierTable globalBarriers_;
    StatSampler sampler_; ///< per-interval counter sampling (off by default)
    std::function<void(Processor&, Cycle)> faultHook_; ///< setFaultHook()
    std::function<bool()> abortCheck_;                 ///< setAbortCheck()
    Cycle cycles_ = 0;
};

} // namespace vortex::core
