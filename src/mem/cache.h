/**
 * @file
 * High-bandwidth non-blocking cache (paper §4.3, Figure 6).
 *
 * The cache is multi-banked (single-ported banks, address-interleaved by
 * cache-line index) and extends multi-banking with *virtual ports*: the
 * front-end bank selector coalesces same-cycle requests that map to the same
 * bank AND the same cache line into one bank request carrying up to
 * `numPorts` word-granular port slots. Only the word offsets of the ports
 * need storing (in the MSHR on a miss), and a single data-store access
 * services all ports of a request — the two efficiency points of §4.3.
 *
 * Each bank runs a four-stage pipeline (schedule -> tag -> data -> response)
 * with its own MSHR (per-bank MSHRs adapted from Asiatici & Ienne). Misses to
 * a line already pending merge into the existing MSHR entry without issuing
 * a new memory request. The scheduler prioritizes MSHR replays over memory
 * fills over incoming core requests. Deadlock is avoided with early-full
 * checks: a request is only scheduled when the MSHR has a free entry and the
 * memory request queue has space (paper's two deadlock mitigations).
 *
 * Back-end: responses from banks are delivered through a single response
 * callback (the "bank merger" coalesces by request tag — here the reqId),
 * each on the lane its request came in on.
 *
 * Policy: write-through, no write-allocate (stores complete when accepted by
 * a bank and forward a line write to memory), which matches the FPGA design
 * and makes `flush` (weakly-coherent memory, §4.1.4) a tag invalidation.
 */

#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/elastic.h"
#include "common/ring.h"
#include "common/small_vec.h"
#include "common/slot_pool.h"
#include "common/stats.h"
#include "mem/memtypes.h"

namespace vortex::mem {

/** Geometry and timing of one cache instance. */
struct CacheConfig
{
    const char* name = "cache";
    uint32_t size = 16384;        ///< total bytes
    uint32_t lineSize = 64;       ///< bytes
    uint32_t numBanks = 4;
    uint32_t numWays = 2;
    uint32_t numPorts = 1;        ///< virtual ports per bank
    uint32_t numLanes = 4;        ///< core-side request lanes
    uint32_t mshrEntries = 8;     ///< entries per bank
    uint32_t inputQueueDepth = 2; ///< per-bank input FIFO depth
    uint32_t laneQueueDepth = 2;  ///< per-lane front queue depth
    uint32_t memQueueDepth = 8;   ///< memory request queue depth
    uint32_t pipelineLatency = 3; ///< schedule->response latency (cycles)
};

/**
 * The non-blocking banked cache. One instance per L1D/L1I/L2/L3; levels are
 * composed by link() (memtypes.h "link rule").
 */
class Cache
{
  public:
    /** @p shared: a shared L2 or L3, which can sleep (tickShared()). An
     *  L1 sleeps with its core and carries no sleep state. */
    explicit Cache(const CacheConfig& config, bool shared = false);

    //
    // Core side (lane-granular).
    //
    // Inline: the core's fetch and LSU stages call these per lane per
    // cycle (ARCHITECTURE.md "The inline hot path").
    bool laneReady(uint32_t lane) const { return !lanes_.at(lane).full(); }
    void
    lanePush(uint32_t lane, const CoreReq& req)
    {
        lanes_.at(lane).push(req);
        ++pendingLaneReqs_;
        ++(req.write ? ctrCoreWrites_ : ctrCoreReads_);
        if (dormancy_)
            dormancy_->latch.wake();
    }
    void setRspCallback(std::function<void(const CoreRsp&)> cb)
    {
        rspCallback_ = std::move(cb);
    }

    //
    // Memory side.
    //
    void connectMem(MemSink* sink) { memSink_ = sink; }
    /** Deliver a response from the downstream memory (always accepted);
     *  wakes the owner set by setWakeLatch(). */
    void memRsp(const MemRsp& rsp);

    /**
     * Advance one cycle. @return true when the tick changed any state
     * besides the stallCounters(); after a false return the next tick
     * repeats it exactly, unless a memRsp() or lanePush() arrives, the
     * memory sink regains credit, or nextEventAt() is reached.
     */
    bool tick(Cycle now);

    /** Earliest cycle a bank pipeline emits (kNoEvent when none). */
    Cycle nextEventAt() const;

    /** Nothing queued in a lane, a bank or a pipe, and no memory request
     *  or response waiting: tick() would change nothing and bump no
     *  counter, so the owning core does not call it (ARCHITECTURE.md
     *  "The lean awake core-cycle"). */
    bool
    quiet() const
    {
        return pendingLaneReqs_ == 0 && bankWork_ == 0 && pipeWork_ == 0 &&
               memQueue_.empty() && memRspQueue_.empty();
    }

    /** The per-cycle stall counters (sel_candidates, sel_input_full,
     *  memq_stalls, mshr_stalls): all a tick returning false bumps. */
    std::array<uint64_t*, 4>
    stallCounters()
    {
        return {&ctrSelCandidates_, &ctrSelInputFull_, &ctrMemqStalls_,
                &ctrMshrStalls_};
    }

    //
    // Shared-level dormancy, only on a cache built `shared`.
    // ARCHITECTURE.md "Dormant cores and caches".
    //
    /**
     * tick(), and after a tick that changed nothing, sleep until
     * nextEventAt() or a wake of sleepLatch(): lanePush(), memRsp(), or
     * the credit the memory sink returns. The Processor skips a cache
     * while asleep(); the skipped cycles re-credit the stallCounters()
     * in one step at the next tick or settle().
     */
    void tickShared(Cycle now);
    /** Does tickShared() sleep through cycle @p now? */
    bool asleep(Cycle now) const { return dormancy_->asleep(now); }
    /** Credit the cycles slept through up to @p now (the stall counters
     *  and dormantCycles() are exact after it). */
    void settle(Cycle now) { dormancy_->settle(now); }
    /** The latch that ends this cache's own sleep: the link to its
     *  downstream registers it as the owner of the lane it feeds. */
    WakeLatch* sleepLatch() { return &dormancy_->latch; }
    /** Cycles tickShared() slept through (a host-side diagnostic). */
    uint64_t dormantCycles() const { return dormancy_->dormantCycles(); }

    //
    // Dormant-owner wakes (ARCHITECTURE.md "Dormant cores and caches").
    //
    /** Wake @p latch on every memRsp() (the owning core of an L1). */
    void setWakeLatch(WakeLatch* latch) { wakeLatch_ = latch; }
    /** Link an upstream cache's memory side to lane @p lane: @return
     *  the port it pushes into. @p owner (if any) is woken when the full
     *  lane has room again: the credit the upstream's sleeping core, or
     *  the sleeping upstream L2, waits on. */
    MemSink* link(uint32_t lane, WakeLatch* owner);

    /** True when no request is buffered, pending, or in flight. */
    bool idle() const;

    /** Invalidate every line (write-through: no data loss). */
    void flushAll();

    const CacheConfig& config() const { return config_; }
    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

    /** Bank utilization in [0,1] per Fig. 19: the fraction of issued lane
     *  requests that did not experience a bank conflict. */
    double bankUtilization() const;

  private:
    //
    // Geometry helpers.
    //
    // lineSize, numBanks and the set count are powers of two, so the
    // address fields are shifts and masks precomputed at construction.
    Addr lineAddrOf(Addr addr) const { return addr & ~(config_.lineSize - 1); }
    uint32_t
    bankOf(Addr addr) const
    {
        return (addr >> lineShift_) & bankMask_;
    }
    uint32_t setOf(Addr addr) const { return (addr >> setShift_) & setMask_; }
    uint32_t tagOf(Addr addr) const { return addr >> tagShift_; }

    /** One virtual-port slot inside a bank request. */
    struct PortReq
    {
        uint64_t reqId = 0;
        uint32_t lane = 0;
    };

    /** Port list sized for the swept virtual-port counts (1/2/4); MSHR
     *  merges may spill past the inline capacity. */
    using PortVec = SmallVec<PortReq, 4>;

    /** A coalesced request entering a bank. */
    struct BankReq
    {
        Addr lineAddr = 0;
        bool write = false;
        PortVec ports;
    };

    /** One MSHR slot: a miss waiting on a line while live. At most one
     *  live entry per line (later misses merge into it). */
    struct MshrEntry
    {
        Addr lineAddr = 0;
        bool live = false;
        PortVec ports;
    };

    /** Tag-store way. */
    struct Way
    {
        bool valid = false;
        uint32_t tag = 0;
        Cycle lastUsed = 0;
    };

    /** Completed bank operation travelling the pipeline. Ops are built
     *  in their pipe slot, and the replay queue and MSHR slots are
     *  reused too, so a port list that spilled keeps its capacity. */
    struct PipeOp
    {
        PortVec ports; ///< responses to emit
        bool write = false;
        std::optional<MemReq> memReq;
    };

    struct Bank
    {
        Bank(const CacheConfig& cfg, uint32_t index);

        ElasticQueue<BankReq> input;
        Ring<PortVec> replayQueue; ///< ports of filled entries to replay
        Ring<Addr> fillQueue;      ///< arrived fills to install
        std::vector<MshrEntry> mshr; ///< mshrEntries slots
        uint32_t mshrLive = 0;       ///< live slots in mshr
        std::vector<Way> ways; ///< [set * numWays + way]
        LatencyPipe<PipeOp> pipe;
    };

    /** Probe the tag store; the hit way, or nullptr on a miss. */
    Way* probe(Bank& bank, Addr addr) const;
    /** The numWays ways of @p addr's set, as a pointer to the first. */
    Way*
    setWays(Bank& bank, Addr addr) const
    {
        return &bank.ways[setOf(addr) * config_.numWays];
    }
    /** Install a line, evicting LRU; updates stats. */
    void install(Bank& bank, Addr addr, Cycle now);

    // Each returns true when it changed state besides the stall counters.
    bool drainPipes(Cycle now);
    bool drainMemQueue();
    bool schedule(Cycle now);
    bool selectBanks(Cycle now);

    bool mshrHasSpace(const Bank& bank) const;
    /** The live entry waiting on @p lineAddr, or nullptr. */
    MshrEntry* mshrFind(Bank& bank, Addr lineAddr);
    /** A free slot; mshrHasSpace() must hold. */
    MshrEntry& mshrFree(Bank& bank);

    CacheConfig config_;
    uint32_t numSets_;
    uint32_t lineShift_; ///< log2(lineSize)
    uint32_t setShift_;  ///< lineShift_ + log2(numBanks)
    uint32_t tagShift_;  ///< setShift_ + log2(numSets_)
    uint32_t bankMask_;  ///< numBanks - 1
    uint32_t setMask_;   ///< numSets_ - 1
    std::vector<Bank> banks_;
    std::vector<ElasticQueue<CoreReq>> lanes_;
    /** Bank of each lane's head request (kNoBank when empty): selector
     *  scratch, so the bank x lane scan reads one array. */
    std::vector<uint32_t> laneHeadBank_;
    static constexpr uint32_t kNoBank = ~0u;
    WakeLatch* wakeLatch_ = nullptr;     ///< setWakeLatch()
    std::vector<WakeLatch*> laneWakes_;  ///< link(), per lane
    std::vector<std::unique_ptr<MemSink>> lanePorts_; ///< link(), by link
    //
    // Tick-phase early-out bookkeeping: counts of work queued for the
    // three per-cycle bank scans, so an idle (or stalled-elsewhere)
    // cache pays three compares per cycle instead of three bank walks.
    //
    size_t pendingLaneReqs_ = 0; ///< queued lane reqs (selector early-out)
    size_t bankWork_ = 0; ///< bank input + replay + fill entries (schedule)
    size_t pipeWork_ = 0; ///< ops inside bank pipelines (drainPipes)
    ElasticQueue<MemReq> memQueue_;
    Ring<MemRsp> memRspQueue_; ///< unbounded: responses always absorbed
    MemSink* memSink_ = nullptr;
    std::function<void(const CoreRsp&)> rspCallback_;

    size_t pipePromisedMemReqs_ = 0; ///< memq slots reserved by in-pipe ops

    //
    // Memory-side request ids. A read's id comes from the fill slot pool
    // (so the response handler is an array index, not a map probe); it
    // need only be unique within this cache, because the response comes
    // back on this cache's own lane. A write is never answered, so its
    // id is never read.
    //
    struct PendingFill
    {
        uint32_t bank = 0;
        Addr lineAddr = 0;
    };
    SlotPool<PendingFill> fillPool_{0, "cache.fills"}; ///< by reqId

    // Counters, registered in this order at construction (the group's
    // key order; see common/stats.h).
    StatGroup stats_;
    uint64_t& ctrCoreReads_ = stats_.counter("core_reads");
    uint64_t& ctrCoreWrites_ = stats_.counter("core_writes");
    uint64_t& ctrCoreRsps_ = stats_.counter("core_rsps");
    uint64_t& ctrMemReqs_ = stats_.counter("mem_reqs");
    uint64_t& ctrMshrReplays_ = stats_.counter("mshr_replays");
    uint64_t& ctrFills_ = stats_.counter("fills");
    uint64_t& ctrMemqStalls_ = stats_.counter("memq_stalls");
    uint64_t& ctrWriteHits_ = stats_.counter("write_hits");
    uint64_t& ctrWriteMisses_ = stats_.counter("write_misses");
    uint64_t& ctrReadHits_ = stats_.counter("read_hits");
    uint64_t& ctrReadMisses_ = stats_.counter("read_misses");
    uint64_t& ctrMshrMerges_ = stats_.counter("mshr_merges");
    uint64_t& ctrMshrStalls_ = stats_.counter("mshr_stalls");
    uint64_t& ctrEvictions_ = stats_.counter("evictions");
    uint64_t& ctrSelCandidates_ = stats_.counter("sel_candidates");
    uint64_t& ctrSelInputFull_ = stats_.counter("sel_input_full");
    uint64_t& ctrSelAccepted_ = stats_.counter("sel_accepted");
    uint64_t& ctrSelConflicts_ = stats_.counter("sel_conflicts");
    uint64_t& ctrFlushes_ = stats_.counter("flushes");

    std::unique_ptr<Dormancy<4>> dormancy_; ///< null unless shared
};

} // namespace vortex::mem
