/**
 * @file
 * Shared-memory scratchpad (paper §4.1.4): an optional per-core local memory
 * that can act as scratchpad or stack. Word-interleaved banks, one access
 * per bank per cycle; conflicting lane requests serialize. Accesses never
 * miss, so the model is a banked arbiter with fixed latency.
 */

#pragma once

#include <functional>
#include <vector>

#include "common/elastic.h"
#include "common/stats.h"
#include "mem/memtypes.h"

namespace vortex::mem {

/** Geometry of the shared memory. */
struct SharedMemConfig
{
    uint32_t size = 16384;  ///< bytes (scratchpad capacity)
    uint32_t numBanks = 4;  ///< word-interleaved banks
    uint32_t numLanes = 4;  ///< core-side lanes (== threads)
    uint32_t latency = 1;   ///< access latency in cycles
    uint32_t laneQueueDepth = 2;
};

/** Banked scratchpad timing model. */
class SharedMem
{
  public:
    explicit SharedMem(const SharedMemConfig& config);

    bool laneReady(uint32_t lane) const { return !lanes_.at(lane).full(); }
    void lanePush(uint32_t lane, const CoreReq& req);
    void setRspCallback(std::function<void(const CoreRsp&)> cb)
    {
        rspCallback_ = std::move(cb);
    }

    /** Advance one cycle. @return true when the tick changed any state
     *  (a tick with nothing queued or maturing changes none). */
    bool tick(Cycle now);
    /** Earliest cycle a response emerges (kNoEvent when none). */
    Cycle nextEventAt() const { return pipe_.nextReadyAt(); }
    /** No lane request pending and nothing in the pipe: tick() would
     *  change nothing, so the owning core does not call it. */
    bool quiet() const { return pendingLaneReqs_ == 0 && pipe_.empty(); }
    bool idle() const;

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

  private:
    uint32_t bankOf(Addr addr) const
    {
        return (addr >> 2) & (config_.numBanks - 1);
    }

    SharedMemConfig config_;
    std::vector<ElasticQueue<CoreReq>> lanes_;
    LatencyPipe<CoreRsp> pipe_;
    std::function<void(const CoreRsp&)> rspCallback_;
    std::vector<uint8_t> bankBusy_; ///< per-tick arbiter scratch (no alloc)
    size_t pendingLaneReqs_ = 0; ///< queued lane requests (tick early-out)
    // Counters, registered in this order at construction (common/stats.h).
    StatGroup stats_{"sharedmem"};
    uint64_t& ctrReads_ = stats_.counter("reads");
    uint64_t& ctrWrites_ = stats_.counter("writes");
    uint64_t& ctrCandidates_ = stats_.counter("candidates");
    uint64_t& ctrBankConflicts_ = stats_.counter("bank_conflicts");
    uint64_t& ctrAccesses_ = stats_.counter("accesses");
};

} // namespace vortex::mem
