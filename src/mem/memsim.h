/**
 * @file
 * Board-memory timing simulator: the multi-channel DRAM behind the cache
 * hierarchy. Models the two knobs swept in Figure 21 — access latency and
 * bandwidth — plus channel-level parallelism (2 banks on the Arria 10 board,
 * 8 on the Stratix 10, paper §6.5).
 */

#pragma once

#include <functional>
#include <vector>

#include "common/elastic.h"
#include "common/ring.h"
#include "common/stats.h"
#include "mem/memtypes.h"

namespace vortex::mem {

/** Configuration of the memory simulator. */
struct MemSimConfig
{
    uint32_t latency = 100;     ///< cycles from accept to response
    uint32_t lineSize = 64;     ///< bytes per transfer
    uint32_t busWidth = 16;     ///< bytes transferred per channel per cycle
    uint32_t numChannels = 2;   ///< independent channels (addr-interleaved)
    uint32_t queueDepth = 16;   ///< input queue depth
};

/**
 * Fixed-latency, bandwidth-limited memory. Each channel transfers one line
 * in lineSize/busWidth cycles of occupancy; a read responds latency cycles
 * after its transfer begins. Writes consume bandwidth but produce no
 * response (write-through traffic).
 */
class MemSim : public MemSink
{
  public:
    explicit MemSim(const MemSimConfig& config);

    // MemSink
    bool reqReady() const override { return !input_.full(); }
    void reqPush(const MemReq& req) override { input_.push(req); }

    void setRspCallback(std::function<void(const MemRsp&)> cb)
    {
        rspCallback_ = std::move(cb);
    }

    /** Wake @p latch whenever the full input queue accepts a transfer
     *  (the credit a sleeping L1, L2 or L3 in front of the board memory
     *  may wait on). */
    void addCreditWake(WakeLatch* latch) { creditWakes_.push_back(latch); }

    /** Advance one cycle (returns at once when idle()). */
    void tick(Cycle now);

    /** No requests buffered or in flight. */
    bool idle() const { return input_.empty() && inflight_.empty(); }

    const MemSimConfig& config() const { return config_; }
    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

  private:
    uint32_t channelOf(Addr lineAddr) const;

    MemSimConfig config_;
    uint32_t lineCycles_;
    ElasticQueue<MemReq> input_;
    std::vector<Cycle> channelFree_; ///< next cycle each channel is free

    struct Inflight
    {
        MemRsp rsp;
        Cycle readyAt;
    };
    Ring<Inflight> inflight_; ///< reads in acceptance (= readyAt) order

    std::function<void(const MemRsp&)> rspCallback_;
    std::vector<WakeLatch*> creditWakes_; ///< addCreditWake()
    // Counters, registered in this order at construction (common/stats.h).
    StatGroup stats_{"memsim"};
    uint64_t& ctrReads_ = stats_.counter("reads");
    uint64_t& ctrWrites_ = stats_.counter("writes");
    uint64_t& ctrBytes_ = stats_.counter("bytes");
    uint64_t& ctrResponses_ = stats_.counter("responses");
};

} // namespace vortex::mem
