/**
 * @file
 * Board-memory timing simulator: the multi-channel DRAM behind the cache
 * hierarchy. Models the two knobs swept in Figure 21 — access latency and
 * bandwidth — plus channel-level parallelism (2 banks on the Arria 10 board,
 * 8 on the Stratix 10, paper §6.5).
 */

#pragma once

#include <functional>
#include <memory>
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
 *
 * Upstream caches enter it by lane, as they enter a shared Cache
 * (memtypes.h "link rule"); every lane feeds the one input queue.
 */
class MemSim
{
  public:
    explicit MemSim(const MemSimConfig& config);

    //
    // Lanes: the interface a Cache's core side has.
    //
    bool laneReady(uint32_t) const { return !input_.full(); }
    void
    lanePush(uint32_t lane, const CoreReq& req)
    {
        input_.push({req, lane});
    }
    /** Receives each read's response on the lane the read came in on. */
    void setRspCallback(std::function<void(const CoreRsp&)> cb)
    {
        rspCallback_ = std::move(cb);
    }
    /** Link an upstream to lane @p lane: @return the port it pushes
     *  into. The lanes share one queue, so whenever the full queue
     *  accepts a transfer, @p owner (if any) is woken with every other
     *  lane's owner. */
    MemSink* link(uint32_t lane, WakeLatch* owner);

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
    /** A request with the lane it came in on, kept with the read while
     *  it is in flight. */
    struct LaneReq
    {
        CoreReq req;
        uint32_t lane;
    };
    ElasticQueue<LaneReq> input_;
    std::vector<Cycle> channelFree_; ///< next cycle each channel is free

    struct Inflight
    {
        CoreRsp rsp;
        Cycle readyAt;
    };
    Ring<Inflight> inflight_; ///< reads in acceptance (= readyAt) order

    std::function<void(const CoreRsp&)> rspCallback_;
    std::vector<std::unique_ptr<MemSink>> lanePorts_; ///< link(), by link
    std::vector<WakeLatch*> laneOwners_;              ///< link(), by link
    // Counters, registered in this order at construction (common/stats.h).
    StatGroup stats_{"memsim"};
    uint64_t& ctrReads_ = stats_.counter("reads");
    uint64_t& ctrWrites_ = stats_.counter("writes");
    uint64_t& ctrBytes_ = stats_.counter("bytes");
    uint64_t& ctrResponses_ = stats_.counter("responses");
};

} // namespace vortex::mem
