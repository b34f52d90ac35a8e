/**
 * @file
 * Memory simulator implementation.
 */

#include "mem/memsim.h"

#include <algorithm>

#include "common/bitmanip.h"
#include "common/log.h"

namespace vortex::mem {

MemSim::MemSim(const MemSimConfig& config)
    : config_(config),
      lineCycles_(std::max(1u, config.lineSize / std::max(1u,
                                                          config.busWidth))),
      input_(config.queueDepth, "memsim.input"),
      channelFree_(config.numChannels, 0)
{
    if (config.numChannels == 0)
        fatal("MemSim: numChannels must be >= 1");
    if (!isPow2(config.numChannels))
        fatal("MemSim: numChannels must be a power of two");
    if (!isPow2(config.lineSize))
        fatal("MemSim: lineSize must be a power of two");
}

MemSink*
MemSim::link(uint32_t lane, WakeLatch* owner)
{
    if (owner)
        laneOwners_.push_back(owner);
    lanePorts_.push_back(std::make_unique<CacheMemPort<MemSim>>(*this, lane));
    return lanePorts_.back().get();
}

uint32_t
MemSim::channelOf(Addr lineAddr) const
{
    return (lineAddr / config_.lineSize) & (config_.numChannels - 1);
}

void
MemSim::tick(Cycle now)
{
    if (idle())
        return;
    // Accept new transfers onto free channels. Head-of-line blocking per the
    // single input queue is intentional: the board controller has one
    // request port (CCI-P style).
    const bool was_full = input_.full();
    while (!input_.empty()) {
        const auto& [req, lane] = input_.front();
        uint32_t ch = channelOf(req.addr);
        if (channelFree_[ch] > now)
            break;
        channelFree_[ch] = now + lineCycles_;
        ++(req.write ? ctrWrites_ : ctrReads_);
        ctrBytes_ += config_.lineSize;
        if (!req.write) {
            inflight_.push_back({CoreRsp{req.reqId, lane},
                                 now + config_.latency + lineCycles_});
        }
        input_.pop();
    }
    if (was_full && !input_.full()) {
        for (WakeLatch* owner : laneOwners_)
            owner->wake();
    }

    // Deliver matured responses (kept sorted by construction: latency is
    // constant, so readyAt values are non-decreasing).
    while (!inflight_.empty() && inflight_.front().readyAt <= now) {
        if (rspCallback_)
            rspCallback_(inflight_.front().rsp);
        ++ctrResponses_;
        inflight_.pop_front();
    }
}

} // namespace vortex::mem
