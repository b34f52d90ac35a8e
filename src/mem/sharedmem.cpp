/**
 * @file
 * Shared-memory scratchpad implementation.
 */

#include "mem/sharedmem.h"

#include <algorithm>

#include "common/bitmanip.h"
#include "common/log.h"

namespace vortex::mem {

SharedMem::SharedMem(const SharedMemConfig& config)
    : config_(config), pipe_(config.latency), bankBusy_(config.numBanks, 0)
{
    if (!isPow2(config.numBanks))
        fatal("SharedMem: numBanks must be a power of two");
    lanes_.reserve(config.numLanes);
    for (uint32_t l = 0; l < config.numLanes; ++l)
        lanes_.emplace_back(config.laneQueueDepth, "sharedmem.lane");
}

void
SharedMem::lanePush(uint32_t lane, const CoreReq& req)
{
    lanes_.at(lane).push(req);
    ++pendingLaneReqs_;
    ++(req.write ? ctrWrites_ : ctrReads_);
}

bool
SharedMem::tick(Cycle now)
{
    // Emit matured responses.
    bool moved = false;
    while (const CoreRsp* rsp = pipe_.readyFront(now)) {
        if (rspCallback_)
            rspCallback_(*rsp);
        pipe_.pop();
        moved = true;
    }

    // Arbitrate: each bank services at most one lane per cycle, so any
    // queued request means the first one is accepted. Skip the lane scan
    // entirely on the (common) cycles with nothing queued.
    if (pendingLaneReqs_ == 0)
        return moved;
    std::fill(bankBusy_.begin(), bankBusy_.end(), 0);
    for (uint32_t l = 0; l < lanes_.size(); ++l) {
        auto& lane = lanes_[l];
        if (lane.empty())
            continue;
        const CoreReq& req = lane.front();
        uint32_t b = bankOf(req.addr);
        ++ctrCandidates_;
        if (bankBusy_[b]) {
            ++ctrBankConflicts_;
            continue;
        }
        bankBusy_[b] = 1;
        pipe_.enqueueSlot(now) = CoreRsp{req.reqId, l, req.write};
        ++ctrAccesses_;
        lane.pop();
        --pendingLaneReqs_;
    }
    return true;
}

bool
SharedMem::idle() const
{
    if (!pipe_.empty())
        return false;
    for (const auto& lane : lanes_) {
        if (!lane.empty())
            return false;
    }
    return true;
}

} // namespace vortex::mem
