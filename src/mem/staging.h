/**
 * @file
 * Producer-local staging for requests into shared memory fabric.
 *
 * Anything a core pushed into a *shared* component (a lane of an L2, the
 * L3 or the board memory) during its tick would be seen by the siblings that
 * tick after it in the same cycle, so timing would depend on the order the
 * cores tick in. A StagedMemPort sits between each L1's memory side and
 * the shared downstream sink: pushes land in a buffer owned by the
 * producer, and the Processor drains every buffer in core order in a
 * commit phase at the end of the cycle. So every core order sees the same
 * request stream (core::Processor::setReverseCoreOrder checks it).
 *
 * Timing-model note: relative to the pre-staging simulator, producers
 * observe shared-sink occupancy as of the start of the core phase rather
 * than mid-phase, so under contention a core may stage a request one cycle
 * earlier than it would previously have left the L1. This is a uniform,
 * deterministic refinement of the timing model.
 */

#pragma once

#include "common/ring.h"
#include "mem/memtypes.h"

namespace vortex::mem {

/** A MemSink front that defers pushes to a serial drain() phase. */
class StagedMemPort final : public MemSink
{
  public:
    /**
     * @param down  the shared downstream sink (owned elsewhere)
     * @param depth staging capacity cap; sized to the producer's
     *              memory-queue depth so staging never throttles below the
     *              downstream's own acceptance rate
     * @param owner the producer's core, woken when drain() returns credit
     */
    StagedMemPort(MemSink* down, size_t depth, WakeLatch* owner)
        : down_(down), depth_(depth), owner_(owner), staged_(depth)
    {
    }

    // MemSink (called from the producer during its tick).
    // Consulting down_->reqReady() here is deterministic: shared sinks
    // are only *mutated* outside the core phase, so during it every
    // producer reads the same start-of-cycle snapshot. It also
    // keeps downstream back-pressure visible to the producer in the same
    // cycle instead of adding a full staging buffer of slack.
    bool
    reqReady() const override
    {
        return staged_.size() < depth_ && down_->reqReady();
    }

    void reqPush(const MemReq& req) override { staged_.push_back(req); }

    /** Commit phase: forward staged requests while the sink accepts.
     *  Leftovers keep back-pressuring the producer via reqReady(); a full
     *  buffer that drains returns credit, which wakes the owner. */
    void
    drain()
    {
        const size_t before = staged_.size();
        while (!staged_.empty() && down_->reqReady()) {
            down_->reqPush(staged_.front());
            staged_.pop_front();
        }
        if (before >= depth_ && staged_.size() < before)
            owner_->wake();
    }

    bool empty() const { return staged_.empty(); }

  private:
    MemSink* down_;
    size_t depth_;
    WakeLatch* owner_; ///< the producer's core
    Ring<MemReq> staged_;
};

} // namespace vortex::mem
