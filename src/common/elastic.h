/**
 * @file
 * Elastic pipeline building blocks (paper §4.4).
 *
 * Vortex enforces an elastic valid/ready handshake across every RTL
 * component; we mirror that in the simulator so back-pressure propagates the
 * same way it does in the hardware. Two primitives cover all uses:
 *
 *  - ElasticQueue<T>: a bounded FIFO with the valid/ready protocol. A
 *    producer may push() while !full(); a consumer may pop() while !empty().
 *    Like the skid-buffered hardware queues, a push and a pop may both happen
 *    in the same simulated cycle.
 *
 *  - LatencyPipe<T>: a fixed-latency shift pipeline modelling a fully
 *    pipelined functional unit (one new entry per cycle, results emerge
 *    `latency` cycles later into an output queue).
 *
 * The paper's elastic tags (Figure 7) route responses back to their
 * requester; here a request's `reqId` does that, and instruction tracing
 * goes through core::TraceEvent (core/trace.h). A request record carries
 * only fields that something reads.
 */

#pragma once

#include <cstdint>
#include <utility>

#include "common/log.h"
#include "common/ring.h"
#include "common/types.h"

namespace vortex {

/**
 * Bounded FIFO with elastic (valid/ready) semantics.
 *
 * capacity() == 0 is disallowed; a queue of capacity 1 behaves like a
 * single pipeline register with back-pressure.
 */
template <typename T>
class ElasticQueue
{
  public:
    /** A queue of @p capacity entries (>= 1, panics otherwise); @p name
     *  appears in protocol-violation panics. */
    explicit ElasticQueue(size_t capacity, const char* name = "queue")
        : q_(capacity), capacity_(capacity), name_(name)
    {
        if (capacity == 0)
            panic("ElasticQueue '", name, "' must have capacity >= 1");
    }

    /** Producer side: ready signal. */
    bool full() const { return q_.size() >= capacity_; }

    /** Consumer side: valid signal. */
    bool empty() const { return q_.empty(); }

    /** Entries currently queued. */
    size_t size() const { return q_.size(); }
    /** Maximum entries (the constructor argument). */
    size_t capacity() const { return capacity_; }
    /** Diagnostic name used in panics. */
    const char* name() const { return name_; }

    /** In-place push; caller must have checked !full(). The returned
     *  slot holds what its last occupant left (payload capacity
     *  included), so the caller assigns every field it reads back. */
    T&
    pushSlot()
    {
        if (full())
            panic("push to full elastic queue '", name_, "'");
        return q_.appendSlot();
    }

    /** Push; caller must have checked !full(). */
    void push(const T& v) { pushSlot() = v; }
    /** Move-push; caller must have checked !full(). */
    void push(T&& v) { pushSlot() = std::move(v); }

    /** Front element; caller must have checked !empty(). */
    T&
    front()
    {
        if (empty())
            panic("front of empty elastic queue '", name_, "'");
        return q_.front();
    }

    /** Const view of the front element; caller must have checked
     *  !empty(). */
    const T&
    front() const
    {
        if (empty())
            panic("front of empty elastic queue '", name_, "'");
        return q_.front();
    }

    /** Pop the front element; caller must have checked !empty(). */
    T
    pop()
    {
        if (empty())
            panic("pop of empty elastic queue '", name_, "'");
        T v = std::move(q_.front());
        q_.pop_front();
        return v;
    }

    /** Drop every queued entry (reset path). */
    void clear() { q_.clear(); }

  private:
    Ring<T> q_; ///< reserved to capacity_ up front: never grows
    size_t capacity_;
    const char* name_;
};

/**
 * Fixed-latency fully-pipelined stage: after `latency` ticks an entry
 * appears at the output. The owner drains the output each cycle and
 * applies its own back-pressure policy before enqueue; a component may
 * enqueue several entries in one cycle (the scratchpad accepts one per
 * bank), so the ring grows to the pipe's high-water mark.
 */
template <typename T>
class LatencyPipe
{
  public:
    /** A pipe whose entries emerge @p latency cycles after enqueue
     *  (>= 1, panics otherwise). */
    explicit LatencyPipe(uint32_t latency)
        : inflight_(latency), latency_(latency)
    {
        if (latency == 0)
            panic("LatencyPipe latency must be >= 1");
    }

    /** Enter a new element this cycle, filled in place: the returned
     *  slot holds what its last occupant left (payload capacity
     *  included), so the caller assigns every field it reads back. */
    T&
    enqueueSlot(Cycle now)
    {
        Entry& e = inflight_.appendSlot();
        e.readyAt = now + latency_;
        return e.value;
    }

    /** The oldest element if its latency has elapsed, else nullptr; it
     *  stays in the pipe until pop(). */
    T*
    readyFront(Cycle now)
    {
        return !inflight_.empty() && inflight_.front().readyAt <= now
                   ? &inflight_.front().value
                   : nullptr;
    }

    /** Drop the oldest element. */
    void pop() { inflight_.pop_front(); }

    /** Nothing in flight? */
    bool empty() const { return inflight_.empty(); }
    /** Cycle the oldest entry emerges (kNoEvent when the pipe is
     *  empty); entries emerge in enqueue order, so no later one is
     *  sooner. */
    Cycle
    nextReadyAt() const
    {
        return inflight_.empty() ? kNoEvent : inflight_.front().readyAt;
    }
    /** Entries still traversing the pipe. */
    size_t size() const { return inflight_.size(); }
    /** The fixed traversal latency in cycles. */
    uint32_t latency() const { return latency_; }

  private:
    struct Entry
    {
        T value{};
        Cycle readyAt = 0;
    };

    Ring<Entry> inflight_;
    uint32_t latency_;
};

} // namespace vortex
