/**
 * @file
 * A FIFO ring over a power-of-two buffer that only ever grows.
 *
 * Every stage queue of the pipeline (elastic queues, latency pipes, the
 * cache's replay/fill/response queues, the staging ports) used to sit on
 * std::deque, whose libstdc++ nodes hold at most 512 bytes: a queue of
 * 300-byte entries allocated a node on almost every push and freed it on
 * the matching pop. A Ring keeps its slots for its whole life, so once a
 * queue has reached its high-water mark it never touches the heap again.
 * Popped slots keep their (moved-from) objects; they are assigned over on
 * the next push.
 */

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.h"

namespace vortex {

/** FIFO ring with amortised O(1) push_back and O(1) pop_front. */
template <typename T>
class Ring
{
  public:
    /** An empty ring with no storage. */
    Ring() = default;

    /** An empty ring with room for @p capacity entries before it grows. */
    explicit Ring(size_t capacity) { reserve(capacity); }

    bool empty() const { return size_ == 0; } ///< no entries?
    size_t size() const { return size_; }     ///< entries queued

    /** Grow the buffer to hold at least @p capacity entries. */
    void
    reserve(size_t capacity)
    {
        if (capacity <= slots_.size())
            return;
        size_t grown = slots_.empty() ? 1 : slots_.size();
        while (grown < capacity)
            grown *= 2;
        std::vector<T> slots(grown);
        for (size_t i = 0; i < size_; ++i)
            slots[i] = std::move((*this)[i]);
        slots_ = std::move(slots);
        head_ = 0;
    }

    /** Append a slot at the back (growing the buffer when full) and
     *  return it as its last occupant left it, payload capacity
     *  included: the caller assigns every field it later reads. */
    T&
    appendSlot()
    {
        if (size_ == slots_.size())
            reserve(size_ + 1);
        return (*this)[size_++];
    }

    /** Append @p v at the back. */
    void push_back(const T& v) { appendSlot() = v; }
    /** Move-append @p v at the back. */
    void push_back(T&& v) { appendSlot() = std::move(v); }

    /** The @p i-th entry from the front (0 = oldest). */
    T&
    operator[](size_t i)
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    /** Oldest entry; the ring must not be empty. */
    T& front() { return slots_[head_]; }
    /** Const view of the oldest entry; the ring must not be empty. */
    const T& front() const { return slots_[head_]; }

    /** Drop the oldest entry; the ring must not be empty. */
    void
    pop_front()
    {
        if (size_ == 0)
            panic("pop_front of an empty ring");
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
    }

    /** Drop every entry, keeping the buffer. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::vector<T> slots_; ///< power-of-two sized (or empty)
    size_t head_ = 0;      ///< index of the oldest entry
    size_t size_ = 0;
};

} // namespace vortex
