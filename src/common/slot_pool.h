/**
 * @file
 * Generation-tagged freelist slot pool for in-flight request tracking.
 *
 * The simulator's request/response matching used to round-trip an
 * unordered_map<reqId, payload> per in-flight request (pending fetches,
 * LSU responses, texture batches, cache fills): one hash insert at issue
 * and one probe + erase at completion, on every simulated event. A
 * SlotPool instead *encodes the slot index in the reqId it hands out*,
 * so completion is an array index. A 24-bit generation tag stored beside
 * each slot (and echoed in the id) preserves the map's error checking:
 * a stale or mismatched id panics exactly like the old "unmatched
 * response" paths, instead of silently aliasing a recycled slot.
 *
 * Id layout (64-bit): `base | generation << 16 | index`. The caller's
 * @p base occupies bits >= 40 and keeps ids from different pools of one
 * component disjoint — e.g. the Core tags each pool with a request-kind
 * nibble. Ids of different components may coincide: a cache's fill ids
 * use base 0, because every response returns on the lane of the cache
 * that issued it (mem/memtypes.h "link rule"). 16 index bits are
 * ample (in-flight populations are queue-depth bounded), buying a
 * 24-bit generation: the stale-id check only false-negatives if one
 * slot is recycled exactly a multiple of 2^24 times between a request
 * and its duplicate/stale completion — probabilistic where the old maps
 * were exact, but astronomically far from any real in-flight window.
 *
 * The same pool doubles as an arena (acquire/release by 16-bit handle):
 * each core keeps every in-flight uop in one, queues carry handles, and
 * the ids it hands the I-cache and texture unit are redeemed, not taken,
 * so the uop stays put while its stale or duplicate responses panic.
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.h"

namespace vortex {

/** Freelist pool of T payloads addressed by generation-tagged ids. */
template <typename T>
class SlotPool
{
  public:
    /** A pool whose ids carry @p base in the bits above the index and
     *  generation fields (base must not intrude below bit 40); @p name
     *  appears in stale-id panics. */
    explicit SlotPool(uint64_t base = 0, const char* name = "slot_pool")
        : base_(base), name_(name)
    {
        if (base & ((1ull << 40) - 1))
            panic("SlotPool '", name,
                  "': base intrudes on index/generation bits");
    }

    /** Store @p value in a free slot and return its request id. */
    uint64_t
    alloc(T&& value)
    {
        const Handle index = acquire();
        slots_[index].value = std::move(value);
        return idOf(index);
    }

    /** The payload of @p id; panics on a stale or foreign id. */
    T&
    at(uint64_t id)
    {
        return slots_[check(id)].value;
    }

    /** Remove and return the payload of @p id; the slot is recycled
     *  under a bumped generation, so a duplicate completion panics. */
    T
    take(uint64_t id)
    {
        const Handle index = check(id);
        T value = std::move(slots_[index].value);
        slots_[index].value = T{};
        release(index);
        return value;
    }

    //
    // Arena use: a slot is addressed by its 16-bit index (a handle) for
    // as long as it is live, and its payload stays in place from
    // acquire() to release(), keeping whatever capacity its previous
    // occupant grew.
    //
    using Handle = uint16_t; ///< slot index of a live entry

    /** Claim a free slot and return its handle. Its payload is what its
     *  previous occupant left: the caller overwrites what it reads. */
    Handle
    acquire()
    {
        uint32_t index;
        if (!freelist_.empty()) {
            index = freelist_.back();
            freelist_.pop_back();
        } else {
            index = static_cast<uint32_t>(slots_.size());
            if (index >= (1u << 16))
                panic("SlotPool '", name_, "': slot space exhausted");
            slots_.emplace_back();
        }
        slots_[index].live = true;
        ++live_;
        return static_cast<Handle>(index);
    }

    /** The payload of live slot @p index. */
    T& operator[](Handle index) { return slots_[index].value; }
    /** Const view of the payload of live slot @p index. */
    const T& operator[](Handle index) const { return slots_[index].value; }

    /** The request id naming live slot @p index under its current
     *  generation. */
    uint64_t
    idOf(Handle index) const
    {
        return base_ |
               (static_cast<uint64_t>(slots_[index].generation) << 16) |
               index;
    }

    /** Redeem request id @p id of a live slot, which stays live: its
     *  generation is bumped, so @p id (a duplicate response) and every
     *  earlier id of the slot panic from now on. @return its handle. */
    Handle
    redeem(uint64_t id)
    {
        const Handle index = check(id);
        bump(slots_[index]);
        return index;
    }

    /** Free live slot @p index, leaving its payload in place; its ids
     *  turn stale. */
    void
    release(Handle index)
    {
        Slot& s = slots_[index];
        s.live = false;
        bump(s);
        freelist_.push_back(index);
        --live_;
    }

    /** Number of live (allocated, not yet taken) entries. */
    size_t size() const { return live_; }
    /** No live entries? */
    bool empty() const { return live_ == 0; }

    /** Drop every live entry (reset path); their ids become stale. */
    void
    clear()
    {
        freelist_.clear();
        for (uint32_t i = 0; i < slots_.size(); ++i) {
            Slot& s = slots_[i];
            if (s.live) {
                s.live = false;
                bump(s);
                s.value = T{};
            }
            freelist_.push_back(i);
        }
        live_ = 0;
    }

  private:
    struct Slot
    {
        T value{};
        uint32_t generation = 0; ///< 24-bit, wraps
        bool live = false;
    };

    /** Retire every id issued so far for @p s. */
    static void
    bump(Slot& s)
    {
        s.generation = (s.generation + 1) & 0xFFFFFF;
    }

    /** The index of live slot @p id; panics on a stale or foreign id. */
    Handle
    check(uint64_t id) const
    {
        uint32_t index = static_cast<uint32_t>(id & 0xFFFF);
        uint32_t gen = static_cast<uint32_t>((id >> 16) & 0xFFFFFF);
        if ((id & ~0xFFFFFFFFFFull) != base_ || index >= slots_.size() ||
            !slots_[index].live || slots_[index].generation != gen)
            panic("SlotPool '", name_, "': unmatched request id ", id);
        return static_cast<Handle>(index);
    }

    uint64_t base_;
    const char* name_;
    std::vector<Slot> slots_;
    std::vector<uint32_t> freelist_; ///< indices ready for reuse
    size_t live_ = 0;
};

} // namespace vortex
