/**
 * @file
 * Wavefront barrier tables (paper §4.1.3). Each entry tracks the count of
 * wavefronts still expected and the mask of wavefronts stalled at the
 * barrier; when the count reaches the expected number the mask releases the
 * stalled wavefronts. The MSB of the barrier id selects global scope
 * (inter-core); the global table lives in the Processor and counts
 * (core, wavefront) arrivals.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/bitmanip.h"
#include "common/log.h"
#include "common/types.h"

namespace vortex::core {

/** Barrier id bit selecting inter-core scope. */
constexpr uint32_t kBarrierGlobalBit = 0x80000000u;

/** Local (intra-core) barrier table. The few barriers pending at once
 *  sit in a vector that keeps its capacity, so a barrier allocates
 *  nothing once the table has warmed up. */
class BarrierTable
{
  public:
    /**
     * A wavefront arrives at barrier @p id expecting @p count wavefronts.
     * @return the mask of wavefronts to release (0 while waiting; includes
     * the arriving wavefront when the barrier fires).
     */
    uint64_t
    arrive(uint32_t id, uint32_t count, WarpId wid)
    {
        auto it = entries_.begin();
        while (it != entries_.end() && it->id != id)
            ++it;
        if (it == entries_.end())
            it = entries_.insert(it, Entry{id, 0});
        it->mask |= 1ull << wid;
        if (popcount(it->mask) >= count) {
            uint64_t release = it->mask;
            entries_.erase(it);
            return release;
        }
        return 0;
    }

    /** Any barrier with arrivals still pending? */
    bool
    anyWaiting() const
    {
        return !entries_.empty();
    }

    /** Forget every pending barrier (core reset). */
    void clear() { entries_.clear(); }

  private:
    struct Entry
    {
        uint32_t id = 0;
        uint64_t mask = 0;
    };
    std::vector<Entry> entries_; ///< pending barriers
};

/** Global (inter-core) barrier table; counts wavefront arrivals per id.
 *  Entries are reused with their waiter lists, so a barrier allocates
 *  nothing once the table has warmed up. */
class GlobalBarrierTable
{
  public:
    /** One (core, wavefront) pair to release. */
    struct Release
    {
        CoreId core; ///< core whose wavefront is stalled
        WarpId warp; ///< the stalled wavefront
    };

    /**
     * Wavefront @p wid of core @p core arrives at @p id expecting @p count
     * total wavefront arrivals (across cores). @return the wavefronts to
     * release when the barrier fires, empty otherwise; valid until the
     * next arrive().
     */
    const std::vector<Release>&
    arrive(uint32_t id, uint32_t count, CoreId core, WarpId wid)
    {
        Entry* e = nullptr;
        Entry* spare = nullptr;
        for (Entry& x : entries_) {
            if (x.live && x.id == id)
                e = &x;
            else if (!x.live && !spare)
                spare = &x;
        }
        if (!e) {
            e = spare ? spare : &entries_.emplace_back();
            e->id = id;
            e->live = true;
            e->waiters.clear();
        }
        e->waiters.push_back({core, wid});
        if (e->waiters.size() >= count) {
            e->live = false;
            return e->waiters;
        }
        return none_;
    }

    /** Forget every pending barrier (device reset). */
    void
    clear()
    {
        for (Entry& e : entries_)
            e.live = false;
    }

  private:
    struct Entry
    {
        uint32_t id = 0;
        bool live = false; ///< arrivals pending
        std::vector<Release> waiters;
    };
    std::vector<Entry> entries_;
    const std::vector<Release> none_; ///< arrive() result while waiting
};

} // namespace vortex::core
