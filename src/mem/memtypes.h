/**
 * @file
 * Request/response types shared by the memory hierarchy.
 *
 * The simulator keeps a functional/timing split (DESIGN.md §4.2): data values
 * are computed functionally at execute time, so cache traffic carries only
 * addresses, access types and request ids. A response completes the
 * instruction that issued the request (matched by reqId).
 *
 * Levels compose by one link rule. An upstream cache's memory side enters
 * lane l of its downstream, a shared Cache or the board memory (MemSim),
 * through the CacheMemPort that the downstream's link() returns. The
 * downstream answers each read on lane l. When it has room on lane l
 * again, it wakes lane l's owner; the board memory has one queue for all
 * its lanes, so it wakes every lane's owner. The lane tells the upstreams
 * apart, so a request id need only be unique within the pool that issued
 * it.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/elastic.h"
#include "common/stats.h"
#include "common/types.h"

namespace vortex::mem {

/** A single-word core-side request (one LSU lane). */
struct CoreReq
{
    Addr addr = 0;
    bool write = false;
    uint64_t reqId = 0; ///< unique id used to match the response
};

/** Core-side response, on the lane its request was pushed to. */
struct CoreRsp
{
    uint64_t reqId = 0;
    uint32_t lane = 0;
    bool write = false; ///< completion of a store (no data); cache-to-cache
                        ///< links drop these, the LSU consumes them
};

/** A memory-side (line granular) request. */
struct MemReq
{
    Addr lineAddr = 0; ///< aligned to the line size
    bool write = false;
    uint64_t reqId = 0;
};

/** Memory-side response (only reads produce responses). */
struct MemRsp
{
    uint64_t reqId = 0;
};

/**
 * Wake latch of a component that sleeps through quiescent cycles (a
 * dormant core or shared cache, ARCHITECTURE.md "Dormant cores and
 * caches"). The sleeper stores the first cycle it must tick for real;
 * every producer that can change one of the sleeper's inputs calls
 * wake() so it ticks on its next cycle. A sleeping core or shared cache
 * is woken only outside the core phase of Processor::tick, so the order
 * the cores tick in cannot move a wake to another cycle.
 */
struct WakeLatch
{
    Cycle sleepUntil = 0; ///< first cycle the owner must tick for real
    void wake() { sleepUntil = 0; } ///< tick the owner on its next cycle
};

/**
 * The sleep bookkeeping of a component that sleeps through quiescent
 * cycles: its WakeLatch, and the @p N stall counters a tick that changes
 * nothing can still bump. The tick loop skips the owner while asleep();
 * the skipped cycles are credited lazily, in one step, when the owner
 * next ticks or when settle() is called, so `cycles()`, dormantCycles()
 * and every stall counter are exact only after a settle.
 */
template <size_t N>
class Dormancy
{
  public:
    explicit Dormancy(std::array<uint64_t*, N> counters)
        : counters_(counters)
    {
    }

    /** Ends a sleep; handed to the owner's producers. */
    WakeLatch latch;

    /** Will the tick loop skip the owner at cycle @p now? */
    bool asleep(Cycle now) const { return now < latch.sleepUntil; }

    /** A real tick at @p now starts: credit the cycles slept before it
     *  and snapshot the stall counters. */
    void
    beginTick(Cycle now)
    {
        if (now > settledAt_ + 1)
            settle(now - 1);
        settledAt_ = now;
        ++cycles_;
        for (size_t i = 0; i < N; ++i)
            before_[i] = *counters_[i];
    }

    /** The tick at @p now changed nothing: sleep until @p wake_at (a
     *  no-op unless that is after the next cycle), re-crediting the
     *  stall-counter increments of this tick for every slept cycle. */
    void
    sleep(Cycle now, Cycle wake_at)
    {
        if (wake_at <= now + 1)
            return;
        for (size_t i = 0; i < N; ++i)
            perCycle_[i] = *counters_[i] - before_[i];
        latch.sleepUntil = wake_at;
    }

    /** Credit every cycle up to @p now that the owner slept through. */
    void
    settle(Cycle now)
    {
        if (now <= settledAt_)
            return;
        const uint64_t n = now - settledAt_;
        settledAt_ = now;
        cycles_ += n;
        dormant_ += n;
        for (size_t i = 0; i < N; ++i)
            *counters_[i] += perCycle_[i] * n;
    }

    /** Cycles accounted so far, ticked or slept. */
    uint64_t cycles() const { return cycles_; }
    /** Of cycles(), those slept through. */
    uint64_t dormantCycles() const { return dormant_; }

  private:
    std::array<uint64_t*, N> counters_;
    std::array<uint64_t, N> before_{};
    /** Each counter's increment in the tick before the sleep, credited
     *  again for every slept cycle. */
    std::array<uint64_t, N> perCycle_{};
    Cycle settledAt_ = 0; ///< last cycle credited (ticked or slept)
    uint64_t cycles_ = 0;
    uint64_t dormant_ = 0;
};

/**
 * Where a cache's memory side pushes its line requests: a CacheMemPort
 * into a lane of the level below, or the StagedMemPort an L1 stages
 * through. Responses come back outside this interface (Cache::memRsp).
 */
class MemSink
{
  public:
    virtual ~MemSink() = default;

    /** May a request be pushed this cycle? */
    virtual bool reqReady() const = 0;

    /** Push a request; caller must have checked reqReady(). */
    virtual void reqPush(const MemReq& req) = 0;
};

/**
 * Lane @p lane of a downstream @p Down (a shared Cache or the board
 * memory, MemSim) as a MemSink: the memory side of the upstream cache
 * linked to that lane pushes its line requests through it. Made and
 * owned by Down::link().
 */
template <class Down>
class CacheMemPort final : public MemSink
{
  public:
    CacheMemPort(Down& down, uint32_t lane) : down_(down), lane_(lane) {}

    bool reqReady() const override { return down_.laneReady(lane_); }

    void
    reqPush(const MemReq& req) override
    {
        down_.lanePush(lane_, CoreReq{req.lineAddr, req.write, req.reqId});
    }

  private:
    Down& down_;
    uint32_t lane_;
};

} // namespace vortex::mem
