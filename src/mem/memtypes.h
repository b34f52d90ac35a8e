/**
 * @file
 * Request/response types shared by the memory hierarchy.
 *
 * The simulator keeps a functional/timing split (DESIGN.md §4.2): data values
 * are computed functionally at execute time, so cache traffic carries only
 * addresses, access types, and elastic trace tags. A response completes the
 * instruction that issued the request (matched by reqId).
 */

#pragma once

#include <cstdint>

#include "common/elastic.h"
#include "common/types.h"

namespace vortex::mem {

/** A single-word core-side request (one LSU lane). */
struct CoreReq
{
    Addr addr = 0;
    bool write = false;
    uint64_t reqId = 0; ///< unique id used to match the response
    uint32_t lane = 0;  ///< issuing lane; echoed in the response
    Tag tag;            ///< elastic trace tag (PC + wavefront id)
};

/** Core-side response. */
struct CoreRsp
{
    uint64_t reqId = 0;
    uint32_t lane = 0;
    bool write = false; ///< completion of a store (no data); cache-to-cache
                        ///< links drop these, the LSU consumes them
    Tag tag;
};

/** A memory-side (line granular) request. */
struct MemReq
{
    Addr lineAddr = 0; ///< aligned to the line size
    bool write = false;
    uint64_t reqId = 0;
    Tag tag;
};

/** Memory-side response (only reads produce responses). */
struct MemRsp
{
    uint64_t reqId = 0;
    Tag tag;
};

/**
 * Wake latch of a component that sleeps through quiescent cycles (the
 * dormant-core tick, ARCHITECTURE.md "Dormant cores"). The sleeper stores
 * the first cycle it must tick for real; every producer that can change
 * one of the sleeper's inputs calls wake() so it ticks on its next cycle.
 * Wakes happen only in the serial phases of Processor::tick, so both tick
 * backends see them at the same cycle.
 */
struct WakeLatch
{
    Cycle sleepUntil = 0; ///< first cycle the owner must tick for real
    void wake() { sleepUntil = 0; } ///< tick the owner on its next cycle
};

/**
 * Downstream interface exposed by anything that accepts line requests
 * (MemSim, or the mem-side of a larger cache). Responses are delivered via a
 * callback registered by the single upstream client.
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

} // namespace vortex::mem
