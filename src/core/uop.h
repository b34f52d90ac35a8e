/**
 * @file
 * Micro-operation record travelling the core pipeline, and the result of
 * functional execution (the simulator executes instruction semantics at
 * dispatch, SimX-style; the timing model then decides when the results
 * become architecturally visible via the scoreboard).
 *
 * The per-thread payloads are SmallVecs sized for the common machine
 * geometries, so executing and retiring an instruction allocates nothing
 * on the host heap (common/small_vec.h); wider machines spill once per
 * arena slot, which keeps the capacity for its next uop.
 */

#pragma once

#include <cstdint>

#include "common/small_vec.h"
#include "common/types.h"
#include "isa/isa.h"
#include "tex/texunit.h"

namespace vortex::core {

/** Inline lane capacity of the per-thread uop payloads: covers every
 *  machine up to 8 threads/wavefront without heap traffic. */
constexpr size_t kUopInlineLanes = 8;

/** Outcome of functionally executing one instruction for one wavefront. */
struct ExecOut
{
    uint64_t tmask = 0; ///< thread mask at execution time

    //
    // Register writeback.
    //
    bool hasDst = false;      ///< the instruction writes a register
    isa::RegRef dst;          ///< destination register (when hasDst)
    /** Per-thread writeback values; valid where tmask bit set. */
    SmallVec<Word, kUopInlineLanes> values;

    //
    // Memory access (loads and stores).
    //
    bool isMem = false;       ///< load/store through the LSU
    bool memWrite = false;    ///< store (vs load)
    bool memShared = false;   ///< routed to the scratchpad
    /** Per-thread access addresses; valid where tmask bit set. */
    SmallVec<Addr, kUopInlineLanes> addrs;

    //
    // Texture access.
    //
    bool isTex = false;    ///< `tex` instruction (texture-unit path)
    uint32_t texStage = 0; ///< sampler pipeline stage selector
    /** Per-lane sample requests (same inline capacity as TexRequest). */
    tex::TexLaneVec texLanes;

    //
    // Wavefront scheduling events.
    //
    bool haltWarp = false;  ///< tmc 0 / ecall / ebreak
    bool isBarrier = false; ///< `bar` arrival
    bool barrierGlobal = false; ///< inter-core (global) barrier scope
    uint32_t barrierId = 0;     ///< barrier identifier
    uint32_t barrierCount = 0;  ///< wavefront arrivals expected
    bool isFence = false; ///< completes only when the LSU/D$ drain

    /** Reset to the default-constructed state while keeping any payload
     *  capacity, so a reused arena slot re-executes without
     *  reallocating. */
    void
    reset()
    {
        tmask = 0;
        hasDst = false;
        dst = {};
        values.clear();
        isMem = false;
        memWrite = false;
        memShared = false;
        addrs.clear();
        isTex = false;
        texStage = 0;
        texLanes.clear();
        haltWarp = false;
        isBarrier = false;
        barrierGlobal = false;
        barrierId = 0;
        barrierCount = 0;
        isFence = false;
    }
};

/** One in-flight instruction. It lives in its core's uop arena from
 *  fetch to retire; the stage queues carry its UopHandle. */
struct Uop
{
    isa::Instr instr; ///< the decoded instruction
    Addr pc = 0;      ///< its PC
    WarpId wid = 0;   ///< issuing wavefront
    uint64_t uid = 0; ///< unique instruction id (trace tag)
    /** Cycle it leaves its timed stage (the decode queue, an FU pipe). */
    Cycle readyAt = 0;

    //
    // LSU progress: in-order lane issue, out-of-order completion.
    //
    uint64_t lanesToIssue = 0; ///< thread bits not yet sent
    uint32_t pendingRsps = 0;  ///< lane responses outstanding
    bool memDone = false;      ///< every lane answered: ready to retire

    ExecOut out; ///< functional results awaiting commit
};

/** A uop's slot in its core's arena (SlotPool<Uop>::Handle). */
using UopHandle = uint16_t;

} // namespace vortex::core
