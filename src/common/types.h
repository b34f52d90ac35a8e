/**
 * @file
 * Fundamental scalar types shared across the vortex-sim codebase.
 */

#pragma once

#include <cstdint>

namespace vortex {

/** Machine word of the simulated RV32 architecture. */
using Word = uint32_t;

/** Signed view of a machine word. */
using WordS = int32_t;

/** Double-width word, used by MUL/DIV helpers. */
using DWord = uint64_t;
/** Signed view of a double-width word. */
using DWordS = int64_t;

/** Byte address in the simulated physical address space. */
using Addr = uint32_t;

/** Simulation time expressed in core clock cycles. */
using Cycle = uint64_t;

/** The cycle of an event that is not scheduled (no timer pending). */
constexpr Cycle kNoEvent = ~Cycle{0};

//
// Dense identifier types (kept distinct for readability, not safety).
//
using WarpId = uint32_t;   ///< wavefront index within a core
using ThreadId = uint32_t; ///< thread lane index within a wavefront
using CoreId = uint32_t;   ///< core index within the device
using RegId = uint8_t;     ///< architectural register index (0-31)

} // namespace vortex
