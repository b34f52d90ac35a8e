/**
 * @file
 * Bit-manipulation helpers used by the ISA layer, the cache geometry
 * computations, and the texture address generator.
 */

#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

#include "common/types.h"

namespace vortex {

/** @return true iff @p x is a power of two (zero is not). */
constexpr bool
isPow2(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** @return ceil(log2(x)); log2Ceil(1) == 0. */
constexpr uint32_t
log2Ceil(uint64_t x)
{
    assert(x != 0);
    uint32_t r = 0;
    uint64_t v = 1;
    while (v < x) {
        v <<= 1;
        ++r;
    }
    return r;
}

/** @return floor(log2(x)); undefined for x == 0. */
constexpr uint32_t
log2Floor(uint64_t x)
{
    assert(x != 0);
    uint32_t r = 0;
    while (x >>= 1)
        ++r;
    return r;
}

/** Extract bits [lo, lo+len) of @p value. */
constexpr uint32_t
bits(uint32_t value, uint32_t lo, uint32_t len)
{
    assert(len <= 32);
    if (len == 32)
        return value >> lo;
    return (value >> lo) & ((1u << len) - 1u);
}

/** Sign-extend the low @p width bits of @p value to 32 bits. */
constexpr int32_t
sext(uint32_t value, uint32_t width)
{
    assert(width >= 1 && width <= 32);
    if (width == 32)
        return static_cast<int32_t>(value);
    uint32_t sign = 1u << (width - 1);
    uint32_t mask = (1u << width) - 1u;
    uint32_t v = value & mask;
    return static_cast<int32_t>((v ^ sign) - sign);
}

/** @return a mask with the low @p n bits set (n may be 32). */
constexpr uint32_t
maskLow(uint32_t n)
{
    assert(n <= 32);
    return n == 32 ? ~0u : ((1u << n) - 1u);
}

/** Population count over a plain mask word. */
constexpr uint32_t
popcount(uint64_t x)
{
    return static_cast<uint32_t>(std::popcount(x));
}

/** Index of the least-significant set bit; undefined for x == 0. */
constexpr uint32_t
ctz(uint64_t x)
{
    assert(x != 0);
    return static_cast<uint32_t>(std::countr_zero(x));
}

/** Round @p value up to the next multiple of @p align (a power of two). */
constexpr uint64_t
alignUp(uint64_t value, uint64_t align)
{
    assert(isPow2(align));
    return (value + align - 1) & ~(align - 1);
}

/** @return true iff @p value is aligned to @p align (a power of two). */
constexpr bool
isAligned(uint64_t value, uint64_t align)
{
    assert(isPow2(align));
    return (value & (align - 1)) == 0;
}

} // namespace vortex
