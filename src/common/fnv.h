/**
 * @file
 * FNV-1a 64, the one content hash of the simulator: run-spec content
 * hashes (sweep/spec.cpp) and `memcmp` check windows
 * (runtime/workloads.cpp) both feed it, a chunk at a time.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace vortex {

/** Incremental FNV-1a 64: feeding bytes in pieces gives the same value
 *  as feeding them at once. */
class Fnv1a64
{
  public:
    /** Fold @p size bytes at @p data into the hash. */
    void
    bytes(const void* data, size_t size)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (size_t i = 0; i < size; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }

    /** Fold the characters of @p s into the hash. */
    void text(std::string_view s) { bytes(s.data(), s.size()); }

    /** The hash of everything fed so far. */
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace vortex
