/**
 * @file
 * Functional backing store: a sparse paged model of the device-local memory
 * (the FPGA board DRAM of the paper). All functional loads/stores and the
 * host-side driver copies go through this object; the timing models only
 * carry addresses.
 *
 * The page table has two levels, so a RAM costs the host in proportion to
 * the memory a run touches: an in-object top level of 256 leaf pointers,
 * each leaf covering 16 MiB as 256 pointers to 64 KiB pages plus one
 * code-page flag per page. A leaf is allocated on the first write (or
 * markCodePage) inside its 16 MiB and a page on the first write inside
 * it, both zeroed; reads of untouched memory return 0 without
 * allocating. Constructing a RAM allocates nothing.
 *
 * A RAM belongs to one simulation, which runs on one host thread.
 * Same-cycle stores to one address from different cores are
 * *program-level* races, exactly the real device's weakly-coherent
 * memory model: the cores tick in core order, so the higher-indexed
 * core's store lands last, but a guest must not rely on that (the
 * reversed core order of core::Processor::setReverseCoreOrder flips it).
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/types.h"

namespace vortex::mem {

/** Sparse RAM covering the full 32-bit physical space (64 KiB pages). */
class Ram
{
  public:
    static constexpr uint32_t kPageBits = 16;
    static constexpr uint32_t kPageSize = 1u << kPageBits;
    static constexpr uint32_t kNumPages = 1u << (32 - kPageBits);
    /** A leaf of the page table maps 2^kLeafBits pages (16 MiB). */
    static constexpr uint32_t kLeafBits = 8;
    static constexpr uint32_t kLeafPages = 1u << kLeafBits;
    static constexpr uint32_t kNumLeaves = kNumPages >> kLeafBits;

    Ram() = default;

    Ram(const Ram&) = delete;
    Ram& operator=(const Ram&) = delete;

    uint8_t read8(Addr addr) const;
    uint16_t read16(Addr addr) const;
    uint32_t read32(Addr addr) const;
    float readFloat(Addr addr) const;

    void write8(Addr addr, uint8_t value);
    void write16(Addr addr, uint16_t value);
    void write32(Addr addr, uint32_t value);
    void writeFloat(Addr addr, float value);

    /** Bulk copy helpers used by the simulated PCIe driver. */
    void writeBlock(Addr addr, const void* src, size_t size);
    void readBlock(Addr addr, void* dst, size_t size) const;

    //
    // Code-page write tracking (decoded-text invalidation hook).
    //
    // A processor's decoded text assumes code is not self-modifying.
    // That assumption is *checked*, not silent: the processor marks the
    // pages of its text (and a core each page it decodes from outside
    // it), any store that lands on a marked page bumps the global
    // code-write epoch, and the text serves a fetch only while the epoch
    // is the one it was decoded at (see core/text.h). Unmarked pages —
    // the overwhelming store traffic — cost one flag load per store.
    //

    /** Mark the page containing @p addr as holding decoded code. */
    void markCodePage(Addr addr) { leaf(addr).code[pageIndex(addr)] = true; }

    /** Monotonic count of stores that hit a marked code page. */
    uint64_t codeWriteEpoch() const { return codeWriteEpoch_; }

    /** Zero everything (drop all pages and code marks). */
    void
    clear()
    {
        for (auto& l : leaves_)
            l.reset();
        ++codeWriteEpoch_;
        numPages_ = 0;
    }

    /** Number of touched pages (for tests). */
    size_t numPages() const { return numPages_; }

  private:
    /** 16 MiB of the address space: its pages and code flags. */
    struct Leaf
    {
        std::array<std::unique_ptr<uint8_t[]>, kLeafPages> pages;
        std::array<bool, kLeafPages> code{}; ///< marked as code
    };

    static uint32_t
    leafIndex(Addr addr)
    {
        return addr >> (kPageBits + kLeafBits);
    }
    static uint32_t
    pageIndex(Addr addr)
    {
        return (addr >> kPageBits) & (kLeafPages - 1);
    }

    /** The leaf covering @p addr, allocating (zeroed) on first touch. */
    Leaf&
    leaf(Addr addr)
    {
        auto& l = leaves_[leafIndex(addr)];
        if (!l)
            l = std::make_unique<Leaf>();
        return *l;
    }

    /** The page backing @p addr, allocating (zeroed) on first touch, for
     *  a store: bumps the code-write epoch first when the page is
     *  marked. */
    uint8_t*
    pageForWrite(Addr addr)
    {
        Leaf& l = leaf(addr);
        const uint32_t i = pageIndex(addr);
        if (l.code[i])
            ++codeWriteEpoch_;
        auto& p = l.pages[i];
        if (!p) {
            p = std::make_unique<uint8_t[]>(kPageSize);
            ++numPages_;
        }
        return p.get();
    }

    /** The page backing @p addr, or nullptr while nothing in it was
     *  written. */
    const uint8_t*
    pageIfPresent(Addr addr) const
    {
        const Leaf* l = leaves_[leafIndex(addr)].get();
        return l ? l->pages[pageIndex(addr)].get() : nullptr;
    }

    std::array<std::unique_ptr<Leaf>, kNumLeaves> leaves_;
    uint64_t codeWriteEpoch_ = 0;
    size_t numPages_ = 0;
};

inline uint8_t
Ram::read8(Addr addr) const
{
    const uint8_t* p = pageIfPresent(addr);
    return p ? p[addr & (kPageSize - 1)] : 0;
}

inline void
Ram::write8(Addr addr, uint8_t value)
{
    pageForWrite(addr)[addr & (kPageSize - 1)] = value;
}

inline uint16_t
Ram::read16(Addr addr) const
{
    return static_cast<uint16_t>(read8(addr)) |
           (static_cast<uint16_t>(read8(addr + 1)) << 8);
}

inline uint32_t
Ram::read32(Addr addr) const
{
    // Fast path: aligned, so the word lies in one page.
    if ((addr & 3) == 0) {
        uint32_t v = 0;
        if (const uint8_t* p = pageIfPresent(addr))
            std::memcpy(&v, p + (addr & (kPageSize - 1)), 4);
        return v;
    }
    return static_cast<uint32_t>(read16(addr)) |
           (static_cast<uint32_t>(read16(addr + 2)) << 16);
}

inline void
Ram::write16(Addr addr, uint16_t value)
{
    write8(addr, value & 0xFF);
    write8(addr + 1, value >> 8);
}

inline void
Ram::write32(Addr addr, uint32_t value)
{
    if ((addr & 3) == 0) {
        std::memcpy(pageForWrite(addr) + (addr & (kPageSize - 1)), &value,
                    4);
        return;
    }
    write16(addr, value & 0xFFFF);
    write16(addr + 2, value >> 16);
}

inline float
Ram::readFloat(Addr addr) const
{
    uint32_t u = read32(addr);
    float f;
    std::memcpy(&f, &u, 4);
    return f;
}

inline void
Ram::writeFloat(Addr addr, float value)
{
    uint32_t u;
    std::memcpy(&u, &value, 4);
    write32(addr, u);
}

inline void
Ram::writeBlock(Addr addr, const void* src, size_t size)
{
    const uint8_t* s = static_cast<const uint8_t*>(src);
    size_t i = 0;
    while (i < size) {
        uint32_t off = (addr + i) & (kPageSize - 1);
        size_t chunk = std::min<size_t>(size - i, kPageSize - off);
        std::memcpy(pageForWrite(addr + static_cast<Addr>(i)) + off, s + i,
                    chunk);
        i += chunk;
    }
}

inline void
Ram::readBlock(Addr addr, void* dst, size_t size) const
{
    uint8_t* d = static_cast<uint8_t*>(dst);
    size_t i = 0;
    while (i < size) {
        uint32_t off = (addr + i) & (kPageSize - 1);
        size_t chunk = std::min<size_t>(size - i, kPageSize - off);
        if (const uint8_t* p = pageIfPresent(addr + static_cast<Addr>(i)))
            std::memcpy(d + i, p + off, chunk);
        else
            std::memset(d + i, 0, chunk);
        i += chunk;
    }
}

} // namespace vortex::mem
