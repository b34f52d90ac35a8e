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
 * Thread safety: leaf and page pointers are atomics so the parallel tick
 * engine's workers can access memory concurrently (allocation takes one
 * mutex, publication is release/acquire), and the scalar load/store paths
 * use relaxed atomic byte/word accesses (plain moves on mainstream
 * hardware). Accesses to distinct addresses are fully race-free;
 * same-address conflicts from different cores in the same cycle are
 * *program-level* races with unspecified ordering — exactly the real
 * device's weakly-coherent memory model — but remain defined behavior
 * here. The bulk block helpers are host-driver paths (device idle) and use
 * plain memcpy.
 */

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>

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
    ~Ram() { dropLeaves(); }

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
    // the overwhelming store traffic — cost one relaxed flag load per
    // store.
    //

    /** Mark the page containing @p addr as holding decoded code. */
    void
    markCodePage(Addr addr)
    {
        leaf(addr).code[pageIndex(addr)].store(1, std::memory_order_relaxed);
    }

    /** Monotonic count of stores that hit a marked code page. */
    uint64_t
    codeWriteEpoch() const
    {
        return codeWriteEpoch_.load(std::memory_order_relaxed);
    }

    /** Zero everything (drop all pages and code marks). Not safe during
     *  simulation. */
    void
    clear()
    {
        dropLeaves();
        codeWriteEpoch_.fetch_add(1, std::memory_order_relaxed);
        numPages_.store(0, std::memory_order_relaxed);
    }

    /** Number of touched pages (for tests). */
    size_t numPages() const
    {
        return numPages_.load(std::memory_order_relaxed);
    }

  private:
    /** 16 MiB of the address space: its page pointers and code flags. */
    struct Leaf
    {
        std::array<std::atomic<uint8_t*>, kLeafPages> pages{};
        std::array<std::atomic<uint8_t>, kLeafPages> code{}; ///< marked
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

    /** The leaf covering @p addr, or nullptr while nothing in it was
     *  written or marked. */
    const Leaf*
    leafIfPresent(Addr addr) const
    {
        return leaves_[leafIndex(addr)].load(std::memory_order_acquire);
    }

    /** The leaf covering @p addr, allocating (zeroed) on first touch. */
    Leaf&
    leaf(Addr addr)
    {
        auto& slot = leaves_[leafIndex(addr)];
        if (Leaf* l = slot.load(std::memory_order_acquire))
            return *l;
        std::lock_guard<std::mutex> lock(allocMutex_);
        Leaf* l = slot.load(std::memory_order_relaxed);
        if (!l) {
            l = new Leaf();
            slot.store(l, std::memory_order_release);
        }
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
        if (l.code[i].load(std::memory_order_relaxed))
            codeWriteEpoch_.fetch_add(1, std::memory_order_relaxed);
        if (uint8_t* p = l.pages[i].load(std::memory_order_acquire))
            return p;
        std::lock_guard<std::mutex> lock(allocMutex_);
        uint8_t* p = l.pages[i].load(std::memory_order_relaxed);
        if (!p) {
            p = new uint8_t[kPageSize]();
            l.pages[i].store(p, std::memory_order_release);
            numPages_.fetch_add(1, std::memory_order_relaxed);
        }
        return p;
    }

    const uint8_t*
    pageIfPresent(Addr addr) const
    {
        const Leaf* l = leafIfPresent(addr);
        return l ? l->pages[pageIndex(addr)].load(std::memory_order_acquire)
                 : nullptr;
    }

    /** Free every page and leaf that exists. */
    void
    dropLeaves()
    {
        for (auto& slot : leaves_) {
            Leaf* l = slot.load(std::memory_order_relaxed);
            if (!l)
                continue;
            for (auto& p : l->pages)
                delete[] p.load(std::memory_order_relaxed);
            delete l;
            slot.store(nullptr, std::memory_order_relaxed);
        }
    }

    //
    // Relaxed atomic scalar accesses (compile to plain loads/stores on
    // x86/ARM) keeping simulated-program races defined at the host level.
    //
    static uint8_t
    loadByte(const uint8_t* p)
    {
#if defined(__GNUC__) || defined(__clang__)
        return __atomic_load_n(p, __ATOMIC_RELAXED);
#else
        return std::atomic_ref<uint8_t>(*const_cast<uint8_t*>(p))
            .load(std::memory_order_relaxed);
#endif
    }

    static void
    storeByte(uint8_t* p, uint8_t v)
    {
#if defined(__GNUC__) || defined(__clang__)
        __atomic_store_n(p, v, __ATOMIC_RELAXED);
#else
        std::atomic_ref<uint8_t>(*p).store(v, std::memory_order_relaxed);
#endif
    }

    /** @p p must be 4-byte aligned. */
    static uint32_t
    loadWord(const uint8_t* p)
    {
#if defined(__GNUC__) || defined(__clang__)
        return __atomic_load_n(reinterpret_cast<const uint32_t*>(p),
                               __ATOMIC_RELAXED);
#else
        return std::atomic_ref<uint32_t>(
                   *reinterpret_cast<uint32_t*>(const_cast<uint8_t*>(p)))
            .load(std::memory_order_relaxed);
#endif
    }

    /** @p p must be 4-byte aligned. */
    static void
    storeWord(uint8_t* p, uint32_t v)
    {
#if defined(__GNUC__) || defined(__clang__)
        __atomic_store_n(reinterpret_cast<uint32_t*>(p), v,
                         __ATOMIC_RELAXED);
#else
        std::atomic_ref<uint32_t>(*reinterpret_cast<uint32_t*>(p))
            .store(v, std::memory_order_relaxed);
#endif
    }

    std::array<std::atomic<Leaf*>, kNumLeaves> leaves_{};
    std::atomic<uint64_t> codeWriteEpoch_{0};
    std::mutex allocMutex_;
    std::atomic<size_t> numPages_{0};
};

inline uint8_t
Ram::read8(Addr addr) const
{
    const uint8_t* p = pageIfPresent(addr);
    return p ? loadByte(p + (addr & (kPageSize - 1))) : 0;
}

inline void
Ram::write8(Addr addr, uint8_t value)
{
    storeByte(pageForWrite(addr) + (addr & (kPageSize - 1)), value);
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
    // Fast path: aligned, so a single atomic word access suffices.
    if ((addr & 3) == 0) {
        if (const uint8_t* p = pageIfPresent(addr))
            return loadWord(p + (addr & (kPageSize - 1)));
        return 0;
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
        storeWord(pageForWrite(addr) + (addr & (kPageSize - 1)), value);
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
