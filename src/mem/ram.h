/**
 * @file
 * Functional backing store: the device-local memory (the FPGA board DRAM
 * of the paper) as one private anonymous mapping of the full 32-bit
 * space. All functional loads/stores and the host-side driver copies go
 * through this object; the timing models only carry addresses.
 *
 * The kernel's page tables do the sparse work, so a RAM costs the host
 * in proportion to the memory a run writes. The span is reserved
 * read-only and uncharged (MAP_NORESERVE, and MADV_NOHUGEPAGE so a
 * transparent huge page cannot make 2 MiB resident at once): a
 * never-written page reads as the kernel's shared zero page. The first
 * store into a 2 MiB-aligned region makes the whole region writable with
 * one mprotect, which charges its 2 MiB to the commit limit where the
 * kernel accounts commit; the kernel zero-fills each 4 KiB only when
 * first written, so RSS follows the written 4 KiB pages. Committing by
 * region bounds how far stores split the mapping: the span is at most
 * 2,048 kernel mappings (one per region, when written and unwritten
 * regions alternate) whatever a guest writes, far below the kernel's
 * `vm.max_map_count`. One state byte per 64 KiB page (written, code), in
 * its own small mapping, routes a store to the slow path only when its
 * page is not plain "written".
 * Constructing a RAM allocates nothing on the heap, but needs 4 GiB of
 * host address space (ARCHITECTURE.md "Device memory").
 *
 * A RAM belongs to one simulation, which runs on one host thread.
 * Same-cycle stores to one address from different cores are
 * *program-level* races, exactly the real device's weakly-coherent
 * memory model: the cores tick in core order, so the higher-indexed
 * core's store lands last, but a guest must not rely on that (the
 * reversed core order of core::Processor::setReverseCoreOrder flips it).
 */

#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <bitset>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "common/log.h"
#include "common/types.h"

namespace vortex::mem {

/** RAM covering the full 32-bit physical space (64 KiB pages). */
class Ram
{
  public:
    static constexpr uint32_t kPageBits = 16;
    static constexpr uint32_t kPageSize = 1u << kPageBits;
    static constexpr uint32_t kNumPages = 1u << (32 - kPageBits);
    static constexpr uint64_t kSpan = uint64_t{1} << 32;
    /** Stores commit the span a 2 MiB-aligned region at a time. */
    static constexpr uint32_t kRegionBits = 21;
    static constexpr uint32_t kNumRegions = 1u << (32 - kRegionBits);

    Ram() = default;

    Ram(const Ram&) = delete;
    Ram& operator=(const Ram&) = delete;

    uint8_t read8(Addr addr) const { return span_.base[addr]; }
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
    // the overwhelming store traffic — cost one state-byte load per store.
    //

    /** Mark the page containing @p addr as holding decoded code. */
    void markCodePage(Addr addr) { state_.base[addr >> kPageBits] |= kCode; }

    /** Monotonic count of stores that hit a marked code page. */
    uint64_t codeWriteEpoch() const { return codeWriteEpoch_; }

    /** Number of written 64 KiB pages (for tests). */
    size_t numPages() const { return numPages_; }

  private:
    /** A private anonymous mapping, unmapped with its owner. */
    struct Mapping
    {
        Mapping(size_t size, int prot);
        ~Mapping() { munmap(base, bytes); }
        Mapping(const Mapping&) = delete;
        Mapping& operator=(const Mapping&) = delete;

        uint8_t* base;
        size_t bytes;
    };

    /** Page state bits; a page whose state is exactly kWritten stores
     *  with no further check. */
    static constexpr uint8_t kWritten = 1;
    static constexpr uint8_t kCode = 2;

    /** Before a store to @p addr. */
    void
    store(Addr addr)
    {
        if (state_.base[addr >> kPageBits] != kWritten) [[unlikely]]
            slowStore(addr);
    }
    /** Count the page on its first store, committing its region if no
     *  store reached that yet; bump the code-write epoch on a store to a
     *  code page. */
    [[gnu::noinline]] void
    slowStore(Addr addr)
    {
        uint8_t& state = state_.base[addr >> kPageBits];
        if (!(state & kWritten)) {
            const uint32_t region = addr >> kRegionBits;
            if (!committed_[region]) {
                const Addr base = region << kRegionBits;
                if (mprotect(span_.base + base, size_t{1} << kRegionBits,
                             PROT_READ | PROT_WRITE) != 0)
                    fatal("mem::Ram: committing the 2 MiB device-memory "
                          "region at 0x", std::hex, base, std::dec,
                          " failed: errno ", errno, " (",
                          std::strerror(errno), ")");
                committed_[region] = true;
            }
            state |= kWritten;
            ++numPages_;
        }
        if (state & kCode)
            ++codeWriteEpoch_;
    }

    Mapping state_{kNumPages, PROT_READ | PROT_WRITE}; ///< a byte per page
    Mapping span_{kSpan, PROT_READ}; ///< the guest space; pages made
                                     ///< writable on their first store
    std::bitset<kNumRegions> committed_; ///< regions made writable
    uint64_t codeWriteEpoch_ = 0;
    size_t numPages_ = 0;
};

inline Ram::Mapping::Mapping(size_t size, int prot) : bytes(size)
{
    void* p = mmap(nullptr, size, prot,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        fatal("mem::Ram: device memory needs 4 GiB of host address space "
              "per simulation (check `ulimit -v`); mapping ", size,
              " bytes failed: errno ", errno, " (", std::strerror(errno),
              ")");
    base = static_cast<uint8_t*>(p);
    // Advisory: a kernel without transparent huge pages refuses it, and
    // then there is nothing to opt out of.
    madvise(p, size, MADV_NOHUGEPAGE);
}

inline void
Ram::write8(Addr addr, uint8_t value)
{
    store(addr);
    span_.base[addr] = value;
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
        uint32_t v;
        std::memcpy(&v, span_.base + addr, 4);
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
        store(addr);
        std::memcpy(span_.base + addr, &value, 4);
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

// Block copies go a page at a time: a copy that runs past 0xFFFFFFFF
// wraps to 0x0, never past the span.

inline void
Ram::writeBlock(Addr addr, const void* src, size_t size)
{
    const uint8_t* s = static_cast<const uint8_t*>(src);
    size_t i = 0;
    while (i < size) {
        const Addr a = addr + static_cast<Addr>(i);
        const size_t chunk =
            std::min<size_t>(size - i, kPageSize - (a & (kPageSize - 1)));
        store(a);
        std::memcpy(span_.base + a, s + i, chunk);
        i += chunk;
    }
}

inline void
Ram::readBlock(Addr addr, void* dst, size_t size) const
{
    uint8_t* d = static_cast<uint8_t*>(dst);
    size_t i = 0;
    while (i < size) {
        const Addr a = addr + static_cast<Addr>(i);
        const size_t chunk =
            std::min<size_t>(size - i, kPageSize - (a & (kPageSize - 1)));
        std::memcpy(d + i, span_.base + a, chunk);
        i += chunk;
    }
}

} // namespace vortex::mem
