/**
 * @file
 * Host-heap discipline of the simulation loop.
 *
 * The pipeline's stage queues are rings over reserved storage and every
 * in-flight instruction lives in its core's uop arena, so once a run has
 * warmed up, simulating more cycles allocates nothing. This suite
 * replaces the global allocation functions with counting forwarders to
 * malloc/free (so it also runs under ASan/UBSan) and checks that the
 * allocations made inside the run loop do not grow with run length
 * (sgemm, bfs in L2 clusters, and hardware bilinear texturing).
 *
 * The window is opened and closed by a Processor fault hook, which runs
 * once per cycle on the main thread: it covers every tick after the
 * first, so the counts exclude the driver's upload and argument setup,
 * the host reference and the one-time costs of the first cycle.
 *
 * The forwarders also record the largest single request, which bounds
 * what a `memcmp` check allocates for its window, and the bytes requested,
 * which pin what a machine costs the host: a RAM that allocates nothing
 * (and, read from /proc/self/status, keeps resident only the 4 KiB pages
 * a run writes), cores that do not each hold a copy of the program, and
 * one decoded text per device.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "kernels/kernels.h"
#include "runtime/device.h"
#include "runtime/workloads.h"
#include "sweep/presets.h"

namespace {

std::atomic<uint64_t> gAllocs{0};
std::atomic<uint64_t> gLargest{0};
std::atomic<uint64_t> gBytes{0};

void*
countedAlloc(std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    gBytes.fetch_add(size, std::memory_order_relaxed);
    uint64_t largest = gLargest.load(std::memory_order_relaxed);
    while (size > largest &&
           !gLargest.compare_exchange_weak(largest, size,
                                           std::memory_order_relaxed))
        ;
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
// std::stable_sort's temporary buffer (the assembler's relocation sort)
// allocates through the nothrow form and frees through sized delete.
void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}
void*
operator new[](std::size_t size, const std::nothrow_t& tag) noexcept
{
    return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace vortex {
namespace {

/** One verified run: warp instructions retired and heap allocations
 *  made between the end of its first cycle and the end of its last. */
struct LoopAllocs
{
    uint64_t warpInstrs = 0;
    uint64_t allocs = 0;
};

/** A verified workload run on a fresh device. */
using Runner = runtime::RunResult (*)(runtime::Device&);

LoopAllocs
measure(const core::ArchConfig& config, Runner run)
{
    runtime::Device dev(config);
    uint64_t first = 0, last = 0;
    bool started = false;
    dev.processor().setFaultHook([&](core::Processor&, Cycle) {
        const uint64_t now = gAllocs.load(std::memory_order_relaxed);
        if (!started) {
            first = now;
            started = true;
        }
        last = now;
    });
    const runtime::RunResult r = run(dev);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(started);
    return LoopAllocs{dev.processor().warpInstrs(), last - first};
}

/**
 * The small and large runs of one workload: the large one retires at
 * least 4x the warp instructions, and its loop allocates no more than
 * the small one's plus one per thousand extra warp instructions. Any
 * per-event allocation (per instruction, memory op, cache miss or
 * barrier) costs far more than that; the slack covers first touches
 * that only a longer run reaches (a deeper ring, a longer merged MSHR
 * port list, a new RAM page).
 */
void
expectFlat(const core::ArchConfig& config, Runner small, Runner large)
{
    const LoopAllocs s = measure(config, small);
    const LoopAllocs l = measure(config, large);
    ASSERT_GE(l.warpInstrs, 4 * s.warpInstrs);
    EXPECT_LE(l.allocs, s.allocs + (l.warpInstrs - s.warpInstrs) / 1000)
        << "small run: " << s.allocs << " allocations over "
        << s.warpInstrs << " warp instructions; large run: " << l.allocs
        << " over " << l.warpInstrs;
}

TEST(RunLoopAllocs, SgemmOneCoreIsFlat)
{
    expectFlat(
        sweep::baselineConfig(1),
        [](runtime::Device& d) { return runtime::runSgemm(d, 12); },
        [](runtime::Device& d) { return runtime::runSgemm(d, 32); });
}

TEST(RunLoopAllocs, BfsSixteenCoresInL2ClustersIsFlat)
{
    const core::ArchConfig config = sweep::baselineConfig(16);
    ASSERT_TRUE(config.l2Enabled);
    ASSERT_EQ(config.coresPerCluster, 4u);
    expectFlat(
        config,
        [](runtime::Device& d) { return runtime::runBfs(d, 256, 4); },
        [](runtime::Device& d) { return runtime::runBfs(d, 2048, 4); });
}

TEST(RunLoopAllocs, TextureBilinearHwIsFlat)
{
    const core::ArchConfig config = sweep::baselineConfig(1);
    ASSERT_TRUE(config.texEnabled);
    expectFlat(
        config,
        [](runtime::Device& d) {
            return runtime::runTexture(d, runtime::TexFilterMode::Bilinear,
                                       /*hardware=*/true, 16);
        },
        [](runtime::Device& d) {
            return runtime::runTexture(d, runtime::TexFilterMode::Bilinear,
                                       /*hardware=*/true, 64);
        });
}

TEST(CheckAllocs, MemcmpHashesItsWindowOnePageAtATime)
{
    // A 16 MiB window, unaligned, over a byte pattern: the check must
    // get the hash right while no single allocation exceeds a RAM page
    // (the page the guest's stack touches is one such allocation).
    const Addr addr = runtime::kHeapBase + 123;
    const uint32_t len = 16u << 20;
    runtime::Device dev(sweep::baselineConfig(1));
    {
        std::vector<uint8_t> pattern(len);
        for (uint32_t i = 0; i < len; ++i)
            pattern[i] = static_cast<uint8_t>(i * 7 + i / 4093);
        dev.copyToDev(addr, pattern.data(), len);
    }
    uint64_t expected = 0xcbf29ce484222325ull; // FNV-1a 64, independently
    for (uint32_t i = 0; i < len; ++i) {
        expected ^= static_cast<uint8_t>(i * 7 + i / 4093);
        expected *= 0x100000001b3ull;
    }
    const kernels::Guest guest{"ret.s", {{"ret.s", "main:\n    ret\n"}}};
    gLargest.store(0, std::memory_order_relaxed);
    const runtime::RunResult r =
        runtime::runMemcmp(dev, guest, addr, len, expected);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_LE(gLargest.load(std::memory_order_relaxed), mem::Ram::kPageSize);
}

/** Bytes requested from the heap while @p fn runs. */
template <typename Fn>
uint64_t
bytesDuring(Fn&& fn)
{
    const uint64_t before = gBytes.load(std::memory_order_relaxed);
    fn();
    return gBytes.load(std::memory_order_relaxed) - before;
}

TEST(Footprint, ConstructingARamAllocatesAlmostNothing)
{
    // The guest space and its page states are kernel mappings, not heap
    // blocks: the heap holds only the object.
    const uint64_t bytes =
        bytesDuring([] { std::make_unique<mem::Ram>().reset(); });
    EXPECT_LT(bytes, 4096u);
}

/** This process's resident anonymous memory, in KiB. */
uint64_t
rssAnonKiB()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("RssAnon:", 0) == 0)
            return std::stoull(line.substr(8));
    ADD_FAILURE() << "no RssAnon line in /proc/self/status";
    return 0;
}

TEST(Footprint, RamResidentFollowsWrittenPages)
{
    // One byte in each of 256 distinct 64 KiB pages makes 256 host pages
    // of 4 KiB resident (1 MiB), not 256 whole 64 KiB pages (16 MiB).
    mem::Ram ram;
    const uint64_t before = rssAnonKiB();
    for (uint32_t i = 0; i < 256; ++i)
        ram.write8(static_cast<Addr>(i) << 24, 1);
    const uint64_t after = rssAnonKiB();
    EXPECT_EQ(ram.numPages(), 256u);
    EXPECT_LT(after, before + 4 * 1024) << before << " -> " << after
                                        << " KiB";
}

TEST(Footprint, ACoreCostsUnder64KiB)
{
    // What each core past the first adds to a device of the paper's
    // machine (16 cores: four L2 clusters).
    const auto deviceBytes = [](uint32_t cores) {
        return bytesDuring(
            [&] { runtime::Device dev(sweep::baselineConfig(cores)); });
    };
    const uint64_t one = deviceBytes(1);
    const uint64_t sixteen = deviceBytes(16);
    ASSERT_GT(sixteen, one);
    EXPECT_LT((sixteen - one) / 15, 64u * 1024)
        << "1 core: " << one << " B, 16 cores: " << sixteen << " B";
}

TEST(Footprint, OneDecodedTextPerDevice)
{
    // Uploading a kernel costs the same on any number of cores: the
    // program is decoded once per device, not once per core.
    const kernels::Guest& sgemm = kernels::kernel("sgemm");
    runtime::Device(sweep::baselineConfig(1)).uploadKernel(sgemm); // warm
    runtime::Device one(sweep::baselineConfig(1));
    runtime::Device sixteen(sweep::baselineConfig(16));
    const uint64_t oneBytes = bytesDuring([&] { one.uploadKernel(sgemm); });
    const uint64_t sixteenBytes =
        bytesDuring([&] { sixteen.uploadKernel(sgemm); });
    EXPECT_EQ(oneBytes, sixteenBytes);
    ASSERT_GT(one.processor().text().size(), 0u);
    EXPECT_EQ(one.processor().text().size(),
              sixteen.processor().text().size());
    EXPECT_GE(oneBytes, one.processor().text().size() * sizeof(isa::Instr));
}

} // namespace
} // namespace vortex
