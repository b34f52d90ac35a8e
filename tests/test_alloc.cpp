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
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "runtime/device.h"
#include "runtime/workloads.h"
#include "sweep/presets.h"

namespace {

std::atomic<uint64_t> gAllocs{0};

void*
countedAlloc(std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
 * port list, a new RAM page, a counter's first bump).
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

} // namespace
} // namespace vortex
