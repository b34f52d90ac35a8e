/**
 * @file
 * Cross-cutting property tests:
 *  - timing independence: functional results and retired instruction
 *    counts are invariant across timing configurations (cache geometry,
 *    memory latency, FU latencies) — the core guarantee of the
 *    functional/timing split;
 *  - determinism: identical runs produce identical cycle counts;
 *  - performance monotonicity: a strictly better memory system never
 *    hurts IPC beyond noise.
 */

#include <gtest/gtest.h>

#include "runtime/device.h"
#include "runtime/kargs.h"
#include "runtime/workloads.h"
#include "kernels/kernels.h"

using namespace vortex;
using runtime::Device;

namespace {

struct Outcome
{
    std::vector<int32_t> result;
    uint64_t threadInstrs;
    uint64_t cycles;
};

/** Run vecadd with a given config; return the output vector + counters. */
Outcome
runOnce(const core::ArchConfig& cfg, uint32_t n)
{
    Device dev(cfg);
    std::vector<int32_t> a(n), b(n);
    for (uint32_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(i * 3);
        b[i] = static_cast<int32_t>(i ^ 0x55);
    }
    Addr da = dev.memAlloc(n * 4), db = dev.memAlloc(n * 4),
         dc = dev.memAlloc(n * 4);
    dev.copyToDev(da, a.data(), n * 4);
    dev.copyToDev(db, b.data(), n * 4);
    dev.uploadKernel(kernels::kernel("vecadd"));
    dev.setKernelArg(runtime::VecAddArgs{n, da, db, dc});
    dev.runKernel(100000000);
    Outcome out;
    out.result.resize(n);
    dev.copyFromDev(out.result.data(), dc, n * 4);
    out.threadInstrs = dev.processor().threadInstrs();
    out.cycles = dev.cycles();
    return out;
}

} // namespace

TEST(Properties, TimingIndependentResults)
{
    const uint32_t n = 333;
    core::ArchConfig base;
    Outcome ref = runOnce(base, n);

    // Sweep timing knobs that must never change functional results or the
    // retired-instruction count (same machine geometry => same schedule of
    // work across threads).
    std::vector<core::ArchConfig> variants;
    {
        core::ArchConfig c;
        c.mem.latency = 400;
        variants.push_back(c);
    }
    {
        core::ArchConfig c;
        c.dcacheSize = 2048;
        c.mshrEntries = 1;
        variants.push_back(c);
    }
    {
        core::ArchConfig c;
        c.dcachePorts = 4;
        variants.push_back(c);
    }
    {
        core::ArchConfig c;
        c.lat.fpu = 1;
        c.lat.div = 4;
        c.ibufferDepth = 8;
        variants.push_back(c);
    }
    {
        core::ArchConfig c;
        c.mem.numChannels = 8;
        c.mem.busWidth = 64;
        variants.push_back(c);
    }
    for (size_t i = 0; i < variants.size(); ++i) {
        Outcome v = runOnce(variants[i], n);
        EXPECT_EQ(v.result, ref.result) << "variant " << i;
        EXPECT_EQ(v.threadInstrs, ref.threadInstrs) << "variant " << i;
    }
}

TEST(Properties, RunsAreDeterministic)
{
    core::ArchConfig cfg;
    cfg.numCores = 2;
    Outcome a = runOnce(cfg, 200);
    Outcome b = runOnce(cfg, 200);
    EXPECT_EQ(a.result, b.result);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.threadInstrs, b.threadInstrs);
}

TEST(Properties, FasterMemoryNeverSlower)
{
    core::ArchConfig slow;
    slow.mem.latency = 300;
    core::ArchConfig fast;
    fast.mem.latency = 20;
    Outcome s = runOnce(slow, 512);
    Outcome f = runOnce(fast, 512);
    EXPECT_LT(f.cycles, s.cycles);
}

TEST(Properties, MoreCoresSameAnswers)
{
    // The per-core slice changes with the machine; the union of results
    // must not.
    Device dev1(core::ArchConfig{});
    runtime::RunResult r1 = runtime::runSgemm(dev1, 16);
    core::ArchConfig c4;
    c4.numCores = 4;
    c4.l2Enabled = true;
    Device dev4(c4);
    runtime::RunResult r4 = runtime::runSgemm(dev4, 16);
    EXPECT_TRUE(r1.ok) << r1.error;
    EXPECT_TRUE(r4.ok) << r4.error;
}
