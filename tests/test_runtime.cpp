/**
 * @file
 * Driver/runtime tests: device memory management, argument mailbox,
 * repeated kernel launches on one device, performance counters, the
 * spawn_tasks distribution (task count edge cases), and verified workload
 * runners across geometries (parameterized property sweep).
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "kernels/kernels.h"
#include "runtime/device.h"
#include "runtime/kargs.h"
#include "runtime/workloads.h"

using namespace vortex;
using runtime::Device;

namespace {

core::ArchConfig
cfg(uint32_t warps = 4, uint32_t threads = 4, uint32_t cores = 1)
{
    core::ArchConfig c;
    c.numWarps = warps;
    c.numThreads = threads;
    c.numCores = cores;
    return c;
}

} // namespace

TEST(Device, MemAllocAlignmentAndGrowth)
{
    Device dev(cfg());
    Addr a = dev.memAlloc(10, 64);
    Addr b = dev.memAlloc(10, 64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
    Addr c = dev.memAlloc(4, 4096);
    EXPECT_EQ(c % 4096, 0u);
    EXPECT_THROW(dev.memAlloc(1, 3), FatalError); // non-pow2 alignment
}

TEST(Device, CopyRoundTrip)
{
    Device dev(cfg());
    std::vector<uint8_t> data(1000);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 7);
    Addr d = dev.memAlloc(data.size());
    dev.copyToDev(d, data.data(), data.size());
    std::vector<uint8_t> back(data.size());
    dev.copyFromDev(back.data(), d, back.size());
    EXPECT_EQ(data, back);
}

TEST(Device, ArgMailboxAtFixedAddress)
{
    Device dev(cfg());
    runtime::VecAddArgs args{7, 0x100, 0x200, 0x300};
    dev.setKernelArg(args);
    EXPECT_EQ(dev.ram().read32(runtime::kKernelArgAddr), 7u);
    EXPECT_EQ(dev.ram().read32(runtime::kKernelArgAddr + 4), 0x100u);
}

TEST(Device, RepeatedLaunchesOnOneDevice)
{
    // Re-uploading and re-running must fully reset the processor state.
    Device dev(cfg(4, 4, 2));
    for (int round = 0; round < 3; ++round) {
        runtime::RunResult r = runtime::runVecAdd(dev, 256 + 64 * round);
        EXPECT_TRUE(r.ok) << "round " << round << ": " << r.error;
    }
}

TEST(Device, TimeoutDetected)
{
    Device dev(cfg());
    isa::Assembler as(dev.processor().config().startPC);
    dev.uploadObject(as.assembleObject({{"forever.s", "forever: j forever"}}));
    dev.start();
    EXPECT_FALSE(dev.readyWait(2000));
    EXPECT_THROW(dev.runKernel(2000), FatalError);
}

TEST(SpawnTasks, EdgeTaskCounts)
{
    // Task counts around the hardware-thread total: 1, NT*NW-1, NT*NW,
    // NT*NW+1, and a large non-multiple.
    for (uint32_t n : {1u, 15u, 16u, 17u, 333u}) {
        Device dev(cfg(4, 4, 1));
        runtime::RunResult r = runtime::runVecAdd(dev, n);
        EXPECT_TRUE(r.ok) << "n=" << n << ": " << r.error;
    }
}

TEST(SpawnTasks, SingleWarpSingleThreadMachine)
{
    // Degenerate 1W-1T machine still runs every task serially.
    Device dev(cfg(1, 1, 1));
    runtime::RunResult r = runtime::runVecAdd(dev, 37);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(SpawnTasks, WideMachine)
{
    Device dev(cfg(8, 8, 1));
    runtime::RunResult r = runtime::runSaxpy(dev, 500);
    EXPECT_TRUE(r.ok) << r.error;
}

TEST(Counters, CyclesAndInstrsTrackWork)
{
    Device small(cfg());
    runtime::RunResult r1 = runtime::runVecAdd(small, 128);
    Device big(cfg());
    runtime::RunResult r2 = runtime::runVecAdd(big, 1024);
    ASSERT_TRUE(r1.ok && r2.ok);
    EXPECT_GT(r2.cycles, r1.cycles);
    EXPECT_GT(r2.threadInstrs, r1.threadInstrs);
    // 8x the tasks ~= 8x the work.
    double ratio = static_cast<double>(r2.threadInstrs) /
                   static_cast<double>(r1.threadInstrs);
    EXPECT_GT(ratio, 4.0);
    EXPECT_LT(ratio, 12.0);
}

TEST(Counters, DeviceCsrCountersVisibleToKernels)
{
    // A kernel reads CSR_CYCLE twice around a delay loop; the delta must
    // be positive and plausible.
    Device dev(cfg());
    isa::Assembler as(dev.processor().config().startPC);
    dev.uploadObject(as.assembleObject({{"cycles.s", R"(
        csrr s0, 0xC00        # cycle low
        li t0, 50
    spin:
        addi t0, t0, -1
        bnez t0, spin
        csrr s1, 0xC00
        sub s2, s1, s0
        li t1, 0x20000
        sw s2, 0(t1)
        li t2, 0
        vx_tmc t2
    )"}}));
    dev.start();
    ASSERT_TRUE(dev.readyWait(100000));
    uint32_t delta = dev.ram().read32(0x20000);
    EXPECT_GT(delta, 100u);  // >= 2 cycles per loop iteration
    EXPECT_LT(delta, 5000u);
}

//
// Verified-workload sweep across machine geometries (property: every
// kernel is correct on every geometry).
//

struct GeometryCase
{
    uint32_t warps, threads, cores;
    const char* kernel;
};

class WorkloadSweep : public ::testing::TestWithParam<GeometryCase>
{
};

TEST_P(WorkloadSweep, Verifies)
{
    const GeometryCase& g = GetParam();
    Device dev(cfg(g.warps, g.threads, g.cores));
    runtime::RunResult r = runtime::runRodinia(dev, g.kernel);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.ipc, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WorkloadSweep,
    ::testing::Values(GeometryCase{2, 2, 1, "sgemm"},
                      GeometryCase{8, 8, 1, "sgemm"},
                      GeometryCase{4, 4, 2, "sfilter"},
                      GeometryCase{2, 8, 2, "saxpy"},
                      GeometryCase{8, 2, 2, "nearn"},
                      GeometryCase{4, 4, 8, "vecadd"},
                      GeometryCase{4, 8, 4, "bfs"},
                      GeometryCase{8, 4, 2, "gaussian"}),
    [](const ::testing::TestParamInfo<GeometryCase>& info) {
        return std::string(info.param.kernel) + "_" +
               std::to_string(info.param.warps) + "w" +
               std::to_string(info.param.threads) + "t" +
               std::to_string(info.param.cores) + "c";
    });

//
// Texture kernels across formats and wrap modes (through the full device
// stack, HW path).
//

TEST(TextureDevice, SmallestAndOddSizes)
{
    for (uint32_t size : {8u, 16u}) {
        Device dev(cfg());
        runtime::RunResult r = runtime::runTexture(
            dev, runtime::TexFilterMode::Bilinear, true, size);
        EXPECT_TRUE(r.ok) << "size " << size << ": " << r.error;
    }
}

TEST(TextureDevice, HwAndSwAgreeOnPixels)
{
    // The HW and SW bilinear kernels must produce (near-)identical images.
    Device hw_dev(cfg()), sw_dev(cfg());
    runtime::RunResult rh = runtime::runTexture(
        hw_dev, runtime::TexFilterMode::Bilinear, true, 16);
    runtime::RunResult rs = runtime::runTexture(
        sw_dev, runtime::TexFilterMode::Bilinear, false, 16);
    EXPECT_TRUE(rh.ok) << rh.error;
    EXPECT_TRUE(rs.ok) << rs.error;
    // Both verified against the same functional sampler inside runTexture;
    // agreement is transitive. HW must also be strictly faster.
    EXPECT_LT(rh.cycles, rs.cycles);
}
