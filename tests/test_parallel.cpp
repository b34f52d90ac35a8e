/**
 * @file
 * Serial-vs-parallel tick backend regression suite: the parallel engine
 * must be *bit-identical* to the serial one — same cycles(),
 * threadInstrs(), and functional output — for every core count, since the
 * cross-core commit phase (staged memory requests, deferred global barrier
 * arrivals) is shared by both backends.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/processor.h"
#include "isa/assembler.h"
#include "kernels/kernels.h"
#include "runtime/device.h"
#include "runtime/kargs.h"
#include "runtime/workloads.h"

using namespace vortex;
using runtime::Device;

namespace {

core::ArchConfig
machine(uint32_t cores, bool parallel, uint32_t threads = 4)
{
    core::ArchConfig c;
    c.numWarps = 4;
    c.numThreads = 4;
    c.numCores = cores;
    if (cores >= 4) {
        c.l2Enabled = true;
        c.coresPerCluster = 4;
    }
    c.parallelTick = parallel;
    c.tickThreads = threads;
    return c;
}

struct VecAddOutcome
{
    std::vector<int32_t> result;
    uint64_t cycles = 0;
    uint64_t threadInstrs = 0;
};

VecAddOutcome
runVecAdd(const core::ArchConfig& cfg, uint32_t n)
{
    Device dev(cfg);
    std::vector<int32_t> a(n), b(n);
    for (uint32_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(7 * i - 3);
        b[i] = static_cast<int32_t>(i ^ 0xA5);
    }
    Addr da = dev.memAlloc(n * 4), db = dev.memAlloc(n * 4),
         dc = dev.memAlloc(n * 4);
    dev.copyToDev(da, a.data(), n * 4);
    dev.copyToDev(db, b.data(), n * 4);
    dev.uploadKernel(kernels::kernel("vecadd"));
    dev.setKernelArg(runtime::VecAddArgs{n, da, db, dc});
    dev.runKernel(100000000);
    VecAddOutcome out;
    out.result.resize(n);
    dev.copyFromDev(out.result.data(), dc, n * 4);
    out.cycles = dev.cycles();
    out.threadInstrs = dev.processor().threadInstrs();
    return out;
}

struct SmokeOutcome
{
    uint64_t cycles = 0;
    uint64_t threadInstrs = 0;
    uint32_t word = 0;
};

SmokeOutcome
runSmokeAsm(const core::ArchConfig& cfg, const char* src, Addr result_addr)
{
    core::Processor proc(cfg);
    isa::Assembler as(cfg.startPC);
    isa::Program prog = as.assemble(src);
    proc.ram().writeBlock(prog.base, prog.image.data(), prog.image.size());
    proc.start();
    EXPECT_TRUE(proc.run(1000000));
    return SmokeOutcome{proc.cycles(), proc.threadInstrs(),
                        proc.ram().read32(result_addr)};
}

} // namespace

TEST(Parallel, EngineSelection)
{
    // Default: serial.
    core::Processor serial(machine(2, false));
    EXPECT_STREQ(serial.tickEngine().name(), "serial");
    EXPECT_EQ(serial.tickEngine().numWorkers(), 1u);

    // Requested: parallel with an explicit pool size.
    core::Processor par(machine(8, true, 4));
    EXPECT_STREQ(par.tickEngine().name(), "parallel");
    EXPECT_EQ(par.tickEngine().numWorkers(), 4u);

    // Pool never exceeds the core count; one worker degrades to serial.
    core::Processor wide(machine(2, true, 16));
    EXPECT_EQ(wide.tickEngine().numWorkers(), 2u);
    core::Processor single(machine(1, true, 8));
    EXPECT_STREQ(single.tickEngine().name(), "serial");
}

TEST(Parallel, VecAddBitIdenticalAcrossCoreCounts)
{
    const uint32_t n = 257; // odd size: uneven per-core slices
    for (uint32_t cores : {1u, 2u, 4u, 8u}) {
        VecAddOutcome s = runVecAdd(machine(cores, false), n);
        VecAddOutcome p = runVecAdd(machine(cores, true), n);
        EXPECT_EQ(s.result, p.result) << cores << " cores";
        EXPECT_EQ(s.cycles, p.cycles) << cores << " cores";
        EXPECT_EQ(s.threadInstrs, p.threadInstrs) << cores << " cores";
    }
}

TEST(Parallel, ParallelRunsAreRepeatable)
{
    // Thread scheduling must not leak into simulated time: two parallel
    // runs of the same config are identical.
    VecAddOutcome a = runVecAdd(machine(4, true, 2), 200);
    VecAddOutcome b = runVecAdd(machine(4, true, 2), 200);
    EXPECT_EQ(a.result, b.result);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.threadInstrs, b.threadInstrs);
}

TEST(Parallel, SmokeProgramsBitIdentical)
{
    const char* store_and_halt = R"(
        li t0, 0x20000
        li t1, 42
        sw t1, 0(t0)
        li t2, 0
        vx_tmc t2
    )";
    const char* loop_sum = R"(
        li t0, 0
        li t1, 10
        li t2, 0
    loop:
        add t2, t2, t1
        addi t1, t1, -1
        bnez t1, loop
        li t3, 0x20000
        sw t2, 0(t3)
        li t4, 0
        vx_tmc t4
    )";
    for (uint32_t cores : {2u, 4u}) {
        SmokeOutcome s1 = runSmokeAsm(machine(cores, false),
                                      store_and_halt, 0x20000);
        SmokeOutcome p1 = runSmokeAsm(machine(cores, true),
                                      store_and_halt, 0x20000);
        EXPECT_EQ(s1.cycles, p1.cycles) << cores << " cores";
        EXPECT_EQ(s1.threadInstrs, p1.threadInstrs) << cores << " cores";
        EXPECT_EQ(p1.word, 42u);

        SmokeOutcome s2 = runSmokeAsm(machine(cores, false),
                                      loop_sum, 0x20000);
        SmokeOutcome p2 = runSmokeAsm(machine(cores, true),
                                      loop_sum, 0x20000);
        EXPECT_EQ(s2.cycles, p2.cycles) << cores << " cores";
        EXPECT_EQ(s2.threadInstrs, p2.threadInstrs) << cores << " cores";
        EXPECT_EQ(p2.word, 55u);
    }
}

TEST(Parallel, RodiniaKernelsBitIdentical)
{
    // sgemm (compute-bound) and gaussian (barrier-heavy) on an 8-core
    // clustered machine; both verify device results against the host
    // reference internally.
    for (const char* kernel : {"sgemm", "gaussian"}) {
        Device sdev(machine(8, false));
        runtime::RunResult s = runtime::runRodinia(sdev, kernel);
        Device pdev(machine(8, true));
        runtime::RunResult p = runtime::runRodinia(pdev, kernel);
        EXPECT_TRUE(s.ok) << kernel << ": " << s.error;
        EXPECT_TRUE(p.ok) << kernel << ": " << p.error;
        EXPECT_EQ(s.cycles, p.cycles) << kernel;
        EXPECT_EQ(s.threadInstrs, p.threadInstrs) << kernel;
    }
}

TEST(Parallel, TextureRenderBitIdentical)
{
    // The hardware `tex` render verifies every output texel against the
    // host sampler; cycles/instr identity pins the timing.
    Device sdev(machine(2, false));
    runtime::RunResult s =
        runtime::runTexture(sdev, runtime::TexFilterMode::Bilinear,
                            /*hardware=*/true, 32);
    Device pdev(machine(2, true));
    runtime::RunResult p =
        runtime::runTexture(pdev, runtime::TexFilterMode::Bilinear,
                            /*hardware=*/true, 32);
    EXPECT_TRUE(s.ok) << s.error;
    EXPECT_TRUE(p.ok) << p.error;
    EXPECT_EQ(s.cycles, p.cycles);
    EXPECT_EQ(s.threadInstrs, p.threadInstrs);
}

TEST(Parallel, SelfPatchingGuestBitIdentical)
{
    // Core 0 stores over an instruction of the uploaded text on every
    // loop trip and runs the patched word, while the other cores keep
    // fetching the rest of the text: the processor re-decodes its text
    // in the serial phase after each such cycle, and the tick workers
    // only read it.
    const char* src = R"(
    main:
        lw s0, 0(a0)          # per-core result words
        csrr s1, 0xCC2        # core id
        li s2, 0
        li s3, 8
    loop:
        bnez s1, skip
        la t0, patch
        li t1, 0x00790913     # addi s2, s2, 7
        sw t1, 0(t0)
        j patch               # fetch waits for the store
    patch:
        addi s2, s2, 1
    skip:
        addi s2, s2, 2
        addi s3, s3, -1
        bnez s3, loop
        slli t0, s1, 2
        add t0, t0, s0
        sw s2, 0(t0)
        ret
    )";
    const uint32_t cores = 4;
    struct Outcome
    {
        std::vector<uint32_t> sums;
        uint64_t cycles = 0;
        uint64_t epoch = 0;
    };
    auto run = [&](bool parallel) {
        Device dev(machine(cores, parallel));
        const Addr sums = dev.memAlloc(4 * cores);
        dev.uploadKernel(src);
        dev.setKernelArg(sums);
        dev.runKernel(1000000);
        Outcome out;
        out.sums.resize(cores);
        dev.copyFromDev(out.sums.data(), sums, 4 * cores);
        out.cycles = dev.cycles();
        out.epoch = dev.ram().codeWriteEpoch();
        return out;
    };
    const Outcome s = run(false);
    const Outcome p = run(true);
    EXPECT_EQ(s.sums, (std::vector<uint32_t>{72, 16, 16, 16}));
    EXPECT_EQ(s.sums, p.sums);
    EXPECT_EQ(s.cycles, p.cycles);
    EXPECT_GE(s.epoch, 8u);
    EXPECT_EQ(s.epoch, p.epoch);
}
