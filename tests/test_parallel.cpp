/**
 * @file
 * Core-order independence suite: the core phase of a cycle must not
 * depend on the order the cores are ticked in, because every cross-core
 * effect (staged L1 requests, global barrier arrivals) is committed in
 * core order after it. This is what would let the cores of one cycle be
 * ticked in parallel. Each case runs a program twice, with the cores
 * ticked forward and in reversed order (Processor::setReverseCoreOrder),
 * and requires bit-identical cycles, instruction counts and memory.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/processor.h"
#include "isa/assembler.h"
#include "kernels/kernels.h"
#include "runtime/device.h"
#include "runtime/kargs.h"
#include "runtime/workloads.h"
#include "stat_rows.h"

using namespace vortex;
using namespace vortex::core;

namespace {

void
load(Processor& proc, const std::string& src)
{
    isa::Assembler as(proc.config().startPC);
    isa::Program p = as.assemble(src);
    proc.ram().writeBlock(p.base, p.image.data(), p.image.size());
}

ArchConfig
machine(uint32_t cores)
{
    ArchConfig c;
    c.numWarps = 4;
    c.numThreads = 4;
    c.numCores = cores;
    if (cores >= 4) {
        c.l2Enabled = true;
        c.coresPerCluster = 4;
    }
    return c;
}

struct VecAddOutcome
{
    std::vector<int32_t> result;
    uint64_t cycles = 0;
    uint64_t threadInstrs = 0;
};

VecAddOutcome
runVecAdd(uint32_t cores, bool reversed, uint32_t n)
{
    runtime::Device dev(machine(cores));
    dev.processor().setReverseCoreOrder(reversed);
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
runSmokeAsm(uint32_t cores, bool reversed, const char* src,
            Addr result_addr)
{
    Processor proc(machine(cores));
    proc.setReverseCoreOrder(reversed);
    load(proc, src);
    proc.start();
    EXPECT_TRUE(proc.run(1000000));
    return SmokeOutcome{proc.cycles(), proc.threadInstrs(),
                        proc.ram().read32(result_addr)};
}

} // namespace

TEST(CoreOrder, VecAddBitIdenticalAcrossCoreCounts)
{
    const uint32_t n = 257; // odd size: uneven per-core slices
    for (uint32_t cores : {1u, 2u, 4u, 8u}) {
        VecAddOutcome f = runVecAdd(cores, false, n);
        VecAddOutcome r = runVecAdd(cores, true, n);
        EXPECT_EQ(f.result, r.result) << cores << " cores";
        EXPECT_EQ(f.cycles, r.cycles) << cores << " cores";
        EXPECT_EQ(f.threadInstrs, r.threadInstrs) << cores << " cores";
    }
}

TEST(CoreOrder, SmokeProgramsBitIdentical)
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
        SmokeOutcome f1 = runSmokeAsm(cores, false, store_and_halt, 0x20000);
        SmokeOutcome r1 = runSmokeAsm(cores, true, store_and_halt, 0x20000);
        EXPECT_EQ(f1.cycles, r1.cycles) << cores << " cores";
        EXPECT_EQ(f1.threadInstrs, r1.threadInstrs) << cores << " cores";
        EXPECT_EQ(r1.word, 42u);

        SmokeOutcome f2 = runSmokeAsm(cores, false, loop_sum, 0x20000);
        SmokeOutcome r2 = runSmokeAsm(cores, true, loop_sum, 0x20000);
        EXPECT_EQ(f2.cycles, r2.cycles) << cores << " cores";
        EXPECT_EQ(f2.threadInstrs, r2.threadInstrs) << cores << " cores";
        EXPECT_EQ(r2.word, 55u);
    }
}

TEST(CoreOrder, RodiniaKernelsBitIdentical)
{
    // sgemm (compute-bound) and gaussian (barrier-heavy) on an 8-core
    // clustered machine, and on 2 cores that share the board-memory
    // queue with no L2 in between (where a request that skips its
    // staging port is seen by the other core at once); both verify
    // device results against the host reference internally.
    for (uint32_t cores : {2u, 8u}) {
        for (const char* kernel : {"sgemm", "gaussian"}) {
            runtime::Device fdev(machine(cores));
            runtime::RunResult f = runtime::runRodinia(fdev, kernel);
            runtime::Device rdev(machine(cores));
            rdev.processor().setReverseCoreOrder(true);
            runtime::RunResult r = runtime::runRodinia(rdev, kernel);
            EXPECT_TRUE(f.ok) << kernel << ": " << f.error;
            EXPECT_TRUE(r.ok) << kernel << ": " << r.error;
            EXPECT_EQ(f.cycles, r.cycles) << kernel << " " << cores;
            EXPECT_EQ(f.threadInstrs, r.threadInstrs)
                << kernel << " " << cores;
        }
    }
}

TEST(CoreOrder, FlatCoresCounterRowBitIdentical)
{
    // Four cores with no L2 and no L3: all eight L1s are lanes of the one
    // board-memory queue, so a request that skipped its staging port
    // would take queue space the other cores see in the same cycle.
    // saxpy is memory-bound and race-free, so its whole counter row must
    // not depend on the order the cores tick in.
    const auto row = [](bool reversed) {
        ArchConfig c = machine(4);
        c.l2Enabled = false;
        runtime::Device dev(c);
        dev.processor().setReverseCoreOrder(reversed);
        runtime::RunResult r = runtime::runRodinia(dev, "saxpy");
        EXPECT_TRUE(r.ok) << r.error;
        StatGroup flat;
        dev.processor().collectStats(flat);
        return statRows(flat);
    };
    const auto forward = row(false);
    const auto reversed = row(true);
    ASSERT_EQ(forward.size(), reversed.size());
    for (size_t i = 0; i < forward.size(); ++i)
        EXPECT_EQ(forward[i], reversed[i]) << "counter #" << i;
}

TEST(CoreOrder, TextureRenderBitIdentical)
{
    // The hardware `tex` render verifies every output texel against the
    // host sampler; cycles/instr identity pins the timing.
    runtime::Device fdev(machine(2));
    runtime::RunResult f =
        runtime::runTexture(fdev, runtime::TexFilterMode::Bilinear,
                            /*hardware=*/true, 32);
    runtime::Device rdev(machine(2));
    rdev.processor().setReverseCoreOrder(true);
    runtime::RunResult r =
        runtime::runTexture(rdev, runtime::TexFilterMode::Bilinear,
                            /*hardware=*/true, 32);
    EXPECT_TRUE(f.ok) << f.error;
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(f.cycles, r.cycles);
    EXPECT_EQ(f.threadInstrs, r.threadInstrs);
}

TEST(CoreOrder, SelfPatchingGuestBitIdentical)
{
    // Core 0 stores over an instruction of the uploaded text on every
    // loop trip and runs the patched word, while the other cores keep
    // fetching the rest of the text: the processor re-decodes its text
    // before the core phase that follows each such store, in either
    // core order.
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
    auto run = [&](bool reversed) {
        runtime::Device dev(machine(cores));
        dev.processor().setReverseCoreOrder(reversed);
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
    const Outcome f = run(false);
    const Outcome r = run(true);
    EXPECT_EQ(f.sums, (std::vector<uint32_t>{72, 16, 16, 16}));
    EXPECT_EQ(f.sums, r.sums);
    EXPECT_EQ(f.cycles, r.cycles);
    EXPECT_GE(f.epoch, 8u);
    EXPECT_EQ(f.epoch, r.epoch);
}
