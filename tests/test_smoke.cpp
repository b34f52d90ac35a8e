/**
 * @file
 * End-to-end smoke tests: tiny assembly programs through the full
 * assembler -> processor pipeline, then a complete vecadd kernel through
 * the driver stack.
 */

#include <gtest/gtest.h>

#include "core/processor.h"
#include "isa/assembler.h"
#include "kernels/kernels.h"
#include "runtime/device.h"
#include "runtime/kargs.h"

using namespace vortex;

namespace {

core::ArchConfig
smallConfig()
{
    core::ArchConfig cfg;
    cfg.numThreads = 4;
    cfg.numWarps = 4;
    cfg.numCores = 1;
    return cfg;
}

} // namespace

TEST(Smoke, StoreAndHalt)
{
    core::ArchConfig cfg = smallConfig();
    core::Processor proc(cfg);

    isa::Assembler as(cfg.startPC);
    isa::Program prog = as.assemble(R"(
        li t0, 0x20000
        li t1, 42
        sw t1, 0(t0)
        li t2, 0
        vx_tmc t2
    )");
    proc.ram().writeBlock(prog.base, prog.image.data(), prog.image.size());
    proc.start();
    ASSERT_TRUE(proc.run(100000));
    EXPECT_EQ(proc.ram().read32(0x20000), 42u);
    EXPECT_GT(proc.cycles(), 0u);
}

TEST(Smoke, LoopSum)
{
    core::ArchConfig cfg = smallConfig();
    core::Processor proc(cfg);

    // Sum 1..10 into memory.
    isa::Assembler as(cfg.startPC);
    isa::Program prog = as.assemble(R"(
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
    )");
    proc.ram().writeBlock(prog.base, prog.image.data(), prog.image.size());
    proc.start();
    ASSERT_TRUE(proc.run(100000));
    EXPECT_EQ(proc.ram().read32(0x20000), 55u);
}

TEST(Smoke, VecAddKernel)
{
    runtime::Device dev(smallConfig());
    const uint32_t n = 64;

    std::vector<int32_t> a(n), b(n), c(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(i);
        b[i] = static_cast<int32_t>(1000 + i);
    }
    Addr da = dev.memAlloc(n * 4);
    Addr db = dev.memAlloc(n * 4);
    Addr dc = dev.memAlloc(n * 4);
    dev.copyToDev(da, a.data(), n * 4);
    dev.copyToDev(db, b.data(), n * 4);

    dev.uploadKernel(kernels::kernel("vecadd"));
    runtime::VecAddArgs args{n, da, db, dc};
    dev.setKernelArg(args);
    dev.runKernel(5000000);

    dev.copyFromDev(c.data(), dc, n * 4);
    for (uint32_t i = 0; i < n; ++i)
        EXPECT_EQ(c[i], a[i] + b[i]) << "at " << i;
    EXPECT_GT(dev.ipc(), 0.0);
}

TEST(Smoke, VecAddOddSizeAndMultiCore)
{
    core::ArchConfig cfg = smallConfig();
    cfg.numCores = 2;
    runtime::Device dev(cfg);
    const uint32_t n = 77; // not a multiple of the thread count

    std::vector<int32_t> a(n), b(n), c(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(3 * i);
        b[i] = static_cast<int32_t>(-i);
    }
    Addr da = dev.memAlloc(n * 4);
    Addr db = dev.memAlloc(n * 4);
    Addr dc = dev.memAlloc(n * 4);
    dev.copyToDev(da, a.data(), n * 4);
    dev.copyToDev(db, b.data(), n * 4);

    dev.uploadKernel(kernels::kernel("vecadd"));
    runtime::VecAddArgs args{n, da, db, dc};
    dev.setKernelArg(args);
    dev.runKernel(5000000);

    dev.copyFromDev(c.data(), dc, n * 4);
    for (uint32_t i = 0; i < n; ++i)
        EXPECT_EQ(c[i], a[i] + b[i]) << "at " << i;
}
