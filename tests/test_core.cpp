/**
 * @file
 * Core microarchitecture tests: the four-mask hierarchical wavefront
 * scheduler, the scoreboard, barrier tables (local and global), the IPDOM
 * stack capacity, pipeline-level behaviours exercised through small
 * programs (fence draining, wspawn scheduling, barrier stalls), the
 * processor's decoded program text with its checked invalidation, and
 * the geometry the processor rejects. The core-order oracle's cases are
 * in test_parallel.cpp.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "core/barrier.h"
#include "core/processor.h"
#include "core/scheduler.h"
#include "core/scoreboard.h"
#include "isa/assembler.h"
#include "isa/csr.h"

using namespace vortex;
using namespace vortex::core;

//
// WarpScheduler.
//

TEST(Scheduler, SelectsOnlyActive)
{
    WarpScheduler sched(4);
    EXPECT_FALSE(sched.select(~0ull).has_value());
    sched.setActive(1, true);
    auto sel = sched.select(~0ull);
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(*sel, 1u);
}

TEST(Scheduler, HierarchicalRoundRobin)
{
    WarpScheduler sched(4);
    for (WarpId w = 0; w < 4; ++w)
        sched.setActive(w, true);
    // One refill of the visible mask serves each wavefront exactly once.
    std::set<WarpId> seen;
    for (int i = 0; i < 4; ++i) {
        auto sel = sched.select(~0ull);
        ASSERT_TRUE(sel.has_value());
        seen.insert(*sel);
    }
    EXPECT_EQ(seen.size(), 4u);
    // Next round refills.
    EXPECT_TRUE(sched.select(~0ull).has_value());
}

TEST(Scheduler, StallAndBarrierMasksExclude)
{
    WarpScheduler sched(4);
    sched.setActive(0, true);
    sched.setActive(1, true);
    sched.setStalled(0, true);
    sched.setBarrier(1, true);
    EXPECT_FALSE(sched.select(~0ull).has_value());
    sched.setStalled(0, false);
    auto sel = sched.select(~0ull);
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(*sel, 0u);
}

TEST(Scheduler, EligibilityMaskKeepsVisibleSlot)
{
    WarpScheduler sched(2);
    sched.setActive(0, true);
    sched.setActive(1, true);
    // Wavefront 0 ineligible (e.g. full ibuffer): 1 is picked, 0 retains
    // its visible slot and is picked next.
    auto sel = sched.select(~1ull);
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(*sel, 1u);
    sel = sched.select(~0ull);
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(*sel, 0u);
}

TEST(Scheduler, DeactivationClearsAllMasks)
{
    WarpScheduler sched(4);
    sched.setActive(2, true);
    sched.setStalled(2, true);
    sched.setBarrier(2, true);
    sched.setActive(2, false);
    EXPECT_FALSE(sched.isStalled(2));
    EXPECT_FALSE(sched.isBarrier(2));
    EXPECT_EQ(sched.activeMask(), 0u);
}

//
// Scoreboard.
//

TEST(Scoreboard, TracksIntAndFpSeparately)
{
    Scoreboard sb(2);
    isa::RegRef xi{isa::RegFile::Int, 5};
    isa::RegRef fi{isa::RegFile::Fp, 5};
    sb.setBusy(0, xi);
    EXPECT_TRUE(sb.busy(0, xi));
    EXPECT_FALSE(sb.busy(0, fi));
    EXPECT_FALSE(sb.busy(1, xi)); // other wavefront unaffected
    sb.setBusy(0, fi);
    sb.clearBusy(0, xi);
    EXPECT_FALSE(sb.busy(0, xi));
    EXPECT_TRUE(sb.busy(0, fi));
}

TEST(Scoreboard, X0NeverBusy)
{
    Scoreboard sb(1);
    isa::RegRef x0{isa::RegFile::Int, 0};
    sb.setBusy(0, x0);
    EXPECT_FALSE(sb.busy(0, x0));
    EXPECT_FALSE(sb.anyBusy(0));
}

TEST(Scoreboard, InstructionReadiness)
{
    Scoreboard sb(1);
    isa::Instr add;
    add.kind = isa::InstrKind::ADD;
    add.rd = 3;
    add.rs1 = 1;
    add.rs2 = 2;
    EXPECT_TRUE(sb.ready(0, add));
    sb.setBusy(0, {isa::RegFile::Int, 1}); // RAW on rs1
    EXPECT_FALSE(sb.ready(0, add));
    sb.clearBusy(0, {isa::RegFile::Int, 1});
    sb.setBusy(0, {isa::RegFile::Int, 3}); // WAW on rd
    EXPECT_FALSE(sb.ready(0, add));
}

//
// Barrier tables.
//

TEST(BarrierTable, ReleasesAtCount)
{
    BarrierTable bt;
    EXPECT_EQ(bt.arrive(0, 3, 0), 0u);
    EXPECT_EQ(bt.arrive(0, 3, 1), 0u);
    EXPECT_EQ(bt.arrive(0, 3, 2), 0b111u);
    EXPECT_FALSE(bt.anyWaiting());
    // Reusable after firing.
    EXPECT_EQ(bt.arrive(0, 2, 0), 0u);
    EXPECT_EQ(bt.arrive(0, 2, 3), 0b1001u);
}

TEST(BarrierTable, IndependentIds)
{
    BarrierTable bt;
    EXPECT_EQ(bt.arrive(1, 2, 0), 0u);
    EXPECT_EQ(bt.arrive(2, 2, 1), 0u);
    EXPECT_EQ(bt.arrive(1, 2, 2), 0b101u);
    EXPECT_TRUE(bt.anyWaiting()); // id 2 still waiting
}

TEST(GlobalBarrierTable, CountsAcrossCores)
{
    GlobalBarrierTable gt;
    EXPECT_TRUE(gt.arrive(9, 3, 0, 0).empty());
    EXPECT_TRUE(gt.arrive(9, 3, 1, 0).empty());
    auto rel = gt.arrive(9, 3, 2, 0);
    ASSERT_EQ(rel.size(), 3u);
    EXPECT_EQ(rel[0].core, 0u);
    EXPECT_EQ(rel[2].core, 2u);
}

//
// IPDOM capacity.
//

TEST(Ipdom, OverflowIsFatal)
{
    IpdomStack st(2);
    st.push({1, 0, true});
    st.push({2, 0, false});
    EXPECT_THROW(st.push({3, 0, true}), FatalError);
}

//
// Pipeline-level programs.
//

namespace {

Processor
makeProc(uint32_t warps = 4, uint32_t threads = 4, uint32_t cores = 1)
{
    ArchConfig cfg;
    cfg.numWarps = warps;
    cfg.numThreads = threads;
    cfg.numCores = cores;
    return Processor(cfg);
}

void
load(Processor& proc, const std::string& src)
{
    isa::Assembler as(proc.config().startPC);
    isa::Program p = as.assemble(src);
    proc.ram().writeBlock(p.base, p.image.data(), p.image.size());
}

} // namespace

TEST(Pipeline, FenceDrainsStores)
{
    Processor proc = makeProc();
    load(proc, R"(
        li t0, 0x20000
        li t1, 1
        sw t1, 0(t0)
        fence
        sw t1, 4(t0)
        li t2, 0
        vx_tmc t2
    )");
    proc.start();
    ASSERT_TRUE(proc.run(100000));
    EXPECT_EQ(proc.ram().read32(0x20000), 1u);
    EXPECT_EQ(proc.ram().read32(0x20004), 1u);
}

TEST(Pipeline, WspawnRunsAllWarps)
{
    // Each spawned wavefront stores its warp id then halts.
    Processor proc = makeProc(4, 4);
    load(proc, R"(
        # wavefront 0 spawns 1..3 then does the same work
        li t0, 4
        la t1, work
        vx_wspawn t0, t1
    work:
        csrr t2, 0xCC1      # warp id
        li t3, 0x20000
        slli t4, t2, 2
        add t3, t3, t4
        addi t5, t2, 100
        sw t5, 0(t3)
        li t6, 0
        vx_tmc t6
    )");
    proc.start();
    ASSERT_TRUE(proc.run(100000));
    for (uint32_t w = 0; w < 4; ++w)
        EXPECT_EQ(proc.ram().read32(0x20000 + 4 * w), 100 + w);
}

TEST(Pipeline, LocalBarrierOrdersPhases)
{
    // Wavefront 1 writes, both hit a barrier, wavefront 0 reads after.
    Processor proc = makeProc(2, 1);
    load(proc, R"(
        li t0, 2
        la t1, waiter
        vx_wspawn t0, t1
        # wavefront 0: spin some cycles, then write, then barrier
        li t2, 40
    spin:
        addi t2, t2, -1
        bnez t2, spin
        li t3, 0x20000
        li t4, 77
        sw t4, 0(t3)
        li t5, 0
        li t6, 2
        vx_bar t5, t6
        li t2, 0
        vx_tmc t2
    waiter:
        li t5, 0
        li t6, 2
        vx_bar t5, t6
        # after the barrier the write must be visible
        li t3, 0x20000
        lw t4, 0(t3)
        sw t4, 4(t3)
        li t2, 0
        vx_tmc t2
    )");
    proc.start();
    ASSERT_TRUE(proc.run(100000));
    EXPECT_EQ(proc.ram().read32(0x20004), 77u);
}

TEST(Pipeline, GlobalBarrierAcrossCores)
{
    // Every core increments a per-core slot, crosses a global barrier,
    // then core 0 sums all slots.
    Processor proc = makeProc(2, 2, 4);
    load(proc, R"(
        csrr t0, 0xCC2       # core id
        li t1, 0x20000
        slli t2, t0, 2
        add t2, t2, t1
        addi t3, t0, 1
        sw t3, 0(t2)         # slot[core] = core+1
        # global barrier: one wavefront per core
        li t4, 1
        slli t4, t4, 31
        csrr t5, 0xFC2       # NC
        vx_bar t4, t5
        # core 0 sums
        bnez t0, done
        li t6, 0
        lw t2, 0(t1)
        add t6, t6, t2
        lw t2, 4(t1)
        add t6, t6, t2
        lw t2, 8(t1)
        add t6, t6, t2
        lw t2, 12(t1)
        add t6, t6, t2
        sw t6, 16(t1)
    done:
        li t2, 0
        vx_tmc t2
    )");
    proc.start();
    ASSERT_TRUE(proc.run(200000));
    EXPECT_EQ(proc.ram().read32(0x20010), 1u + 2 + 3 + 4);
}

TEST(Pipeline, CyclesAdvanceAndIpcPositive)
{
    Processor proc = makeProc();
    load(proc, R"(
        li t0, 100
    loop:
        addi t0, t0, -1
        bnez t0, loop
        li t1, 0
        vx_tmc t1
    )");
    proc.start();
    ASSERT_TRUE(proc.run(100000));
    EXPECT_GT(proc.cycles(), 200u);
    EXPECT_GT(proc.threadInstrs(), 200u);
    EXPECT_GT(proc.ipc(), 0.0);
    EXPECT_FALSE(proc.busy());
}

TEST(Pipeline, TimeoutReturnsFalse)
{
    Processor proc = makeProc();
    load(proc, R"(
    forever:
        j forever
    )");
    proc.start();
    EXPECT_FALSE(proc.run(5000));
}

TEST(Pipeline, SchedulerCsrVisibility)
{
    // CSR_WARP_MASK reflects active wavefronts from inside the kernel.
    Processor proc = makeProc(4, 1);
    load(proc, R"(
        li t0, 3
        la t1, child
        vx_wspawn t0, t1
        # give children time to start
        li t2, 60
    spin:
        addi t2, t2, -1
        bnez t2, spin
        csrr t3, 0xCC3       # active wavefront mask
        li t4, 0x20000
        sw t3, 0(t4)
        li t5, 0
        vx_tmc t5
    child:
    hold:
        j hold
    )");
    proc.start();
    proc.run(3000); // children never halt; bounded run
    uint32_t mask = proc.ram().read32(0x20000);
    EXPECT_EQ(mask & 0b110u, 0b110u) << "children not visible in mask";
}

TEST(Scheduler, RoundRobinRotatesFairly)
{
    WarpScheduler sched(4, SchedPolicy::RoundRobin);
    for (WarpId w = 0; w < 4; ++w)
        sched.setActive(w, true);
    std::vector<WarpId> order;
    for (int i = 0; i < 8; ++i) {
        auto sel = sched.select(~0ull);
        ASSERT_TRUE(sel.has_value());
        order.push_back(*sel);
    }
    // Strict rotation: every wavefront appears exactly twice, evenly.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(order[i], order[i + 4]);
    std::set<WarpId> first4(order.begin(), order.begin() + 4);
    EXPECT_EQ(first4.size(), 4u);
}

TEST(Scheduler, RoundRobinSkipsIneligible)
{
    WarpScheduler sched(4, SchedPolicy::RoundRobin);
    sched.setActive(1, true);
    sched.setActive(3, true);
    sched.setStalled(3, true);
    auto sel = sched.select(~0ull);
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(*sel, 1u);
    sel = sched.select(~0ull);
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(*sel, 1u); // only eligible wavefront
}

TEST(Pipeline, RoundRobinPolicyRunsKernels)
{
    ArchConfig cfg;
    cfg.schedPolicy = SchedPolicy::RoundRobin;
    Processor proc(cfg);
    load(proc, R"(
        li t0, 4
        la t1, work
        vx_wspawn t0, t1
    work:
        csrr t2, 0xCC1
        li t3, 0x20000
        slli t4, t2, 2
        add t3, t3, t4
        sw t2, 0(t3)
        li t5, 0
        vx_tmc t5
    )");
    proc.start();
    ASSERT_TRUE(proc.run(100000));
    for (uint32_t w = 1; w < 4; ++w)
        EXPECT_EQ(proc.ram().read32(0x20000 + 4 * w), w);
}

//
// Decoded program text: served while no store hits code, checked
// invalidation, and the RAM path for every other fetch.
//

TEST(DecodedText, ServesOnlyAnUnwrittenTextAndChecksInvalidation)
{
    mem::Ram ram;
    const Addr pc = 0x80000000;
    const uint32_t add = 0x00A50533; // add a0, a0, a0
    const uint32_t sub = 0x40A50533; // sub a0, a0, a0
    ram.write32(pc, add);
    ram.write32(pc + 4, add);
    DecodedText text(ram);
    text.load(pc, 8);
    ASSERT_EQ(text.size(), 2u);
    ASSERT_NE(text.find(pc), nullptr);
    EXPECT_EQ(text.find(pc)->raw, add);

    // A store to an unrelated (non-code) page neither bumps the epoch nor
    // stales the text.
    const uint64_t epoch = ram.codeWriteEpoch();
    ram.write32(0x10000000, 0xDEADBEEF);
    EXPECT_EQ(ram.codeWriteEpoch(), epoch);
    EXPECT_NE(text.find(pc), nullptr);

    // A PC outside the text, or unaligned, is not served: the core decodes
    // it from RAM, marking its page, so a later store there is seen too.
    EXPECT_EQ(text.find(pc - 4), nullptr);
    EXPECT_EQ(text.find(pc + 8), nullptr);
    EXPECT_EQ(text.find(pc + 2), nullptr);
    const Addr far = 0x90000000;
    ram.write32(far, sub);
    EXPECT_EQ(ram.codeWriteEpoch(), epoch);
    EXPECT_EQ(text.decodeAt(far).kind, isa::InstrKind::SUB);
    ram.write32(far, add);
    EXPECT_EQ(ram.codeWriteEpoch(), epoch + 1);
    EXPECT_EQ(text.find(pc), nullptr); // any code store stales the text
    text.refresh();
    ASSERT_NE(text.find(pc), nullptr);

    // Overwriting a decoded instruction stales the text at once: the next
    // fetch, still in the same cycle, decodes the new word from RAM, and
    // the refresh between cycles decodes it into the text.
    ram.write32(pc, sub);
    EXPECT_EQ(text.find(pc), nullptr);
    EXPECT_EQ(text.decodeAt(pc).raw, sub);
    text.refresh();
    ASSERT_NE(text.find(pc), nullptr);
    EXPECT_EQ(text.find(pc)->kind, isa::InstrKind::SUB);

    // Bulk program reloads (the driver path) are caught too.
    ram.writeBlock(pc, &add, 4);
    EXPECT_EQ(text.find(pc), nullptr);
    text.refresh();
    ASSERT_NE(text.find(pc), nullptr);
    EXPECT_EQ(text.find(pc)->raw, add);
}

namespace {

/** Load @p src and decode its [base, execEnd) as the processor's text,
 *  as Device::uploadObject does. */
isa::Program
upload(Processor& proc, const std::string& src)
{
    isa::Assembler as(proc.config().startPC);
    isa::Program p = as.assemble(src);
    proc.ram().writeBlock(p.base, p.image.data(), p.image.size());
    proc.loadText(p.base, p.execEnd - p.base);
    return p;
}

} // namespace

TEST(DecodedText, StoreOverUploadedCodeIsFetchedAndRebuiltNextCycle)
{
    // The guest patches the instruction after a jump (a control
    // instruction: fetch waits until it executes, after the store) and
    // then runs the patched word.
    Processor proc(ArchConfig{});
    const isa::Program p = upload(proc, R"(
        la t0, patch
        li t1, 0x00700513
        sw t1, 0(t0)
        j patch
    patch:
        li a0, 1
        li t2, 0x20000
        sw a0, 0(t2)
        li t3, 0
        vx_tmc t3
    )");
    const Addr patch = p.symbols.at("patch");
    ASSERT_NE(proc.text().find(patch), nullptr);
    // The hook runs after every cycle: the text is stale after exactly
    // the cycle of the store, and fresh again after the next one.
    std::vector<Cycle> stale;
    proc.setFaultHook([&](Processor& pr, Cycle now) {
        if (!pr.text().find(patch))
            stale.push_back(now);
    });
    proc.start();
    ASSERT_TRUE(proc.run(100000));
    EXPECT_EQ(proc.ram().read32(0x20000), 7u); // li a0, 7 ran
    ASSERT_EQ(stale.size(), 1u);
    ASSERT_NE(proc.text().find(patch), nullptr);
    EXPECT_EQ(proc.text().find(patch)->raw, 0x00700513u);
}

TEST(DecodedText, FetchesOutsideTheTextDecodeFromRam)
{
    // Only the first two words are the processor's text; the rest of the
    // program, and every word of a program that was never uploaded
    // (written word by word, as the exec and smoke suites do), decodes
    // from RAM on each fetch.
    const char* src = R"(
        li t0, 0
        li t1, 10
    loop:
        add t0, t0, t1
        addi t1, t1, -1
        bnez t1, loop
        li t2, 0x20000
        sw t0, 0(t2)
        li t3, 0
        vx_tmc t3
    )";
    Processor partial(ArchConfig{});
    const isa::Program p = upload(partial, src);
    partial.loadText(p.base, 8);
    EXPECT_EQ(partial.text().size(), 2u);

    Processor raw(ArchConfig{});
    for (size_t i = 0; i < p.image.size(); i += 4) {
        uint32_t word;
        std::memcpy(&word, &p.image[i], 4);
        raw.ram().write32(p.base + static_cast<Addr>(i), word);
    }
    EXPECT_EQ(raw.text().size(), 0u);

    Processor whole(ArchConfig{});
    upload(whole, src);
    for (Processor* proc : {&partial, &raw, &whole}) {
        proc->start();
        ASSERT_TRUE(proc->run(100000));
        EXPECT_EQ(proc->ram().read32(0x20000), 55u);
    }
    EXPECT_EQ(partial.cycles(), whole.cycles());
    EXPECT_EQ(raw.cycles(), whole.cycles());
}

//
// Geometry the processor rejects by name (otherwise a division by zero,
// a deadlock, a panic deep in a queue, or a silently widened bus).
//

TEST(Processor, RejectsZeroCoresPerCluster)
{
    ArchConfig cfg;
    cfg.coresPerCluster = 0;
    EXPECT_THROW(Processor{cfg}, FatalError);
}

TEST(Processor, RejectsZeroLsuDepth)
{
    ArchConfig cfg;
    cfg.lsuDepth = 0;
    EXPECT_THROW(Processor{cfg}, FatalError);
}

TEST(Processor, RejectsZeroMshrEntries)
{
    ArchConfig cfg;
    cfg.mshrEntries = 0;
    EXPECT_THROW(Processor{cfg}, FatalError);
}

namespace {

/** Building @p cfg fails with a FatalError that names @p field. */
void
expectRejected(const ArchConfig& cfg, const std::string& field)
{
    try {
        Processor proc(cfg);
        ADD_FAILURE() << field << " = 0 was accepted";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

} // namespace

TEST(Processor, RejectsZeroIbufferDepth)
{
    ArchConfig cfg;
    cfg.ibufferDepth = 0;
    expectRejected(cfg, "ibufferDepth");
}

TEST(Processor, RejectsZeroSmemLatency)
{
    ArchConfig cfg;
    cfg.smemLatency = 0;
    expectRejected(cfg, "smemLatency");
}

TEST(Processor, RejectsZeroMemQueueDepth)
{
    ArchConfig cfg;
    cfg.mem.queueDepth = 0;
    expectRejected(cfg, "mem.queueDepth");
}

TEST(Processor, RejectsZeroMemBusWidth)
{
    ArchConfig cfg;
    cfg.mem.busWidth = 0;
    expectRejected(cfg, "mem.busWidth");
}

TEST(Processor, RejectsZeroFuLatencies)
{
    const std::pair<const char*, uint32_t FuLatencies::*> fields[] = {
        {"lat.alu", &FuLatencies::alu},     {"lat.mul", &FuLatencies::mul},
        {"lat.div", &FuLatencies::div},     {"lat.fpu", &FuLatencies::fpu},
        {"lat.fcvt", &FuLatencies::fcvt},   {"lat.fdiv", &FuLatencies::fdiv},
        {"lat.fsqrt", &FuLatencies::fsqrt}, {"lat.sfu", &FuLatencies::sfu}};
    for (const auto& [field, member] : fields) {
        ArchConfig cfg;
        cfg.lat.*member = 0;
        expectRejected(cfg, field);
    }
}

TEST(Processor, L3LaneCountIsL3Config)
{
    // One lane per L2 in front of the L3, else one per L1.
    for (bool l2 : {true, false}) {
        ArchConfig cfg;
        cfg.numCores = 8;
        cfg.coresPerCluster = 4;
        cfg.l2Enabled = l2;
        cfg.l3Enabled = true;
        Processor proc(cfg);
        EXPECT_EQ(cfg.l3Config().numLanes, proc.l3()->config().numLanes)
            << "l2Enabled=" << l2;
    }
}
