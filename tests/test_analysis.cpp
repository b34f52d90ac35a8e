/**
 * @file
 * Static-analyzer tests: a negative corpus where each guest-invariant
 * violation is pinned to its exact diagnostic (pc, check id, severity),
 * and a positive sweep proving every shipped kernel verifies clean on
 * every machine shape the campaigns run.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/analysis.h"
#include "common/log.h"
#include "isa/assembler.h"
#include "kernels/kernels.h"
#include "runtime/device.h"
#include "sweep/spec.h"

using namespace vortex;
using analysis::AnalyzerOptions;
using analysis::Report;
using analysis::Severity;

namespace {

constexpr Addr kBase = 0x80000000;

/** Assemble a freestanding snippet and analyze it. */
Report
analyzeAsm(const std::string& src, isa::Program& program,
           AnalyzerOptions opts = {})
{
    isa::Assembler as(kBase);
    program = as.assemble(src);
    return analysis::analyze(program, opts);
}

/** The diagnostic at (@p check, @p pc), or nullptr. */
const analysis::Diagnostic*
findDiag(const Report& r, const std::string& check, Addr pc)
{
    for (const analysis::Diagnostic& d : r.diagnostics)
        if (d.check == check && d.pc == pc)
            return &d;
    return nullptr;
}

/** Options with a tiny two-region memory map for the bounds tests. */
AnalyzerOptions
boundedOptions(const isa::Program& p)
{
    AnalyzerOptions opts;
    opts.memMap.regions.push_back(
        {"code", p.base, p.image.size(), /*writable=*/false});
    opts.memMap.regions.push_back({"heap", 0x10000, 0x100, true});
    return opts;
}

} // namespace

//
// Negative corpus — each test pins one invariant violation to its
// exact diagnostic.
//

TEST(Analysis, UnbalancedSplitReportsAtReturn)
{
    isa::Program p;
    Report r = analyzeAsm(R"(
        vx_split zero
    bad:
        ret
    )",
                          p);
    const auto* d = findDiag(r, "ipdom.balance", p.symbol("bad"));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("1 unclosed split"), std::string::npos);
    EXPECT_EQ(r.errors(), 1u);
}

TEST(Analysis, JoinWithoutSplitUnderflows)
{
    isa::Program p;
    Report r = analyzeAsm(R"(
    bad:
        vx_join
        ecall
    )",
                          p);
    const auto* d = findDiag(r, "ipdom.balance", p.symbol("bad"));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("underflow"), std::string::npos);
}

TEST(Analysis, BarrierUnderDivergenceDeadlocks)
{
    isa::Program p;
    Report r = analyzeAsm(R"(
        vx_split zero
    bad:
        vx_bar zero, zero
        vx_join
        ecall
    )",
                          p);
    const auto* d = findDiag(r, "barrier.divergence", p.symbol("bad"));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("divergent control flow"),
              std::string::npos);
}

TEST(Analysis, UseBeforeDefIsAnError)
{
    isa::Program p;
    Report r = analyzeAsm(R"(
    bad:
        add a0, t0, t0
        ecall
    )",
                          p);
    const auto* d = findDiag(r, "reg.undef", p.symbol("bad"));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("register t0"), std::string::npos);
    EXPECT_NE(d->message.find("never written"), std::string::npos);
}

TEST(Analysis, PartiallyDefinedReadIsAWarning)
{
    isa::Program p;
    Report r = analyzeAsm(R"(
        beq zero, zero, skip
        li t3, 5
    skip:
    bad:
        add a1, t3, zero
        ecall
    )",
                          p);
    const auto* d = findDiag(r, "reg.maybe-undef", p.symbol("bad"));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_NE(d->message.find("register t3"), std::string::npos);
    EXPECT_EQ(r.errors(), 0u);
}

TEST(Analysis, CalleeSavedSpillPrologueIsExempt)
{
    // The standard ABI prologue reads callee-saved registers (to save
    // them) before this function ever wrote them — never a finding.
    isa::Program p;
    Report r = analyzeAsm(R"(
        addi sp, sp, -8
        sw s0, 0(sp)
        sw s1, 4(sp)
        ecall
    )",
                          p);
    EXPECT_EQ(r.errors(), 0u);
    EXPECT_EQ(r.warnings(), 0u);
}

TEST(Analysis, OutOfBoundsStoreReportsAddress)
{
    isa::Program p0;
    Report r = analyzeAsm(R"(
        lui t0, 0x99999
    bad:
        sw zero, 0(t0)
        ecall
    )",
                          p0);
    // No memory map: the bounds pass is off.
    EXPECT_EQ(findDiag(r, "mem.bounds", p0.symbol("bad")), nullptr);

    isa::Program p;
    isa::Assembler as(kBase);
    p = as.assemble(R"(
        lui t0, 0x99999
    bad:
        sw zero, 0(t0)
        ecall
    )");
    Report rb = analysis::analyze(p, boundedOptions(p));
    const auto* d = findDiag(rb, "mem.bounds", p.symbol("bad"));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("0x99999000"), std::string::npos);
    EXPECT_NE(d->message.find("store"), std::string::npos);
}

TEST(Analysis, MisalignedStoreIsAnError)
{
    isa::Program p2;
    Report r = analyzeAsm(R"(
        lui t0, 0x10
    misaligned:
        sw zero, 2(t0)
        ecall
    )",
                          p2);
    Report rb = analysis::analyze(p2, boundedOptions(p2));
    const auto* d = findDiag(rb, "mem.align", p2.symbol("misaligned"));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("misaligned"), std::string::npos);
}

TEST(Analysis, StoreIntoCodeSegmentWarns)
{
    isa::Program p;
    isa::Assembler as(kBase);
    p = as.assemble(R"(
        lui t0, 0x80000
    bad:
        sw zero, 0(t0)
        ecall
    )");
    Report r = analysis::analyze(p, boundedOptions(p));
    const auto* d = findDiag(r, "mem.code-write", p.symbol("bad"));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_NE(d->message.find("read-only"), std::string::npos);
}

TEST(Analysis, OversizedWspawnExceedsBudget)
{
    isa::Program p;
    Report r = analyzeAsm(R"(
        li t0, 64
        la t1, worker
    bad:
        vx_wspawn t0, t1
        ecall
    worker:
        ecall
    )",
                          p);
    const auto* d = findDiag(r, "wspawn.budget", p.symbol("bad"));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("64"), std::string::npos);
    EXPECT_NE(d->message.find("only 4"), std::string::npos);
}

TEST(Analysis, OversizedTmcExceedsBudget)
{
    isa::Program p;
    Report r = analyzeAsm(R"(
        li t0, 9
    bad:
        vx_tmc t0
        ecall
    )",
                          p);
    const auto* d = findDiag(r, "tmc.budget", p.symbol("bad"));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("9"), std::string::npos);
}

TEST(Analysis, FallThroughOffSegmentEnd)
{
    isa::Program p;
    Report r = analyzeAsm(R"(
        add a0, zero, zero
    )",
                          p);
    bool found = false;
    for (const auto& d : r.diagnostics)
        found |= d.check == "structure.falloff" &&
                 d.severity == Severity::Error;
    EXPECT_TRUE(found);
}

TEST(Analysis, TmcZeroHaltsTheBlock)
{
    // `li t0, 0; vx_tmc t0` retires the wavefront: no falloff and no
    // decoding of whatever bytes follow.
    isa::Program p;
    Report r = analyzeAsm(R"(
        li t0, 0
        vx_tmc t0
        .word 0xffffffff
    )",
                          p);
    EXPECT_EQ(r.errors(), 0u);
    EXPECT_EQ(r.warnings(), 0u);
}

//
// Positive sweep — every shipped kernel verifies clean exactly as the
// driver assembles it, on the machine shapes the campaigns use.
//

namespace {

Report
verifyKernel(const kernels::Guest& guest, const core::ArchConfig& config,
             isa::Program& program)
{
    program = kernels::assembleGuest(config.startPC, guest)
                  .toProgram(config.startPC);
    return analysis::analyze(program,
                             runtime::analyzerOptions(config, program));
}

} // namespace

TEST(Analysis, AllShippedKernelsVerifyClean)
{
    for (const kernels::Guest& k : kernels::allKernels()) {
        isa::Program p;
        Report r = verifyKernel(k, core::ArchConfig{}, p);
        if (!r.clean()) {
            std::ostringstream os;
            r.print(os, &p);
            ADD_FAILURE() << k.name << " did not verify clean:\n"
                          << os.str();
        }
    }
}

TEST(Analysis, KernelsVerifyCleanOnLargeMachines)
{
    core::ArchConfig config;
    config.numCores = 4;
    config.numWarps = 8;
    config.numThreads = 8;
    for (const kernels::Guest& k : kernels::allKernels()) {
        isa::Program p;
        Report r = verifyKernel(k, config, p);
        EXPECT_TRUE(r.clean()) << k.name;
    }
}

TEST(Analysis, ReportIndependentOfTickEngine)
{
    // The analyzer sees the machine geometry, never the host execution
    // strategy: serial and parallel-tick configs must yield
    // byte-identical reports.
    core::ArchConfig serial;
    serial.parallelTick = false;
    core::ArchConfig parallel;
    parallel.parallelTick = true;
    parallel.tickThreads = 4;
    isa::Program ps, pp;
    Report rs = verifyKernel(kernels::kernel("sgemm"), serial, ps);
    Report rp = verifyKernel(kernels::kernel("sgemm"), parallel, pp);
    ASSERT_EQ(rs.diagnostics.size(), rp.diagnostics.size());
    for (size_t i = 0; i < rs.diagnostics.size(); ++i)
        EXPECT_TRUE(rs.diagnostics[i] == rp.diagnostics[i]);
    std::ostringstream a, b;
    rs.writeJson(a, &ps);
    rp.writeJson(b, &pp);
    EXPECT_EQ(a.str(), b.str());
}

TEST(Analysis, AnalysisIsDeterministic)
{
    isa::Program p =
        kernels::assembleGuest(kBase, kernels::kernel("bfs")).toProgram(kBase);
    core::ArchConfig config;
    Report a =
        analysis::analyze(p, runtime::analyzerOptions(config, p));
    Report b =
        analysis::analyze(p, runtime::analyzerOptions(config, p));
    ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
    for (size_t i = 0; i < a.diagnostics.size(); ++i)
        EXPECT_TRUE(a.diagnostics[i] == b.diagnostics[i]);
}

//
// Driver and sweep integration.
//

TEST(Analysis, DeviceVerifyHook)
{
    core::ArchConfig config;
    runtime::Device dev(config);
    EXPECT_THROW(dev.verify(), FatalError); // nothing uploaded yet
    dev.uploadKernel(kernels::kernel("vecadd"));
    Report r = dev.verify();
    EXPECT_TRUE(r.clean());
    EXPECT_GT(r.functionCount, 0u);
    EXPECT_GT(r.instructionCount, 0u);
}

TEST(Analysis, WorkloadKernelNamesResolve)
{
    // Every workload the sweep layer can schedule maps onto a registry
    // kernel, so `--verify` can always find the source it runs.
    sweep::WorkloadSpec w;
    w.kind = sweep::WorkloadSpec::Kind::Rodinia;
    w.kernel = "sgemm";
    EXPECT_NE(kernels::findKernel(sweep::workloadKernelName(w)), nullptr);
    w.kind = sweep::WorkloadSpec::Kind::Texture;
    for (auto mode : {runtime::TexFilterMode::Point,
                      runtime::TexFilterMode::Bilinear,
                      runtime::TexFilterMode::Trilinear})
        for (bool hw : {false, true}) {
            w.texFilter = mode;
            w.texHw = hw;
            EXPECT_NE(kernels::findKernel(sweep::workloadKernelName(w)),
                      nullptr)
                << sweep::workloadKernelName(w);
        }
}

TEST(Analysis, DiagnosticOrderingIsStable)
{
    analysis::Diagnostic err{Severity::Error, 0x10, "b.check", "m"};
    analysis::Diagnostic warn{Severity::Warning, 0x10, "a.check", "m"};
    analysis::Diagnostic later{Severity::Error, 0x14, "a.check", "m"};
    EXPECT_TRUE(err < warn);   // errors first at the same pc
    EXPECT_TRUE(warn < later); // pc dominates
    EXPECT_FALSE(later < err);
}
