/**
 * @file
 * Tests for the harness-free workload zoo (the .s files under
 * examples/kernels/ run with `check = "selfcheck"`): every checked-in self-checking guest program
 * runs green through the self-check mailbox on two machine geometries
 * and in both core orders, with bit-identical cycles and retired thread
 * instructions between the orders (the simulator's determinism
 * contract for data-race-free guests); a deliberately corrupted
 * workload must FAIL through the mailbox, not silently pass; and the
 * shipped workload_zoo spec drives the same programs end to end.
 */

#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <sstream>

#include "common/log.h"
#include "runtime/device.h"
#include "runtime/workloads.h"
#include "sweep/presets.h"
#include "sweep/spec.h"
#include "sweep/specfile.h"

using namespace vortex;

namespace {

/** The self-checking guests; every file here must be green under
 *  `check = "selfcheck"` with zero per-workload C++ harness code. Keep
 *  in sync with the workload_zoo preset (src/sweep/presets.cpp). */
const char* const kZoo[] = {"bitonic",        "reduce_tree",
                            "histogram",      "stress_barrier",
                            "stress_diverge", "stress_bank"};

std::string
kernelsDir()
{
    return VORTEX_KERNELS_DIR;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Self-check workload spec for one zoo program. */
sweep::WorkloadSpec
zooWorkload(const std::string& name)
{
    sweep::WorkloadSpec w;
    w.kernel = name;
    w.program = kernelsDir() + "/" + name + ".s";
    w.programSource = readFile(w.program);
    w.check = "selfcheck";
    return w;
}

} // namespace

TEST(WorkloadZoo, EveryWorkloadSelfChecksBitIdenticalAcrossCoreOrders)
{
    for (const char* name : kZoo) {
        sweep::WorkloadSpec w = zooWorkload(name);
        for (uint32_t cores : {1u, 4u}) {
            core::ArchConfig cfg = sweep::baselineConfig(1);
            cfg.numCores = cores;

            uint64_t forwardCycles = 0, forwardInstrs = 0;
            for (bool reversed : {false, true}) {
                runtime::Device dev(cfg);
                dev.processor().setReverseCoreOrder(reversed);
                runtime::RunResult r = w.run(dev);
                ASSERT_TRUE(r.ok)
                    << name << " cores=" << cores
                    << " reversed=" << reversed << ": " << r.error;
                EXPECT_TRUE(dev.readSelfCheck().passed()) << name;
                if (!reversed) {
                    forwardCycles = r.cycles;
                    forwardInstrs = r.threadInstrs;
                } else {
                    EXPECT_EQ(r.cycles, forwardCycles)
                        << name << " cores=" << cores;
                    EXPECT_EQ(r.threadInstrs, forwardInstrs)
                        << name << " cores=" << cores;
                }
            }
        }
    }
}

TEST(WorkloadZoo, CorruptedWorkloadFailsThroughTheMailbox)
{
    // Sabotage stress_barrier's expectation (sum(1..32) = 528 -> 529):
    // every counter now mismatches, the guest takes its FAIL path, and
    // the verdict must surface both in the mailbox and in the result.
    // A check harness that "passed" here would be vacuous.
    std::string source = readFile(kernelsDir() + "/stress_barrier.s");
    const std::string good = "li t6, 528";
    size_t at = source.find(good);
    ASSERT_NE(at, std::string::npos);
    source.replace(at, good.size(), "li t6, 529");

    core::ArchConfig cfg = sweep::baselineConfig(1);
    runtime::Device dev(cfg);
    runtime::RunResult r = runtime::runSelfCheck(
        dev, {"stress_barrier_corrupt.s",
              {{"stress_barrier_corrupt.s", source}}});
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("self-check FAIL"), std::string::npos)
        << r.error;
    runtime::Device::SelfCheck check = dev.readSelfCheck();
    EXPECT_TRUE(check.failed());
    EXPECT_FALSE(check.passed());
    // Detail word: first bad counter index — counter[0] already wrong.
    EXPECT_EQ(check.detail, 0u);
}

TEST(WorkloadZoo, GuestThatNeverReportsIsAFailureNotAPass)
{
    // A program that finishes without touching the mailbox must not be
    // confused with a passing one: status stays 0 (Device::start()
    // zeroes the mailbox) and runSelfCheck reports the missing verdict.
    core::ArchConfig cfg = sweep::baselineConfig(1);
    runtime::Device dev(cfg);
    runtime::RunResult r = runtime::runSelfCheck(
        dev, {"silent.s", {{"silent.s", "main:\n    ret\n"}}});
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("never wrote a self-check verdict"),
              std::string::npos)
        << r.error;
    runtime::Device::SelfCheck check = dev.readSelfCheck();
    EXPECT_FALSE(check.passed());
    EXPECT_FALSE(check.failed());
    EXPECT_EQ(check.status, 0u);
}

TEST(WorkloadZoo, ShippedZooSpecCoversEveryWorkloadWithSelfCheck)
{
    // The shipped spec is the CI entry point for the zoo: it must name
    // every checked-in self-checking workload (at 1 and 2 cores) and
    // route each through `check = "selfcheck"` with its source eagerly
    // read (the program text is part of the cache key).
    ::setenv("VORTEX_PROGRAM_PATH", (kernelsDir() + "/../..").c_str(), 1);
    sweep::SweepSpec spec = sweep::parseSpecFile(
        std::string(VORTEX_SPECS_DIR) + "/workload_zoo.toml");
    std::vector<sweep::RunSpec> runs = spec.expand();
    ASSERT_EQ(runs.size(), std::size(kZoo) * 2);
    for (const char* name : kZoo) {
        size_t points = 0;
        for (const sweep::RunSpec& r : runs) {
            if (r.workload.kernel != name)
                continue;
            ++points;
            EXPECT_EQ(r.workload.check, "selfcheck") << r.id();
            EXPECT_EQ(r.workload.program,
                      std::string("examples/kernels/") + name + ".s")
                << r.id();
            EXPECT_FALSE(r.workload.programSource.empty()) << r.id();
            EXPECT_NE(r.canonical().find("check = selfcheck"),
                      std::string::npos)
                << r.id();
        }
        EXPECT_EQ(points, 2u) << name;
    }
}
