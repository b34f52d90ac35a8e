/**
 * @file
 * Pinned differential-fuzzing corpus: 100 seeded random guest programs
 * must assemble through the object pipeline, pass the static analyzer
 * with zero diagnostics, and run bit-identically with the cores ticking
 * in forward and in reversed order. Deterministic by construction
 * (Xorshift only), so a failure here is a real regression in the
 * toolchain, the analyzer, or the simulator's core-order independence —
 * rerun `vortex_fuzz --dump <seed>` to see the offending program.
 */

#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "common/log.h"
#include "fuzz/coverage.h"
#include "fuzz/fuzz.h"

using namespace vortex;
using namespace vortex::fuzz;

TEST(Fuzz, GeneratorIsDeterministicPerSeed)
{
    GeneratedKernel a = generateKernel(42);
    GeneratedKernel b = generateKernel(42);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.numTasks, b.numTasks);
    EXPECT_NE(a.source, generateKernel(43).source);
    EXPECT_GE(a.numTasks, 1u);
    EXPECT_LE(a.numTasks, GenOptions{}.maxTasks);
}

TEST(Fuzz, GeneratedProgramsAreStructurallyWellFormed)
{
    // Spot invariants the generator guarantees by construction: no bar
    // in task bodies (tasks run under divergence) and balanced
    // split/join counts.
    for (uint64_t seed : {1ull, 7ull, 99ull, 12345ull}) {
        GeneratedKernel k = generateKernel(seed);
        EXPECT_EQ(k.source.find("vx_bar"), std::string::npos) << seed;
        size_t splits = 0, joins = 0, pos = 0;
        while ((pos = k.source.find("vx_split", pos)) !=
               std::string::npos) {
            ++splits;
            pos += 8;
        }
        pos = 0;
        while ((pos = k.source.find("vx_join", pos)) !=
               std::string::npos) {
            ++joins;
            pos += 7;
        }
        EXPECT_EQ(splits, joins) << seed;
    }
}

TEST(Fuzz, HundredSeedsRunBitIdenticalAcrossTickBackends)
{
    core::ArchConfig cfg = fuzzConfig();
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        FuzzResult r = runDifferential(seed, cfg);
        ASSERT_TRUE(r.ok) << "seed " << seed << ":\n"
                          << r.detail << "\nprogram:\n"
                          << r.source;
        EXPECT_GT(r.cycles, 0u) << seed;
        EXPECT_GT(r.threadInstrs, 0u) << seed;
    }
}

TEST(Fuzz, CorpusReachesEveryGeneratorShape)
{
    // The pinned 1..100 window must exercise each of the generator's
    // program shapes at least once: leaf-function calls, rodata-table
    // reads (both the table itself and the address-taking `la`), and
    // nested inner loops counted in s1. If a generator change starves
    // one of these shapes out of the window, the corpus silently stops
    // testing that machinery — fail loudly instead.
    bool calls = false, table = false, tableLoad = false, inner = false;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        const std::string& s = generateKernel(seed).source;
        calls |= s.find("call fuzz_fn") != std::string::npos;
        table |= s.find("fuzz_table:") != std::string::npos;
        tableLoad |= s.find("la a7, fuzz_table") != std::string::npos;
        inner |= s.find("bnez s1, ") != std::string::npos;
    }
    EXPECT_TRUE(calls);
    EXPECT_TRUE(table);
    EXPECT_TRUE(tableLoad);
    EXPECT_TRUE(inner);
}

TEST(Fuzz, CoverageJsonRoundTripsAndDetectsRegressions)
{
    CoverageReport r = measureCoverage(1, 10);
    EXPECT_EQ(r.startSeed, 1u);
    EXPECT_EQ(r.seeds, 10u);
    EXPECT_FALSE(r.instrKinds.empty());
    EXPECT_FALSE(r.decodePaths.empty());
    EXPECT_FALSE(r.analyzerChecks.empty());

    // The JSON is a faithful, deterministic serialization.
    std::string json = coverageJson(r);
    CoverageReport back = parseCoverageJson(json, "test");
    EXPECT_EQ(back.startSeed, r.startSeed);
    EXPECT_EQ(back.seeds, r.seeds);
    EXPECT_EQ(back.instrKinds, r.instrKinds);
    EXPECT_EQ(back.decodePaths, r.decodePaths);
    EXPECT_EQ(back.analyzerChecks, r.analyzerChecks);
    EXPECT_EQ(coverageJson(back), json);

    // Identical coverage is never a regression; a baseline entry the
    // corpus no longer reaches is.
    EXPECT_EQ(coverageRegressions(r, r), "");
    CoverageReport demanding = r;
    demanding.instrKinds.insert("xxx.fake");
    std::string regressions = coverageRegressions(demanding, r);
    EXPECT_NE(regressions.find("'xxx.fake'"), std::string::npos)
        << regressions;
    EXPECT_NE(regressions.find("no longer exercised"), std::string::npos);

    // Extra measured coverage beyond the baseline is fine.
    CoverageReport lax = r;
    lax.instrKinds.erase(*lax.instrKinds.begin());
    EXPECT_EQ(coverageRegressions(lax, r), "");
}

TEST(Fuzz, MalformedCoverageBaselinesAreFatalWithAPosition)
{
    // The baseline is read by the JSON reader: a syntax error carries
    // its position, and a missing or mistyped key is named.
    auto error = [](const std::string& text) -> std::string {
        try {
            parseCoverageJson(text, "b.json");
        } catch (const FatalError& e) {
            return e.what();
        }
        return "<ok>";
    };
    const std::string head = "{\"spec\": \"vortex-fuzz-coverage/v1\", "
                             "\"startSeed\": 1, \"seeds\": 2, ";
    const std::string tail =
        "\"decodePaths\": [], \"analyzerChecks\": []}";
    EXPECT_EQ(error(head + "\"instrKinds\": [\"add\"], " + tail), "<ok>");
    EXPECT_EQ(error(head + "\"instrKinds\": [\"add\"]"),
              "fatal: b.json:1:86: expected '}'");
    EXPECT_EQ(error(head + "\"instrKinds\": [1], " + tail),
              "fatal: b.json:1:80: coverage key 'instrKinds' holds a "
              "integer, not a string");
    EXPECT_EQ(error(head + "\"instrKinds\": []}"),
              "fatal: b.json: missing coverage key 'decodePaths'");
    EXPECT_EQ(error("{\"spec\": \"vortex-fuzz-coverage/v2\"}"),
              "fatal: b.json: not a vortex-fuzz-coverage/v1 document");
    EXPECT_EQ(error("{\"spec\": \"vortex-fuzz-coverage/v1\", "
                    "\"startSeed\": -1}"),
              "fatal: b.json:1:50: coverage key 'startSeed' is not an "
              "unsigned integer");
    EXPECT_EQ(error("{\"spec\": \"vortex-fuzz-coverage/v1\", "
                    "\"startSeed\": 1, \"seeds\": 4294967296}"),
              "fatal: b.json:1:62: coverage key 'seeds' is out of range");
}

TEST(Fuzz, PinnedCoverageBaselineMatchesTheCorpusByteForByte)
{
#ifndef VORTEX_CI_DIR
    GTEST_SKIP() << "VORTEX_CI_DIR not configured";
#else
    // The committed baseline IS the coverage of its recorded seed
    // window — byte for byte, like the shipped spec files. CI's fuzz
    // job diffs fresh measurements against this file; if the generator
    // grows (more kinds covered), regenerate with
    // `vortex_fuzz --seeds N --coverage ci/fuzz_coverage_baseline.json`.
    std::string path =
        std::string(VORTEX_CI_DIR) + "/fuzz_coverage_baseline.json";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing pinned baseline " << path;
    std::ostringstream buf;
    buf << in.rdbuf();

    CoverageReport pinned = parseCoverageJson(buf.str(), path);
    CoverageReport fresh = measureCoverage(pinned.startSeed, pinned.seeds);
    EXPECT_EQ(coverageJson(fresh), buf.str())
        << path << " drifted from the generator; regenerate it with "
        << "vortex_fuzz --coverage";

    // The corpus must exercise the instruction families this PR taught
    // the generator (divide/remainder, sub-word memory, FP divide and
    // square root) — the "strictly more covered than before" floor.
    for (const char* kind : {"div", "rem", "lbu", "sh", "fdiv.s",
                             "fsqrt.s"})
        EXPECT_TRUE(fresh.instrKinds.count(kind))
            << kind << " not covered by the pinned corpus window";
#endif
}
