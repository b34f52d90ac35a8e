/**
 * @file
 * Tests for per-interval counter sampling: the StatSampler delta
 * encoding and its fixed-key-list check, counter keys fixed by the
 * machine shape, the Processor-level determinism contract (forward and
 * reversed core order produce bit-identical time series), the
 * campaign plumbing (job-count and cache-state byte-stability of the
 * time-series JSON, cache round-trip of a RunRecord with a series),
 * disabled-by-default behavior, and the result-cache hygiene tools
 * (listing + prune).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>

#include "common/log.h"
#include "common/stats.h"
#include "core/processor.h"
#include "runtime/device.h"
#include "runtime/workloads.h"
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/presets.h"
#include "sweep/spec.h"

using namespace vortex;

namespace {

/** Unique scratch directory under the system temp dir. */
std::string
freshTempDir(const char* tag)
{
    static int serial = 0;
    std::string dir =
        (std::filesystem::temp_directory_path() /
         (std::string("vortex_sampling_test_") + tag + "_" +
          std::to_string(::getpid()) + "_" + std::to_string(serial++)))
            .string();
    std::filesystem::remove_all(dir);
    return dir;
}

/** Run @p kernel on a machine with @p cfg, the cores ticking in
 *  @p reversed order, and return the recorded series plus the
 *  end-of-run flattened counters. */
std::pair<TimeSeries, StatGroup>
runSampled(const core::ArchConfig& cfg, const std::string& kernel,
           bool reversed = false)
{
    runtime::Device dev(cfg);
    dev.processor().setReverseCoreOrder(reversed);
    runtime::RunResult r = runtime::runRodinia(dev, kernel, 1);
    EXPECT_TRUE(r.ok) << kernel << ": " << r.error;
    StatGroup flat;
    dev.processor().collectStats(flat);
    return {dev.processor().timeSeries(), flat};
}

/** A small sampled sweep: 2 kernels x 2 wavefront counts. */
sweep::SweepSpec
sampledSpec(uint64_t interval)
{
    sweep::SweepSpec s;
    s.name = "sampled";
    s.base = sweep::baselineConfig(1);
    s.base.sampleInterval = interval;
    s.axes = {sweep::Axis::sweep("kernel", {"vecadd", "saxpy"}),
              sweep::Axis::sweepU32("numWarps", {2, 4})};
    return s;
}

} // namespace

TEST(StatSampler, DisabledSamplerRecordsNothing)
{
    StatSampler sampler; // default: interval 0
    EXPECT_FALSE(sampler.enabled());
    EXPECT_FALSE(sampler.due(1000));
    StatGroup g;
    g.counter("x") = 5;
    sampler.finalize(1234, g);
    EXPECT_TRUE(sampler.series().empty());
    EXPECT_EQ(sampler.series().interval, 0u);
}

TEST(StatSampler, DeltaEncodingOverAFixedKeySet)
{
    StatSampler sampler(100);
    EXPECT_TRUE(sampler.due(100));
    EXPECT_TRUE(sampler.due(200));
    EXPECT_FALSE(sampler.due(150));

    // Both counters exist from the start, as a component's do; "b" is
    // first bumped in window 3.
    StatGroup g;
    uint64_t& a = g.counter("a");
    uint64_t& b = g.counter("b");
    a = 10;
    sampler.sample(100, g);
    a = 25;
    sampler.sample(200, g);
    b = 7;
    sampler.sample(300, g);
    // End-of-run remainder window at cycle 342.
    a = 30;
    sampler.finalize(342, g);
    // finalize on an already-sampled cycle is a no-op.
    sampler.finalize(342, g);

    const TimeSeries& ts = sampler.series();
    ASSERT_EQ(ts.numSamples(), 4u);
    EXPECT_EQ(ts.sampleCycles,
              (std::vector<uint64_t>{100, 200, 300, 342}));
    ASSERT_EQ(ts.keys, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(ts.deltas[0], (std::vector<uint64_t>{10, 15, 0, 5}));
    EXPECT_EQ(ts.deltas[1], (std::vector<uint64_t>{0, 0, 7, 0}));
    EXPECT_EQ(ts.total("a"), 30u);
    EXPECT_EQ(ts.total("b"), 7u);
    EXPECT_EQ(ts.total("nope"), 0u);
}

TEST(StatSampler, PanicsWhenASnapshotChangesTheKeyList)
{
    // Rows are read by position, so a snapshot whose keys differ from the
    // first one's must be refused, not silently misaligned.
    StatGroup first;
    first.counter("a") = 1;
    first.counter("b") = 2;

    StatGroup extra = first; // one key more
    extra.counter("c") = 3;
    StatGroup fewer;         // one key less
    fewer.counter("a") = 1;
    StatGroup swapped;       // same keys, other order
    swapped.counter("b") = 2;
    swapped.counter("a") = 1;

    for (const StatGroup* bad : {&extra, &fewer, &swapped}) {
        StatSampler sampler(10);
        sampler.sample(10, first);
        EXPECT_THROW(sampler.sample(20, *bad), PanicError);
        EXPECT_THROW(sampler.finalize(25, *bad), PanicError);
    }
}

TEST(Stats, KeysDependOnlyOnMachineShape)
{
    auto statKeys = [](const core::ArchConfig& cfg, const char* kernel) {
        const StatGroup flat = runSampled(cfg, kernel).second;
        std::vector<std::string> keys;
        for (const auto& [k, v] : flat.all())
            keys.push_back(k);
        return keys;
    };
    // Every counter is registered when its component is built, so two
    // different kernels on one machine report the same keys in the same
    // order, whatever events each one raised.
    core::ArchConfig flat;
    const std::vector<std::string> keys = statKeys(flat, "vecadd");
    EXPECT_EQ(statKeys(flat, "bfs"), keys);
    EXPECT_NE(std::find(keys.begin(), keys.end(), "dcache.mshr_stalls"),
              keys.end());

    // An L2-clustered machine adds exactly the l2.* keys: one per cache
    // counter, the same names as the D$'s.
    core::ArchConfig clustered;
    clustered.numCores = 2;
    clustered.coresPerCluster = 2;
    clustered.l2Enabled = true;
    std::vector<std::string> rest, l2, dcache;
    for (const std::string& k : statKeys(clustered, "bfs"))
        (k.rfind("l2.", 0) == 0 ? l2 : rest).push_back(k);
    EXPECT_EQ(rest, keys);
    for (const std::string& k : keys)
        if (k.rfind("dcache.", 0) == 0)
            dcache.push_back("l2." + k.substr(7));
    EXPECT_EQ(l2, dcache);
}

TEST(Sampling, DisabledByDefaultOnTheDevice)
{
    core::ArchConfig cfg; // sampleInterval defaults to 0
    EXPECT_EQ(cfg.sampleInterval, 0u);
    auto [ts, flat] = runSampled(cfg, "vecadd");
    EXPECT_TRUE(ts.empty());
    EXPECT_EQ(ts.interval, 0u);
    EXPECT_GT(flat.get("core.retired"), 0u); // the run itself happened
}

TEST(Sampling, SeriesSumsToEndOfRunCounters)
{
    core::ArchConfig cfg;
    cfg.sampleInterval = 500;
    auto [ts, flat] = runSampled(cfg, "vecadd");

    ASSERT_FALSE(ts.empty());
    EXPECT_EQ(ts.interval, 500u);
    // Every sample but the last lands on a multiple of the interval;
    // stamps are strictly increasing.
    for (size_t s = 0; s + 1 < ts.numSamples(); ++s) {
        EXPECT_EQ(ts.sampleCycles[s] % 500, 0u);
        EXPECT_LT(ts.sampleCycles[s], ts.sampleCycles[s + 1]);
    }
    // Delta-encoding invariant: summing a counter's windows reproduces
    // its end-of-run value, for every counter in the flattened group.
    for (const auto& [key, value] : flat.all())
        EXPECT_EQ(ts.total(key), value) << key;
    // The synthetic IPC numerator is present and rectangular.
    ASSERT_EQ(ts.keys[0], "core.thread_instrs");
    for (const auto& row : ts.deltas)
        EXPECT_EQ(row.size(), ts.numSamples());
}

TEST(Sampling, BitIdenticalAcrossCoreOrders)
{
    // A 2-core machine, so the reversed core order differs from forward.
    core::ArchConfig cfg = sweep::baselineConfig(2);
    cfg.sampleInterval = 512;

    for (const char* kernel : {"vecadd", "sgemm"}) {
        auto [ts1, flat1] = runSampled(cfg, kernel);
        auto [ts2, flat2] = runSampled(cfg, kernel, /*reversed=*/true);
        ASSERT_FALSE(ts1.empty());
        EXPECT_TRUE(ts1 == ts2) << kernel;
        EXPECT_EQ(flat1.all(), flat2.all()) << kernel;
    }
}

TEST(SamplingSweep, SampleIntervalIsARegisteredFieldAndHashed)
{
    core::ArchConfig cfg;
    sweep::WorkloadSpec wl;
    ASSERT_TRUE(sweep::applyField(cfg, wl, "sampleInterval", "10000"));
    EXPECT_EQ(cfg.sampleInterval, 10000u);

    // Sampling changes the cache key (a cached record must carry the
    // series the request asks for).
    sweep::RunSpec off, on;
    on.config.sampleInterval = 10000;
    EXPECT_NE(off.contentHash(), on.contentHash());
}

TEST(SamplingSweep, TimeSeriesJsonByteStableAcrossJobsAndCache)
{
    sweep::SweepSpec spec = sampledSpec(1000);

    sweep::CampaignOptions j1;
    j1.jobs = 1;
    std::ostringstream ts1;
    sweep::Campaign(j1).run(spec).writeTimeSeriesJson(ts1);

    sweep::CampaignOptions j4;
    j4.jobs = 4;
    std::ostringstream ts4;
    sweep::Campaign(j4).run(spec).writeTimeSeriesJson(ts4);
    EXPECT_EQ(ts1.str(), ts4.str());

    // Cold store then warm restore: same bytes again, via the cache.
    std::string dir = freshTempDir("ts");
    sweep::CampaignOptions cached;
    cached.jobs = 2;
    cached.cacheDir = dir;
    std::ostringstream cold, warm;
    sweep::Campaign(cached).run(spec).writeTimeSeriesJson(cold);
    sweep::CampaignResult warmResult = sweep::Campaign(cached).run(spec);
    warmResult.writeTimeSeriesJson(warm);
    EXPECT_EQ(warmResult.cacheHits, 4u);
    EXPECT_EQ(ts1.str(), cold.str());
    EXPECT_EQ(ts1.str(), warm.str());

    // Balanced braces/brackets as a JSON sanity floor.
    const std::string s = ts1.str();
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
              std::count(s.begin(), s.end(), '}'));
    EXPECT_EQ(std::count(s.begin(), s.end(), '['),
              std::count(s.begin(), s.end(), ']'));
    EXPECT_NE(s.find("\"interval\": 1000"), std::string::npos);
    EXPECT_NE(s.find("\"core.thread_instrs\": ["), std::string::npos);
    std::filesystem::remove_all(dir);

    // Exact bytes of a tiny two-run result: one sampled run and one run
    // without sampling, with names that need escaping. Only the content
    // hashes are spliced in from the specs.
    sweep::CampaignResult tiny;
    tiny.name = "tiny \"ts\"";
    tiny.axisNames = {"kernel", "sampleInterval"};
    tiny.records.resize(2);
    sweep::RunRecord& sampled = tiny.records[0];
    sampled.spec.config.sampleInterval = 500;
    sampled.spec.coords = {{"kernel", "vecadd"}, {"sampleInterval", "500"}};
    sampled.series.interval = 500;
    sampled.series.sampleCycles = {500, 1000, 1234};
    sampled.series.keys = {"core.cycles", "a\\b"};
    sampled.series.deltas = {{500, 500, 234}, {1, 0, 7}};
    sweep::RunRecord& unsampled = tiny.records[1];
    unsampled.spec.coords = {{"kernel", "vecadd"}, {"sampleInterval", "0"}};
    std::ostringstream pinned;
    tiny.writeTimeSeriesJson(pinned);
    EXPECT_EQ(pinned.str(),
              "{\n"
              "  \"campaign\": \"tiny \\\"ts\\\"\",\n"
              "  \"axes\": [\"kernel\", \"sampleInterval\"],\n"
              "  \"runs\": [\n"
              "    {\"id\": \"vecadd/500\", \"hash\": \"" +
                  sampled.spec.contentHash() +
                  "\", \"coords\": {\"kernel\": \"vecadd\", "
                  "\"sampleInterval\": \"500\"},\n"
                  "     \"interval\": 500, \"sample_cycles\": [500, 1000, "
                  "1234],\n"
                  "     \"counters\": {\"core.cycles\": [500, 500, 234], "
                  "\"a\\\\b\": [1, 0, 7]}},\n"
                  "    {\"id\": \"vecadd/0\", \"hash\": \"" +
                  unsampled.spec.contentHash() +
                  "\", \"coords\": {\"kernel\": \"vecadd\", "
                  "\"sampleInterval\": \"0\"},\n"
                  "     \"interval\": 0, \"sample_cycles\": [],\n"
                  "     \"counters\": {}}\n"
                  "  ]\n"
                  "}\n");
}

TEST(SamplingSweep, CacheRoundTripsTheSeriesExactly)
{
    std::string dir = freshTempDir("roundtrip");
    sweep::SweepSpec spec = sampledSpec(750);
    sweep::CampaignOptions opts;
    opts.cacheDir = dir;

    sweep::CampaignResult cold = sweep::Campaign(opts).run(spec);
    sweep::CampaignResult warm = sweep::Campaign(opts).run(spec);
    ASSERT_EQ(warm.records.size(), cold.records.size());
    for (size_t i = 0; i < warm.records.size(); ++i) {
        EXPECT_TRUE(warm.records[i].fromCache);
        EXPECT_FALSE(cold.records[i].series.empty());
        EXPECT_TRUE(warm.records[i].series == cold.records[i].series)
            << warm.records[i].spec.id();
    }

    // A run without sampling is a different cache entry: no false hit.
    sweep::SweepSpec unsampled = sampledSpec(0);
    sweep::CampaignResult miss = sweep::Campaign(opts).run(unsampled);
    EXPECT_EQ(miss.cacheHits, 0u);
    EXPECT_EQ(miss.cacheMisses, 4u);
    for (const sweep::RunRecord& r : miss.records)
        EXPECT_TRUE(r.series.empty());
    std::filesystem::remove_all(dir);
}

TEST(CacheHygiene, DirectoryListsEntriesAndPruneRemovesThem)
{
    std::string dir = freshTempDir("hygiene");
    sweep::SweepSpec spec = sampledSpec(0);
    sweep::CampaignOptions opts;
    opts.cacheDir = dir;
    sweep::Campaign(opts).run(spec);

    // The campaign wrote 4 entries and nothing else: the directory is
    // the cache's only index.
    for (const auto& de : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(de.path().extension(), ".run") << de.path();
    sweep::CacheStore store(dir);
    std::vector<sweep::CacheEntryInfo> entries = store.entries();
    ASSERT_EQ(entries.size(), 4u);
    for (const sweep::CacheEntryInfo& e : entries) {
        EXPECT_EQ(e.hash.size(), 16u);
        EXPECT_EQ(e.campaign, "sampled");
        EXPECT_FALSE(e.id.empty());
        EXPECT_GT(e.mtime, 0);
    }

    // Age-bounded prune keeps everything (entries are seconds old) ...
    EXPECT_EQ(store.prune(1.0), 0u);
    EXPECT_EQ(store.entries().size(), 4u);
    // ... an unbounded prune removes everything and leaves the
    // directory empty.
    EXPECT_EQ(store.prune(), 4u);
    EXPECT_TRUE(store.entries().empty());
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

TEST(Presets, PerfSmokePresetIsSixRuns)
{
    const sweep::Preset* smoke = sweep::findPreset("perf_smoke");
    ASSERT_NE(smoke, nullptr);
    sweep::SweepSpec spec = smoke->spec();
    EXPECT_EQ(spec.runCount(), 6u);
    EXPECT_EQ(spec.expand().size(), 6u);
    EXPECT_EQ(sweep::findPreset("fig99_bogus"), nullptr);
    EXPECT_EQ(sweep::findPreset("ablation_bogus"), nullptr);
}
