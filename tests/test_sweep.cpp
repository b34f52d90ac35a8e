/**
 * @file
 * Tests for the simulation-campaign subsystem (src/sweep/): spec
 * expansion, the field table, content hashing, the result
 * cache, and the determinism contract — a multi-job campaign's CSV must
 * be bit-identical to a single-job run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/log.h"
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/cli.h"
#include "sweep/presets.h"
#include "sweep/report.h"
#include "sweep/spec.h"
#include "sweep/specfile.h"

using namespace vortex;
using namespace vortex::sweep;

namespace {

/** A fast two-axis campaign: 2 kernels x 2 geometries, test-sized. */
SweepSpec
tinySpec()
{
    SweepSpec s;
    s.name = "tiny";
    s.base = baselineConfig(1);
    s.axes = {Axis::sweep("kernel", {"vecadd", "saxpy"}),
              Axis::sweepU32("numWarps", {2, 4})};
    return s;
}

/** Unique scratch directory under the system temp dir. */
std::string
freshTempDir(const char* tag)
{
    static int serial = 0;
    std::string dir =
        (std::filesystem::temp_directory_path() /
         (std::string("vortex_sweep_test_") + tag + "_" +
          std::to_string(::getpid()) + "_" + std::to_string(serial++)))
            .string();
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

TEST(SweepSpec, ExpansionIsRowMajorCartesianProduct)
{
    SweepSpec s = tinySpec();
    ASSERT_EQ(s.runCount(), 4u);
    std::vector<RunSpec> runs = s.expand();
    ASSERT_EQ(runs.size(), 4u);

    // Last axis varies fastest.
    EXPECT_EQ(runs[0].id(), "vecadd/2");
    EXPECT_EQ(runs[1].id(), "vecadd/4");
    EXPECT_EQ(runs[2].id(), "saxpy/2");
    EXPECT_EQ(runs[3].id(), "saxpy/4");

    // Axis assignments land on the resolved config/workload.
    EXPECT_EQ(runs[1].config.numWarps, 4u);
    EXPECT_EQ(runs[2].config.numWarps, 2u);
    EXPECT_EQ(runs[2].workload.kernel, "saxpy");
    EXPECT_EQ(runs[0].coords[0].first, "kernel");
    EXPECT_EQ(runs[0].coords[1].first, "numWarps");

    // The base machine survives on un-swept fields.
    EXPECT_EQ(runs[3].config.numThreads, 4u);
}

TEST(SweepSpec, ExpansionWithNoAxesIsOneRun)
{
    SweepSpec s;
    s.name = "single";
    ASSERT_EQ(s.expand().size(), 1u);
}

TEST(SweepSpec, MultiFieldAxisPointsApplyTogether)
{
    // fig14's geometry axis: each point sets numWarps and numThreads.
    SweepSpec s;
    s.axes.push_back(findPreset("fig14")->spec().axes[1]);
    std::vector<RunSpec> runs = s.expand();
    ASSERT_EQ(runs.size(), 5u);
    EXPECT_EQ(runs[0].id(), "4W-4T");
    EXPECT_EQ(runs[1].config.numWarps, 2u);
    EXPECT_EQ(runs[1].config.numThreads, 8u);
}

TEST(SweepSpec, DerivedCoresFieldAppliesPaperScalingRules)
{
    core::ArchConfig cfg;
    WorkloadSpec wl;
    ASSERT_TRUE(applyField(cfg, wl, "cores", "2"));
    EXPECT_EQ(cfg.numCores, 2u);
    EXPECT_FALSE(cfg.l2Enabled);
    ASSERT_TRUE(applyField(cfg, wl, "cores", "8"));
    EXPECT_TRUE(cfg.l2Enabled);
    EXPECT_EQ(cfg.coresPerCluster, 4u);
    EXPECT_EQ(cfg.mem.numChannels, 2u);
    ASSERT_TRUE(applyField(cfg, wl, "cores", "32"));
    EXPECT_EQ(cfg.mem.numChannels, 8u);
}

TEST(SweepSpec, FieldRegistryRejectsUnknownNamesAndBadValues)
{
    core::ArchConfig cfg;
    WorkloadSpec wl;
    EXPECT_FALSE(applyField(cfg, wl, "no_such_field", "1"));
    EXPECT_TRUE(applyField(cfg, wl, "dcachePorts", "2"));
    EXPECT_EQ(cfg.dcachePorts, 2u);
    EXPECT_THROW(applyField(cfg, wl, "dcachePorts", "banana"),
                 FatalError);
    EXPECT_THROW(applyField(cfg, wl, "schedPolicy", "fifo"), FatalError);

    // Every registered field name round-trips through applyField.
    // "program" is also skipped: its value is a file path that is read
    // eagerly (so content hashing can cover the program text), and "1"
    // is not a readable file. "check" only accepts its two grammar
    // forms, exercised below.
    for (const FieldInfo& f : sweepableFields()) {
        const std::string name = f.name;
        if (name == "schedPolicy" || name == "workload" ||
            name == "kernel" || name == "texFilter" ||
            name == "program" || name == "check")
            continue;
        if (name == "parallelTick" || name == "tickThreads") {
            // Retired: only the default, 0, is accepted.
            EXPECT_THROW(applyField(cfg, wl, name, "1"), FatalError) << name;
            EXPECT_TRUE(applyField(cfg, wl, name, "0")) << name;
            continue;
        }
        EXPECT_TRUE(applyField(cfg, wl, name, "1")) << name;
    }

    // The check grammar: "selfcheck", "memcmp:ADDR:LEN:FNV", or error.
    EXPECT_TRUE(applyField(cfg, wl, "check", "selfcheck"));
    EXPECT_EQ(wl.check, "selfcheck");
    EXPECT_TRUE(
        applyField(cfg, wl, "check", "memcmp:0x10000000:100:deadbeef"));
    EXPECT_THROW(applyField(cfg, wl, "check", "1"), FatalError);
    EXPECT_THROW(applyField(cfg, wl, "check", "memcmp:zz:1:2"),
                 FatalError);
    EXPECT_THROW(applyField(cfg, wl, "check", "memcmp:1:2"), FatalError);
    wl.check.clear();
}

TEST(SweepSpec, ProgramFieldReadsTheFileEagerlyAndHashesItsText)
{
    core::ArchConfig cfg;
    WorkloadSpec wl;

    // Missing files are a fatal, actionable error at apply time, not at
    // run time deep inside a campaign.
    EXPECT_THROW(applyField(cfg, wl, "program", "no/such/file.s"),
                 FatalError);

    std::string dir = freshTempDir("program");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/prog.s";
    {
        std::ofstream out(path);
        out << "main:\n    ret\n";
    }
    EXPECT_TRUE(applyField(cfg, wl, "program", path));
    EXPECT_EQ(wl.program, path);
    EXPECT_EQ(wl.programSource, "main:\n    ret\n");

    // The cache key covers the program *text*, so editing the .s file
    // invalidates cached results even though the path is unchanged.
    RunSpec a;
    a.workload = wl;
    {
        std::ofstream out(path);
        out << "main:\n    nop\n    ret\n";
    }
    WorkloadSpec wl2;
    ASSERT_TRUE(applyField(cfg, wl2, "program", path));
    RunSpec b;
    b.workload = wl2;
    EXPECT_NE(a.contentHash(), b.contentHash());

    // The canonical form records both the path and the text hash; runs
    // without a program keep the exact pre-program preimage (cache
    // back-compatibility).
    EXPECT_NE(a.canonical().find("program = " + path), std::string::npos);
    EXPECT_NE(a.canonical().find("program.fnv = "), std::string::npos);
    RunSpec plain;
    EXPECT_EQ(plain.canonical().find("program"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(SweepSpec, ContentHashDifferentiatesConfigAndWorkload)
{
    SweepSpec s = tinySpec();
    std::vector<RunSpec> runs = s.expand();

    // Same spec expanded twice -> same hashes.
    std::vector<RunSpec> again = s.expand();
    for (size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].contentHash(), again[i].contentHash());

    // Every run in the matrix is distinct.
    for (size_t i = 0; i < runs.size(); ++i)
        for (size_t j = i + 1; j < runs.size(); ++j)
            EXPECT_NE(runs[i].contentHash(), runs[j].contentHash());

    // A config knob outside the axes changes the hash too.
    RunSpec tweaked = runs[0];
    tweaked.config.mshrEntries *= 2;
    EXPECT_NE(tweaked.contentHash(), runs[0].contentHash());
}

TEST(SweepSpec, PreimageBytesAndFieldListArePinned)
{
    // The content hash is in every CSV/JSON row and is the cache key, so
    // canonical() must not drift: these are the preimages (and hashes)
    // the field table must keep producing, byte for byte.
    RunSpec all; // every config field off its default
    core::ArchConfig& c = all.config;
    c.numThreads = 8;
    c.numWarps = 16;
    c.numCores = 3;
    c.coresPerCluster = 5;
    c.ibufferDepth = 6;
    c.lsuDepth = 7;
    c.schedPolicy = core::SchedPolicy::RoundRobin;
    c.lat = {9, 10, 11, 12, 13, 14, 15, 17};
    c.lineSize = 128;
    c.icacheSize = 4096;
    c.icacheWays = 4;
    c.dcacheSize = 32768;
    c.dcacheWays = 8;
    c.dcacheBanks = 2;
    c.dcachePorts = 2;
    c.mshrEntries = 18;
    c.smemSize = 8192;
    c.smemLatency = 19;
    c.l2Enabled = true;
    c.l2Size = 65536;
    c.l2Banks = 20;
    c.l2Ways = 21;
    c.l3Enabled = true;
    c.l3Size = 524288;
    c.l3Banks = 22;
    c.l3Ways = 23;
    c.mem = {24, 256, 25, 26, 27};
    c.texEnabled = false;
    c.parallelTick = true; // retired, not hashed
    c.tickThreads = 28;    // retired, not hashed
    c.sampleInterval = 5000000000ull;
    c.startPC = 0x10000;
    c.smemBase = 0x20000;
    all.workload.kernel = "sgemm";
    all.workload.scale = 3;
    EXPECT_EQ(all.canonical(), R"(vortex-run v2
numThreads = 8
numWarps = 16
numCores = 3
coresPerCluster = 5
ibufferDepth = 6
lsuDepth = 7
schedPolicy = roundrobin
lat.alu = 9
lat.mul = 10
lat.div = 11
lat.fpu = 12
lat.fcvt = 13
lat.fdiv = 14
lat.fsqrt = 15
lat.sfu = 17
lineSize = 128
icacheSize = 4096
icacheWays = 4
dcacheSize = 32768
dcacheWays = 8
dcacheBanks = 2
dcachePorts = 2
mshrEntries = 18
smemSize = 8192
smemLatency = 19
l2Enabled = 1
l2Size = 65536
l2Banks = 20
l2Ways = 21
l3Enabled = 1
l3Size = 524288
l3Banks = 22
l3Ways = 23
mem.latency = 24
mem.lineSize = 256
mem.busWidth = 25
mem.numChannels = 26
mem.queueDepth = 27
texEnabled = 0
startPC = 65536
smemBase = 131072
sampleInterval = 5000000000
workload = rodinia
kernel = sgemm
scale = 3
)");
    EXPECT_EQ(all.contentHash(), "e27861736174500b");

    const std::string head = std::string("vortex-run v2\n") +
                             R"(numThreads = 4
numWarps = 4
numCores = 1
coresPerCluster = 4
ibufferDepth = 2
lsuDepth = 4
schedPolicy = hierarchical
lat.alu = 1
lat.mul = 3
lat.div = 32
lat.fpu = 4
lat.fcvt = 2
lat.fdiv = 16
lat.fsqrt = 24
lat.sfu = 1
lineSize = 64
icacheSize = 8192
icacheWays = 2
dcacheSize = 16384
dcacheWays = 2
dcacheBanks = 4
dcachePorts = 1
mshrEntries = 8
smemSize = 16384
smemLatency = 1
l2Enabled = 0
l2Size = 131072
l2Banks = 8
l2Ways = 4
l3Enabled = 0
l3Size = 262144
l3Banks = 8
l3Ways = 8
mem.latency = 80
mem.lineSize = 64
mem.busWidth = 16
mem.numChannels = 2
mem.queueDepth = 16
texEnabled = 1
startPC = 2147483648
smemBase = 4278190080
sampleInterval = 0
)";
    RunSpec tex;
    tex.workload.kind = WorkloadSpec::Kind::Texture;
    tex.workload.texFilter = runtime::TexFilterMode::Trilinear;
    tex.workload.texHw = false;
    tex.workload.texSize = 128;
    EXPECT_EQ(tex.canonical(), head + R"(workload = texture
texFilter = trilinear
texHw = 0
texSize = 128
)");
    EXPECT_EQ(tex.contentHash(), "2c13f75fc0c3d87d");

    RunSpec prog; // set directly: applyField would read the file
    prog.workload.program = "examples/kernels/vecadd.s";
    prog.workload.programSource = "li a0, 1\n";
    prog.workload.check = "selfcheck";
    EXPECT_EQ(prog.canonical(), head + R"(workload = rodinia
kernel = vecadd
scale = 1
program = examples/kernels/vecadd.s
program.fnv = 331e3c38cdc5baf0
check = selfcheck
)");
    EXPECT_EQ(prog.contentHash(), "b2202c8fdf493129");

    RunSpec faulted; // a zero window is still hashed once any key is set
    faulted.workload.kernel = "bfs";
    faulted.workload.faults.seed = 7;
    faulted.workload.faults.count = 3;
    faulted.workload.faults.watchdog = 5000;
    EXPECT_EQ(faulted.canonical(), head + R"(workload = rodinia
kernel = bfs
scale = 1
faults.seed = 7
faults.count = 3
faults.window = 0
faults.watchdog = 5000
)");
    EXPECT_EQ(faulted.contentHash(), "c8701507d2d54688");

    // `specs fields`, spec files and --set name the same fields.
    std::string fields;
    for (const FieldInfo& f : sweepableFields())
        fields += std::string(f.name) + "\t" + f.help + "\n";
    EXPECT_EQ(fields, R"(numThreads	threads per wavefront
numWarps	wavefronts per core
numCores	core count (raw; see also 'cores')
coresPerCluster	cores sharing one L2 cluster
cores	core count with the paper's scaling rules (L2 from 4 cores, 8-channel board above 16)
ibufferDepth	instruction-buffer depth
lsuDepth	in-flight warp memory ops per core
schedPolicy	wavefront scheduling (hierarchical | roundrobin)
lat.alu	ALU latency (cycles)
lat.mul	integer-multiply latency
lat.div	integer-divide latency
lat.fpu	FP add/mul/fma latency
lat.fcvt	FP convert/move/compare latency
lat.fdiv	FP divide latency
lat.fsqrt	FP square-root latency
lat.sfu	SFU latency
lineSize	cache AND board-memory line size (bytes)
icacheSize	L1I size (bytes)
icacheWays	L1I associativity
dcacheSize	L1D size (bytes)
dcacheWays	L1D associativity
dcacheBanks	L1D bank count
dcachePorts	L1D virtual ports per bank (Fig. 19)
mshrEntries	MSHR entries per bank
smemSize	per-core scratchpad size (bytes)
smemLatency	scratchpad latency (cycles)
l2Enabled	attach a per-cluster L2
l2Size	L2 size (bytes)
l2Banks	L2 bank count
l2Ways	L2 associativity
l3Enabled	attach a device-level L3
l3Size	L3 size (bytes)
l3Banks	L3 bank count
l3Ways	L3 associativity
mem.latency	board-memory latency (cycles)
mem.busWidth	bytes per channel per cycle
mem.numChannels	independent memory channels
mem.queueDepth	memory input-queue depth
texEnabled	build the per-core texture units
parallelTick	retired: the parallel tick backend was removed (only false)
tickThreads	retired: the parallel tick backend was removed (only 0)
sampleInterval	cycles between counter snapshots (0 = off)
workload	workload family (rodinia | texture)
kernel	Rodinia kernel name (implies workload=rodinia)
scale	Rodinia problem-size multiplier
texFilter	texture filtering (point | bilinear | trilinear; implies workload=texture)
texHw	1 = hardware `tex` instruction, 0 = software sampler
texSize	square texture/render-target size (power of two)
program	assembly file run through the object pipeline instead of the kernel's built-in source (kernel still selects the argument/verification harness)
check	harness-free result check for program workloads (selfcheck | memcmp:ADDR:LEN:FNV)
faults.seed	fault-injection PRNG seed selecting the upsets
faults.count	single-bit upsets to inject (0 = off)
faults.window	trigger-cycle window for injections (0 = default)
faults.watchdog	cycle watchdog override for hang detection (0 = runner default)
)");
}

TEST(SweepSpec, SetArgumentsAndFaultsKeysComeFromTheFieldTable)
{
    // vortex_sweep, vortex_verify and vortex_fuzz share this parser, so
    // all three accept and reject the same `--set` spellings.
    auto message = [](auto&& f) {
        try {
            f();
        } catch (const FatalError& e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    using Kv = std::pair<std::string, std::string>;
    EXPECT_EQ(splitSetArg("numWarps=8"), Kv("numWarps", "8"));
    EXPECT_EQ(splitSetArg("check=memcmp:1=2"), Kv("check", "memcmp:1=2"));
    EXPECT_NE(message([] { splitSetArg("numWarps"); })
                  .find("--set expects KEY=VALUE (got 'numWarps')"),
              std::string::npos);
    EXPECT_NE(message([] { splitSetArg("=8"); }).find("(got '=8')"),
              std::string::npos);

    core::ArchConfig cfg;
    WorkloadSpec wl;
    applySetArg(cfg, wl, {"numWarps", "8"});
    EXPECT_EQ(cfg.numWarps, 8u);
    EXPECT_NE(message([&] { applySetArg(cfg, wl, {"nosuch", "1"}); })
                  .find("--set: unknown field 'nosuch'"),
              std::string::npos);
    // Hashed-only rows are not settable.
    EXPECT_FALSE(applyField(cfg, wl, "mem.lineSize", "32"));
    EXPECT_FALSE(applyField(cfg, wl, "program.fnv", "0"));

    // [faults] and --faults accept exactly the faults.* rows.
    EXPECT_EQ(faultsKeyList(), "seed, count, window, watchdog");
    EXPECT_TRUE(isFaultsKey("watchdog"));
    EXPECT_FALSE(isFaultsKey("bogus"));
    EXPECT_FALSE(isFaultsKey("faults.seed"));
}

TEST(Campaign, RunsMatrixAndReportsMetrics)
{
    CampaignResult r = Campaign().run(tinySpec());
    ASSERT_EQ(r.records.size(), 4u);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.cacheMisses, 4u);
    for (const RunRecord& rec : r.records) {
        EXPECT_TRUE(rec.result.ok);
        EXPECT_FALSE(rec.fromCache);
        EXPECT_GT(rec.result.cycles, 0u);
        EXPECT_GT(rec.result.ipc, 0.0);
        // Flattened counters from the device hierarchy are present.
        EXPECT_GT(rec.stats.get("core.retired"), 0u);
        EXPECT_GT(rec.stats.get("dcache.core_reads"), 0u);
    }
    // Coordinate lookup used by the figure reports.
    EXPECT_EQ(r.at({"saxpy", "4"}).spec.config.numWarps, 4u);
    EXPECT_THROW(r.at({"saxpy", "16"}), FatalError);
}

TEST(Campaign, CacheHitsSkipSimulationAndPreserveResults)
{
    std::string dir = freshTempDir("cache");
    CampaignOptions opts;
    opts.cacheDir = dir;

    CampaignResult cold = Campaign(opts).run(tinySpec());
    EXPECT_EQ(cold.cacheMisses, 4u);
    EXPECT_EQ(cold.cacheHits, 0u);

    CampaignResult warm = Campaign(opts).run(tinySpec());
    EXPECT_EQ(warm.cacheHits, 4u);
    EXPECT_EQ(warm.cacheMisses, 0u);
    for (size_t i = 0; i < warm.records.size(); ++i) {
        EXPECT_TRUE(warm.records[i].fromCache);
        EXPECT_EQ(warm.records[i].result.cycles,
                  cold.records[i].result.cycles);
        EXPECT_EQ(warm.records[i].result.threadInstrs,
                  cold.records[i].result.threadInstrs);
        EXPECT_DOUBLE_EQ(warm.records[i].result.ipc,
                         cold.records[i].result.ipc);
        EXPECT_EQ(warm.records[i].stats.get("core.retired"),
                  cold.records[i].stats.get("core.retired"));
    }

    // A different machine misses: the cache is content-addressed.
    SweepSpec other = tinySpec();
    other.base.mshrEntries = 4;
    CampaignResult miss = Campaign(opts).run(other);
    EXPECT_EQ(miss.cacheHits, 0u);
    EXPECT_EQ(miss.cacheMisses, 4u);

    std::filesystem::remove_all(dir);
}

TEST(Campaign, CsvIsBitIdenticalAcrossJobCountsAndCacheStates)
{
    SweepSpec spec = tinySpec();

    CampaignOptions serial;
    serial.jobs = 1;
    std::ostringstream csv1;
    Campaign(serial).run(spec).writeCsv(csv1);

    CampaignOptions parallel;
    parallel.jobs = 2;
    std::ostringstream csv2;
    Campaign(parallel).run(spec).writeCsv(csv2);
    EXPECT_EQ(csv1.str(), csv2.str());

    // And a cache-restored campaign emits the same bytes again.
    std::string dir = freshTempDir("csv");
    CampaignOptions cached;
    cached.jobs = 2;
    cached.cacheDir = dir;
    std::ostringstream csv3, csv4;
    Campaign(cached).run(spec).writeCsv(csv3);
    Campaign(cached).run(spec).writeCsv(csv4);
    EXPECT_EQ(csv1.str(), csv3.str());
    EXPECT_EQ(csv1.str(), csv4.str());
    std::filesystem::remove_all(dir);

    // Shape: header + one row per run, coords in the leading columns.
    std::istringstream lines(csv1.str());
    std::string header, row0;
    std::getline(lines, header);
    std::getline(lines, row0);
    EXPECT_EQ(header.rfind("kernel,numWarps,id,hash,ok,status,cycles,"
                           "thread_instrs,ipc",
                           0),
              0u);
    EXPECT_EQ(row0.rfind("vecadd,2,vecadd/2,", 0), 0u);
}

TEST(Campaign, JsonEmissionIsWellFormedEnoughToPin)
{
    CampaignResult r = Campaign().run(tinySpec());
    std::ostringstream js;
    r.writeJson(js);
    const std::string s = js.str();
    EXPECT_NE(s.find("\"campaign\": \"tiny\""), std::string::npos);
    EXPECT_NE(s.find("\"axes\": [\"kernel\", \"numWarps\"]"),
              std::string::npos);
    EXPECT_NE(s.find("\"id\": \"saxpy/4\""), std::string::npos);
    EXPECT_NE(s.find("\"ok\": true"), std::string::npos);
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
              std::count(s.begin(), s.end(), '}'));
}

TEST(Campaign, FailedRunIsRecordedAndTheMatrixCompletes)
{
    // A poisoned run (unknown kernel -> host error) becomes a
    // first-class result row; the rest of the matrix still executes.
    SweepSpec s;
    s.name = "bad";
    s.axes = {Axis::sweep("kernel", {"vecadd", "no_such_kernel"})};
    CampaignResult r = Campaign().run(s);
    ASSERT_EQ(r.records.size(), 2u);
    EXPECT_TRUE(r.records[0].result.ok);
    EXPECT_EQ(r.records[0].result.status, RunStatus::Ok);
    EXPECT_FALSE(r.records[1].result.ok);
    EXPECT_EQ(r.records[1].result.status, RunStatus::HostError);
    EXPECT_FALSE(r.records[1].result.error.empty());
    EXPECT_EQ(r.failures(), 1u);

    // The status lands in the CSV row and the JSON object.
    std::ostringstream csv, js;
    r.writeCsv(csv);
    r.writeJson(js);
    EXPECT_NE(csv.str().find(",0,host_error,"), std::string::npos);
    EXPECT_NE(js.str().find("\"status\": \"host_error\""),
              std::string::npos);
}

TEST(Campaign, FailFastRestoresTheFatalBehavior)
{
    // The two runs tie in cost, so the failing one is claimed first; at
    // one job the campaign stops there and vecadd never runs (nor is
    // cached).
    std::string dir = freshTempDir("failfast");
    SweepSpec s;
    s.name = "bad";
    s.axes = {Axis::sweep("kernel", {"no_such_kernel", "vecadd"})};
    CampaignOptions opts;
    opts.cacheDir = dir;
    opts.jobs = 1;
    opts.failFast = true;
    EXPECT_THROW(Campaign(opts).run(s), FatalError);
    EXPECT_TRUE(CacheStore(dir).entries().empty());
    std::filesystem::remove_all(dir);
}

TEST(Campaign, FailedRunsAreNeverCached)
{
    std::string dir = freshTempDir("failcache");
    SweepSpec s;
    s.name = "bad";
    s.axes = {Axis::sweep("kernel", {"no_such_kernel"})};
    CampaignOptions opts;
    opts.cacheDir = dir;
    CampaignResult r1 = Campaign(opts).run(s);
    EXPECT_EQ(r1.failures(), 1u);
    EXPECT_EQ(r1.cacheMisses, 1u);
    // Second campaign over the same spec: the failure re-executes (no
    // hit), and the emitted bytes match the cold run exactly.
    CampaignResult r2 = Campaign(opts).run(s);
    EXPECT_EQ(r2.cacheHits, 0u);
    EXPECT_EQ(r2.cacheMisses, 1u);
    std::ostringstream c1, c2;
    r1.writeCsv(c1);
    r2.writeCsv(c2);
    EXPECT_EQ(c1.str(), c2.str());
    std::filesystem::remove_all(dir);
}

TEST(Campaign, VerboseProgressLinesArePinned)
{
    // One passing and one failing run, cold then warm, at one job. Both
    // campaigns claim in the same LPT order, whatever the cache holds:
    // the warm one restores the passing run and re-simulates the
    // failure.
    std::string dir = freshTempDir("progress");
    SweepSpec s;
    s.name = "lines";
    s.base = baselineConfig(1);
    s.axes = {Axis::sweep("kernel", {"vecadd", "no_such_kernel"})};
    CampaignOptions opts;
    opts.cacheDir = dir;
    opts.verbose = true;

    testing::internal::CaptureStderr();
    Campaign(opts).run(s);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "[1/2] vecadd                       vecadd cycles=29368 "
              "ipc=1.571\n"
              "[2/2] no_such_kernel               no_such_kernel cycles=0 "
              "ipc=0.000 FAILED (host_error)\n");

    testing::internal::CaptureStderr();
    Campaign(opts).run(s);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "[1/2] vecadd                       vecadd cycles=29368 "
              "ipc=1.571 (cached)\n"
              "[2/2] no_such_kernel               no_such_kernel cycles=0 "
              "ipc=0.000 FAILED (host_error)\n");

    // The ETA suffix carries wall-clock times, so only its presence is
    // pinned.
    opts.verbose = false;
    opts.progress = true;
    testing::internal::CaptureStderr();
    Campaign(opts).run(s);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(" elapsed="), std::string::npos) << err;
    std::filesystem::remove_all(dir);
}

TEST(Campaign, ExecutorTakesResolvedRunsOutOfTheProgressTotal)
{
    // A stub resolver that never simulates: run 1 (sgemm) comes from the
    // cache, the other two count as simulated.
    SweepSpec s;
    s.name = "stub";
    s.base = baselineConfig(1);
    s.axes = {Axis::sweep("kernel", {"vecadd", "sgemm", "bfs"})};
    const std::vector<RunSpec> runs = s.expand();
    std::vector<double> cost;
    double total = 0.0;
    for (const RunSpec& r : runs)
        total += cost.emplace_back(estimateRunCost(r));
    ASSERT_GT(cost[1], cost[2]);
    ASSERT_GT(cost[2], cost[0]);

    auto resolve = [&](const RunSpec& run, Origin& origin) {
        if (run.id() == runs[1].id())
            origin = Origin::Cache;
        RunRecord rec;
        rec.spec = run;
        return rec;
    };
    std::vector<RunDone> seen;
    auto sink = [&](const RunRecord&, const RunDone& d) {
        seen.push_back(d);
    };
    std::vector<RunRecord> records = executeRuns(runs, 1, resolve, sink);

    // Claimed in LPT order, the hit first; stored in matrix order.
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].index, 1u);
    EXPECT_EQ(seen[1].index, 2u);
    EXPECT_EQ(seen[2].index, 0u);
    for (size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(records[i].spec.id(), runs[i].id());
    // The hit lowers the total by its estimate and adds nothing done.
    EXPECT_EQ(seen[0].origin, Origin::Cache);
    EXPECT_EQ(seen[0].doneCost, 0.0);
    EXPECT_DOUBLE_EQ(seen[0].totalCost, total - cost[1]);
    // Simulated runs add their estimates to what is done.
    EXPECT_EQ(seen[1].origin, Origin::Simulated);
    EXPECT_DOUBLE_EQ(seen[1].doneCost, cost[2]);
    EXPECT_DOUBLE_EQ(seen[1].totalCost, total - cost[1]);
    EXPECT_DOUBLE_EQ(seen[2].doneCost, seen[2].totalCost);
}

TEST(Presets, RegistryCoversEveryPaperExperiment)
{
    for (const char* name :
         {"fig14", "fig15", "fig18", "fig19", "fig20", "fig21", "table3",
          "table4", "table5", "ablation_mshr", "ablation_banks",
          "ablation_linesize", "ablation_ibuffer", "ablation_lsu",
          "ablation_sched", "ablation_fsqrt"}) {
        const Preset* p = findPreset(name);
        ASSERT_NE(p, nullptr) << name;
        if (p->table) {
            ReportTable t = p->table();
            EXPECT_FALSE(t.rows.empty()) << name;
        } else {
            SweepSpec spec = p->spec();
            EXPECT_EQ(spec.name, name);
            EXPECT_EQ(spec.description, p->description);
            EXPECT_GT(spec.runCount(), 1u) << name;
            // Expansion must succeed (all field names resolve).
            EXPECT_EQ(spec.expand().size(), spec.runCount()) << name;
        }
    }
    EXPECT_EQ(findPreset("no_such_preset"), nullptr);
}

TEST(Presets, RegistryNeedsNoSourceTree)
{
    // Listing presets and running one without `program` files must work
    // from any directory: the registry reads only embedded text. Only a
    // preset whose spec points at `.s` files needs them on the path.
    const std::filesystem::path cwd = std::filesystem::current_path();
    const char* env = std::getenv("VORTEX_PROGRAM_PATH");
    const std::string savedEnv = env ? env : "";
    const std::string dir = freshTempDir("no_tree");
    std::filesystem::create_directories(dir);
    std::filesystem::current_path(dir);
    ::unsetenv("VORTEX_PROGRAM_PATH");

    const Preset* asmSmoke = findPreset("asm_smoke");
    ASSERT_NE(asmSmoke, nullptr);
    EXPECT_FALSE(asmSmoke->description.empty());
    EXPECT_EQ(findPreset("fig18")->spec().runCount(), 7u * 5u);
    EXPECT_THROW(asmSmoke->spec(), SpecParseError);

    std::filesystem::current_path(cwd);
    if (env)
        ::setenv("VORTEX_PROGRAM_PATH", savedEnv.c_str(), 1);
    std::filesystem::remove_all(dir);
}

namespace {

/** The runs of `vortex_sweep run --preset NAME SETS...`, read back from
 *  the spec the CLI dumps. */
std::vector<RunSpec>
presetRunsWith(const std::string& name, std::vector<std::string> sets)
{
    std::string path = freshTempDir("preset_set") + ".toml";
    std::vector<std::string> args = {"run", "--preset", name};
    for (std::string& s : sets) {
        args.push_back("--set");
        args.push_back(std::move(s));
    }
    args.push_back("--dump-spec");
    args.push_back(path);
    EXPECT_EQ(cliMain(args), 0);
    std::vector<RunSpec> runs = parseSpecFile(path).expand();
    std::filesystem::remove(path);
    return runs;
}

} // namespace

TEST(Presets, SetReparameterizesPresets)
{
    // fig20 at a larger render target.
    std::vector<RunSpec> big = presetRunsWith("fig20", {"texSize=128"});
    ASSERT_EQ(big.size(), 4u * 3u * 2u);
    for (const RunSpec& r : big)
        EXPECT_EQ(r.workload.texSize, 128u) << r.id();

    // fig21 on the paper-size 16-core, 16W x 16T machine.
    std::vector<RunSpec> paper = presetRunsWith(
        "fig21", {"cores=16", "numWarps=16", "numThreads=16"});
    ASSERT_EQ(paper.size(), 2u * 5u * 3u);
    for (const RunSpec& r : paper) {
        EXPECT_EQ(r.config.numCores, 16u) << r.id();
        EXPECT_EQ(r.config.numWarps, 16u) << r.id();
        EXPECT_EQ(r.config.numThreads, 16u) << r.id();
    }
}

TEST(Presets, Fig18MatrixAppliesThePaperScalingRules)
{
    // Each fig18 point is baselineConfig(c) with the problem scaled x2
    // from 4 cores.
    std::vector<RunSpec> runs = findPreset("fig18")->spec().expand();
    ASSERT_EQ(runs.size(), 7u * 5u);
    const RunSpec& r16 = runs[4]; // sgemm x 16 cores
    EXPECT_EQ(r16.id(), "sgemm/16");
    EXPECT_EQ(r16.config.numCores, 16u);
    EXPECT_TRUE(r16.config.l2Enabled);
    EXPECT_EQ(r16.config.mem.numChannels, 2u);
    EXPECT_EQ(r16.workload.scale, 2u);
    const RunSpec& r1 = runs[0];
    EXPECT_EQ(r1.config.numCores, 1u);
    EXPECT_FALSE(r1.config.l2Enabled);
    EXPECT_EQ(r1.workload.scale, 1u);
}

TEST(Report, TableRendersAlignedTextAndCsv)
{
    ReportTable t;
    t.title = "T";
    t.columns = {"a", "b"};
    t.addRow({"x", "1,2"});
    t.notes.push_back("note");

    std::ostringstream text;
    t.print(text);
    EXPECT_NE(text.str().find("==== T ===="), std::string::npos);
    EXPECT_NE(text.str().find("note"), std::string::npos);

    std::ostringstream csv;
    t.writeCsv(csv);
    EXPECT_EQ(csv.str(), "a,b\nx,\"1,2\"\n");
}
