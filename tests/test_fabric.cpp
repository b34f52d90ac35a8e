/**
 * @file
 * Campaign-fabric tests: shard partitioning (disjoint, exhaustive,
 * balanced), cache merge/import, byte-identical sharded reconstruction,
 * one validity rule for every cache-entry reader, the [fabric] spec key,
 * the submission service's dedup contract and NDJSON events, and the
 * CLI grammar (usage errors, `specs dump` against `run --dump-spec`,
 * `--sample` as a `--set`).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.h"
#include "common/log.h"
#include "common/outcome.h"
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/cli.h"
#include "sweep/fabric.h"
#include "sweep/presets.h"
#include "sweep/report.h"
#include "sweep/specfile.h"

using namespace vortex;
using namespace vortex::sweep;

namespace {

/** Unique scratch directory under the system temp dir. */
std::string
freshTempDir(const char* tag)
{
    static int serial = 0;
    std::string dir =
        (std::filesystem::temp_directory_path() /
         (std::string("vortex_fabric_test_") + tag + "_" +
          std::to_string(::getpid()) + "_" + std::to_string(serial++)))
            .string();
    std::filesystem::remove_all(dir);
    return dir;
}

/** A small but non-trivial matrix: 2 kernels x 2 machines = 4 runs. */
SweepSpec
tinySpec()
{
    SweepSpec s;
    s.name = "fabric-tiny";
    s.base = baselineConfig(1);
    s.axes = {Axis::sweep("kernel", {"vecadd", "saxpy"}),
              Axis::sweepU32("numWarps", {2, 4})};
    return s;
}

/** The same matrix as TOML text, for service submissions. */
const char* kTinySpecToml = "name = \"fabric-tiny\"\n"
                            "[[axes]]\n"
                            "name = \"kernel\"\n"
                            "[[axes.points]]\n"
                            "label = \"vecadd\"\n"
                            "set.kernel = \"vecadd\"\n"
                            "[[axes.points]]\n"
                            "label = \"saxpy\"\n"
                            "set.kernel = \"saxpy\"\n"
                            "[[axes]]\n"
                            "name = \"numWarps\"\n"
                            "[[axes.points]]\n"
                            "label = \"2\"\n"
                            "set.numWarps = \"2\"\n"
                            "[[axes.points]]\n"
                            "label = \"4\"\n"
                            "set.numWarps = \"4\"\n";

std::string
csvOf(const CampaignResult& r)
{
    std::ostringstream os;
    r.writeCsv(os);
    return os.str();
}

std::string
jsonOf(const CampaignResult& r)
{
    std::ostringstream os;
    r.writeJson(os);
    return os.str();
}

/** Whole file contents ("" when missing). */
std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** A non-terminating guest: runs until its 2M-cycle watchdog, so it
 *  holds a service job slot for a visible-but-bounded while. */
const char* kHangSpecToml = "name = \"fabric-hang\"\n"
                            "[workload]\n"
                            "kernel = \"hang\"\n"
                            "program = \"examples/kernels/hang.s\"\n"
                            "check = \"selfcheck\"\n"
                            "[faults]\n"
                            "watchdog = 2000000\n";

/** Raw AF_UNIX client connection (retries while the service binds);
 *  -1 on failure. */
int
rawConnect(const std::string& path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    for (int i = 0; i < 100; ++i) {
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::usleep(20 * 1000);
    }
    ::close(fd);
    return -1;
}

/** Blocking single-line NDJSON read from a raw fd ("" on EOF). */
std::string
rawReadLine(int fd)
{
    std::string line;
    char c;
    while (::recv(fd, &c, 1, 0) == 1) {
        if (c == '\n')
            return line;
        line += c;
    }
    return line;
}

bool
rawSendLine(int fd, const std::string& line)
{
    std::string out = line + "\n";
    return ::send(fd, out.data(), out.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(out.size());
}

} // namespace

//
// Shard partitioning.
//

TEST(Shard, AssignmentIsDisjointExhaustiveAndBalanced)
{
    std::vector<RunSpec> runs = tinySpec().expand();
    ASSERT_EQ(runs.size(), 4u);
    for (uint32_t n : {1u, 2u, 3u, 4u, 7u}) {
        std::vector<uint32_t> shardOf = shardAssignment(runs, n);
        ASSERT_EQ(shardOf.size(), runs.size()) << n << " shards";
        std::vector<size_t> perShard(n, 0);
        for (uint32_t s : shardOf) {
            ASSERT_LT(s, n);
            ++perShard[s];
        }
        // Every run lands on exactly one shard (by construction) and the
        // union covers the matrix; with n <= runs, LPT greediness also
        // means no shard is left empty.
        size_t total = 0;
        for (size_t c : perShard)
            total += c;
        EXPECT_EQ(total, runs.size());
        if (n <= runs.size()) {
            for (uint32_t s = 0; s < n; ++s)
                EXPECT_GT(perShard[s], 0u) << "shard " << s << "/" << n;
        }
    }
    EXPECT_THROW(shardAssignment(runs, 0), FatalError);
}

TEST(Shard, AssignmentIsDeterministic)
{
    std::vector<RunSpec> runs = findPreset("perf_smoke")->spec().expand();
    EXPECT_EQ(shardAssignment(runs, 3), shardAssignment(runs, 3));
}

TEST(Shard, CampaignShardsArePairwiseDisjointAndCoverTheMatrix)
{
    SweepSpec spec = tinySpec();
    const uint32_t N = 3;
    std::set<std::string> seen;
    size_t total = 0;
    for (uint32_t i = 0; i < N; ++i) {
        spec.shardIndex = i;
        spec.shardCount = N;
        CampaignResult part = Campaign().run(spec);
        for (const RunRecord& rec : part.records) {
            // Disjoint: no run id appears in two shards.
            EXPECT_TRUE(seen.insert(rec.spec.id()).second) << rec.spec.id();
        }
        total += part.records.size();
    }
    EXPECT_EQ(total, spec.runCount());

    spec.shardIndex = N;
    EXPECT_THROW(Campaign().run(spec), FatalError);
}

//
// Cache merge + byte-identical sharded reconstruction.
//

TEST(CacheMerge, ShardedCachesReconstructTheUnshardedBytes)
{
    SweepSpec spec = tinySpec();

    // The ground truth: one host, no cache.
    CampaignResult direct = Campaign(CampaignOptions{}).run(spec);
    ASSERT_EQ(direct.records.size(), 4u);

    // Two hosts, each simulating its own disjoint shard into its own
    // cache directory.
    std::vector<std::string> shardDirs;
    for (uint32_t i = 0; i < 2; ++i) {
        CampaignOptions opts;
        opts.cacheDir = freshTempDir(("shard" + std::to_string(i)).c_str());
        SweepSpec shard = spec;
        shard.shardIndex = i;
        shard.shardCount = 2;
        CampaignResult part = Campaign(opts).run(shard);
        EXPECT_EQ(part.cacheHits, 0u);
        EXPECT_EQ(part.cacheMisses, part.records.size());
        shardDirs.push_back(opts.cacheDir);
    }

    // Ship both caches home and merge them.
    std::string merged = freshTempDir("merged");
    CacheStore store(merged);
    size_t imported = 0;
    for (const std::string& src : shardDirs) {
        CacheMergeStats s = store.mergeFrom(src);
        EXPECT_EQ(s.rejected, 0u);
        EXPECT_EQ(s.skipped, 0u);
        imported += s.imported;
    }
    EXPECT_EQ(imported, 4u);
    EXPECT_EQ(store.entries().size(), 4u);

    // Re-running the full spec against the merged store is a 100%-hit,
    // byte-identical reconstruction of the single-host campaign.
    CampaignOptions warm;
    warm.cacheDir = merged;
    CampaignResult rebuilt = Campaign(warm).run(spec);
    EXPECT_EQ(rebuilt.cacheHits, 4u);
    EXPECT_EQ(rebuilt.cacheMisses, 0u);
    EXPECT_EQ(csvOf(rebuilt), csvOf(direct));
    EXPECT_EQ(jsonOf(rebuilt), jsonOf(direct));

    // Merging again is a no-op: every hash is already present.
    CacheMergeStats again = store.mergeFrom(shardDirs[0]);
    EXPECT_EQ(again.imported, 0u);
    EXPECT_GT(again.skipped, 0u);

    for (const std::string& d : shardDirs)
        std::filesystem::remove_all(d);
    std::filesystem::remove_all(merged);
}

TEST(CacheMerge, RejectsInvalidEntriesAndForeignHashes)
{
    std::string src = freshTempDir("badsrc");
    std::string dst = freshTempDir("baddst");
    std::filesystem::create_directories(src);

    // A truncated entry, a wrong-magic entry, and an entry whose
    // recorded hash does not match its file name.
    std::ofstream(src + "/0123456789abcdef.run")
        << "vortex-sweep-cache v3\nhash 0123456789abcdef\ncycles 5\n";
    std::ofstream(src + "/fedcba9876543210.run") << "not a cache entry\n";
    std::ofstream(src + "/00000000000000aa.run")
        << "vortex-sweep-cache v3\nhash 00000000000000bb\ncycles 1\nend\n";

    CacheStore store(dst);
    CacheMergeStats s = store.mergeFrom(src);
    EXPECT_EQ(s.imported, 0u);
    EXPECT_EQ(s.rejected, 3u);
    EXPECT_TRUE(store.entries().empty());

    EXPECT_THROW(store.mergeFrom(src + "/nope"), FatalError);
    EXPECT_THROW(CacheStore("").mergeFrom(src), FatalError);
    EXPECT_THROW(store.mergeFrom(dst), FatalError); // self-merge

    std::filesystem::remove_all(src);
    std::filesystem::remove_all(dst);
}

TEST(CacheMerge, ReplacesATornDestinationEntry)
{
    std::string src = freshTempDir("tornsrc");
    std::string dst = freshTempDir("torndst");
    SweepSpec spec = tinySpec();
    CampaignOptions opts;
    opts.cacheDir = src;
    Campaign(opts).run(spec);

    // The destination holds a copy of one entry with its `end` line cut
    // (a crash mid-write): not an entry, so the merge must replace it.
    const std::string hash = spec.expand()[0].contentHash();
    std::string bytes = slurp(src + "/" + hash + ".run");
    ASSERT_EQ(bytes.substr(bytes.size() - 4), "end\n");
    std::filesystem::create_directories(dst);
    std::ofstream(dst + "/" + hash + ".run")
        << bytes.substr(0, bytes.size() - 4);

    CacheStore store(dst);
    CacheMergeStats s = store.mergeFrom(src);
    EXPECT_EQ(s.imported, 4u);
    EXPECT_EQ(s.skipped, 0u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(slurp(dst + "/" + hash + ".run"), bytes);
    EXPECT_EQ(store.entries().size(), 4u);

    CampaignOptions warm;
    warm.cacheDir = dst;
    CampaignResult replay = Campaign(warm).run(spec);
    EXPECT_EQ(replay.cacheHits, 4u);
    EXPECT_EQ(replay.cacheMisses, 0u);

    std::filesystem::remove_all(src);
    std::filesystem::remove_all(dst);
}

TEST(CacheStore, EveryReaderAppliesTheSameValidityRule)
{
    std::string dir = freshTempDir("rule");
    SweepSpec spec = tinySpec();
    CampaignOptions opts;
    opts.cacheDir = dir;
    Campaign(opts).run(spec);
    std::vector<RunSpec> runs = spec.expand();
    auto path = [&](size_t i) {
        return dir + "/" + runs[i].contentHash() + ".run";
    };

    // Run 0's entry is torn (no `end`); run 1's has a series whose rows
    // are not as long as its cycle stamps. Runs 2 and 3 stay valid.
    std::string torn = slurp(path(0));
    std::ofstream(path(0), std::ios::trunc)
        << torn.substr(0, torn.size() - 4);
    std::string ragged = slurp(path(1));
    ragged.insert(ragged.size() - 4, "sample_interval 100\n"
                                     "sample_cycles 100 200\n"
                                     "series core.retired 7\n");
    std::ofstream(path(1), std::ios::trunc) << ragged;

    CacheStore store(dir);
    RunRecord rec;
    for (size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(store.load(runs[i], rec), i >= 2) << i;

    // Invisible to listing...
    std::vector<CacheEntryInfo> listed = store.entries();
    ASSERT_EQ(listed.size(), 2u);
    for (const CacheEntryInfo& e : listed)
        EXPECT_EQ(e.kernel, "saxpy"); // the provenance `cache list` shows

    // ...refused by a merge, and swept by prune whatever their age.
    std::string dst = freshTempDir("ruledst");
    CacheMergeStats s = CacheStore(dst).mergeFrom(dir);
    EXPECT_EQ(s.imported, 2u);
    EXPECT_EQ(s.rejected, 2u);
    EXPECT_EQ(store.prune(/*olderThanDays=*/1000.0), 2u);
    EXPECT_FALSE(std::filesystem::exists(path(0)));
    EXPECT_FALSE(std::filesystem::exists(path(1)));
    EXPECT_EQ(store.entries().size(), 2u);

    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dst);
}

TEST(CacheStore, CorruptNumbersAndOlderFormatsMiss)
{
    std::string dir = freshTempDir("numbers");
    SweepSpec spec = tinySpec();
    CampaignOptions opts;
    opts.cacheDir = dir;
    const std::string cold = csvOf(Campaign(opts).run(spec));
    const RunSpec run = spec.expand()[0];
    const std::string path = dir + "/" + run.contentHash() + ".run";
    const std::string good = slurp(path);

    // @p good with its first line starting @p prefix replaced by @p line
    // (@p prefix "end" inserts @p line before the terminator instead).
    auto edit = [&](const std::string& prefix, const std::string& line) {
        if (prefix == "end")
            return good.substr(0, good.size() - 4) + line + "\nend\n";
        size_t at = good.find("\n" + prefix) + 1;
        size_t eol = good.find('\n', at);
        return good.substr(0, at) + line + good.substr(eol);
    };
    auto loads = [&](const std::string& bytes) {
        std::ofstream(path, std::ios::trunc) << bytes;
        RunRecord rec;
        return CacheStore(dir).load(run, rec);
    };

    // A well-formed series block restores; each corrupt number below
    // then invalidates the entry instead of being read as 0 or a prefix.
    const std::string series = "sample_interval 100\n"
                               "sample_cycles 100 200\n"
                               "series core.retired 7 9";
    ASSERT_TRUE(loads(good));
    ASSERT_TRUE(loads(edit("end", series)));
    const std::pair<std::string, std::string> corrupt[] = {
        {"cycles ", "cycles 12x"},
        {"cycles ", "cycles"},
        {"cycles ", "cycles -12"},
        {"thread_instrs ", "thread_instrs 5 6"},
        {"stat dcache.read_hits ", "stat dcache.read_hits abc"},
        {"stat dcache.read_hits ", "stat dcache.read_hits 1.5"},
        {"stat dcache.read_hits ", "stat dcache.read_hits"},
        {"stat dcache.read_hits ",
         "stat dcache.read_hits 99999999999999999999"},
        {"end", "sample_interval 10O\nsample_cycles"},
        {"end", "sample_interval 100\nsample_cycles 100 2OO\n"
                "series core.retired 7 9"},
        {"end", "sample_interval 100\nsample_cycles 100 200\n"
                "series core.retired 7 9z"},
    };
    for (const auto& [prefix, line] : corrupt)
        EXPECT_FALSE(loads(edit(prefix, line))) << line;

    // A valid-looking entry of the previous format (v2: only the
    // counters its run bumped) is a miss: the warm campaign re-simulates
    // it and emits the cold columns, and prune sweeps such a file.
    std::string v2 = good;
    v2.replace(0, v2.find('\n'), "vortex-sweep-cache v2");
    EXPECT_FALSE(loads(v2));
    CampaignResult warm = Campaign(opts).run(spec);
    EXPECT_EQ(warm.cacheHits, 3u);
    EXPECT_EQ(warm.cacheMisses, 1u);
    EXPECT_EQ(csvOf(warm), cold);
    RunRecord rec;
    EXPECT_TRUE(CacheStore(dir).load(run, rec)); // rewritten as v3
    std::ofstream(path, std::ios::trunc) << v2;
    EXPECT_EQ(CacheStore(dir).prune(/*olderThanDays=*/1000.0), 1u);
    EXPECT_FALSE(std::filesystem::exists(path));

    std::filesystem::remove_all(dir);
}

//
// The [fabric] spec key.
//

TEST(FabricSpecKey, ParsesRoundTripsAndNeverEntersTheContentHash)
{
    std::string toml = std::string(kTinySpecToml) +
                       "[fabric]\nshard = \"1/3\"\n";
    SweepSpec sharded = parseSpecText(toml, "sharded.toml");
    EXPECT_EQ(sharded.shardIndex, 1u);
    EXPECT_EQ(sharded.shardCount, 3u);

    // Execution metadata only: the sharded spec's matrix hashes equal
    // the unsharded twin's, so they share cache entries.
    SweepSpec plain = parseSpecText(kTinySpecToml, "plain.toml");
    std::vector<RunSpec> a = sharded.expand(), b = plain.expand();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].contentHash(), b[i].contentHash());

    // Canonical dump round-trips the annotation as a fixpoint...
    std::string once = specToToml(sharded);
    EXPECT_NE(once.find("[fabric]"), std::string::npos);
    EXPECT_NE(once.find("shard = \"1/3\""), std::string::npos);
    EXPECT_EQ(once, specToToml(parseSpecText(once, "again.toml")));
    // ...and an unsharded spec never grows a [fabric] block (shipped
    // preset dumps stay byte-identical).
    EXPECT_EQ(specToToml(plain).find("[fabric]"), std::string::npos);

    // Bad selectors are rejected at parse time, with a position.
    EXPECT_THROW(parseSpecText(std::string(kTinySpecToml) +
                                   "[fabric]\nshard = \"3/3\"\n",
                               "bad.toml"),
                 SpecParseError);
    EXPECT_THROW(parseSpecText(std::string(kTinySpecToml) +
                                   "[fabric]\nshard = \"nope\"\n",
                               "bad.toml"),
                 SpecParseError);
    EXPECT_THROW(parseShardValue("--shard", "1", sharded.shardIndex,
                                 sharded.shardCount),
                 FatalError);
}

//
// The submission service.
//

TEST(Service, ConcurrentIdenticalSubmissionsCostOneSimulationEach)
{
    std::string dir = freshTempDir("svc");
    std::filesystem::create_directories(dir);
    ServiceOptions opts;
    opts.socketPath = dir + "/fabric.sock";
    opts.cacheDir = dir + "/cache";
    opts.jobs = 2;
    Service service(opts);
    service.start();
    ASSERT_TRUE(service.running());

    // Two clients race the same 4-run spec. Between memo hits and
    // in-flight joins, only 4 simulations may happen in total.
    SubmitResult r1, r2;
    std::thread t1([&] { r1 = submitSpecText(opts.socketPath, kTinySpecToml); });
    std::thread t2([&] { r2 = submitSpecText(opts.socketPath, kTinySpecToml); });
    t1.join();
    t2.join();
    ASSERT_TRUE(r1.ok) << r1.error;
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r1.runs, 4u);
    EXPECT_EQ(r2.runs, 4u);
    EXPECT_EQ(r1.campaign, "fabric-tiny");
    EXPECT_EQ(r1.simulated + r2.simulated, 4u);
    EXPECT_EQ(r1.simulated + r1.cacheHits + r1.dedupJoins, 4u);
    EXPECT_EQ(r2.simulated + r2.cacheHits + r2.dedupJoins, 4u);

    // A third, sequential, identical submission is served entirely
    // without simulating.
    SubmitResult r3 = submitSpecText(opts.socketPath, kTinySpecToml);
    ASSERT_TRUE(r3.ok) << r3.error;
    EXPECT_EQ(r3.simulated, 0u);
    EXPECT_EQ(r3.cacheHits, 4u);

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submissions, 3u);
    EXPECT_EQ(stats.runsRequested, 12u);
    EXPECT_EQ(stats.simulated, 4u);
    EXPECT_EQ(stats.memoHits + stats.cacheHits + stats.dedupJoins, 8u);
    EXPECT_EQ(stats.errors, 0u);

    // The simulations landed in the shared cache, so a plain batch
    // campaign over the same spec is now a 100% hit.
    service.stop();
    EXPECT_FALSE(service.running());
    CampaignOptions warm;
    warm.cacheDir = opts.cacheDir;
    CampaignResult rebuilt =
        Campaign(warm).run(parseSpecText(kTinySpecToml, "tiny.toml"));
    EXPECT_EQ(rebuilt.cacheHits, 4u);
    EXPECT_EQ(rebuilt.cacheMisses, 0u);

    std::filesystem::remove_all(dir);
}

TEST(Service, RenamedSubmissionsStillDedupAndErrorsAreReported)
{
    std::string dir = freshTempDir("svc2");
    std::filesystem::create_directories(dir);
    ServiceOptions opts;
    opts.socketPath = dir + "/fabric.sock";
    Service service(opts); // no cache dir: memo-only dedup
    service.start();

    SubmitResult a = submitSpecText(opts.socketPath, kTinySpecToml, "first");
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.campaign, "first");
    EXPECT_EQ(a.simulated, 4u);
    // The campaign name is not part of the run identity: a renamed
    // twin is served from the memo.
    SubmitResult b = submitSpecText(opts.socketPath, kTinySpecToml, "second");
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(b.simulated, 0u);
    EXPECT_EQ(b.cacheHits, 4u);

    // Events arrive as well-formed NDJSON with a final done.
    ASSERT_FALSE(b.events.empty());
    EXPECT_NE(b.events.front().find("\"accepted\""), std::string::npos);
    EXPECT_NE(b.events.back().find("\"done\""), std::string::npos);

    // A spec that does not parse answers with an error event, and the
    // connection stays usable for the service (stats record it).
    SubmitResult bad =
        submitSpecText(opts.socketPath, "definitely not a spec [");
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());
    EXPECT_EQ(service.stats().errors, 1u);

    service.stop();
    std::filesystem::remove_all(dir);
}

TEST(Service, MalformedRequestLinesLeaveTheConnectionUsable)
{
    std::string dir = freshTempDir("svcbad");
    std::filesystem::create_directories(dir);
    ServiceOptions opts;
    opts.socketPath = dir + "/fabric.sock";
    Service service(opts);
    service.start();

    int fd = rawConnect(opts.socketPath);
    ASSERT_GE(fd, 0);

    // Garbage, valid-JSON-without-op, and unknown-op lines each answer
    // with an error event — and none of them kill the connection.
    ASSERT_TRUE(rawSendLine(fd, "this is not NDJSON {{{"));
    EXPECT_NE(rawReadLine(fd).find("\"error\""), std::string::npos);
    ASSERT_TRUE(rawSendLine(fd, "{\"spec\": \"x\"}"));
    EXPECT_NE(rawReadLine(fd).find("missing the \\\"op\\\""),
              std::string::npos);
    ASSERT_TRUE(rawSendLine(fd, "{\"op\": \"frobnicate\"}"));
    EXPECT_NE(rawReadLine(fd).find("unknown op"), std::string::npos);
    ASSERT_TRUE(rawSendLine(fd, "{\"op\": \"ping\"}"));
    EXPECT_NE(rawReadLine(fd).find("\"pong\""), std::string::npos);

    // The same poisoned connection still carries a full submission.
    ASSERT_TRUE(rawSendLine(fd, std::string("{\"op\": \"submit\", "
                                            "\"spec\": \"") +
                                    jsonEscape(kTinySpecToml) + "\"}"));
    std::string line;
    bool done = false;
    while (!(line = rawReadLine(fd)).empty()) {
        ASSERT_EQ(line.find("\"error\""), std::string::npos) << line;
        if (line.find("\"done\"") != std::string::npos) {
            done = true;
            break;
        }
    }
    EXPECT_TRUE(done);
    ::close(fd);

    EXPECT_TRUE(service.running());
    service.stop();
    std::filesystem::remove_all(dir);
}

TEST(Service, DeeplyNestedJsonIsAnErrorEventNotACrash)
{
    std::string dir = freshTempDir("svcdeep");
    std::filesystem::create_directories(dir);
    ServiceOptions opts;
    opts.socketPath = dir + "/fabric.sock";
    Service service(opts);
    service.start();

    // 100,000 nested arrays (about 200 KB) used to overflow the stack of
    // the daemon, once as a submitted spec and once as the request line.
    const size_t n = 100000;
    std::string deep =
        "{\"axes\": " + std::string(n, '[') + std::string(n, ']') + "}";
    SubmitResult r = submitSpecText(opts.socketPath, deep);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("<submission>:1:73: document nests deeper"),
              std::string::npos)
        << r.error;

    int fd = rawConnect(opts.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(rawSendLine(fd, deep));
    std::string line = rawReadLine(fd);
    EXPECT_NE(line.find("\"bad request: request:1:73: document nests "
                        "deeper than 64 levels\""),
              std::string::npos)
        << line;
    ASSERT_TRUE(rawSendLine(fd, "{\"op\": \"ping\"}"));
    EXPECT_EQ(rawReadLine(fd), "{\"event\": \"pong\"}");
    ::close(fd);

    EXPECT_TRUE(service.running());
    service.stop();
    std::filesystem::remove_all(dir);
}

TEST(Service, EveryEventKindRoundTripsThroughTheReader)
{
    std::string dir = freshTempDir("svcev");
    std::filesystem::create_directories(dir);
    ServiceOptions opts;
    opts.socketPath = dir + "/fabric.sock";
    Service service(opts);
    service.start();

    int fd = rawConnect(opts.socketPath);
    ASSERT_GE(fd, 0);
    using Kind = json::Node::Kind;
    // Read one event line, check its kind and the kind of every listed
    // field, and hand back the parsed tree.
    auto expectEvent =
        [&](const std::string& kind,
            const std::vector<std::pair<std::string, Kind>>& fields) {
            std::string line = rawReadLine(fd);
            json::Node ev;
            try {
                ev = json::parse(line, "event");
            } catch (const ParseError& e) {
                ADD_FAILURE() << e.what();
                return ev;
            }
            const std::string* name = ev.findString("event");
            EXPECT_TRUE(name && *name == kind) << line;
            EXPECT_EQ(ev.members.size(), fields.size() + 1) << line;
            for (const auto& [key, k] : fields) {
                const json::Node* v = ev.find(key);
                EXPECT_TRUE(v && v->kind == k) << key << " in " << line;
            }
            return ev;
        };

    ASSERT_TRUE(rawSendLine(fd, "{\"op\": \"ping\"}"));
    expectEvent("pong", {});

    ASSERT_TRUE(rawSendLine(fd, std::string("{\"op\": \"submit\", "
                                            "\"spec\": \"") +
                                    jsonEscape(kTinySpecToml) + "\"}"));
    json::Node accepted = expectEvent(
        "accepted", {{"campaign", Kind::String}, {"runs", Kind::Integer}});
    EXPECT_EQ(*accepted.findString("campaign"), "fabric-tiny");
    EXPECT_EQ(accepted.find("runs")->integer, 4);
    for (int i = 0; i < 4; ++i) {
        json::Node run = expectEvent(
            "run", {{"index", Kind::Integer},
                    {"id", Kind::String},
                    {"hash", Kind::String},
                    {"source", Kind::String},
                    {"ok", Kind::Boolean},
                    {"status", Kind::String},
                    {"cycles", Kind::Integer},
                    {"thread_instrs", Kind::Integer},
                    {"ipc", Kind::Float}});
        EXPECT_TRUE(run.find("ok")->boolean);
    }
    json::Node done = expectEvent("done", {{"campaign", Kind::String},
                                           {"runs", Kind::Integer},
                                           {"simulated", Kind::Integer},
                                           {"cache_hits", Kind::Integer},
                                           {"dedup_joins", Kind::Integer}});
    EXPECT_EQ(done.find("simulated")->integer, 4);

    ASSERT_TRUE(rawSendLine(fd, "{\"op\": \"status\"}"));
    json::Node status = expectEvent("status", {{"submissions", Kind::Integer},
                                               {"runs_requested", Kind::Integer},
                                               {"simulated", Kind::Integer},
                                               {"cache_hits", Kind::Integer},
                                               {"memo_hits", Kind::Integer},
                                               {"dedup_joins", Kind::Integer},
                                               {"errors", Kind::Integer},
                                               {"inflight", Kind::Integer}});
    EXPECT_EQ(status.find("submissions")->integer, 1);

    // A bare-token value is not JSON: a bad request, positioned, and the
    // connection stays usable.
    ASSERT_TRUE(rawSendLine(fd, "{\"op\": submit}"));
    json::Node bad = expectEvent("error", {{"message", Kind::String}});
    EXPECT_EQ(*bad.findString("message"),
              "bad request: request:1:8: unrecognized value");
    // Control characters travel as \u escapes and decode back.
    ASSERT_TRUE(rawSendLine(fd, "{\"op\": \"x\\u0001\"}"));
    json::Node unknown = expectEvent("error", {{"message", Kind::String}});
    EXPECT_EQ(*unknown.findString("message"), "unknown op \"x\x01\"");

    ASSERT_TRUE(rawSendLine(fd, "{\"op\": \"shutdown\"}"));
    expectEvent("bye", {});
    ::close(fd);

    service.stop();
    std::filesystem::remove_all(dir);
}

TEST(Service, ClientDisconnectMidRunDoesNotKillTheService)
{
    std::string dir = freshTempDir("svcgone");
    std::filesystem::create_directories(dir);
    ServiceOptions opts;
    opts.socketPath = dir + "/fabric.sock";
    Service service(opts);
    service.start();

    // Submit the 2M-cycle hang guest, read the accepted event, then
    // vanish mid-simulation.
    int fd = rawConnect(opts.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(rawSendLine(fd, std::string("{\"op\": \"submit\", "
                                            "\"spec\": \"") +
                                    jsonEscape(kHangSpecToml) + "\"}"));
    EXPECT_NE(rawReadLine(fd).find("\"accepted\""), std::string::npos);
    ::close(fd);

    // The daemon keeps running and serves the next client normally.
    SubmitResult r = submitSpecText(opts.socketPath, kTinySpecToml);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.runs, 4u);
    EXPECT_TRUE(service.running());

    service.stop();
    std::filesystem::remove_all(dir);
}

TEST(Service, DeadlineAbortsAHungSimulationAsATimeoutRow)
{
    std::string dir = freshTempDir("svcdl");
    std::filesystem::create_directories(dir);
    ServiceOptions opts;
    opts.socketPath = dir + "/fabric.sock";
    opts.cacheDir = dir + "/cache";
    opts.runDeadlineSeconds = 1;
    Service service(opts);
    service.start();

    // No [faults] watchdog this time: only the service's wall-clock
    // deadline stands between the spinning guest and the runtime's
    // 400M-cycle budget.
    std::string noWatchdog = "name = \"fabric-hang\"\n"
                             "[workload]\n"
                             "kernel = \"hang\"\n"
                             "program = \"examples/kernels/hang.s\"\n"
                             "check = \"selfcheck\"\n";
    SubmitResult r = submitSpecText(opts.socketPath, noWatchdog);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("timeout"), std::string::npos) << r.error;
    bool sawTimeoutRun = false;
    for (const std::string& ev : r.events)
        if (ev.find("\"event\": \"run\"") != std::string::npos &&
            ev.find("\"status\": \"timeout\"") != std::string::npos)
            sawTimeoutRun = true;
    EXPECT_TRUE(sawTimeoutRun);
    EXPECT_EQ(service.stats().errors, 1u);

    // Aborted runs are failures: nothing landed in the cache, and the
    // daemon is still healthy.
    EXPECT_TRUE(CacheStore(opts.cacheDir).entries().empty());
    EXPECT_TRUE(service.running());
    SubmitResult ok = submitSpecText(opts.socketPath, kTinySpecToml);
    EXPECT_TRUE(ok.ok) << ok.error;

    service.stop();
    std::filesystem::remove_all(dir);
}

TEST(Submit, TimeoutGivesUpOnASilentService)
{
    // A socket that listens but never answers: connect succeeds via the
    // backlog, then the service-side accept never comes.
    std::string dir = freshTempDir("svcmute");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/mute.sock";
    int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 4), 0);

    SubmitResult r = submitSpecText(path, kTinySpecToml, "", nullptr,
                                    /*timeoutSeconds=*/1);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("timed out"), std::string::npos) << r.error;

    ::close(lfd);
    std::filesystem::remove_all(dir);
}

TEST(Serve, SigtermMidSimulationShutsDownCleanly)
{
    std::string dir = freshTempDir("svcterm");
    std::filesystem::create_directories(dir);
    ServiceOptions opts;
    opts.socketPath = dir + "/fabric.sock";
    opts.cacheDir = dir + "/cache";

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: the foreground `vortex_sweep serve` process.
        ::_exit(serveMain(opts));
    }

    // Feed it a long simulation, give the run a moment to start, then
    // deliver SIGTERM mid-flight.
    std::thread client([&] {
        submitSpecText(opts.socketPath, kHangSpecToml, "", nullptr,
                       /*timeoutSeconds=*/30);
    });
    ::usleep(300 * 1000);
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    client.join();

    // Clean shutdown: exit 0, the socket unlinked, and no torn entry or
    // leftover temp file in the cache directory.
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    EXPECT_FALSE(std::filesystem::exists(opts.socketPath));
    if (std::filesystem::exists(opts.cacheDir)) {
        for (const auto& de :
             std::filesystem::directory_iterator(opts.cacheDir))
            EXPECT_EQ(de.path().filename().string().find(".tmp."),
                      std::string::npos)
                << de.path();
        EXPECT_EQ(CacheStore(opts.cacheDir).prune(/*olderThanDays=*/1000.0),
                  0u);
    }
    std::filesystem::remove_all(dir);
}

//
// Crash-safe cache maintenance.
//

TEST(CachePrune, SweepsTornEntriesRegardlessOfAge)
{
    std::string dir = freshTempDir("torn");
    SweepSpec spec = tinySpec();
    CampaignOptions opts;
    opts.cacheDir = dir;
    Campaign(opts).run(spec);
    CacheStore store(dir);
    ASSERT_EQ(store.entries().size(), 4u);

    // A crash mid-write leaves an entry without its `end` terminator
    // (plus possibly a stale temp file). Readers already treat it as a
    // miss; prune must sweep it even when an --older-than window keeps
    // every healthy entry.
    std::ofstream(dir + "/00000000deadbeef.run")
        << "vortex-sweep-cache v3\nhash 00000000deadbeef\ncycles 7\n";
    std::ofstream(dir + "/1111111111111111.run.tmp.999.1") << "partial";
    EXPECT_EQ(store.entries().size(), 4u); // torn entry never listed

    RunRecord out;
    EXPECT_EQ(store.prune(/*olderThanDays=*/1000.0), 1u);
    EXPECT_FALSE(std::filesystem::exists(dir + "/00000000deadbeef.run"));
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/1111111111111111.run.tmp.999.1"));
    EXPECT_EQ(store.entries().size(), 4u); // healthy entries survive
    for (const RunSpec& r : spec.expand())
        EXPECT_TRUE(store.load(r, out)) << r.id();

    EXPECT_EQ(store.prune(), 4u); // no age filter: everything goes
    EXPECT_TRUE(store.entries().empty());
    std::filesystem::remove_all(dir);
}

TEST(Service, ClientShutdownRequestIsAcknowledged)
{
    std::string dir = freshTempDir("svc3");
    std::filesystem::create_directories(dir);
    ServiceOptions opts;
    opts.socketPath = dir + "/fabric.sock";
    Service service(opts);
    service.start();
    EXPECT_FALSE(service.shutdownRequestedByClient());
    requestShutdown(opts.socketPath);
    EXPECT_TRUE(service.shutdownRequestedByClient());
    service.stop();
    // The socket file is gone; a new service can take the same path.
    EXPECT_FALSE(std::filesystem::exists(opts.socketPath));
    std::filesystem::remove_all(dir);
}

//
// CLI grammar: every invocation names a command.
//

TEST(Cli, UsageErrorsAndHelp)
{
    EXPECT_EQ(cliMain({"run", "-h"}), 0);
    EXPECT_EQ(cliMain({"run", "--definitely-not-a-flag"}), 2);
    EXPECT_EQ(cliMain({"run"}), 2); // "nothing to do" is a usage error
    EXPECT_EQ(cliMain({"run", "--preset", "perf_smoke", "stray"}), 2);
    EXPECT_EQ(cliMain({}), 2);
    // The pre-subcommand flat-flag spelling is not a command.
    EXPECT_EQ(cliMain({"--preset", "perf_smoke"}), 2);
}

TEST(Cli, SpecsDumpMatchesRunDumpSpecAndCarriesTheShard)
{
    std::string outRun = freshTempDir("dump1") + ".toml";
    std::string outSub = freshTempDir("dump2") + ".toml";
    ASSERT_EQ(
        cliMain({"run", "--preset", "perf_smoke", "--dump-spec", outRun}), 0);
    ASSERT_EQ(cliMain({"specs", "dump", "--preset", "perf_smoke", outSub}),
              0);
    EXPECT_EQ(slurp(outRun), slurp(outSub));
    EXPECT_EQ(slurp(outRun).find("[fabric]"), std::string::npos);

    // --shard folds into the dump, and the dump parses back sharded.
    std::string outShard = freshTempDir("dump3") + ".toml";
    ASSERT_EQ(cliMain({"specs", "dump", "--preset", "perf_smoke", "--shard",
                       "1/2", outShard}),
              0);
    SweepSpec parsed = parseSpecFile(outShard);
    EXPECT_EQ(parsed.shardIndex, 1u);
    EXPECT_EQ(parsed.shardCount, 2u);

    // An invalid shard selector is a fatal diagnostic, not a crash.
    EXPECT_EQ(cliMain({"run", "--preset", "perf_smoke", "--shard", "2/2",
                       "--no-csv", "--quiet"}),
              1);

    std::filesystem::remove(outRun);
    std::filesystem::remove(outSub);
    std::filesystem::remove(outShard);
}

TEST(Cli, SpecsDumpTakesItsPathAfterABooleanFlag)
{
    std::string plain = freshTempDir("dumpq1") + ".toml";
    std::string quiet = freshTempDir("dumpq2") + ".toml";
    ASSERT_EQ(cliMain({"specs", "dump", "--preset", "perf_smoke", plain}), 0);
    ASSERT_EQ(cliMain({"specs", "dump", "--preset", "perf_smoke", "--quiet",
                       quiet}),
              0);
    EXPECT_FALSE(slurp(plain).empty());
    EXPECT_EQ(slurp(plain), slurp(quiet));
    // At most one PATH.
    EXPECT_EQ(cliMain({"specs", "dump", "--preset", "perf_smoke", plain,
                       quiet}),
              2);
    std::filesystem::remove(plain);
    std::filesystem::remove(quiet);
}

TEST(Cli, SampleIsExactlySetSampleInterval)
{
    // A 64-bit interval, in order with the other --set assignments.
    auto dump = [](std::vector<std::string> flags) {
        std::string out = freshTempDir("sample") + ".toml";
        std::vector<std::string> args = {"specs", "dump", "--preset",
                                         "perf_smoke"};
        args.insert(args.end(), flags.begin(), flags.end());
        args.push_back(out);
        EXPECT_EQ(cliMain(args), 0);
        std::string text = slurp(out);
        std::filesystem::remove(out);
        return text;
    };
    std::string viaSample = dump({"--sample", "5000000000"});
    EXPECT_NE(viaSample.find("sampleInterval = 5000000000"),
              std::string::npos);
    EXPECT_EQ(viaSample, dump({"--set", "sampleInterval=5000000000"}));
    EXPECT_EQ(dump({"--sample", "7", "--set", "sampleInterval=9"}),
              dump({"--set", "sampleInterval=7", "--sample", "9"}));
}

TEST(Cli, CacheSubcommandsListMergePrune)
{
    // Build two disjoint shard caches via the CLI, then merge them via
    // the CLI — the user-facing face of the reconstruction workflow.
    std::string s0 = freshTempDir("cms0");
    std::string s1 = freshTempDir("cms1");
    std::string merged = freshTempDir("cmdst");
    std::vector<std::string> base = {"run",   "--axis", "kernel=vecadd,saxpy",
                                     "--set", "numWarps=2", "--no-csv",
                                     "--quiet"};
    std::vector<std::string> run0 = base;
    run0.insert(run0.end(), {"--cache", s0, "--shard", "0/2"});
    std::vector<std::string> run1 = base;
    run1.insert(run1.end(), {"--cache", s1, "--shard", "1/2"});
    ASSERT_EQ(cliMain(run0), 0);
    ASSERT_EQ(cliMain(run1), 0);

    EXPECT_EQ(cliMain({"cache", "merge", merged, s0, s1}), 0);
    EXPECT_EQ(CacheStore(merged).entries().size(), 2u);
    EXPECT_EQ(cliMain({"cache", "list", merged}), 0);
    EXPECT_EQ(cliMain({"cache", "prune", merged}), 0);
    EXPECT_TRUE(CacheStore(merged).entries().empty());

    EXPECT_EQ(cliMain({"cache", "frobnicate", merged}), 1);
    EXPECT_EQ(cliMain({"cache", "merge", merged}), 1);

    // A day count must be finite; a huge finite one keeps every entry.
    // --older-than belongs to prune alone.
    ASSERT_EQ(cliMain({"cache", "merge", merged, s0, s1}), 0);
    EXPECT_EQ(cliMain({"cache", "prune", merged, "--older-than", "nan"}), 1);
    EXPECT_EQ(cliMain({"cache", "prune", merged, "--older-than", "inf"}), 1);
    EXPECT_EQ(cliMain({"cache", "prune", merged, "--older-than", "1e300"}),
              0);
    EXPECT_EQ(CacheStore(merged).entries().size(), 2u);
    EXPECT_EQ(cliMain({"cache", "list", merged, "--older-than", "3"}), 1);

    // list and prune name a directory that does not exist, as merge
    // does for a missing source.
    const std::string missing = merged + "/nope";
    for (const char* verb : {"list", "prune"}) {
        testing::internal::CaptureStderr();
        EXPECT_EQ(cliMain({"cache", verb, missing}), 1) << verb;
        EXPECT_NE(testing::internal::GetCapturedStderr().find(
                      "'" + missing + "' is not a directory"),
                  std::string::npos)
            << verb;
    }
    EXPECT_EQ(cliMain({"cache", "prune", "--cache", missing}), 1);
    EXPECT_FALSE(std::filesystem::exists(missing));

    std::filesystem::remove_all(s0);
    std::filesystem::remove_all(s1);
    std::filesystem::remove_all(merged);
}
