/**
 * @file
 * Repo benchmark executable: times one workload (a sweep spec) through
 * the simulator's public API and prints one JSON object of metrics.
 *
 *   perfbench --setup-only --spec FILE    (prints its set-up seconds)
 *   perfbench --spec FILE --work-dir DIR --seconds S --trace 0|1 --seed N
 *
 * A pass is one cold campaign over the spec: a fresh result-cache
 * directory, every run simulated serially (jobs = 1) and verified, then
 * CSV and JSON emission. Passes repeat until S seconds have elapsed and
 * every timing is a total over the whole run divided by the number of
 * passes (README.md explains why totals and not minima or medians).
 *
 * --trace 0 runs plain passes with no instrumentation at all.
 * --trace 1 alternates plain passes with traced passes, which replay
 * each run the way sweep::executeRun does but with spans around every
 * public call, then makes one warm pass (cache hits) and one pass on the
 * parallel tick backend. Spans stay in memory until the end and are
 * written to DIR/spans.json.
 *
 * Correctness gate: every run must verify (status ok), and the CSV bytes
 * of every pass — plain, traced or parallel — must equal the first
 * pass's, so cycles, thread-instructions and every counter repeat
 * exactly. Exit status 1 on any failure, 2 on a usage error.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/log.h"
#include "core/processor.h"
#include "isa/assembler.h"
#include "isa/object.h"
#include "kernels/kernels.h"
#include "runtime/device.h"
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/spec.h"
#include "sweep/specfile.h"

namespace fs = std::filesystem;
using namespace vortex;
using Clock = std::chrono::steady_clock;

namespace {

/** Taken before the simulator's static initialisers run: GCC and Clang
 *  run init_priority(101) first, so set-up time includes them. */
__attribute__((init_priority(101))) const Clock::time_point gStart =
    Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Host CPUs this process may run on (what `nproc` prints). */
uint32_t
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<uint32_t>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

/** Peak resident set of this process image in MiB (VmHWM; unlike
 *  getrusage's ru_maxrss it does not inherit the parent's peak across
 *  fork and exec). */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

//
// Spans: one per timed public call, kept in memory and written at exit.
//
struct Span
{
    std::string name;  ///< "<layer>.<call>"
    int parent = -1;   ///< index of the enclosing span (-1 = root)
    double start = 0;  ///< seconds since the tracer's epoch
    double end = 0;
};

class Tracer
{
  public:
    int
    open(const std::string& name, int parent)
    {
        spans_.push_back(Span{name, parent, now(), 0});
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int id) { spans_[id].end = now(); }
    /** Record an already-measured interval (the per-tick hook's stamps). */
    void
    add(const std::string& name, int parent, Clock::time_point a,
        Clock::time_point b)
    {
        spans_.push_back(Span{name, parent, at(a), at(b)});
    }
    /** Time @p fn as a span named @p name under @p parent. */
    template <typename Fn>
    auto
    time(const std::string& name, int parent, Fn&& fn)
    {
        int id = open(name, parent);
        if constexpr (std::is_void_v<decltype(fn(id))>) {
            fn(id);
            close(id);
        } else {
            auto r = fn(id);
            close(id);
            return r;
        }
    }
    const std::vector<Span>& spans() const { return spans_; }

  private:
    double at(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - epoch_).count();
    }
    double now() const { return at(Clock::now()); }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
};

/** Sum of each span name's duration and of each layer's self time
 *  (duration minus the parts its child spans cover) over the subtrees
 *  rooted at @p roots. */
struct SpanTotals
{
    std::map<std::string, double> byName;
    std::map<std::string, double> selfByLayer;
};

SpanTotals
totals(const std::vector<Span>& spans, const std::vector<int>& roots)
{
    std::vector<int> rootOf(spans.size(), -1);
    std::vector<double> childTime(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
        int p = spans[i].parent;
        rootOf[i] = p < 0 ? static_cast<int>(i) : rootOf[p];
        if (p >= 0)
            childTime[p] += spans[i].end - spans[i].start;
    }
    SpanTotals t;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent < 0 ||
            std::find(roots.begin(), roots.end(), rootOf[i]) == roots.end())
            continue;
        double d = spans[i].end - spans[i].start;
        const std::string& n = spans[i].name;
        t.byName[n] += d;
        t.selfByLayer[n.substr(0, n.find('.'))] += d - childTime[i];
    }
    return t;
}

void
writeSpans(const std::vector<Span>& spans, const std::string& path)
{
    std::ofstream os(path);
    os << "[\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"id\": %zu, \"parent\": %d, \"start\": %.9f, "
                      "\"end\": %.9f",
                      i, s.parent, s.start, s.end);
        os << "  {\"name\": " << jsonString(s.name) << ", " << buf << "}"
           << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]\n";
}

//
// Passes.
//
struct Pass
{
    double wall = 0;          ///< host seconds of the whole pass
    double campaignWall = 0;  ///< Campaign::run alone (plain passes)
    double simHostSeconds = 0;///< sum of RunRecord::hostSeconds
    std::string csv;          ///< emitted CSV (the exact-repeat check)
    size_t emitBytes = 0;
    sweep::CampaignResult result;
};

void
emit(const sweep::CampaignResult& r, const fs::path& dir, Pass& p)
{
    std::ostringstream csv, json;
    r.writeCsv(csv);
    r.writeJson(json);
    p.csv = csv.str();
    p.emitBytes = p.csv.size() + json.str().size();
    std::ofstream(dir / (r.name + ".csv")) << p.csv;
    std::ofstream(dir / (r.name + ".json")) << json.str();
}

/** One untraced pass: a cold Campaign::run plus emission. */
Pass
plainPass(const sweep::SweepSpec& spec, const fs::path& dir)
{
    Pass p;
    auto t0 = Clock::now();
    sweep::CampaignOptions opts;
    opts.cacheDir = (dir / "cache").string();
    p.result = sweep::Campaign(opts).run(spec);
    p.campaignWall = secondsSince(t0);
    emit(p.result, dir, p);
    p.wall = secondsSince(t0);
    for (const sweep::RunRecord& r : p.result.records)
        p.simHostSeconds += r.hostSeconds;
    return p;
}

/**
 * First and last simulated tick of a run, stamped from the per-tick hook.
 * Reading the clock on every tick would cost a few percent of a cheap
 * 1-core cycle, so only every 16th tick is stamped and the last tick's
 * time is extrapolated at the run's own mean seconds per tick.
 */
struct TickStamps
{
    static constexpr Cycle kEvery = 16;
    Clock::time_point first{}, last{};
    Cycle firstCycle = 0, lastCycle = 0;

    bool started() const { return first != Clock::time_point{}; }

    void
    stamp(Cycle c)
    {
        if (!started()) {
            first = last = Clock::now();
            firstCycle = lastCycle = c;
        } else if (c % kEvery == 0) {
            last = Clock::now();
            lastCycle = c;
        }
    }

    Clock::time_point
    lastTick(Cycle finalCycle) const
    {
        if (lastCycle <= firstCycle || finalCycle <= lastCycle)
            return last;
        auto perTick = (last - first) / (lastCycle - firstCycle);
        return last + perTick * (finalCycle - lastCycle);
    }
};

/** Kernel source the runner uploads when the run has no program file. */
std::string
builtinSource(const sweep::RunSpec& run)
{
    const char* s =
        kernels::kernelSource(sweep::workloadKernelName(run.workload));
    return s ? s : "";
}

/** The source units the run's upload assembles (Device::uploadKernel*). */
std::vector<isa::SourceUnit>
kernelUnits(const sweep::RunSpec& run)
{
    const sweep::WorkloadSpec& w = run.workload;
    return {{"<runtime>", kernels::runtimeSource()},
            w.program.empty()
                ? isa::SourceUnit{"<kernel>", builtinSource(run)}
                : isa::SourceUnit{w.program, w.programSource}};
}

/**
 * One traced pass over @p runs: sweep::executeRun's steps, each a span,
 * with the first and last simulated tick stamped by the per-tick hook;
 * then replicas of the upload, assembly and object round trip each run
 * performs inside its runner (the only way to time them from outside),
 * the cache store and load, and emission.
 */
Pass
tracedPass(const sweep::SweepSpec& spec,
           const std::vector<sweep::RunSpec>& runs, const fs::path& dir,
           Tracer& tr, int root)
{
    Pass p;
    auto t0 = Clock::now();
    p.result.name = spec.name;
    for (const sweep::Axis& a : spec.axes)
        p.result.axisNames.push_back(a.name);
    for (const sweep::RunSpec& run : runs) {
        tr.time("sweep.run", root, [&](int id) {
            sweep::RunRecord rec;
            rec.spec = run;
            TickStamps ticks;
            auto r0 = Clock::now();
            int init = tr.open("runtime.device_init", id);
            runtime::Device dev(run.config);
            tr.close(init);
            dev.processor().setFaultHook(
                [&](core::Processor&, Cycle c) { ticks.stamp(c); });
            rec.result = tr.time("runtime.run", id, [&](int rid) {
                auto res = run.workload.run(dev);
                if (ticks.started())
                    tr.add("core.sim", rid, ticks.first,
                           ticks.lastTick(dev.cycles()));
                return res;
            });
            rec.hostSeconds = secondsSince(r0);
            tr.time("core.collect_stats", id, [&](int) {
                dev.processor().collectStats(rec.stats);
                rec.series = dev.processor().timeSeries();
            });
            tr.time("runtime.upload", id,
                    [&](int) { dev.uploadKernel(builtinSource(run)); });
            p.result.records.push_back(std::move(rec));
        });
        std::vector<isa::SourceUnit> units = kernelUnits(run);
        isa::Assembler as(run.config.startPC);
        if (run.workload.program.empty()) {
            tr.time("isa.assemble", root,
                    [&](int) { return as.assembleUnits(units); });
        } else {
            isa::ObjectFile obj = tr.time(
                "isa.assemble", root,
                [&](int) { return as.assembleObject(units); });
            tr.time("isa.object_roundtrip", root, [&](int) {
                std::vector<uint8_t> bytes = isa::writeObject(obj);
                return isa::readObject(bytes.data(), bytes.size());
            });
        }
    }
    sweep::CacheStore cache((dir / "cache").string());
    tr.time("sweep.cache_store", root, [&](int) {
        for (const sweep::RunRecord& r : p.result.records)
            if (r.result.ok)
                cache.store(r, spec.name);
    });
    tr.time("sweep.cache_load", root, [&](int) {
        for (const sweep::RunSpec& run : runs) {
            sweep::RunRecord rec;
            cache.load(run, rec);
        }
    });
    tr.time("sweep.emit", root, [&](int) { emit(p.result, dir, p); });
    p.wall = secondsSince(t0);
    for (const sweep::RunRecord& r : p.result.records)
        p.simHostSeconds += r.hostSeconds;
    return p;
}

/** Simulated totals of one pass. */
struct SimTotals
{
    uint64_t cycles = 0, threadInstrs = 0, coreCycles = 0;
    StatGroup stats;
};

SimTotals
simTotals(const sweep::CampaignResult& r)
{
    SimTotals t;
    for (const sweep::RunRecord& rec : r.records) {
        t.cycles += rec.result.cycles;
        t.threadInstrs += rec.result.threadInstrs;
        t.coreCycles += rec.result.cycles * rec.spec.config.numCores;
        t.stats.add(rec.stats);
    }
    return t;
}

//
// Main.
//
struct Options
{
    std::string spec;
    fs::path workDir;
    double seconds = 10;
    bool trace = false;
    uint64_t seed = 0;
    bool setupOnly = false;
};

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --spec FILE "
                 "[--setup-only | --work-dir DIR --seconds S --trace 0|1 "
                 "--seed N]\n",
                 msg);
    return 2;
}

class Metrics
{
  public:
    void
    add(const std::string& name, double value, const std::string& unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.12g", value);
        items_.push_back("\"" + name + "\": {\"value\": " + buf +
                         ", \"unit\": \"" + unit + "\"}");
    }
    std::string
    json() const
    {
        std::string s = "{";
        for (size_t i = 0; i < items_.size(); ++i)
            s += (i ? ", " : "") + items_[i];
        return s + "}";
    }

  private:
    std::vector<std::string> items_;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

struct Gate
{
    uint64_t attempted = 0, failed = 0;
    std::string firstCsv;

    /** Count @p p's runs, and fail the ones that did not verify or whose
     *  CSV row differs from the first pass's. */
    void
    check(const Pass& p, const char* what)
    {
        const auto& recs = p.result.records;
        attempted += recs.size();
        if (firstCsv.empty())
            firstCsv = p.csv;
        std::istringstream want(firstCsv), got(p.csv);
        std::string wl, gl;
        std::getline(want, wl);
        std::getline(got, gl);
        for (const sweep::RunRecord& r : recs) {
            std::getline(want, wl);
            std::getline(got, gl);
            if (r.result.ok && wl == gl)
                continue;
            ++failed;
            std::fprintf(stderr, "perfbench: %s run %s failed: %s\n", what,
                         r.spec.id().c_str(),
                         r.result.ok ? "results differ from the first pass"
                                     : r.result.error.c_str());
        }
    }
};

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw FatalError(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--spec")
                o.spec = value();
            else if (a == "--work-dir")
                o.workDir = value();
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = value() == "1";
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--setup-only")
                o.setupOnly = true;
            else
                return usage(("unknown argument " + a).c_str());
        } catch (const std::exception& e) {
            return usage(e.what());
        }
    }
    if (o.spec.empty())
        return usage("--spec is required");
    if (!o.setupOnly && o.workDir.empty())
        return usage("--work-dir is required");

    try {
        // Set-up: what a campaign does before its first Device exists.
        sweep::SweepSpec spec = sweep::parseSpecFile(o.spec);
        std::vector<sweep::RunSpec> runs = spec.expand();
        if (o.setupOnly) {
            std::printf("%.9g\n", secondsSince(gStart));
            return 0;
        }

        fs::remove_all(o.workDir);
        fs::create_directories(o.workDir);
        std::printf("{\"context\": {\"nproc\": %u, \"cpu\": %s, "
                    "\"compiler\": %s, \"build_type\": %s, \"seed\": %llu, "
                    "\"spec\": %s, \"runs_per_pass\": %zu}}\n",
                    hostCpus(), jsonString(cpuModel()).c_str(),
                    jsonString(PERFBENCH_COMPILER).c_str(),
                    jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                    static_cast<unsigned long long>(o.seed),
                    jsonString(o.spec).c_str(), runs.size());

        Gate gate;
        Metrics m;
        int passNo = 0;
        auto passDir = [&] {
            fs::path d = o.workDir / ("pass" + std::to_string(passNo++));
            fs::create_directories(d);
            return d;
        };

        std::vector<Pass> plain, traced;
        Tracer tr;
        std::vector<int> tracedRoots;
        auto start = Clock::now();
        SimTotals sim;
        auto keep = [&](Pass& p, const char* what) {
            gate.check(p, what);
            if (p.result.records.size() && !sim.cycles)
                sim = simTotals(p.result);
            // Keep per-pass memory flat so peak RSS does not grow with
            // the number of passes.
            p.result.records.clear();
            p.csv.clear();
        };
        while (plain.empty() || secondsSince(start) < o.seconds) {
            fs::path d = passDir();
            plain.push_back(plainPass(spec, d));
            keep(plain.back(), "plain pass");
            if (o.trace) {
                // Traced passes alternate with plain ones so slow drift
                // in host speed hits both alike (trace.overhead).
                fs::remove_all(d);
                d = passDir();
                int root = tr.open("pass", -1);
                traced.push_back(tracedPass(spec, runs, d, tr, root));
                tr.close(root);
                tracedRoots.push_back(root);
                keep(traced.back(), "traced pass");
            }
            fs::remove_all(d);
        }

        auto sum = [](const std::vector<Pass>& v, double Pass::*f) {
            double s = 0;
            for (const Pass& p : v)
                s += p.*f;
            return s;
        };
        const double n = static_cast<double>(plain.size());
        const double wall = sum(plain, &Pass::wall) / n;

        if (!o.trace) {
            m.add("wall_s", wall, "s");
            m.add("sim_kinstrs_per_s", sim.threadInstrs / wall / 1e3,
                  "kinstr/s");
            m.add("peak_rss_mb", peakRssMb(), "MB");
            m.add("sim_cycles", static_cast<double>(sim.cycles), "cycles");
            m.add("ipc", ratio(sim.threadInstrs, sim.cycles), "instr/cycle");
        } else {
            const double nt = static_cast<double>(traced.size());
            const StatGroup& st = sim.stats;
            auto stat = [&](const char* k) {
                return static_cast<double>(st.get(k));
            };
            SpanTotals spans = totals(tr.spans(), tracedRoots);
            auto span = [&](const char* name) {
                return spans.byName[name] / nt;
            };

            // sweep layer. Spec load and expand are repeated here (they
            // run once per process otherwise) and reported as medians.
            std::vector<double> load, expand;
            for (int i = 0; i < 5; ++i) {
                auto t0 = Clock::now();
                sweep::SweepSpec s = sweep::parseSpecFile(o.spec);
                load.push_back(secondsSince(t0));
                t0 = Clock::now();
                s.expand();
                expand.push_back(secondsSince(t0));
            }
            m.add("sweep.spec_load_s", median(load), "s");
            m.add("sweep.expand_s", median(expand), "s");
            m.add("sweep.overhead_s",
                  (sum(plain, &Pass::campaignWall) -
                   sum(plain, &Pass::simHostSeconds)) / n, "s");
            m.add("sweep.cache_store_s", span("sweep.cache_store"), "s");
            m.add("sweep.cache_load_s", span("sweep.cache_load"), "s");
            m.add("sweep.emit_s", span("sweep.emit"), "s");
            m.add("sweep.emit_bytes",
                  static_cast<double>(traced.front().emitBytes), "bytes");

            // Warm pass: the same campaign over a cache a cold pass
            // filled; every run should restore instead of simulating.
            fs::path d = passDir();
            Pass cold = plainPass(spec, d);
            gate.check(cold, "cold pass");
            sweep::CampaignOptions opts;
            opts.cacheDir = (d / "cache").string();
            Pass warm;
            warm.result = sweep::Campaign(opts).run(spec);
            emit(warm.result, d, warm);
            gate.check(warm, "warm pass");
            fs::remove_all(d);
            m.add("sweep.cache_hit_ratio",
                  ratio(warm.result.cacheHits, runs.size()), "ratio");
            m.add("sweep.warm_runs", static_cast<double>(runs.size()),
                  "runs");

            // runtime and isa layers.
            m.add("runtime.device_init_s", span("runtime.device_init"), "s");
            m.add("runtime.upload_s", span("runtime.upload"), "s");
            m.add("runtime.harness_s", span("runtime.run") - span("core.sim"),
                  "s");
            m.add("isa.assemble_s", span("isa.assemble"), "s");
            m.add("isa.object_roundtrip_s", span("isa.object_roundtrip"), "s");
            double instrs = 0;
            for (const sweep::RunSpec& run : runs) {
                isa::Assembler as(run.config.startPC);
                isa::Program prog = as.assembleUnits(kernelUnits(run));
                instrs += static_cast<double>(
                    (prog.execEnd ? prog.execEnd - prog.base : prog.size()) /
                    4);
            }
            m.add("isa.instrs", instrs, "instrs");

            // core layer.
            const double simS = span("core.sim");
            const double issued = stat("core.retired") +
                                  stat("core.issue_scoreboard_stalls") +
                                  stat("core.issue_structural_stalls");
            m.add("core.sim_s", simS, "s");
            m.add("core.warp_instrs", stat("core.warp_instrs"), "instrs");
            m.add("core.thread_instrs", stat("core.thread_instrs"), "instrs");
            m.add("core.ns_per_warp_instr",
                  ratio(simS * 1e9, stat("core.warp_instrs")), "ns");
            m.add("core.issue_ratio", ratio(stat("core.retired"), issued),
                  "ratio");
            m.add("core.issue_slots", issued, "slots");
            m.add("core.core_cycles", static_cast<double>(sim.coreCycles),
                  "cycles");
            m.add("core.ns_per_core_cycle",
                  ratio(simS * 1e9, static_cast<double>(sim.coreCycles)), "ns");
            m.add("core.barriers", stat("core.barriers"), "count");

            // Per-layer self time: span minus its child spans.
            for (const char* layer : {"sweep", "runtime", "isa", "core"})
                m.add(std::string(layer) + ".self_s",
                      spans.selfByLayer[layer] / nt, "s");

            // Parallel tick backend: the same runs, bit-identical or
            // failed, timed over the same first-to-last-tick window.
            const uint32_t threads = hostCpus();
            std::vector<sweep::RunSpec> par = runs;
            uint32_t maxThreads = 1;
            for (sweep::RunSpec& r : par) {
                r.config.parallelTick = true;
                r.config.tickThreads = std::min(threads, r.config.numCores);
                maxThreads = std::max(maxThreads, r.config.tickThreads);
            }
            d = passDir();
            int proot = tr.open("parallel_pass", -1);
            Pass pp = tracedPass(spec, par, d, tr, proot);
            tr.close(proot);
            gate.check(pp, "parallel pass");
            fs::remove_all(d);
            double parSim = totals(tr.spans(), {proot}).byName["core.sim"];
            m.add("tick_engine.parallel_speedup", ratio(simS, parSim), "x");
            m.add("tick_engine.parallel_sim_s", parSim, "s");
            m.add("tick_engine.threads", maxThreads, "threads");

            // mem layer.
            const double icReads = stat("icache.core_reads");
            const double dcAcc =
                stat("dcache.core_reads") + stat("dcache.core_writes");
            const double l2Acc = stat("l2.core_reads") + stat("l2.core_writes");
            m.add("icache.hit_ratio", ratio(stat("icache.read_hits"), icReads),
                  "ratio");
            m.add("icache.reads", icReads, "count");
            m.add("dcache.hit_ratio",
                  ratio(stat("dcache.read_hits") + stat("dcache.write_hits"),
                        dcAcc),
                  "ratio");
            m.add("dcache.accesses", dcAcc, "count");
            m.add("dcache.bank_accept_ratio",
                  ratio(stat("dcache.sel_accepted"),
                        stat("dcache.sel_candidates")),
                  "ratio");
            m.add("dcache.sel_candidates", stat("dcache.sel_candidates"),
                  "count");
            m.add("dcache.mshr_stalls", stat("dcache.mshr_stalls"), "count");
            m.add("dcache.memq_stalls", stat("dcache.memq_stalls"), "count");
            m.add("smem.bank_conflicts", stat("smem.bank_conflicts"), "count");
            m.add("l2.hit_ratio",
                  ratio(stat("l2.read_hits") + stat("l2.write_hits"), l2Acc),
                  "ratio");
            m.add("l2.accesses", l2Acc, "count");
            m.add("l2.memq_stalls", stat("l2.memq_stalls"), "count");
            m.add("mem.bytes", stat("mem.bytes"), "bytes");
            m.add("mem.reads", stat("mem.reads"), "count");
            m.add("mem.writes", stat("mem.writes"), "count");

            // Each traced pass runs right after a plain one; the median of
            // the pairs' ratios resists host-speed drift across the run.
            std::vector<double> pairRatios;
            for (size_t i = 0; i < traced.size(); ++i)
                pairRatios.push_back(traced[i].wall / plain[i].wall);
            const double tracedWall = sum(traced, &Pass::wall) / nt;
            m.add("trace.overhead", median(pairRatios) - 1.0, "ratio");
            m.add("trace.untraced_wall_s", wall, "s");
            m.add("trace.traced_wall_s", tracedWall, "s");

            writeSpans(tr.spans(), (o.workDir / "spans.json").string());
        }

        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": %s}\n",
                    gate.failed ? "false" : "true",
                    static_cast<unsigned long long>(gate.attempted),
                    static_cast<unsigned long long>(gate.failed),
                    m.json().c_str());
        return gate.failed ? 1 : 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
