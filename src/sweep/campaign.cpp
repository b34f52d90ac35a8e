/**
 * @file
 * Campaign execution: the cost estimate, shard slicing, the shared run
 * executor, and CSV/JSON emission. Cache entry I/O lives in sweep/cache.cpp.
 */

#include "sweep/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/analysis.h"
#include "common/log.h"
#include "common/outcome.h"
#include "core/processor.h"
#include "kernels/kernels.h"
#include "runtime/device.h"
#include "sweep/cache.h"
#include "sweep/report.h"

namespace vortex::sweep {

double
estimateRunCost(const RunSpec& spec)
{
    const core::ArchConfig& c = spec.config;
    const WorkloadSpec& w = spec.workload;

    // Problem work. The weights are crude per-kernel relative costs
    // (sgemm is O(n^3) on the same n, bfs touches little data); they
    // only need to rank runs, not predict seconds.
    double work = 1.0;
    if (w.kind == WorkloadSpec::Kind::Rodinia) {
        double weight = 1.0;
        if (w.kernel == "sgemm")
            weight = 8.0;
        else if (w.kernel == "gaussian")
            weight = 6.0;
        else if (w.kernel == "sfilter")
            weight = 4.0;
        else if (w.kernel == "nearn")
            weight = 3.0;
        else if (w.kernel == "bfs")
            weight = 2.0;
        double s = static_cast<double>(w.scale);
        work = weight * s * s;
    } else {
        double area = static_cast<double>(w.texSize) *
                      static_cast<double>(w.texSize) / (64.0 * 64.0);
        double filter =
            w.texFilter == runtime::TexFilterMode::Trilinear  ? 3.0
            : w.texFilter == runtime::TexFilterMode::Bilinear ? 2.0
                                                              : 1.0;
        // The software sampler executes many more instructions per texel
        // than the hardware `tex` path.
        work = area * filter * (w.texHw ? 1.0 : 4.0);
    }

    // Host cost grows with the simulated machine: every core ticked
    // every cycle, wider cores emulate more lanes per instruction.
    double machine = static_cast<double>(c.numCores) *
                     static_cast<double>(c.numWarps) *
                     static_cast<double>(c.numThreads);
    return work * (1.0 + machine / 16.0);
}

namespace {

/** LPT order of @p runs: indices by descending estimateRunCost(), stable
 *  so ties keep matrix order. Fills @p costs with each run's estimate. */
std::vector<size_t>
lptOrder(const std::vector<RunSpec>& runs, std::vector<double>& costs)
{
    costs.resize(runs.size());
    for (size_t i = 0; i < runs.size(); ++i)
        costs[i] = estimateRunCost(runs[i]);
    std::vector<size_t> order(runs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return costs[a] > costs[b]; });
    return order;
}

} // namespace

std::vector<uint32_t>
shardAssignment(const std::vector<RunSpec>& runs, uint32_t shardCount)
{
    if (shardCount == 0)
        fatal("shardAssignment: shard count must be >= 1");
    // Greedy LPT bin-packing: heaviest run first onto the least-loaded
    // shard, ties broken toward the lower index on both sides. Stable
    // and host-independent.
    std::vector<double> costs;
    std::vector<uint32_t> shardOf(runs.size(), 0);
    std::vector<double> load(shardCount, 0.0);
    for (size_t i : lptOrder(runs, costs)) {
        uint32_t best = 0;
        for (uint32_t s = 1; s < shardCount; ++s)
            if (load[s] < load[best])
                best = s;
        shardOf[i] = best;
        load[best] += costs[i];
    }
    return shardOf;
}

std::vector<RunSpec>
shardSlice(const SweepSpec& spec, std::vector<RunSpec> runs)
{
    if (spec.shardCount <= 1) {
        if (spec.shardCount == 1 && spec.shardIndex != 0)
            fatal("campaign '", spec.name, "': shard index ",
                  spec.shardIndex, " out of range for 1 shard");
        return runs;
    }
    if (spec.shardIndex >= spec.shardCount)
        fatal("campaign '", spec.name, "': shard index ", spec.shardIndex,
              " out of range for ", spec.shardCount, " shards");
    std::vector<uint32_t> shardOf = shardAssignment(runs, spec.shardCount);
    std::vector<RunSpec> mine;
    for (size_t i = 0; i < runs.size(); ++i)
        if (shardOf[i] == spec.shardIndex)
            mine.push_back(std::move(runs[i]));
    return mine;
}

uint32_t
resolveJobs(uint32_t jobs)
{
    if (jobs != 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::vector<RunRecord>
executeRuns(const std::vector<RunSpec>& runs, uint32_t jobs,
            const RunResolver& resolve, const RunSink& sink)
{
    // LPT (longest processing time first) shortens the critical path at
    // high job counts: the most expensive simulations start immediately
    // instead of landing on a nearly-drained pool. A run resolved
    // without simulating takes next to no time wherever it lands, so
    // the order ignores the cache.
    std::vector<double> costs;
    std::vector<size_t> order = lptOrder(runs, costs);
    RunDone progress;
    for (double c : costs)
        progress.totalCost += c;

    std::vector<RunRecord> records(runs.size());
    std::vector<std::exception_ptr> errors(runs.size());
    std::atomic<size_t> cursor{0};
    std::atomic<bool> failed{false};
    std::mutex sinkMu; // serializes sink calls and guards progress

    auto worker = [&] {
        while (!failed.load()) {
            size_t slot = cursor.fetch_add(1);
            if (slot >= order.size())
                return;
            size_t i = order[slot];
            try {
                Origin origin = Origin::Simulated;
                RunRecord rec = resolve(runs[i], origin);
                {
                    std::lock_guard<std::mutex> lk(sinkMu);
                    progress.index = i;
                    progress.origin = origin;
                    ++progress.finished;
                    // Progress counts simulated work only: a memo, cache
                    // or dedup resolution leaves the total instead.
                    if (origin == Origin::Simulated)
                        progress.doneCost += costs[i];
                    else
                        progress.totalCost -= costs[i];
                    sink(rec, progress);
                }
                records[i] = std::move(rec);
            } catch (...) {
                errors[i] = std::current_exception();
                failed.store(true);
            }
        }
    };

    uint32_t nworkers = static_cast<uint32_t>(std::min<size_t>(
        resolveJobs(jobs), std::max<size_t>(runs.size(), 1)));
    if (nworkers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        for (uint32_t t = 0; t < nworkers; ++t)
            pool.emplace_back(worker);
        for (std::thread& t : pool)
            t.join();
    }

    // Deterministic error reporting: the lowest-index failure wins, no
    // matter which worker hit it first.
    for (std::exception_ptr& e : errors)
        if (e)
            std::rethrow_exception(e);
    return records;
}

double
RunRecord::dcacheBankUtilization() const
{
    uint64_t accepted = stats.get("dcache.sel_accepted");
    uint64_t conflicts = stats.get("dcache.sel_conflicts");
    uint64_t total = accepted + conflicts;
    return total == 0 ? 1.0 : static_cast<double>(accepted) / total;
}

uint32_t
CampaignResult::failures() const
{
    uint32_t n = 0;
    for (const RunRecord& r : records)
        if (!r.result.ok)
            ++n;
    return n;
}

const RunRecord&
CampaignResult::at(const std::vector<std::string>& labels) const
{
    for (const RunRecord& r : records) {
        if (r.spec.coords.size() != labels.size())
            continue;
        bool match = true;
        for (size_t i = 0; i < labels.size(); ++i)
            if (r.spec.coords[i].second != labels[i]) {
                match = false;
                break;
            }
        if (match)
            return r;
    }
    std::string want;
    for (const std::string& l : labels)
        want += (want.empty() ? "" : "/") + l;
    fatal("campaign '", name, "': no run at coordinates '", want, "'");
}

void
CampaignResult::writeCsv(std::ostream& os) const
{
    // Stat columns: the union of counter keys over all records, in
    // matrix order. Runs on one machine shape share one key list, so
    // only a sweep over shapes (L2 on/off, texture units) adds columns;
    // stable because records are in matrix order regardless of job count
    // or cache hits.
    StatGroup keyOrder;
    for (const RunRecord& r : records)
        for (const auto& [k, v] : r.stats.all()) {
            (void)v;
            keyOrder.counter(k);
        }

    for (const std::string& a : axisNames)
        os << csvCell(a) << ",";
    os << "id,hash,ok,status,cycles,thread_instrs,ipc";
    for (const auto& [k, v] : keyOrder.all()) {
        (void)v;
        os << "," << csvCell(k);
    }
    os << "\n";

    for (const RunRecord& r : records) {
        for (const auto& [axis, label] : r.spec.coords) {
            (void)axis;
            os << csvCell(label) << ",";
        }
        os << csvCell(r.spec.id()) << "," << r.spec.contentHash() << ","
           << (r.result.ok ? 1 : 0) << ","
           << statusName(r.result.status) << "," << r.result.cycles << ","
           << r.result.threadInstrs << "," << fmtF(r.result.ipc, 6);
        for (const auto& [k, v] : keyOrder.all()) {
            (void)v;
            os << "," << r.stats.get(k);
        }
        os << "\n";
    }
}

namespace {

/** The envelope both JSON writers share: campaign name, axes, and one
 *  object per run that opens with its id, hash and coordinate labels.
 *  @p body writes the rest of each run's members. */
template <typename Body>
void
writeRunsJson(std::ostream& os, const CampaignResult& c, Body body)
{
    os << "{\n  \"campaign\": \"" << jsonEscape(c.name) << "\",\n";
    os << "  \"axes\": [";
    for (size_t i = 0; i < c.axisNames.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(c.axisNames[i]) << "\"";
    os << "],\n  \"runs\": [\n";
    for (size_t i = 0; i < c.records.size(); ++i) {
        const RunRecord& r = c.records[i];
        os << "    {\"id\": \"" << jsonEscape(r.spec.id())
           << "\", \"hash\": \"" << r.spec.contentHash()
           << "\", \"coords\": {";
        for (size_t k = 0; k < r.spec.coords.size(); ++k)
            os << (k ? ", " : "") << "\""
               << jsonEscape(r.spec.coords[k].first) << "\": \""
               << jsonEscape(r.spec.coords[k].second) << "\"";
        os << "}";
        body(r);
        os << "}" << (i + 1 < c.records.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace

void
CampaignResult::writeJson(std::ostream& os) const
{
    // No execution metadata (fromCache, hostSeconds) here: JSON, like
    // CSV, is byte-identical across job counts and cache states.
    writeRunsJson(os, *this, [&](const RunRecord& r) {
        os << ", \"workload\": \"" << jsonEscape(r.spec.workload.describe())
           << "\", \"ok\": " << (r.result.ok ? "true" : "false")
           << ", \"status\": \"" << statusName(r.result.status) << "\""
           << ", \"cycles\": " << r.result.cycles
           << ", \"thread_instrs\": " << r.result.threadInstrs
           << ", \"ipc\": " << fmtDouble(r.result.ipc) << ", \"stats\": {";
        bool first = true;
        for (const auto& [k, v] : r.stats.all()) {
            os << (first ? "" : ", ") << "\"" << jsonEscape(k)
               << "\": " << v;
            first = false;
        }
        os << "}";
    });
}

void
CampaignResult::writeTimeSeriesJson(std::ostream& os) const
{
    writeRunsJson(os, *this, [&](const RunRecord& r) {
        os << ",\n     \"interval\": " << r.series.interval
           << ", \"sample_cycles\": [";
        for (size_t s = 0; s < r.series.sampleCycles.size(); ++s)
            os << (s ? ", " : "") << r.series.sampleCycles[s];
        os << "],\n     \"counters\": {";
        for (size_t k = 0; k < r.series.keys.size(); ++k) {
            os << (k ? ", " : "") << "\"" << jsonEscape(r.series.keys[k])
               << "\": [";
            for (size_t s = 0; s < r.series.deltas[k].size(); ++s)
                os << (s ? ", " : "") << r.series.deltas[k][s];
            os << "]";
        }
        os << "}";
    });
}

Campaign::Campaign(CampaignOptions opts) : opts_(std::move(opts))
{
    opts_.jobs = resolveJobs(opts_.jobs);
}

RunRecord
executeRun(const RunSpec& spec, std::function<bool()> abortCheck)
{
    RunRecord rec;
    rec.spec = spec;

    auto t0 = std::chrono::steady_clock::now();
    runtime::Device dev(spec.config);
    if (abortCheck)
        dev.processor().setAbortCheck(std::move(abortCheck));
    rec.result = spec.workload.run(dev);
    auto t1 = std::chrono::steady_clock::now();
    rec.hostSeconds = std::chrono::duration<double>(t1 - t0).count();

    dev.processor().collectStats(rec.stats);
    rec.series = dev.processor().timeSeries();
    return rec;
}

/**
 * Statically verify every distinct (kernel, machine) pair of @p runs.
 * Fatal on the first program with analysis errors, after printing its
 * full diagnostic list to stderr.
 */
static void
verifyRuns(const std::string& campaignName,
           const std::vector<RunSpec>& runs)
{
    std::set<std::string> seen;
    for (const RunSpec& run : runs) {
        // The guest the run executes, built as Device::uploadKernel
        // builds it: these are the bytes that run.
        const kernels::Guest guest = workloadGuest(run.workload);
        std::ostringstream key;
        key << guest.name << '/' << run.config.numThreads << 't'
            << run.config.numWarps << 'w' << run.config.numCores << 'c'
            << run.config.smemSize << 's' << run.config.startPC;
        if (!seen.insert(key.str()).second)
            continue;
        isa::Program program =
            kernels::assembleGuest(run.config.startPC, guest)
                .toProgram(run.config.startPC);
        analysis::Report report = analysis::analyze(
            program, runtime::analyzerOptions(run.config, program));
        if (report.errors() == 0)
            continue;
        std::ostringstream diag;
        report.print(diag, &program);
        std::fputs(diag.str().c_str(), stderr);
        fatal("campaign '", campaignName, "' kernel '", guest.name,
              "' failed static verification with ", report.errors(),
              " error(s) (run '", run.id(), "')");
    }
}

CampaignResult
Campaign::run(const SweepSpec& spec)
{
    std::vector<RunSpec> runs = spec.expand();
    if (opts_.verify)
        verifyRuns(spec.name, runs);
    runs = shardSlice(spec, std::move(runs));

    CampaignResult result;
    result.name = spec.name;
    for (const Axis& a : spec.axes)
        result.axisNames.push_back(a.name);

    CacheStore cache(opts_.cacheDir);
    auto resolve = [&](const RunSpec& run, Origin& origin) {
        RunRecord rec;
        if (cache.load(run, rec)) {
            origin = Origin::Cache;
            return rec;
        }
        rec = executeRun(run);
        if (!rec.result.ok && opts_.failFast)
            fatal("campaign '", spec.name, "' run '", run.id(),
                  "' failed (", statusName(rec.result.status),
                  "): ", rec.result.error);
        // Only verified runs enter the cache: a failed run is
        // re-executed by the next campaign, so cache state can never
        // mask — or resurrect — a failure, and warm-vs-cold output
        // bytes stay identical.
        if (rec.result.ok)
            cache.store(rec, spec.name);
        return rec;
    };

    const auto wallStart = std::chrono::steady_clock::now();
    auto sink = [&](const RunRecord& rec, const RunDone& done) {
        ++(done.origin == Origin::Cache ? result.cacheHits
                                        : result.cacheMisses);
        if (!opts_.verbose && !opts_.progress)
            return;
        std::string eta;
        if (opts_.progress) {
            double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - wallStart)
                                 .count();
            char buf[64];
            // Extrapolate from estimate units actually retired so far;
            // until a costed run finishes there is nothing to
            // extrapolate from.
            if (done.doneCost > 0.0 && done.totalCost > done.doneCost)
                std::snprintf(buf, sizeof(buf), " elapsed=%.1fs eta=%.1fs",
                              elapsed,
                              elapsed * (done.totalCost - done.doneCost) /
                                  done.doneCost);
            else
                std::snprintf(buf, sizeof(buf), " elapsed=%.1fs", elapsed);
            eta = buf;
        }
        std::string failNote;
        if (!rec.result.ok)
            failNote = std::string(" FAILED (") +
                       statusName(rec.result.status) + ")";
        std::fprintf(stderr,
                     "[%zu/%zu] %-28s %s cycles=%llu ipc=%.3f%s%s%s\n",
                     done.finished, runs.size(), rec.spec.id().c_str(),
                     rec.spec.workload.describe().c_str(),
                     static_cast<unsigned long long>(rec.result.cycles),
                     rec.result.ipc, rec.fromCache ? " (cached)" : "",
                     failNote.c_str(), eta.c_str());
    };

    result.records = executeRuns(runs, opts_.jobs, resolve, sink);
    return result;
}

} // namespace vortex::sweep
