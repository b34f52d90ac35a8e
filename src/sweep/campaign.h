/**
 * @file
 * The campaign engine: executes a SweepSpec's run matrix on a host job
 * pool and emits structured results.
 *
 * Determinism contract (the sweep-level analogue of the core-order
 * independence in core/processor.h): each simulation runs on one host
 * thread and host parallelism comes from running many at once; every run
 * constructs its own Device, so runs share no simulation state;
 * workers claim runs from an atomic cursor but store each RunRecord at
 * the run's matrix index; and all emission (CSV/JSON/reports) walks the
 * records in matrix order. Campaign output is therefore byte-identical
 * for any job count — `--jobs 4` only changes wall-clock time.
 *
 * One executor (executeRuns) runs every matrix: Campaign::run resolves
 * each run as cache-then-simulate and prints progress lines; the fabric
 * service (sweep/fabric.h) resolves through its memo, cache and
 * in-flight dedup and streams NDJSON events. Both hand the executor a
 * resolve step and a per-run sink; the claim order, worker pool and
 * error rule are the executor's alone.
 *
 * Scheduling reorders only the claim sequence: runs are claimed
 * longest-estimated-first (LPT) by the static estimateRunCost(), so the
 * most expensive simulations cannot strand the pool at the tail. The
 * order depends on the spec alone, never on cache state: a hit restores
 * in next to no time wherever it is claimed. shardAssignment packs
 * shards in the same order, and the same estimates drive the
 * CampaignOptions::progress ETA. Because storage and emission stay in
 * matrix order, LPT is invisible in every output byte.
 *
 * Result cache: a run's cache key is the content hash of its canonical
 * (config, workload) serialization (RunSpec::contentHash). Cached records
 * store the counters and metrics of the finished run; a hit skips the
 * simulation entirely. Only verified (ok) runs are cached. Entry I/O,
 * listing, pruning and cross-host merge live in sweep/cache.h;
 * Campaign::run opens the cache at CampaignOptions::cacheDir.
 *
 * Sharding (SweepSpec::shardIndex/shardCount, applied by shardSlice) and
 * the service mode built on top of this engine are the campaign fabric —
 * see sweep/fabric.h and docs/FABRIC.md.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sweep/spec.h"

namespace vortex::sweep {

/** How a Campaign executes and where it caches. */
struct CampaignOptions
{
    uint32_t jobs = 1;    ///< concurrent runs; 0 = host hardware threads
    std::string cacheDir; ///< result-cache directory ("" disables caching)
    bool verbose = false; ///< per-run progress lines on stderr
    /** Append an elapsed/ETA estimate to each per-run stderr line, from
     *  the same cost estimates LPT schedules with. */
    bool progress = false;
    /** Statically verify every distinct (kernel, machine) pair of the
     *  matrix before scheduling any run (see src/analysis/). Fatal on
     *  analysis errors, with the diagnostic list on stderr. Off by
     *  default; a scheduling-side option, so it never enters
     *  RunSpec::canonical() or the result-cache content hash. */
    bool verify = false;
    /** Abort the campaign on the first failed run (the pre-robustness
     *  behavior, `--fail-fast` on the CLI). By default a failed run —
     *  timeout, guest trap, self-check failure, host error, or a
     *  verification mismatch — is recorded as a first-class result row
     *  (see RunResult::status and docs/ROBUSTNESS.md) and the campaign
     *  completes the rest of the matrix. */
    bool failFast = false;
};

/** One executed (or cache-restored) run with its counters. */
struct RunRecord
{
    RunSpec spec;              ///< what was run
    runtime::RunResult result; ///< verified metrics (cycles, IPC, ...)
    StatGroup stats;      ///< device counters flattened to "group.key"
    /** Per-interval counter deltas (empty unless the run's config set
     *  sampleInterval; round-trips through the result cache). */
    TimeSeries series;
    bool fromCache = false;    ///< restored from the result cache
    double hostSeconds = 0.0; ///< wall-clock of the simulation (0 on hit)

    /** Derived D$ bank utilization: accepted / (accepted + conflicts)
     *  over the summed per-core dcache selector counters (Fig. 19). */
    double dcacheBankUtilization() const;
};

/** All records of one campaign, in matrix (spec-expansion) order. */
struct CampaignResult
{
    std::string name;                   ///< the spec's campaign name
    std::vector<std::string> axisNames; ///< spec axes, in order
    std::vector<RunRecord> records;     ///< one per run, matrix order
    uint32_t cacheHits = 0;             ///< runs restored from cache
    uint32_t cacheMisses = 0;           ///< runs actually simulated

    /** The record whose coordinate labels equal @p labels (one per axis,
     *  spec order); fatal when absent. */
    const RunRecord& at(const std::vector<std::string>& labels) const;

    /** Number of failed records: every run whose result.ok is false —
     *  timeouts, guest traps, self-check failures, host errors, and
     *  silent verification mismatches alike. Campaign front ends exit
     *  nonzero when this is nonzero (docs/ROBUSTNESS.md). */
    uint32_t failures() const;

    /**
     * Write one CSV row per run: axis coordinates, run id, content hash,
     * ok, status (the RunStatus name — see docs/ROBUSTNESS.md), cycles,
     * thread_instrs, ipc, host metadata-free counters (the union of
     * stat keys across records, in matrix order: every counter of each
     * machine shape, so the columns follow the machines swept, not the
     * events a run raised). Byte-stable across job counts and cache
     * states.
     */
    void writeCsv(std::ostream& os) const;

    /** JSON: campaign name, axes, and per-run objects with coords,
     *  hash, metrics, and counters. Like CSV, byte-stable across job
     *  counts and cache states (no execution metadata is embedded). */
    void writeJson(std::ostream& os) const;

    /**
     * Time-series JSON: one object per run — id, hash, coordinate
     * labels, sampling interval, sample-cycle stamps, and one delta
     * array per counter ("counters": {"core.thread_instrs": [..], ...})
     * — directly plottable as IPC / hit-rate / bandwidth curves (divide
     * a row by the window widths). Byte-stable across job counts, cache
     * states, and core orders. Runs without sampling emit empty
     * arrays.
     */
    void writeTimeSeriesJson(std::ostream& os) const;
};

/**
 * Relative host-cost estimate of simulating @p spec, in arbitrary
 * deterministic units (NOT seconds): roughly problem work (kernel
 * weight x scale^2, or texture area x filter cost) scaled by machine
 * size (cores x warps x threads). LPT scheduling sorts by it and the
 * --progress ETA extrapolates with it. Only the ordering matters — a
 * mis-estimate can lengthen the critical path, never change results.
 */
double estimateRunCost(const RunSpec& spec);

/**
 * Deterministic shard assignment of @p runs over @p shardCount shards:
 * returns one shard index per run (matrix order). Assignment is greedy
 * LPT bin-packing — runs are taken in executeRuns()' claim order
 * (descending estimateRunCost(), ties in matrix order) and each lands on
 * the least-loaded shard (lowest index on ties) — so shard workloads are
 * balanced, every run lands on exactly one shard, and the union over
 * shards is the full matrix. It depends on the spec alone, never on
 * local cache state, so every host of a fleet computes the same
 * partition. (All hosts must also run the same simulator build — the
 * heuristic is code, not spec data.) Fatal when @p shardCount is 0.
 */
std::vector<uint32_t> shardAssignment(const std::vector<RunSpec>& runs,
                                      uint32_t shardCount);

/**
 * The runs of @p runs (spec.expand()) that shard spec.shardIndex of
 * spec.shardCount executes, in matrix order: a disjoint,
 * shardAssignment()-balanced slice, all of @p runs when unsharded (0 or
 * 1 shards). N hosts given i/N for i = 0..N-1 execute slices whose
 * union is the full matrix. Fatal when the index is out of range.
 */
std::vector<RunSpec> shardSlice(const SweepSpec& spec,
                                std::vector<RunSpec> runs);

/**
 * Simulate @p spec on a fresh Device and return the finished record
 * (counters flattened, time series attached, hostSeconds measured).
 * The execution primitive shared by Campaign workers and the fabric
 * service; verification status is in the record — the caller decides
 * whether a failure is fatal.
 *
 * @p abortCheck, when non-empty, is polled periodically from the
 * simulation loop (see core::Processor::setAbortCheck); returning true
 * aborts the run, which comes back as a RunStatus::Timeout record. The
 * fabric service passes its per-simulation wall-clock deadline here —
 * aborted runs are failures and are never cached, so the wall-clock
 * nondeterminism cannot leak into any byte-stable output.
 */
RunRecord executeRun(const RunSpec& spec,
                     std::function<bool()> abortCheck = {});

/** Where one run's record came from. Campaign::run resolves Cache or
 *  Simulated; the fabric service also Memo and Dedup (sweep/fabric.h). */
enum class Origin
{
    Memo,
    Cache,
    Dedup,
    Simulated,
};

/** What executeRuns() reports to its sink about one finished run. */
struct RunDone
{
    size_t index = 0;                  ///< the run's matrix index
    Origin origin = Origin::Simulated; ///< where its record came from
    size_t finished = 0;    ///< runs finished so far, this one included
    /** estimateRunCost() of the simulated runs finished so far. */
    double doneCost = 0.0;
    /** estimateRunCost() of every run, less each one resolved without
     *  simulating (memo, cache, dedup) so far. */
    double totalCost = 0.0;
};

/** Resolve one run to its record, setting where it came from. */
using RunResolver = std::function<RunRecord(const RunSpec&, Origin&)>;
/** Observe one finished run (calls are serialized, in finish order). */
using RunSink = std::function<void(const RunRecord&, const RunDone&)>;

/** The worker count for @p jobs: the host's hardware threads when 0. */
uint32_t resolveJobs(uint32_t jobs);

/**
 * Execute @p runs on min(resolveJobs(@p jobs), runs) workers — inline,
 * with no thread, when that is 1 — and return their records in matrix
 * order. Workers claim runs in LPT order (descending estimateRunCost(),
 * ties in matrix order), produce each record with @p resolve and report
 * it to @p sink. Once @p resolve or @p sink throws, no further run is
 * claimed; runs in flight finish and the lowest-index exception is
 * rethrown.
 */
std::vector<RunRecord> executeRuns(const std::vector<RunSpec>& runs,
                                   uint32_t jobs, const RunResolver& resolve,
                                   const RunSink& sink);

/** Executes SweepSpecs; see the file comment for the determinism and
 *  caching contracts. */
class Campaign
{
  public:
    explicit Campaign(CampaignOptions opts = {});

    /** Expand @p spec and execute every run (or restore it from cache).
     *  With SweepSpec::shardCount > 1, executes only that shard's
     *  slice of the matrix (shardSlice). A failed run (timeout, guest trap,
     *  self-check failure, host error, verification mismatch) is
     *  recorded as a result row with its RunStatus and the campaign
     *  completes the rest of the matrix — failed runs are never cached,
     *  and CampaignResult::failures() reports the count so front ends
     *  can exit nonzero. With CampaignOptions::failFast the first
     *  failure is fatal instead and no further run starts. A
     *  campaign never silently reports numbers from a wrong result
     *  either way: failures are explicit rows, not missing ones. */
    CampaignResult run(const SweepSpec& spec);

    /** The options this campaign executes with (jobs resolved). */
    const CampaignOptions& options() const { return opts_; }

  private:
    CampaignOptions opts_;
};

} // namespace vortex::sweep
