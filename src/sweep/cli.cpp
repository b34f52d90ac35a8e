/**
 * @file
 * vortex_sweep CLI implementation: subcommand dispatch (run / cache /
 * serve / submit / specs), with `run` and `specs dump` sharing one
 * campaign executor. See cli.h for the grammar and docs/FABRIC.md for
 * the fabric workflows.
 */

#include "sweep/cli.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.h"
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/fabric.h"
#include "sweep/presets.h"
#include "sweep/specfile.h"

namespace vortex::sweep {

namespace {

int
usage(int code)
{
    std::printf(
        "usage: vortex_sweep <command> [options]\n"
        "\n"
        "commands:\n"
        "  run     execute a sweep campaign (preset, spec file, or --axis)\n"
        "  cache   result-cache maintenance: list | merge | prune\n"
        "  serve   run the fabric submission service on a local socket\n"
        "  submit  submit a spec file to a running service\n"
        "  specs   introspection: list | fields | dump\n"
        "\n"
        "run options:\n"
        "  --preset NAME        run a built-in preset (see `specs list`)\n"
        "  --spec FILE          run the sweep described by a spec file\n"
        "                       (TOML or JSON; see docs/SWEEP_SPECS.md)\n"
        "  --axis F=V1,V2,...   add a sweep axis over field F (repeatable;\n"
        "                       first axis varies slowest; appends to\n"
        "                       --spec axes)\n"
        "  --dump-spec PATH     serialize the resolved sweep as a TOML\n"
        "                       spec file ('-' = stdout) and exit without\n"
        "                       running it\n"
        "  --set F=V            fix field F to V in the base machine\n"
        "                       (repeatable, applied before the axes)\n"
        "  --jobs N             concurrent runs (default 1; 0 = host CPUs)\n"
        "  --cache DIR          result-cache directory (skip unchanged "
        "runs)\n"
        "  --shard I/N          execute only shard I of an N-way fabric\n"
        "                       partition of the matrix (0-based; overrides\n"
        "                       the spec's [fabric] shard; see "
        "docs/FABRIC.md)\n"
        "  --fail-fast          abort on the first failed run instead of\n"
        "                       recording it as a status row and finishing\n"
        "                       the matrix (docs/ROBUSTNESS.md)\n"
        "  --faults seed=N,count=K[,window=W,watchdog=C]\n"
        "                       inject K seeded bit-flip faults per run\n"
        "                       (shorthand for --set faults.KEY=V;\n"
        "                       docs/ROBUSTNESS.md)\n"
        "  --progress           per-run elapsed/ETA lines on stderr\n"
        "  --verify             statically verify every kernel/machine\n"
        "                       pair before running (vortex_verify's\n"
        "                       checks); fatal on analysis errors\n"
        "  --sample N           snapshot device counters every N cycles\n"
        "                       (shorthand for --set sampleInterval=N)\n"
        "  --timeseries PATH    emit the per-interval counter time series\n"
        "                       as JSON ('-' = stdout); needs --sample\n"
        "  --csv PATH           CSV output ('-' = stdout; default "
        "<name>.csv)\n"
        "  --json PATH          also emit JSON ('-' = stdout)\n"
        "  --no-csv             suppress the CSV file\n"
        "  --name NAME          campaign name for ad-hoc sweeps\n"
        "  --quiet              no per-run progress lines\n"
        "\n"
        "cache commands (DIR via positional or --cache):\n"
        "  cache list DIR               table of cached entries\n"
        "  cache merge DST SRC...       import SRC entries into DST\n"
        "  cache prune DIR              delete entries (--older-than DAYS\n"
        "                               to keep newer ones)\n"
        "\n"
        "serve / submit options:\n"
        "  serve --listen PATH [--cache DIR] [--jobs N] [--quiet]\n"
        "        [--deadline SECS]   abort any single simulation that\n"
        "                            exceeds SECS wall-clock (reported as\n"
        "                            a timeout run; docs/ROBUSTNESS.md)\n"
        "  submit --socket PATH --spec FILE [--name NAME]\n"
        "         [--timeout SECS]   give up when the service goes SECS\n"
        "                            without streaming an event\n"
        "  submit --socket PATH --shutdown\n"
        "\n"
        "specs commands:\n"
        "  specs list | fields          built-in presets / sweepable fields\n"
        "  specs dump [run options] [PATH]\n"
        "                               = run ... --dump-spec PATH\n"
        "                               (default '-' = stdout)\n"
        "\n"
        "  -h, --help           this text\n");
    return code;
}

/** Split "field=v1,v2,v3" into an Axis. */
Axis
parseAxisArg(const std::string& arg)
{
    size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= arg.size())
        fatal("--axis expects FIELD=V1,V2,... (got '", arg, "')");
    std::string field = arg.substr(0, eq);
    std::vector<std::string> values;
    std::stringstream ss(arg.substr(eq + 1));
    std::string v;
    while (std::getline(ss, v, ','))
        if (!v.empty())
            values.push_back(v);
    if (values.empty())
        fatal("--axis ", field, ": no values");
    return Axis::sweep(field, values);
}

/** Split "seed=N,count=K[,window=W,watchdog=C]" into ("faults.KEY",
 *  VALUE) field assignments. */
std::vector<std::pair<std::string, std::string>>
parseFaultsArg(const std::string& arg)
{
    std::vector<std::pair<std::string, std::string>> sets;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size())
            fatal("--faults expects KEY=VALUE pairs (got '", item, "')");
        std::string key = item.substr(0, eq);
        if (!isFaultsKey(key))
            fatal("--faults: unknown key '", key, "' (keys: ",
                  faultsKeyList(), ")");
        sets.emplace_back("faults." + key, item.substr(eq + 1));
    }
    if (sets.empty())
        fatal("--faults expects seed=N,count=K[,window=W,watchdog=C]");
    return sets;
}

double
parseDaysArg(const std::string& olderThan)
{
    try {
        size_t pos = 0;
        double days = std::stod(olderThan, &pos);
        if (pos != olderThan.size() || !std::isfinite(days) || days < 0.0)
            throw std::invalid_argument(olderThan);
        return days;
    } catch (const std::exception&) {
        fatal("--older-than: cannot parse '", olderThan,
              "' as a non-negative number of days");
    }
}

void
writeTo(const std::string& path, const std::string& what,
        const std::function<void(std::ostream&)>& emit)
{
    if (path == "-") {
        emit(std::cout);
        return;
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fatal("cannot open ", path, " for writing");
    emit(out);
    std::fprintf(stderr, "wrote %s -> %s\n", what.c_str(), path.c_str());
}

/** Everything the `run` flag grammar can say. */
struct RunArgs
{
    std::string presetName, csvPath, jsonPath, campaignName;
    std::string timeseriesPath, specPath, dumpSpecPath, shardArg;
    std::vector<Axis> axes;
    std::vector<std::pair<std::string, std::string>> sets;
    std::vector<std::string> words; ///< bare (non-flag) arguments
    CampaignOptions opts;
    bool noCsv = false, help = false;

    RunArgs()
    {
        opts.jobs = 1;
        opts.verbose = true;
    }
};

/**
 * Parse `run` flags. Bare words ('-' included) are collected in
 * RunArgs::words for the caller to accept or reject. Returns the first
 * unknown flag, or nullptr when every flag was recognised.
 */
const std::string*
parseRunArgs(RunArgs& o, const std::vector<std::string>& args)
{
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size())
                fatal(a, " expects an argument");
            return args[++i];
        };
        if (a == "--preset")
            o.presetName = next();
        else if (a == "--spec")
            o.specPath = next();
        else if (a == "--dump-spec")
            o.dumpSpecPath = next();
        else if (a == "--progress")
            o.opts.progress = true;
        else if (a == "--verify")
            o.opts.verify = true;
        else if (a == "--axis")
            o.axes.push_back(parseAxisArg(next()));
        else if (a == "--set")
            o.sets.push_back(splitSetArg(next()));
        else if (a == "--fail-fast")
            o.opts.failFast = true;
        else if (a == "--faults")
            for (auto& kv : parseFaultsArg(next()))
                o.sets.push_back(std::move(kv));
        else if (a == "--jobs")
            o.opts.jobs = parseU32Value("--jobs", next());
        else if (a == "--cache")
            o.opts.cacheDir = next();
        else if (a == "--shard")
            o.shardArg = next();
        else if (a == "--sample")
            o.sets.emplace_back("sampleInterval", next());
        else if (a == "--timeseries")
            o.timeseriesPath = next();
        else if (a == "--csv")
            o.csvPath = next();
        else if (a == "--json")
            o.jsonPath = next();
        else if (a == "--no-csv")
            o.noCsv = true;
        else if (a == "--name")
            o.campaignName = next();
        else if (a == "--quiet")
            o.opts.verbose = false;
        else if (a == "-h" || a == "--help")
            o.help = true;
        else if (a.empty() || a[0] != '-' || a == "-")
            o.words.push_back(a);
        else
            return &a;
    }
    return nullptr;
}

int
unknownArgument(const std::string& arg)
{
    std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
    return usage(2);
}

int
listPresets()
{
    std::printf("%-18s %s\n", "preset", "description");
    for (const Preset& p : presets())
        std::printf("%-18s %s%s\n", p.name.c_str(), p.description.c_str(),
                    p.table ? " [table]" : "");
    return 0;
}

int
listFields()
{
    std::printf("%-18s %s\n", "field", "description");
    for (const FieldInfo& f : sweepableFields())
        std::printf("%-18s %s\n", f.name, f.help);
    return 0;
}

/** The existing directory `cache list` or `cache prune` acts on:
 *  --cache DIR or the one positional argument. */
CacheStore
existingStore(const std::string& verb, std::string dir,
              const std::vector<std::string>& positional)
{
    if (dir.empty() && positional.size() == 1)
        dir = positional[0];
    else if (!positional.empty())
        fatal("cache ", verb, " takes one directory");
    if (dir.empty())
        fatal("cache ", verb, " needs a cache directory (--cache DIR)");
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec))
        fatal("cache ", verb, ": '", dir, "' is not a directory");
    return CacheStore(dir);
}

int
cachePruneCmd(const CacheStore& store, const std::string& olderThan)
{
    double days = olderThan.empty() ? -1.0 : parseDaysArg(olderThan);
    size_t removed = store.prune(days);
    size_t left = store.entries().size();
    std::fprintf(stderr, "cache %s: pruned %zu entr%s, %zu left\n",
                 store.dir().c_str(), removed, removed == 1 ? "y" : "ies",
                 left);
    return 0;
}

int
cacheListCmd(const CacheStore& store)
{
    std::vector<CacheEntryInfo> entries = store.entries();
    std::printf("%-16s %-14s %-12s %-24s %s\n", "hash", "campaign",
                "host_seconds", "kernel", "id");
    for (const CacheEntryInfo& e : entries) {
        char secs[32];
        if (e.hostSeconds >= 0.0)
            std::snprintf(secs, sizeof(secs), "%.3f", e.hostSeconds);
        else
            std::snprintf(secs, sizeof(secs), "-");
        std::printf("%-16s %-14s %-12s %-24s %s\n", e.hash.c_str(),
                    e.campaign.c_str(), secs, e.kernel.c_str(),
                    e.id.c_str());
    }
    std::fprintf(stderr, "%zu entr%s in %s\n", entries.size(),
                 entries.size() == 1 ? "y" : "ies", store.dir().c_str());
    return 0;
}

int
cacheMergeCmd(const std::string& dst, const std::vector<std::string>& srcs)
{
    CacheStore store(dst);
    CacheMergeStats total;
    for (const std::string& src : srcs) {
        CacheMergeStats s = store.mergeFrom(src);
        std::fprintf(stderr,
                     "merge %s -> %s: %zu imported, %zu already present, "
                     "%zu rejected\n",
                     src.c_str(), dst.c_str(), s.imported, s.skipped,
                     s.rejected);
        total.imported += s.imported;
        total.skipped += s.skipped;
        total.rejected += s.rejected;
    }
    if (srcs.size() > 1)
        std::fprintf(stderr,
                     "merged %zu sources: %zu imported, %zu already "
                     "present, %zu rejected\n",
                     srcs.size(), total.imported, total.skipped,
                     total.rejected);
    return total.rejected ? 1 : 0;
}

int
cacheCmd(const std::vector<std::string>& args)
{
    if (args.empty())
        fatal("cache needs a verb: list, merge, or prune");
    const std::string& verb = args[0];
    std::string dir, olderThan;
    std::vector<std::string> positional;
    for (size_t i = 1; i < args.size(); ++i) {
        const std::string& a = args[i];
        auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size())
                fatal(a, " expects an argument");
            return args[++i];
        };
        if (a == "--cache")
            dir = next();
        else if (a == "--older-than")
            olderThan = next();
        else if (!a.empty() && a[0] == '-')
            fatal("cache ", verb, ": unknown option '", a, "'");
        else
            positional.push_back(a);
    }
    if (!olderThan.empty() && verb != "prune")
        fatal("--older-than only applies to cache prune");
    if (verb == "list")
        return cacheListCmd(existingStore(verb, dir, positional));
    if (verb == "prune")
        return cachePruneCmd(existingStore(verb, dir, positional), olderThan);
    if (verb == "merge") {
        if (!dir.empty())
            positional.insert(positional.begin(), dir);
        if (positional.size() < 2)
            fatal("cache merge needs a destination and at least one "
                  "source: cache merge DST SRC...");
        std::string dst = positional[0];
        positional.erase(positional.begin());
        return cacheMergeCmd(dst, positional);
    }
    fatal("cache: unknown verb '", verb, "' (list, merge, prune)");
}

int
serveCmd(const std::vector<std::string>& args)
{
    ServiceOptions opts;
    opts.verbose = true;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size())
                fatal(a, " expects an argument");
            return args[++i];
        };
        if (a == "--listen" || a == "--socket")
            opts.socketPath = next();
        else if (a == "--cache")
            opts.cacheDir = next();
        else if (a == "--jobs")
            opts.jobs = parseU32Value("--jobs", next());
        else if (a == "--deadline")
            opts.runDeadlineSeconds =
                parseU32Value("--deadline", next());
        else if (a == "--quiet")
            opts.verbose = false;
        else
            fatal("serve: unknown option '", a, "'");
    }
    if (opts.socketPath.empty())
        fatal("serve needs --listen PATH (the AF_UNIX socket to bind)");
    return serveMain(opts);
}

int
submitCmd(const std::vector<std::string>& args)
{
    std::string socketPath, specPath, name;
    uint32_t timeoutSeconds = 0;
    bool shutdown = false;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size())
                fatal(a, " expects an argument");
            return args[++i];
        };
        if (a == "--socket")
            socketPath = next();
        else if (a == "--spec")
            specPath = next();
        else if (a == "--name")
            name = next();
        else if (a == "--timeout")
            timeoutSeconds = parseU32Value("--timeout", next());
        else if (a == "--shutdown")
            shutdown = true;
        else
            fatal("submit: unknown option '", a, "'");
    }
    if (socketPath.empty())
        fatal("submit needs --socket PATH (the service's socket)");
    if (shutdown) {
        if (!specPath.empty())
            fatal("--shutdown does not combine with --spec");
        requestShutdown(socketPath);
        std::fprintf(stderr, "service at %s acknowledged shutdown\n",
                     socketPath.c_str());
        return 0;
    }
    if (specPath.empty())
        fatal("submit needs --spec FILE (or --shutdown)");
    std::ifstream in(specPath);
    if (!in)
        fatal("cannot read spec file ", specPath);
    std::ostringstream text;
    text << in.rdbuf();
    SubmitResult result = submitSpecText(socketPath, text.str(), name,
                                         &std::cout, timeoutSeconds);
    if (!result.ok) {
        std::fprintf(stderr, "submit failed: %s\n", result.error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "campaign '%s': %llu runs (%llu simulated, %llu cache "
                 "hits, %llu dedup joins)\n",
                 result.campaign.c_str(),
                 static_cast<unsigned long long>(result.runs),
                 static_cast<unsigned long long>(result.simulated),
                 static_cast<unsigned long long>(result.cacheHits),
                 static_cast<unsigned long long>(result.dedupJoins));
    return 0;
}

/** The campaign executor shared by `run` and `specs dump`: resolve the
 *  spec, then run it (or dump it). */
int
execRun(RunArgs& o)
{
    if (o.presetName.empty() && o.axes.empty() && o.specPath.empty()) {
        std::fprintf(stderr, "nothing to do: give --preset, --spec, "
                             "or --axis (see `specs list`)\n");
        return usage(2);
    }
    if (!o.presetName.empty() && !o.specPath.empty())
        fatal("--preset does not combine with --spec (export the "
              "preset with --dump-spec and edit the file instead)");

    //
    // Resolve the spec (or finished table) to run.
    //
    SweepSpec spec;
    std::function<ReportTable(const CampaignResult&)> report;
    if (!o.presetName.empty()) {
        if (!o.axes.empty())
            fatal("--axis does not combine with --preset; use --set "
                  "to fix base-machine fields, or drop --preset for "
                  "an ad-hoc sweep");
        if (!o.campaignName.empty())
            fatal("--name only applies to ad-hoc and --spec sweeps "
                  "(presets are named after themselves)");
        const Preset* p = findPreset(o.presetName);
        if (!p)
            fatal("unknown preset '", o.presetName,
                  "' (vortex_sweep specs list)");
        if (p->table) {
            if (!o.sets.empty())
                fatal("preset '", o.presetName,
                      "' is an area table; --set has no effect on it");
            if (!o.timeseriesPath.empty())
                fatal("preset '", o.presetName,
                      "' is an area table; it runs no simulation to "
                      "sample");
            if (!o.dumpSpecPath.empty())
                fatal("preset '", o.presetName,
                      "' is an area table; it has no sweep spec to "
                      "dump");
            if (!o.shardArg.empty())
                fatal("preset '", o.presetName,
                      "' is an area table; there is no run matrix to "
                      "shard");
            // Area/synthesis presets produce their table directly.
            ReportTable t = p->table();
            std::string out = o.csvPath.empty() && !o.noCsv
                                  ? o.presetName + ".csv"
                                  : o.csvPath;
            if (!out.empty() && !o.noCsv)
                writeTo(out, "table CSV",
                        [&](std::ostream& os) { t.writeCsv(os); });
            if (!o.jsonPath.empty())
                writeTo(o.jsonPath, "table JSON",
                        [&](std::ostream& os) { t.writeJson(os); });
            t.print(std::cout);
            return 0;
        }
        spec = p->spec();
        report = p->report;
    } else if (!o.specPath.empty()) {
        spec = parseSpecFile(o.specPath);
        if (!o.campaignName.empty())
            spec.name = o.campaignName;
        // CLI axes append after the file's own (they vary fastest).
        for (Axis& a : o.axes)
            spec.axes.push_back(std::move(a));
        // A spec named after a sweep preset gets the preset's report —
        // unless CLI axes reshaped the matrix the report indexes by.
        const Preset* twin = findPreset(spec.name);
        if (twin && !twin->table && o.axes.empty())
            report = twin->report;
        else if (spec.axes.size() == 2)
            report = pivotIpc;
    } else {
        spec.name = o.campaignName.empty() ? "custom" : o.campaignName;
        spec.description = "ad-hoc CLI sweep";
        spec.axes = std::move(o.axes);
        if (spec.axes.size() == 2)
            report = pivotIpc;
    }
    for (const auto& kv : o.sets)
        applySetArg(spec.base, spec.baseWorkload, kv);
    // CLI --shard overrides the spec's own [fabric] shard annotation.
    if (!o.shardArg.empty())
        parseShardValue("--shard", o.shardArg, spec.shardIndex,
                        spec.shardCount);
    if (!o.dumpSpecPath.empty()) {
        // Export instead of run: the resolved sweep (preset, spec
        // file, or ad-hoc axes, with --set/--sample/--shard folded in)
        // as a canonical TOML document.
        writeTo(o.dumpSpecPath, "sweep spec",
                [&](std::ostream& os) { writeSpecToml(spec, os); });
        return 0;
    }
    if (!o.timeseriesPath.empty()) {
        // Sampling may come from --sample, --set sampleInterval=N,
        // or an axis; an all-disabled matrix would emit an empty
        // (misleading) series, so reject it up front.
        bool anySampled = spec.base.sampleInterval != 0;
        if (!anySampled) {
            for (const RunSpec& r : spec.expand())
                if (r.config.sampleInterval != 0) {
                    anySampled = true;
                    break;
                }
        }
        if (!anySampled)
            fatal("--timeseries needs sampling enabled: add "
                  "--sample N (or --set sampleInterval=N)");
    }

    Campaign campaign(o.opts);
    std::string shardNote;
    if (spec.shardCount > 1)
        shardNote = " [shard " + std::to_string(spec.shardIndex) + "/" +
                    std::to_string(spec.shardCount) + "]";
    std::fprintf(stderr, "campaign '%s': %zu runs, %u jobs%s%s\n",
                 spec.name.c_str(), spec.runCount(),
                 campaign.options().jobs,
                 o.opts.cacheDir.empty()
                     ? ""
                     : (" (cache: " + o.opts.cacheDir + ")").c_str(),
                 shardNote.c_str());

    CampaignResult result = campaign.run(spec);

    if (!o.noCsv) {
        std::string out = o.csvPath.empty() ? spec.name + ".csv" : o.csvPath;
        writeTo(out, "campaign CSV",
                [&](std::ostream& os) { result.writeCsv(os); });
    }
    if (!o.jsonPath.empty())
        writeTo(o.jsonPath, "campaign JSON",
                [&](std::ostream& os) { result.writeJson(os); });
    if (!o.timeseriesPath.empty())
        writeTo(o.timeseriesPath, "time-series JSON",
                [&](std::ostream& os) { result.writeTimeSeriesJson(os); });

    // Figure-shaped reports need the full matrix; a shard holds only
    // its slice, so reports come from the post-merge full rerun.
    if (report && spec.shardCount <= 1)
        report(result).print(std::cout);
    if (!o.opts.cacheDir.empty())
        std::fprintf(stderr, "cache: %u hit%s, %u miss%s\n",
                     result.cacheHits, result.cacheHits == 1 ? "" : "s",
                     result.cacheMisses,
                     result.cacheMisses == 1 ? "" : "es");
    // Failed runs are result rows, not silent drops — but a campaign
    // with failures must not exit 0 (exit code 3; docs/ROBUSTNESS.md).
    if (uint32_t failed = result.failures()) {
        std::fprintf(stderr,
                     "campaign '%s': %u of %zu run%s failed (see the "
                     "status column)\n",
                     spec.name.c_str(), failed, result.records.size(),
                     result.records.size() == 1 ? "" : "s");
        return 3;
    }
    return 0;
}

int
runCmd(const std::vector<std::string>& args)
{
    RunArgs o;
    const std::string* bad = parseRunArgs(o, args);
    if (!bad && !o.words.empty())
        bad = &o.words[0];
    if (bad)
        return unknownArgument(*bad);
    return o.help ? usage(0) : execRun(o);
}

int
specsCmd(const std::vector<std::string>& args)
{
    if (args.empty())
        fatal("specs needs a verb: list, fields, or dump");
    const std::string& verb = args[0];
    if (verb == "list") {
        if (args.size() > 1)
            fatal("specs list takes no arguments");
        return listPresets();
    }
    if (verb == "fields") {
        if (args.size() > 1)
            fatal("specs fields takes no arguments");
        return listFields();
    }
    if (verb == "dump") {
        // `specs dump [run flags] [PATH]`: same resolution as `run`,
        // serialized instead of executed. PATH defaults to stdout.
        RunArgs o;
        std::vector<std::string> rest(args.begin() + 1, args.end());
        const std::string* bad = parseRunArgs(o, rest);
        if (!bad && o.words.size() > 1)
            bad = &o.words[1];
        if (bad)
            return unknownArgument(*bad);
        if (o.help)
            return usage(0);
        if (o.dumpSpecPath.empty())
            o.dumpSpecPath = o.words.empty() ? "-" : o.words[0];
        return execRun(o);
    }
    fatal("specs: unknown verb '", verb, "' (list, fields, dump)");
}

} // namespace

int
cliMain(const std::vector<std::string>& args)
{
    try {
        if (args.empty())
            return usage(2);
        const std::string& cmd = args[0];
        std::vector<std::string> rest(args.begin() + 1, args.end());
        if (cmd == "run")
            return runCmd(rest);
        if (cmd == "cache")
            return cacheCmd(rest);
        if (cmd == "serve")
            return serveCmd(rest);
        if (cmd == "submit")
            return submitCmd(rest);
        if (cmd == "specs")
            return specsCmd(rest);
        if (cmd == "-h" || cmd == "--help")
            return usage(0);
        std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
        return usage(2);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}

} // namespace vortex::sweep
