/**
 * @file
 * CacheStore implementation: v3 entry I/O, listing, pruning, and
 * cross-directory merge. See cache.h for the on-disk format.
 */

#include "sweep/cache.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/log.h"
#include "sweep/report.h"

namespace vortex::sweep {

namespace {

// v3: every counter of the machine, zero or not (counters exist from
// construction). A v2 entry holds only the counters its run happened to
// bump, so restoring it beside fresh records would change a campaign's
// columns; like v1 entries it fails the magic check and simply misses
// (the run is re-simulated). Provenance lines (host_seconds, kernel)
// ride the unknown-tag rule and do not bump the version.
constexpr const char* kCacheMagic = "vortex-sweep-cache v3";

/** Mirror of Processor::ipc() so cache-restored records reproduce the
 *  exact double a fresh run reports. */
double
ipcOf(uint64_t threadInstrs, uint64_t cycles)
{
    return cycles == 0 ? 0.0
                       : static_cast<double>(threadInstrs) /
                             static_cast<double>(cycles);
}

/** A per-thread-unique temp-file suffix (rename is the commit point). */
std::string
tmpSuffix()
{
    return ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(
               std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

/** @p path's mtime as seconds since the Unix epoch (0 on error). */
int64_t
mtimeSeconds(const std::filesystem::path& path)
{
    std::error_code ec;
    auto ftime = std::filesystem::last_write_time(path, ec);
    if (ec)
        return 0;
    // Portable file_clock -> system_clock conversion (no C++20
    // clock_cast dependency): rebase through the two clocks' "now".
    auto sys = std::chrono::time_point_cast<std::chrono::seconds>(
        ftime - std::filesystem::file_time_type::clock::now() +
        std::chrono::system_clock::now());
    return sys.time_since_epoch().count();
}

/** Append every remaining token of @p ls to @p out as an unsigned
 *  decimal number; false when one is not (a sign, a fraction, trailing
 *  text, overflow). */
bool
readNumbers(std::istream& ls, std::vector<uint64_t>& out)
{
    std::string tok;
    while (ls >> tok) {
        uint64_t v = 0;
        const char* end = tok.data() + tok.size();
        auto [ptr, ec] = std::from_chars(tok.data(), end, v);
        if (ec != std::errc() || ptr != end)
            return false;
        out.push_back(v);
    }
    return true;
}

/** The rest of @p ls as exactly one unsigned number, into @p out. */
bool
readNumber(std::istream& ls, uint64_t& out)
{
    std::vector<uint64_t> v;
    if (!readNumbers(ls, v) || v.size() != 1)
        return false;
    out = v[0];
    return true;
}

/** One entry file, parsed once. */
struct Entry
{
    CacheEntryInfo info; ///< provenance (mtime left unset)
    RunRecord rec;       ///< payload: cycles, instructions, stats, series
};

/**
 * Parse the entry file at @p path, which must describe @p hash (its file
 * name). The one validity rule every reader applies: the magic line, a
 * `hash` line equal to @p hash, the `end` terminator, payload numbers
 * that parse whole, and a rectangular series (every delta row as long as
 * the cycle-stamp vector). Any defect — a missing file, a stale format,
 * a foreign or torn entry, a corrupt number or series — yields nullopt:
 * entries may come from other hosts (mergeFrom), so their contents are
 * untrusted.
 */
std::optional<Entry>
readEntry(const std::string& path, const std::string& hash)
{
    std::ifstream in(path);
    std::string line;
    if (!in || !std::getline(in, line) || line != kCacheMagic)
        return std::nullopt;
    Entry e;
    e.info.hash = hash;
    RunRecord& rec = e.rec;
    bool hashOk = false, complete = false, numbersOk = true;
    while (!complete && std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "hash") {
            std::string h;
            ls >> h;
            if (h != hash)
                return std::nullopt; // foreign entry (renamed file?)
            hashOk = true;
        } else if (tag == "id") {
            std::getline(ls >> std::ws, e.info.id);
        } else if (tag == "campaign") {
            std::getline(ls >> std::ws, e.info.campaign);
        } else if (tag == "host_seconds") {
            ls >> e.info.hostSeconds;
        } else if (tag == "kernel") {
            ls >> e.info.kernel;
        } else if (tag == "cycles") {
            numbersOk = readNumber(ls, rec.result.cycles);
        } else if (tag == "thread_instrs") {
            numbersOk = readNumber(ls, rec.result.threadInstrs);
        } else if (tag == "stat") {
            std::string key;
            ls >> key;
            numbersOk = readNumber(ls, rec.stats.counter(key));
        } else if (tag == "sample_interval") {
            numbersOk = readNumber(ls, rec.series.interval);
        } else if (tag == "sample_cycles") {
            numbersOk = readNumbers(ls, rec.series.sampleCycles);
        } else if (tag == "series") {
            std::string key;
            ls >> key;
            rec.series.keys.push_back(key);
            numbersOk = readNumbers(ls, rec.series.deltas.emplace_back());
        } else if (tag == "end") {
            complete = true;
        }
        if (!numbersOk)
            return std::nullopt;
    }
    if (!hashOk || !complete)
        return std::nullopt;
    for (const auto& row : rec.series.deltas)
        if (row.size() != rec.series.numSamples())
            return std::nullopt;
    return e;
}

} // namespace

std::string
CacheStore::entryPath(const std::string& hash) const
{
    return dir_ + "/" + hash + ".run";
}

bool
CacheStore::load(const RunSpec& spec, RunRecord& out) const
{
    if (!enabled())
        return false;
    const std::string hash = spec.contentHash();
    std::optional<Entry> e = readEntry(entryPath(hash), hash);
    if (!e)
        return false;
    out = std::move(e->rec);
    out.spec = spec;
    out.fromCache = true;
    out.result.ok = true;
    out.result.ipc = ipcOf(out.result.threadInstrs, out.result.cycles);
    return true;
}

void
CacheStore::store(const RunRecord& record,
                  const std::string& campaignName) const
{
    if (!enabled() || !record.result.ok)
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);

    const std::string hash = record.spec.contentHash();
    const std::string path = entryPath(hash);
    const std::string tmp = path + tmpSuffix();
    {
        std::ofstream outf(tmp, std::ios::trunc);
        if (!outf)
            return; // cache is best-effort; the run still succeeded
        outf << kCacheMagic << "\n";
        outf << "hash " << hash << "\n";
        outf << "id " << record.spec.id() << "\n";
        outf << "campaign " << campaignName << "\n";
        // Provenance, not payload: what the simulation cost this host
        // (host_seconds) and which registry kernel it ran (`cache list`
        // shows it). Readers that predate a tag ignore it (unknown-tag
        // rule), so these lines never bump the format version.
        outf << "host_seconds " << fmtDouble(record.hostSeconds) << "\n";
        outf << "kernel " << workloadKernelName(record.spec.workload)
             << "\n";
        outf << "cycles " << record.result.cycles << "\n";
        outf << "thread_instrs " << record.result.threadInstrs << "\n";
        for (const auto& [k, v] : record.stats.all())
            outf << "stat " << k << " " << v << "\n";
        if (record.series.interval != 0) {
            outf << "sample_interval " << record.series.interval << "\n";
            outf << "sample_cycles";
            for (uint64_t c : record.series.sampleCycles)
                outf << " " << c;
            outf << "\n";
            for (size_t k = 0; k < record.series.keys.size(); ++k) {
                outf << "series " << record.series.keys[k];
                for (uint64_t d : record.series.deltas[k])
                    outf << " " << d;
                outf << "\n";
            }
        }
        outf << "end\n";
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

std::vector<CacheEntryInfo>
CacheStore::entries() const
{
    std::vector<CacheEntryInfo> out;
    if (!enabled())
        return out;
    std::error_code ec;
    for (const auto& de :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (!de.is_regular_file() || de.path().extension() != ".run")
            continue;
        // Only what load() would restore is an entry: a torn, foreign or
        // stale-format file is invisible here too, not just a miss.
        std::optional<Entry> e =
            readEntry(de.path().string(), de.path().stem().string());
        if (!e)
            continue;
        e->info.mtime = mtimeSeconds(de.path());
        out.push_back(std::move(e->info));
    }
    std::sort(out.begin(), out.end(),
              [](const CacheEntryInfo& a, const CacheEntryInfo& b) {
                  return a.hash < b.hash;
              });
    return out;
}

size_t
CacheStore::prune(double olderThanDays) const
{
    if (!enabled())
        return 0;
    // Ages compare as doubles, so a huge day count keeps every entry
    // instead of overflowing an integer cutoff.
    const int64_t now = std::chrono::duration_cast<std::chrono::seconds>(
                            std::chrono::system_clock::now().time_since_epoch())
                            .count();
    const double minAge = olderThanDays * 86400.0;
    size_t removed = 0;
    std::error_code ec;
    for (const auto& de :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (!de.is_regular_file())
            continue;
        const std::string fname = de.path().filename().string();
        // Sweep leftover temp files from interrupted writes regardless
        // of age; they are never valid entries.
        if (fname.find(".run.tmp.") != std::string::npos) {
            std::filesystem::remove(de.path(), ec);
            continue;
        }
        if (de.path().extension() != ".run")
            continue;
        // Invalid entries are swept regardless of age: load() and
        // mergeFrom() already refuse them, so they are dead weight a
        // crash left behind.
        if (!readEntry(de.path().string(), de.path().stem().string())) {
            std::filesystem::remove(de.path(), ec);
            if (!ec)
                ++removed;
            continue;
        }
        if (olderThanDays < 0.0 ||
            static_cast<double>(now - mtimeSeconds(de.path())) >= minAge) {
            std::filesystem::remove(de.path(), ec);
            if (!ec)
                ++removed;
        }
    }
    return removed;
}

CacheMergeStats
CacheStore::mergeFrom(const std::string& srcDir) const
{
    if (!enabled())
        fatal("cache merge: destination store is disabled (no directory)");
    std::error_code ec;
    if (!std::filesystem::is_directory(srcDir, ec))
        fatal("cache merge: source '", srcDir, "' is not a directory");
    if (std::filesystem::weakly_canonical(srcDir, ec) ==
        std::filesystem::weakly_canonical(dir_, ec))
        fatal("cache merge: source and destination are the same "
              "directory '", dir_, "'");
    std::filesystem::create_directories(dir_, ec);

    CacheMergeStats stats;
    // Deterministic import order (directory iteration order is not).
    std::vector<std::filesystem::path> files;
    for (const auto& de :
         std::filesystem::directory_iterator(srcDir, ec)) {
        if (de.is_regular_file() && de.path().extension() == ".run")
            files.push_back(de.path());
    }
    std::sort(files.begin(), files.end());

    for (const std::filesystem::path& src : files) {
        const std::string hash = src.stem().string();
        if (!readEntry(src.string(), hash)) {
            warn("cache merge: rejecting invalid entry ", src.string());
            ++stats.rejected;
            continue;
        }
        if (readEntry(entryPath(hash), hash)) {
            // Content-addressed: a valid local entry for this hash
            // describes the same simulation; keep the local bytes. An
            // invalid one is overwritten below.
            ++stats.skipped;
            continue;
        }
        const std::string dst = entryPath(hash);
        const std::string tmp = dst + tmpSuffix();
        std::filesystem::copy_file(
            src, tmp, std::filesystem::copy_options::overwrite_existing,
            ec);
        if (ec) {
            warn("cache merge: cannot copy ", src.string(), ": ",
                 ec.message());
            ++stats.rejected;
            continue;
        }
        std::filesystem::rename(tmp, dst, ec);
        if (ec) {
            std::filesystem::remove(tmp, ec);
            warn("cache merge: cannot commit ", dst, ": ", ec.message());
            ++stats.rejected;
            continue;
        }
        ++stats.imported;
    }
    return stats;
}

} // namespace vortex::sweep
