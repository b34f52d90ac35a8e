/**
 * @file
 * CacheStore — the campaign result cache as an object.
 *
 * One CacheStore owns one cache directory: entry I/O (load/store of
 * RunRecords keyed by RunSpec::contentHash), listing, pruning, and — the
 * fabric primitive — merge/import of entries from other cache
 * directories.
 *
 * The directory is the only index: one `<hash>.run` text file per entry
 * and nothing beside it (any other file is ignored, and prune leaves it
 * alone). On-disk format (v3):
 *
 *     vortex-sweep-cache v3
 *     hash <contentHash>            # provenance lines ...
 *     id <run id>
 *     campaign <campaign name>
 *     host_seconds <double>
 *     kernel <registry kernel name>  # older entries lack it
 *     cycles <n>                     # ... payload lines
 *     thread_instrs <n>
 *     stat <key> <value>             # every counter of the machine
 *     sample_interval / sample_cycles / series ...   # when sampled
 *     end
 *
 * One reader parses an entry file, once, and applies one validity rule:
 * the magic line, a `hash` line equal to the file name, the `end`
 * terminator, payload numbers that parse whole (no sign, fraction or
 * trailing text), and a rectangular series (every `series` row as long
 * as `sample_cycles`). load(), entries(), prune() and mergeFrom() all use
 * it, so a file is either an entry everywhere (a hit, listed, merged,
 * kept) or nowhere (a miss, unlisted, rejected, swept). A campaign reads
 * each hit once, in load(). mergeFrom's "already present" test is the
 * same rule, so a torn local copy is replaced, not kept.
 * Entries of an older format (v1, v2) fail the magic line, so they
 * miss, are re-simulated, and prune() sweeps them.
 *
 * The reader skips unknown tags, so adding provenance lines (that is how
 * host_seconds and kernel arrived) never bumps the version: old binaries
 * still hit on new entries and vice versa. Entries from older builds may
 * also carry a provenance line this build no longer writes (the static
 * cost estimate at store time); it is skipped the same way. Entries are
 * content-addressed — the same hash always describes the same
 * simulation — which is what makes cache directories *mergeable
 * artifacts*: shipping shard caches between hosts and merging them
 * (mergeFrom) reconstructs exactly the records a single host would have
 * produced.
 *
 * All writes are atomic (temp file + rename), so concurrent campaigns —
 * or a campaign and a merge — may share a directory.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sweep/campaign.h"

namespace vortex::sweep {

/** One result-cache entry as listed by CacheStore::entries(). */
struct CacheEntryInfo
{
    std::string hash;     ///< content hash (the file basename)
    std::string id;       ///< run id recorded at store time
    std::string campaign; ///< campaign name recorded at store time
    int64_t mtime = 0;    ///< entry mtime, seconds since the Unix epoch
    double hostSeconds = -1.0; ///< recorded wall-clock (-1 = not recorded)
    std::string kernel;   ///< registry kernel name ("" on old entries)
};

/** Outcome of one CacheStore::mergeFrom call. */
struct CacheMergeStats
{
    size_t imported = 0; ///< entries copied into the destination
    size_t skipped = 0;  ///< already present (same content hash)
    size_t rejected = 0; ///< invalid entries refused (see the validity
                         ///< rule in the file comment)
};

/**
 * The campaign result cache as an object: owns a directory of
 * content-addressed run entries. A default-constructed (or empty-dir)
 * store is disabled: loads miss, stores are no-ops, maintenance is a
 * no-op. Copyable; holds no open handles between calls.
 */
class CacheStore
{
  public:
    /** A disabled store (no directory). */
    CacheStore() = default;

    /** A store over @p dir (created lazily on first write); an empty
     *  @p dir makes a disabled store. */
    explicit CacheStore(std::string dir) : dir_(std::move(dir)) {}

    /** Whether this store has a directory at all. */
    bool enabled() const { return !dir_.empty(); }

    /** The cache directory ("" when disabled). */
    const std::string& dir() const { return dir_; }

    /** Path of the entry file for @p hash (meaningless when disabled). */
    std::string entryPath(const std::string& hash) const;

    /**
     * Restore the cached record for @p spec into @p out.
     * @return true on a hit: a valid entry (file comment) for @p spec's
     *         content hash. Any defect (missing, truncated, foreign,
     *         corrupt series) is a miss, never an error — the run is
     *         simply re-simulated.
     */
    bool load(const RunSpec& spec, RunRecord& out) const;

    /**
     * Store @p record under its spec's content hash, tagged with
     * @p campaignName and the run's provenance (host_seconds, kernel).
     * Only verified (ok) records are stored; writes are atomic and
     * best-effort (a failed write never fails the campaign). No-op when
     * disabled.
     */
    void store(const RunRecord& record,
               const std::string& campaignName) const;

    /** All valid entries, sorted by hash (empty when the directory is
     *  missing or the store is disabled). */
    std::vector<CacheEntryInfo> entries() const;

    /**
     * Delete cached records: all of them, or with @p olderThanDays >= 0
     * only those whose mtime is older than that many days. Invalid
     * entries (file comment; e.g. one torn by a crash mid-write) are
     * swept regardless of age, as are leftover temp files.
     * @return the number of records removed.
     */
    size_t prune(double olderThanDays = -1.0) const;

    /**
     * Import every valid entry of @p srcDir into this store — the
     * fabric's "ship cache dirs, not CSVs" primitive. Each valid source
     * entry (file comment) is copied byte-for-byte via temp file +
     * rename, unless a valid entry for its hash already exists here
     * (content-addressed: same hash, same simulation); an invalid local
     * entry is overwritten. Invalid source entries are rejected,
     * counted, and reported on stderr — never imported. Every import
     * commits on its own, so a crash mid-merge leaves a valid store.
     *
     * Merging the caches of shards 0..N-1 of a campaign and re-running
     * the full spec against the merged store is a 100%-hit, byte-
     * identical reconstruction of the single-host outputs (pinned by
     * tests/test_fabric.cpp and the CI `fabric` job).
     *
     * Fatal when @p srcDir does not exist or this store is disabled.
     */
    CacheMergeStats mergeFrom(const std::string& srcDir) const;

  private:
    std::string dir_; ///< cache directory ("" = disabled)
};

} // namespace vortex::sweep
