/**
 * @file
 * Lightweight named statistics counters. Components expose a StatGroup;
 * benches, the sweep campaign engine, and EXPERIMENTS tooling read them
 * by name.
 *
 * Every counter exists from construction. A component declares each one
 * as a `uint64_t&` member bound right after its StatGroup member:
 *
 *     StatGroup stats_;
 *     uint64_t& ctrReads_ = stats_.counter("reads");
 *
 * so the key is registered zero-valued, in declaration order, when the
 * component is built, and a hot-path bump is one increment through a
 * stable reference. A group's keys therefore depend only on which
 * components exist (the machine shape), never on which events a run
 * happened to raise: CSV columns, JSON stats and time-series rows of two
 * runs on the same machine line up key for key.
 *
 * Storage. A group holds, per counter, one pointer to its key and the
 * 64-bit value, in a deque (16 B a counter, plus the deque's 512 B
 * blocks), so a campaign's records cost what their values cost. Key
 * strings live once per process, in an intern pool: counter() interns
 * its key and then matches it by pointer, so the key lists of two runs
 * on one machine shape are the same pointers and readers compare them by
 * position (sameKeys()). A group has no index: counter() and get() scan
 * its counters, which is cheap at the few dozen keys a component or a
 * flattened device registers, and get() compares strings without
 * interning, so a lookup never grows the pool.
 *
 * The pool grows only with distinct key strings — the ones components
 * register and flattening derives from them, and the `stat` lines of
 * the result-cache entries a process reads — and never shrinks: keys are
 * never freed, so every interned pointer stays valid for the process.
 *
 * Thread safety. Any thread may register a counter: the pool is behind a
 * mutex. A group itself is not synchronized; it belongs to the
 * component, run or report that built it.
 *
 * Counter naming conventions:
 *  - keys are lower_snake_case event counts ("core_reads", "mshr_replays",
 *    "fetch_icache_stalls"), monotonically non-decreasing over a run;
 *  - group names are the component instance ("dcache", "memsim"); when
 *    groups are aggregated across a device the flattened key is
 *    "<group>.<key>" (see core::Processor::collectStats);
 *  - derived metrics (ratios, utilizations) are NOT counters — compute
 *    them from counters at the point of reporting (e.g.
 *    mem::Cache::bankUtilization()).
 */

#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <ranges>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/log.h"

namespace vortex {

/**
 * A named collection of 64-bit counters, printed and iterated in
 * registration order.
 *
 * Storage is a deque so counter references stay valid as later keys are
 * inserted: a component binds each of its counters once, at construction,
 * and bumps it through that reference (see the file comment).
 */
class StatGroup
{
    /** One counter: its interned key and its value. */
    struct Slot
    {
        const std::string* key;
        uint64_t value;
    };

  public:
    /** One element of all(): the interned key string and the value. */
    using Entry = std::pair<const std::string&, uint64_t>;

    /** A group named @p name (the "<group>" half of flattened
     *  "<group>.<key>" counter names; empty for anonymous groups). */
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    /** The counter for @p key, created zero on first use. The reference
     *  stays valid for the lifetime of the group (deque storage never
     *  relocates existing entries). */
    uint64_t&
    counter(const std::string& key)
    {
        return slot(intern(key)).value;
    }

    /** Read @p key without creating it (0 when absent). A key taken from
     *  any group's all() is the interned string itself, so it matches by
     *  address; any other string is compared by value, never interned. */
    uint64_t
    get(const std::string& key) const
    {
        for (const Slot& s : slots_)
            if (s.key == &key || *s.key == key)
                return s.value;
        return 0;
    }

    /** Accumulate every counter of @p other into this group (counters new
     *  to this group keep @p other's relative order). */
    void
    add(const StatGroup& other)
    {
        for (size_t i = 0; i < other.slots_.size(); ++i) {
            const Slot& o = other.slots_[i];
            // Groups of one component kind register one key list: match
            // by position first.
            if (i < slots_.size() && slots_[i].key == o.key)
                slots_[i].value += o.value;
            else
                slot(o.key).value += o.value;
        }
    }

    /** All (key, value) pairs in registration order: a view of the live
     *  group, so copy it to keep a snapshot. */
    auto
    all() const
    {
        return std::views::transform(
            slots_, [](const Slot& s) { return Entry{*s.key, s.value}; });
    }

    /** Does @p other hold the same keys in the same order? (Then its
     *  counters line up with this group's by position.) */
    bool
    sameKeys(const StatGroup& other) const
    {
        if (slots_.size() != other.slots_.size())
            return false;
        for (size_t i = 0; i < slots_.size(); ++i)
            if (slots_[i].key != other.slots_[i].key)
                return false;
        return true;
    }

    /** The group (component-instance) name. */
    const std::string& name() const { return name_; }

    /** Print "name.key = value" lines in registration order. */
    void
    print(std::ostream& os) const
    {
        for (const Slot& s : slots_)
            os << name_ << (name_.empty() ? "" : ".") << *s.key << " = "
               << s.value << "\n";
    }

  private:
    /** The process-wide copy of @p key; its address is the key's
     *  identity in every group. */
    static const std::string*
    intern(const std::string& key)
    {
        struct Pool
        {
            std::mutex mutex;
            std::unordered_set<std::string> keys; ///< nodes never move
        };
        // Never destroyed, so a key outlives every group that names it.
        static Pool* const pool = new Pool;
        std::lock_guard<std::mutex> lock(pool->mutex);
        return &*pool->keys.insert(key).first;
    }

    /** The counter for interned @p key, appended zero when absent. */
    Slot&
    slot(const std::string* key)
    {
        for (Slot& s : slots_)
            if (s.key == key)
                return s;
        return slots_.emplace_back(Slot{key, 0});
    }

    std::string name_;
    std::deque<Slot> slots_;
};

/**
 * A delta-encoded counter time series: one row per counter key, one
 * column per sample window. Column s covers the cycles
 * (sampleCycles[s-1], sampleCycles[s]] (from cycle 0 for s == 0), and
 * deltas[k][s] is how much counter keys[k] advanced inside that window —
 * so a counter's end-of-run value is the sum of its row, and rate curves
 * (IPC, hit rate, bandwidth) divide a row by the window widths.
 *
 * Samples land on multiples of `interval`; the last window may be a
 * shorter end-of-run remainder (sampleCycles.back() is then the final
 * cycle count). Keys are those of the first snapshot, in its order; every
 * later snapshot has the same keys, so the rows form a rectangular
 * matrix.
 */
struct TimeSeries
{
    uint64_t interval = 0; ///< sampling period in cycles (0 = disabled)
    std::vector<uint64_t> sampleCycles; ///< cycle stamp of each sample
    std::vector<std::string> keys;      ///< counter names, snapshot order
    std::vector<std::vector<uint64_t>> deltas; ///< [key][sample] increments

    /** Number of sample windows taken. */
    size_t numSamples() const { return sampleCycles.size(); }

    /** No samples recorded (sampling disabled or the run never ticked). */
    bool empty() const { return sampleCycles.empty(); }

    /** End-of-run total of the row for @p key (0 for an unknown key). */
    uint64_t
    total(const std::string& key) const
    {
        for (size_t k = 0; k < keys.size(); ++k)
            if (keys[k] == key) {
                uint64_t sum = 0;
                for (uint64_t d : deltas[k])
                    sum += d;
                return sum;
            }
        return 0;
    }

    /** Memberwise equality (used by the cache round-trip tests). */
    bool operator==(const TimeSeries&) const = default;
};

/**
 * Periodically snapshots a monotonically non-decreasing StatGroup and
 * delta-encodes the increments into a TimeSeries.
 *
 * The sampler is deliberately passive: the owner decides *when* a cycle
 * boundary is safe to observe (for the simulator that is after the
 * Processor's cross-core commit phase, where the counters do not depend
 * on the order the cores ticked in — see core/processor.h) and hands
 * in the flattened snapshot. due() is one load-and-test when disabled, so
 * an idle sampler costs nothing on the hot tick path.
 */
class StatSampler
{
  public:
    /** A sampler firing every @p interval cycles (0 = disabled). */
    explicit StatSampler(uint64_t interval = 0) { series_.interval = interval; }

    /** Was the sampler constructed with a nonzero interval? */
    bool enabled() const { return series_.interval != 0; }

    /** Is @p now a sampling boundary? (false whenever disabled) */
    bool
    due(uint64_t now) const
    {
        return series_.interval != 0 && now % series_.interval == 0;
    }

    /** Record the increments since the previous sample as a new window
     *  stamped @p now. @p snapshot must be monotonically non-decreasing
     *  between calls, @p now strictly increasing, and every snapshot must
     *  hold the first one's keys in the first one's order (a panic
     *  otherwise: rows are read by position). */
    void
    sample(uint64_t now, const StatGroup& snapshot)
    {
        const auto& items = snapshot.all();
        if (series_.empty()) {
            for (const auto& [k, v] : items)
                series_.keys.push_back(k);
            series_.deltas.resize(items.size());
            prev_.assign(items.size(), 0);
        }
        if (items.size() != series_.keys.size())
            panic("stat sampler: snapshot at cycle ", now, " has ",
                  items.size(), " counters, the first had ",
                  series_.keys.size());
        for (size_t k = 0; k < items.size(); ++k) {
            const auto& [key, v] = items[k];
            if (key != series_.keys[k])
                panic("stat sampler: counter #", k, " at cycle ", now,
                      " is '", key, "', the first snapshot had '",
                      series_.keys[k], "'");
            series_.deltas[k].push_back(v - prev_[k]);
            prev_[k] = v;
        }
        series_.sampleCycles.push_back(now);
    }

    /** End-of-run partial window: like sample(), but a no-op when
     *  disabled, when @p now is 0, or when a sample already landed on
     *  @p now (the run ended exactly on a boundary). */
    void
    finalize(uint64_t now, const StatGroup& snapshot)
    {
        if (!enabled() || now == 0)
            return;
        if (!series_.empty() && series_.sampleCycles.back() == now)
            return;
        sample(now, snapshot);
    }

    /** The series recorded so far. */
    const TimeSeries& series() const { return series_; }

  private:
    TimeSeries series_;
    std::vector<uint64_t> prev_; ///< counter values at the previous sample
};

} // namespace vortex
