/**
 * @file
 * The campaign fabric's submission service: a long-running daemon that
 * accepts sweep-spec submissions from concurrent clients over a local
 * (AF_UNIX) stream socket, deduplicates identical (config, workload)
 * runs through the content-hash cache, runs each submission on the
 * campaign executor (executeRuns in sweep/campaign.h, LPT claim order),
 * and streams per-run progress and results back as newline-delimited
 * JSON. docs/FABRIC.md is the wire-protocol and workflow reference.
 *
 * Dedup semantics (the "N identical submissions -> 1 simulation"
 * contract): a run is identified by RunSpec::contentHash(). A submitted
 * run is served, in order of preference, from
 *
 *   1. the service's in-memory memo of completed runs,
 *   2. the on-disk CacheStore (when the service was given a cache dir),
 *   3. an identical run already *in flight* for another client — the
 *      submission blocks until that single simulation finishes and
 *      shares its record,
 *   4. a fresh simulation (which then populates memo and cache).
 *
 * Only path 4 simulates, so any number of concurrent or sequential
 * identical submissions cost one simulation. Concurrent distinct
 * simulations across all clients are bounded by ServiceOptions::jobs.
 *
 * Results streamed to one client are the same verified records a local
 * Campaign would produce; every run event carries the run's structured
 * `status` (docs/ROBUSTNESS.md). A submission whose spec text does not
 * parse gets an `error` event immediately; one with failed runs streams
 * each failure's status and ends with an `error` event naming the first
 * — the service never reports results from a wrong simulation, and a
 * poisoned submission never takes the daemon (or other clients) down.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace vortex::sweep {

/** How a Service listens, caches, and bounds concurrency. */
struct ServiceOptions
{
    /** Filesystem path of the AF_UNIX stream socket to listen on
     *  (created on start(), unlinked on stop()). */
    std::string socketPath;
    /** Result-cache directory shared with batch campaigns; "" serves
     *  without an on-disk cache (in-memory memo only). */
    std::string cacheDir;
    /** Maximum concurrent simulations across all clients
     *  (0 = host hardware threads). */
    uint32_t jobs = 1;
    /** Per-event log lines on stderr. */
    bool verbose = false;
    /**
     * Per-simulation wall-clock deadline in seconds (`serve --deadline`;
     * 0 = none). A simulation that exceeds it is aborted and reported
     * as a RunStatus::Timeout run event — the service's watchdog
     * against a hanging guest monopolizing a job slot forever. Aborted
     * runs are failures and are never cached, so the wall-clock
     * nondeterminism cannot leak into byte-stable outputs
     * (docs/ROBUSTNESS.md).
     */
    uint32_t runDeadlineSeconds = 0;
};

/** Lifetime accounting of one Service (see stats()). */
struct ServiceStats
{
    uint64_t submissions = 0;   ///< submit requests accepted
    uint64_t runsRequested = 0; ///< matrix runs over all submissions
    uint64_t simulated = 0;     ///< runs actually simulated
    uint64_t cacheHits = 0;     ///< runs served from the on-disk cache
    uint64_t memoHits = 0;      ///< runs served from the in-memory memo
    uint64_t dedupJoins = 0;    ///< runs that joined an in-flight twin
    uint64_t errors = 0;        ///< submissions answered with an error
};

/**
 * The campaign submission service (see the file comment for the dedup
 * contract and docs/FABRIC.md for the wire protocol). start() binds the
 * socket and returns; clients are served on background threads until
 * stop() — or until a client sends `{"op": "shutdown"}`. Not copyable.
 */
class Service
{
  public:
    /** Configure a service (no sockets touched until start()). */
    explicit Service(ServiceOptions opts);
    /** stop()s if still running. */
    ~Service();

    Service(const Service&) = delete;            ///< not copyable
    Service& operator=(const Service&) = delete; ///< not copyable

    /** Bind + listen on ServiceOptions::socketPath and spawn the accept
     *  loop. Fatal when the socket cannot be created (e.g. the path is
     *  taken by a live service). */
    void start();

    /** Stop accepting, disconnect clients, join every service thread,
     *  and unlink the socket. Idempotent. In-flight simulations finish
     *  first (their results still land in the cache). */
    void stop();

    /** Whether start() has run and stop() has not. */
    bool running() const;

    /** The socket path clients connect to. */
    const std::string& socketPath() const;

    /** Snapshot of the lifetime accounting (thread-safe). */
    ServiceStats stats() const;

    /** Whether a client sent `{"op": "shutdown"}`. serveMain() polls
     *  this to turn a client request into a clean stop(). */
    bool shutdownRequestedByClient() const;

  private:
    struct Impl;                 ///< socket/thread state (fabric.cpp)
    std::unique_ptr<Impl> impl_; ///< pimpl: keeps socket headers out
};

/** What one client submission came back with. */
struct SubmitResult
{
    bool ok = false;      ///< true when a `done` event arrived
    std::string error;    ///< the `error` event's message when !ok
    std::string campaign; ///< campaign name echoed by the service
    uint64_t runs = 0;      ///< matrix size of the submission
    uint64_t simulated = 0; ///< runs the service had to simulate
    uint64_t cacheHits = 0; ///< runs served from cache (disk or memo)
    uint64_t dedupJoins = 0;///< runs that joined an in-flight twin
    /** Every NDJSON line the service streamed back, in arrival order
     *  (accepted / run / done / error events). */
    std::vector<std::string> events;
};

/**
 * Submit sweep-spec text (TOML or JSON, exactly a `--spec` file's
 * content) to the service at @p socketPath and block until the final
 * `done`/`error` event. @p campaignName overrides the spec's name when
 * non-empty. When @p echo is non-null every received event line is
 * copied to it as it arrives (the CLI streams them to stdout).
 *
 * Connecting retries with capped exponential backoff for a couple of
 * seconds (a service still binding its socket is reached on a later
 * attempt); fatal when the socket stays unreachable. A nonzero
 * @p timeoutSeconds bounds how long the client waits for each event
 * line (`submit --timeout`): when it elapses the result comes back
 * !ok with a timeout message instead of blocking forever on a hung
 * service.
 */
SubmitResult submitSpecText(const std::string& socketPath,
                            const std::string& specText,
                            const std::string& campaignName = "",
                            std::ostream* echo = nullptr,
                            uint32_t timeoutSeconds = 0);

/** Ask the service at @p socketPath to shut down (`{"op":"shutdown"}`).
 *  Returns once the service acknowledges. Connection attempts retry
 *  with backoff like submitSpecText; fatal when unreachable. */
void requestShutdown(const std::string& socketPath);

/**
 * Run a Service in the foreground until SIGINT/SIGTERM (or a client
 * shutdown request): the body of `vortex_sweep serve`.
 * @return a process exit code (0 on clean shutdown).
 */
int serveMain(const ServiceOptions& opts);

} // namespace vortex::sweep
