/**
 * @file
 * Campaign-fabric service implementation: AF_UNIX NDJSON server, the
 * in-flight dedup machinery, and the blocking submit/shutdown clients.
 * See fabric.h for the dedup contract and docs/FABRIC.md for the wire
 * protocol.
 */

#include "sweep/fabric.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <semaphore>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.h"
#include "common/log.h"
#include "common/outcome.h"
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/report.h"
#include "sweep/specfile.h"

namespace vortex::sweep {

namespace {

//
// Socket plumbing.
//

/**
 * Connect a stream socket to @p path, retrying transient failures
 * (service not yet bound, socket file not yet created, backlog full)
 * with capped exponential backoff — 50 ms doubling to a 1 s cap — for
 * up to @p retrySeconds. Fatal when the service stays unreachable.
 */
int
connectTo(const std::string& path, double retrySeconds = 2.0)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        fatal("socket path too long: ", path);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(retrySeconds));
    auto backoff = std::chrono::milliseconds(50);
    for (;;) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            fatal("socket(): ", std::strerror(errno));
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        int err = errno;
        ::close(fd);
        // Only errors a starting (or briefly overloaded) service can
        // recover from are worth retrying; anything else is permanent.
        bool transient = err == ECONNREFUSED || err == ENOENT ||
                         err == EAGAIN || err == EINTR;
        if (!transient || std::chrono::steady_clock::now() + backoff >
                              deadline)
            fatal("cannot reach service at ", path, ": ",
                  std::strerror(err));
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, std::chrono::milliseconds(1000));
    }
}

/** Send @p line plus a terminating newline; false on a dead peer. */
bool
sendLine(int fd, const std::string& line)
{
    std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
        ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<size_t>(n);
    }
    return true;
}

/** Pull one '\n'-terminated line out of @p carry, recv()ing as needed.
 *  False on EOF / error with no complete line buffered. */
bool
readLine(int fd, std::string& carry, std::string& line)
{
    for (;;) {
        size_t nl = carry.find('\n');
        if (nl != std::string::npos) {
            line = carry.substr(0, nl);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            carry.erase(0, nl + 1);
            return true;
        }
        char tmp[4096];
        ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
        if (n <= 0)
            return false;
        carry.append(tmp, static_cast<size_t>(n));
    }
}

/** Parse one NDJSON line (a request or an event) with the JSON reader;
 *  false, with the diagnostic in @p err, when it is malformed. */
bool
parseLine(const std::string& line, const char* what, json::Node& out,
          std::string& err)
{
    try {
        out = json::parse(line, what);
        return true;
    } catch (const ParseError& e) {
        err = e.what();
        return false;
    }
}

} // namespace

//
// Service.
//

struct Service::Impl
{
    ServiceOptions opts;
    CacheStore cache;

    std::atomic<int> listenFd{-1}; ///< written by stop() while acceptLoop reads
    std::atomic<bool> running{false};
    std::atomic<bool> stopping{false};
    std::atomic<bool> shutdownRequested{false};
    std::thread acceptThread;

    std::mutex clientsMu;           ///< guards clientThreads/clientFds
    std::vector<std::thread> clientThreads;
    std::vector<int> clientFds;     ///< fds of live client connections

    /** A run being simulated right now; identical submissions block on
     *  cv instead of simulating again. */
    struct Inflight
    {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        RunRecord rec;
    };

    std::mutex stateMu; ///< guards inflight/memo/stats
    std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight;
    std::unordered_map<std::string, RunRecord> memo; ///< completed ok runs
    ServiceStats stats;

    std::counting_semaphore<> simSlots; ///< bounds concurrent simulations

    explicit Impl(ServiceOptions o)
        : opts(std::move(o)),
          cache(opts.cacheDir),
          simSlots(resolveJobs(opts.jobs))
    {
    }

    /** The NDJSON `source` of a run event (the dedup resolution order
     *  in fabric.h's file comment). */
    static const char* originName(Origin o)
    {
        switch (o) {
        case Origin::Memo: return "memo";
        case Origin::Cache: return "cache";
        case Origin::Dedup: return "dedup";
        default: return "simulated";
        }
    }

    /** Resolve one run through memo -> disk cache -> in-flight join ->
     *  fresh simulation. Thread-safe; called by submission workers. */
    RunRecord resolveRun(const RunSpec& spec, const std::string& campaignName,
                         Origin& origin)
    {
        const std::string hash = spec.contentHash();
        std::shared_ptr<Inflight> mine;
        std::shared_ptr<Inflight> theirs;
        {
            std::lock_guard<std::mutex> lk(stateMu);
            auto mit = memo.find(hash);
            if (mit != memo.end()) {
                ++stats.memoHits;
                origin = Origin::Memo;
                RunRecord rec = mit->second;
                rec.spec = spec; // same content hash, caller's coordinates
                rec.fromCache = true;
                rec.hostSeconds = 0.0;
                return rec;
            }
            auto iit = inflight.find(hash);
            if (iit != inflight.end()) {
                theirs = iit->second;
                ++stats.dedupJoins;
            } else {
                mine = std::make_shared<Inflight>();
                inflight.emplace(hash, mine);
            }
        }
        if (theirs) {
            std::unique_lock<std::mutex> lk(theirs->m);
            theirs->cv.wait(lk, [&] { return theirs->done; });
            origin = Origin::Dedup;
            RunRecord rec = theirs->rec;
            rec.spec = spec;
            return rec;
        }

        // This thread owns the simulation for `hash`. Every path below
        // must still publish a record — waiters joined on `mine` block
        // until it is signaled — so any escaping exception (a simulator
        // bug included) becomes a host_error record rather than a dead
        // daemon with deadlocked clients.
        RunRecord rec;
        try {
            if (cache.enabled() && cache.load(spec, rec)) {
                origin = Origin::Cache;
                std::lock_guard<std::mutex> lk(stateMu);
                ++stats.cacheHits;
            } else {
                std::function<bool()> abortCheck;
                if (opts.runDeadlineSeconds) {
                    auto deadline =
                        std::chrono::steady_clock::now() +
                        std::chrono::seconds(opts.runDeadlineSeconds);
                    abortCheck = [deadline] {
                        return std::chrono::steady_clock::now() >= deadline;
                    };
                }
                simSlots.acquire();
                try {
                    rec = executeRun(spec, std::move(abortCheck));
                } catch (...) {
                    simSlots.release();
                    throw;
                }
                simSlots.release();
                origin = Origin::Simulated;
                if (rec.result.ok && cache.enabled())
                    cache.store(rec, campaignName);
                std::lock_guard<std::mutex> lk(stateMu);
                ++stats.simulated;
            }
        } catch (const std::exception& e) {
            origin = Origin::Simulated;
            rec = RunRecord();
            rec.spec = spec;
            rec.result.ok = false;
            rec.result.status = RunStatus::HostError;
            rec.result.error = e.what();
            std::lock_guard<std::mutex> lk(stateMu);
            ++stats.simulated;
        }
        {
            std::lock_guard<std::mutex> lk(stateMu);
            if (rec.result.ok)
                memo.emplace(hash, rec);
            inflight.erase(hash);
        }
        {
            std::lock_guard<std::mutex> lk(mine->m);
            mine->rec = rec;
            mine->done = true;
        }
        mine->cv.notify_all();
        return rec;
    }

    /** Serve one `submit` request: expand, schedule LPT, resolve every
     *  run, stream events. @p writeMu serializes lines to @p fd. */
    void handleSubmit(int fd, std::mutex& writeMu, const json::Node& request)
    {
        auto emit = [&](const std::string& line) {
            std::lock_guard<std::mutex> lk(writeMu);
            return sendLine(fd, line);
        };
        auto emitError = [&](const std::string& msg) {
            {
                std::lock_guard<std::mutex> lk(stateMu);
                ++stats.errors;
            }
            emit(std::string("{\"event\": \"error\", \"message\": \"") +
                 jsonEscape(msg) + "\"}");
        };

        const std::string* specText = request.findString("spec");
        if (!specText) {
            emitError("submit request is missing the \"spec\" field");
            return;
        }
        SweepSpec spec;
        try {
            spec = parseSpecText(*specText, "<submission>");
        } catch (const SpecParseError& e) {
            emitError(e.what());
            return;
        } catch (const FatalError& e) {
            emitError(e.what());
            return;
        }
        if (const std::string* name = request.findString("name"))
            if (!name->empty())
                spec.name = *name;

        std::vector<RunSpec> runs;
        try {
            runs = shardSlice(spec, spec.expand());
        } catch (const FatalError& e) {
            emitError(e.what());
            return;
        }
        {
            std::lock_guard<std::mutex> lk(stateMu);
            ++stats.submissions;
            stats.runsRequested += runs.size();
        }
        if (opts.verbose)
            inform("[fabric] submit ", spec.name, ": ", runs.size(), " runs");
        emit(std::string("{\"event\": \"accepted\", \"campaign\": \"") +
             jsonEscape(spec.name) + "\", \"runs\": " +
             std::to_string(runs.size()) + "}");

        uint64_t nSimulated = 0;
        uint64_t nCacheHits = 0;
        uint64_t nDedup = 0;
        std::string firstError;
        size_t firstErrorIndex = runs.size();
        auto resolve = [&](const RunSpec& run, Origin& origin) {
            return resolveRun(run, spec.name, origin);
        };
        // Events carry matrix indices, whatever the claim order.
        auto sink = [&](const RunRecord& rec, const RunDone& done) {
            switch (done.origin) {
            case Origin::Memo:
            case Origin::Cache: ++nCacheHits; break;
            case Origin::Dedup: ++nDedup; break;
            case Origin::Simulated: ++nSimulated; break;
            }
            if (!rec.result.ok && done.index < firstErrorIndex) {
                firstErrorIndex = done.index;
                firstError = "run " + rec.spec.id() + " failed (" +
                             statusName(rec.result.status) +
                             "): " + rec.result.error;
            }
            std::ostringstream ev;
            ev << "{\"event\": \"run\", \"index\": " << done.index
               << ", \"id\": \"" << jsonEscape(rec.spec.id())
               << "\", \"hash\": \"" << rec.spec.contentHash()
               << "\", \"source\": \"" << originName(done.origin)
               << "\", \"ok\": " << (rec.result.ok ? "true" : "false")
               << ", \"status\": \"" << statusName(rec.result.status)
               << "\", \"cycles\": " << rec.result.cycles
               << ", \"thread_instrs\": " << rec.result.threadInstrs
               << ", \"ipc\": " << fmtDouble(rec.result.ipc) << "}";
            emit(ev.str());
            if (opts.verbose)
                inform("[fabric]   ", rec.spec.id(), " <- ",
                       originName(done.origin));
        };
        executeRuns(runs, opts.jobs, resolve, sink);

        if (!firstError.empty()) {
            emitError(firstError);
            return;
        }
        std::ostringstream done;
        done << "{\"event\": \"done\", \"campaign\": \""
             << jsonEscape(spec.name) << "\", \"runs\": " << runs.size()
             << ", \"simulated\": " << nSimulated
             << ", \"cache_hits\": " << nCacheHits
             << ", \"dedup_joins\": " << nDedup << "}";
        emit(done.str());
    }

    /** Per-connection request loop. */
    void clientLoop(int fd)
    {
        std::mutex writeMu;
        std::string carry;
        std::string line;
        while (!stopping.load() && readLine(fd, carry, line)) {
            if (line.empty())
                continue;
            json::Node request;
            std::string err;
            if (!parseLine(line, "request", request, err)) {
                std::lock_guard<std::mutex> lk(writeMu);
                sendLine(fd, std::string("{\"event\": \"error\", \"message\": "
                                         "\"bad request: ") +
                                 jsonEscape(err) + "\"}");
                continue;
            }
            const std::string* op = request.findString("op");
            if (!op) {
                std::lock_guard<std::mutex> lk(writeMu);
                sendLine(fd, "{\"event\": \"error\", \"message\": "
                             "\"request is missing the \\\"op\\\" field\"}");
                continue;
            }
            if (*op == "ping") {
                std::lock_guard<std::mutex> lk(writeMu);
                sendLine(fd, "{\"event\": \"pong\"}");
            } else if (*op == "status") {
                ServiceStats s;
                size_t nInflight;
                {
                    std::lock_guard<std::mutex> lk(stateMu);
                    s = stats;
                    nInflight = inflight.size();
                }
                std::ostringstream ev;
                ev << "{\"event\": \"status\", \"submissions\": "
                   << s.submissions << ", \"runs_requested\": "
                   << s.runsRequested << ", \"simulated\": " << s.simulated
                   << ", \"cache_hits\": " << s.cacheHits
                   << ", \"memo_hits\": " << s.memoHits
                   << ", \"dedup_joins\": " << s.dedupJoins
                   << ", \"errors\": " << s.errors
                   << ", \"inflight\": " << nInflight << "}";
                std::lock_guard<std::mutex> lk(writeMu);
                sendLine(fd, ev.str());
            } else if (*op == "submit") {
                handleSubmit(fd, writeMu, request);
            } else if (*op == "shutdown") {
                // Raise the flag before acknowledging so a client that
                // received "bye" is guaranteed to observe it.
                shutdownRequested.store(true);
                {
                    std::lock_guard<std::mutex> lk(writeMu);
                    sendLine(fd, "{\"event\": \"bye\"}");
                }
                break;
            } else {
                std::lock_guard<std::mutex> lk(writeMu);
                sendLine(fd, std::string("{\"event\": \"error\", \"message\": "
                                         "\"unknown op \\\"") +
                                 jsonEscape(*op) + "\\\"\"}");
            }
        }
        {
            std::lock_guard<std::mutex> lk(clientsMu);
            clientFds.erase(std::remove(clientFds.begin(), clientFds.end(), fd),
                            clientFds.end());
            ::close(fd);
        }
    }

    void acceptLoop()
    {
        for (;;) {
            int lfd = listenFd.load();
            if (lfd < 0)
                return;
            int fd = ::accept(lfd, nullptr, nullptr);
            if (fd < 0) {
                if (stopping.load() || errno != EINTR)
                    return;
                continue;
            }
            if (stopping.load()) {
                ::close(fd);
                return;
            }
            std::lock_guard<std::mutex> lk(clientsMu);
            clientFds.push_back(fd);
            clientThreads.emplace_back([this, fd] { clientLoop(fd); });
        }
    }
};

Service::Service(ServiceOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts)))
{
}

Service::~Service()
{
    stop();
}

void
Service::start()
{
    Impl& im = *impl_;
    if (im.running.load())
        fatal("service already started");
    const std::string& path = im.opts.socketPath;
    if (path.empty())
        fatal("service needs a socket path");

    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        fatal("socket path too long: ", path);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("socket(): ", std::strerror(errno));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        if (errno == EADDRINUSE) {
            // A stale socket file from a dead service is fine to evict;
            // a live service is not.
            int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            bool live = probe >= 0 &&
                        ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                                  sizeof(addr)) == 0;
            if (probe >= 0)
                ::close(probe);
            if (live) {
                ::close(fd);
                fatal("a service is already listening on ", path);
            }
            ::unlink(path.c_str());
            if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
                0) {
                int err = errno;
                ::close(fd);
                fatal("bind(", path, "): ", std::strerror(err));
            }
        } else {
            int err = errno;
            ::close(fd);
            fatal("bind(", path, "): ", std::strerror(err));
        }
    }
    if (::listen(fd, 64) != 0) {
        int err = errno;
        ::close(fd);
        ::unlink(path.c_str());
        fatal("listen(", path, "): ", std::strerror(err));
    }
    im.listenFd = fd;
    im.stopping.store(false);
    im.running.store(true);
    im.acceptThread = std::thread([&im] { im.acceptLoop(); });
    if (im.opts.verbose)
        inform("[fabric] listening on ", path);
}

void
Service::stop()
{
    Impl& im = *impl_;
    if (!im.running.exchange(false))
        return;
    im.stopping.store(true);
    int lfd = im.listenFd.exchange(-1);
    if (lfd >= 0) {
        ::shutdown(lfd, SHUT_RDWR);
        ::close(lfd);
    }
    if (im.acceptThread.joinable())
        im.acceptThread.join();
    {
        // Wake blocked client reads; each thread closes its own fd.
        std::lock_guard<std::mutex> lk(im.clientsMu);
        for (int fd : im.clientFds)
            ::shutdown(fd, SHUT_RDWR);
    }
    // clientThreads only grows under clientsMu and no thread appends
    // after stopping, so the snapshot below is complete.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lk(im.clientsMu);
        threads.swap(im.clientThreads);
    }
    for (std::thread& t : threads)
        if (t.joinable())
            t.join();
    ::unlink(im.opts.socketPath.c_str());
    if (im.opts.verbose)
        inform("[fabric] stopped");
}

bool
Service::running() const
{
    return impl_->running.load();
}

const std::string&
Service::socketPath() const
{
    return impl_->opts.socketPath;
}

ServiceStats
Service::stats() const
{
    std::lock_guard<std::mutex> lk(impl_->stateMu);
    return impl_->stats;
}

//
// Clients.
//

SubmitResult
submitSpecText(const std::string& socketPath, const std::string& specText,
               const std::string& campaignName, std::ostream* echo,
               uint32_t timeoutSeconds)
{
    int fd = connectTo(socketPath);
    if (timeoutSeconds) {
        // Bound every blocking recv: a hung or wedged service turns
        // into a timed-out submission instead of a stuck client.
        timeval tv{};
        tv.tv_sec = timeoutSeconds;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    std::string req = std::string("{\"op\": \"submit\", \"spec\": \"") +
                      jsonEscape(specText) + "\"";
    if (!campaignName.empty())
        req += std::string(", \"name\": \"") + jsonEscape(campaignName) + "\"";
    req += "}";
    if (!sendLine(fd, req)) {
        ::close(fd);
        fatal("service at ", socketPath, " dropped the connection");
    }

    SubmitResult result;
    auto numField = [](const json::Node& event, const char* key,
                       uint64_t& out) {
        const json::Node* v = event.find(key);
        if (v && v->kind == json::Node::Kind::Integer)
            out = static_cast<uint64_t>(v->integer);
    };
    std::string carry;
    std::string line;
    bool finished = false;
    while (!finished && readLine(fd, carry, line)) {
        if (line.empty())
            continue;
        result.events.push_back(line);
        if (echo)
            *echo << line << "\n";
        json::Node event;
        std::string err;
        if (!parseLine(line, "event", event, err))
            continue; // tolerate unknown/garbled lines; wait for done/error
        const std::string* ev = event.findString("event");
        if (!ev)
            continue;
        if (*ev == "accepted") {
            if (const std::string* name = event.findString("campaign"))
                result.campaign = *name;
            numField(event, "runs", result.runs);
        } else if (*ev == "done") {
            result.ok = true;
            numField(event, "runs", result.runs);
            numField(event, "simulated", result.simulated);
            numField(event, "cache_hits", result.cacheHits);
            numField(event, "dedup_joins", result.dedupJoins);
            finished = true;
        } else if (*ev == "error") {
            result.ok = false;
            if (const std::string* msg = event.findString("message"))
                result.error = *msg;
            else
                result.error = "service reported an error";
            finished = true;
        }
    }
    int readErr = errno;
    ::close(fd);
    if (!finished) {
        result.ok = false;
        if (result.error.empty()) {
            if (timeoutSeconds &&
                (readErr == EAGAIN || readErr == EWOULDBLOCK))
                result.error = "timed out after " +
                               std::to_string(timeoutSeconds) +
                               "s waiting for the service";
            else
                result.error = "connection closed before a done/error event";
        }
    }
    return result;
}

void
requestShutdown(const std::string& socketPath)
{
    int fd = connectTo(socketPath);
    if (!sendLine(fd, "{\"op\": \"shutdown\"}")) {
        ::close(fd);
        fatal("service at ", socketPath, " dropped the connection");
    }
    std::string carry;
    std::string line;
    std::string err;
    json::Node event;
    while (readLine(fd, carry, line)) {
        if (!parseLine(line, "event", event, err))
            continue;
        const std::string* ev = event.findString("event");
        if (ev && *ev == "bye")
            break;
    }
    ::close(fd);
}

int
serveMain(const ServiceOptions& opts)
{
    // Handle SIGINT/SIGTERM by polling sigtimedwait so both a signal and
    // a client {"op": "shutdown"} unwind through the same clean stop().
    sigset_t mask;
    sigemptyset(&mask);
    sigaddset(&mask, SIGINT);
    sigaddset(&mask, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &mask, nullptr);

    Service service(opts);
    try {
        service.start();
    } catch (const FatalError& e) {
        inform(e.what());
        return 1;
    }
    inform("vortex_sweep service listening on ", opts.socketPath,
           opts.cacheDir.empty() ? "" : (" (cache: " + opts.cacheDir + ")"));

    timespec tick{};
    tick.tv_nsec = 200 * 1000 * 1000; // 200 ms between shutdown checks
    for (;;) {
        int sig = sigtimedwait(&mask, nullptr, &tick);
        if (sig == SIGINT || sig == SIGTERM) {
            inform("[fabric] signal received, shutting down");
            break;
        }
        if (service.shutdownRequestedByClient()) {
            inform("[fabric] client shutdown request, shutting down");
            break;
        }
    }
    service.stop();
    ServiceStats s = service.stats();
    inform("[fabric] served ", s.submissions, " submissions, ",
           s.runsRequested, " runs (", s.simulated, " simulated, ",
           s.cacheHits + s.memoHits, " cache/memo hits, ", s.dedupJoins,
           " dedup joins)");
    return 0;
}

bool
Service::shutdownRequestedByClient() const
{
    return impl_->shutdownRequested.load();
}

} // namespace vortex::sweep
