/**
 * @file
 * Serial and parallel core tick backends.
 */

#include "core/tick_engine.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "core/config.h"
#include "core/core.h"

namespace vortex::core {

namespace {

/** The historical backend: tick cores in index order, caller's thread. */
class SerialTickEngine final : public TickEngine
{
  public:
    void
    tick(Cycle now, const std::vector<Core*>& awake) override
    {
        for (Core* core : awake)
            core->tick(now);
    }

    const char* name() const override { return "serial"; }
    uint32_t numWorkers() const override { return 1; }
};

/**
 * Persistent thread pool ticking cores concurrently. Each cycle the
 * coordinator (the simulation thread, acting as worker 0) and the pool
 * threads meet at a start barrier, tick the awake cores of disjoint
 * interleaved core slices, and meet again at a done barrier before the
 * Processor's serial commit phase runs. The partition is static (core c
 * belongs to worker c % workers), so a core keeps its thread across pool
 * cycles; cores are independent within the tick phase, so which thread
 * ticks a core cannot affect results.
 */
class ParallelTickEngine final : public TickEngine
{
  public:
    explicit ParallelTickEngine(uint32_t workers)
        : workers_(workers),
          errors_(workers),
          start_(workers),
          done_(workers)
    {
        threads_.reserve(workers - 1);
        try {
            for (uint32_t w = 1; w < workers; ++w)
                threads_.emplace_back([this, w] { workerLoop(w); });
        } catch (...) {
            // Partial spawn: workers gate on startup_ before touching the
            // barriers (which expect all participants), so they can be
            // dismissed and joined without ever entering the tick loop.
            setStartup(Startup::Abort);
            for (std::thread& t : threads_)
                t.join();
            throw;
        }
        setStartup(Startup::Go);
    }

    ~ParallelTickEngine() override
    {
        stop_.store(true, std::memory_order_release);
        start_.arrive_and_wait(); // release workers; they observe stop_
        for (std::thread& t : threads_)
            t.join();
    }

    void
    tick(Cycle now, const std::vector<Core*>& awake) override
    {
        now_ = now;
        awake_ = &awake;
        start_.arrive_and_wait();
        tickSlice(0);
        done_.arrive_and_wait();
        rethrowFirstError();
    }

    const char* name() const override { return "parallel"; }
    uint32_t numWorkers() const override { return workers_; }

  private:
    void
    tickSlice(uint32_t worker)
    {
        try {
            for (Core* core : *awake_)
                if (core->coreId() % workers_ == worker)
                    core->tick(now_);
        } catch (...) {
            errors_[worker] = std::current_exception();
        }
    }

    void
    workerLoop(uint32_t worker)
    {
        {
            std::unique_lock<std::mutex> lock(startupMutex_);
            startupCv_.wait(lock,
                            [this] { return startup_ != Startup::Pending; });
            if (startup_ == Startup::Abort)
                return;
        }
        for (;;) {
            start_.arrive_and_wait();
            if (stop_.load(std::memory_order_acquire))
                return;
            tickSlice(worker);
            done_.arrive_and_wait();
        }
    }

    enum class Startup { Pending, Go, Abort };

    void
    setStartup(Startup s)
    {
        {
            std::lock_guard<std::mutex> lock(startupMutex_);
            startup_ = s;
        }
        startupCv_.notify_all();
    }

    /** Propagate the lowest-indexed worker's exception (deterministic). */
    void
    rethrowFirstError()
    {
        for (std::exception_ptr& e : errors_) {
            if (e) {
                std::exception_ptr first = e;
                for (std::exception_ptr& r : errors_)
                    r = nullptr;
                std::rethrow_exception(first);
            }
        }
    }

    const uint32_t workers_;
    Cycle now_ = 0;
    const std::vector<Core*>* awake_ = nullptr; ///< this cycle's, see tick()
    std::atomic<bool> stop_{false};
    std::mutex startupMutex_;
    std::condition_variable startupCv_;
    Startup startup_ = Startup::Pending;
    std::vector<std::exception_ptr> errors_;
    std::barrier<> start_;
    std::barrier<> done_;
    std::vector<std::thread> threads_;
};

} // namespace

std::unique_ptr<TickEngine>
makeTickEngine(const ArchConfig& config)
{
    uint32_t workers = 1;
    if (config.parallelTick) {
        workers = config.tickThreads != 0
                      ? config.tickThreads
                      : std::max(1u, std::thread::hardware_concurrency());
        workers = std::min(workers, config.numCores);
        workers = std::max(workers, 1u);
    }
    if (workers <= 1)
        return std::make_unique<SerialTickEngine>();
    return std::make_unique<ParallelTickEngine>(workers);
}

} // namespace vortex::core
