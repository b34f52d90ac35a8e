/**
 * @file
 * Processor wiring and run loop.
 */

#include "core/processor.h"

#include <utility>

#include "common/log.h"
#include "common/outcome.h"

namespace vortex::core {

Processor::Processor(const ArchConfig& config)
    : config_(config), sampler_(config.sampleInterval)
{
    if (config.numThreads == 0 || config.numThreads > 64)
        fatal("numThreads must be in [1, 64]");
    if (config.numWarps == 0 || config.numWarps > 64)
        fatal("numWarps must be in [1, 64]");
    if (config.numCores == 0)
        fatal("numCores must be >= 1");
    if (config.coresPerCluster == 0)
        fatal("coresPerCluster must be >= 1");
    if (config.lsuDepth == 0)
        fatal("lsuDepth must be >= 1");
    if (config.ibufferDepth == 0)
        fatal("ibufferDepth must be >= 1");
    if (config.smemLatency == 0)
        fatal("smemLatency must be >= 1");
    if (config.mem.queueDepth == 0)
        fatal("mem.queueDepth must be >= 1");
    if (config.mem.busWidth == 0)
        fatal("mem.busWidth must be >= 1");
    const std::pair<const char*, uint32_t> fuLatencies[] = {
        {"lat.alu", config.lat.alu},     {"lat.mul", config.lat.mul},
        {"lat.div", config.lat.div},     {"lat.fpu", config.lat.fpu},
        {"lat.fcvt", config.lat.fcvt},   {"lat.fdiv", config.lat.fdiv},
        {"lat.fsqrt", config.lat.fsqrt}, {"lat.sfu", config.lat.sfu}};
    for (const auto& [field, cycles] : fuLatencies)
        if (cycles == 0)
            fatal(field, " must be >= 1");
    memSim_ = std::make_unique<mem::MemSim>(config.mem);
    for (uint32_t c = 0; c < config.numCores; ++c)
        cores_.push_back(std::make_unique<Core>(config, c, ram_, text_, this));
    stagedPorts_.resize(config.numCores);
    wire();
    for (const auto& ports : stagedPorts_)
        for (const auto& port : ports)
            if (!port)
                panic("every core needs an I$ and a D$ staging port");
    pendingArrivals_.resize(config.numCores);
    awake_.reserve(cores_.size());
}

void
Processor::wire()
{
    // Each downstream and the caches above it, in lane order. An L1 (a
    // core's I$ then D$) enters its cluster's L2, else the L3, else the
    // board memory; an L2 enters the L3, else the board memory.
    struct Upstream
    {
        mem::Cache* cache;
        Core* core; ///< the owning core of an L1; null for an L2
    };
    // One link call per edge: the upstream enters the lane of its
    // position and its read responses return on that lane. An L1 goes
    // through its core's staging port, drained in core order in the
    // commit phase, and the lane's credit wakes its core; an L2 links
    // directly and the credit wakes the L2.
    auto link = [this](auto& down, const std::vector<Upstream>& ups) {
        std::vector<mem::Cache*> caches;
        for (const auto& [cache, core] : ups) {
            const uint32_t lane = caches.size();
            caches.push_back(cache);
            if (!core) {
                cache->connectMem(down.link(lane, cache->sleepLatch()));
                continue;
            }
            auto& port = stagedPorts_.at(core->coreId())
                                     [cache == &core->icache() ? 0 : 1];
            port = std::make_unique<mem::StagedMemPort>(
                down.link(lane, core->wakeLatch()),
                cache->config().memQueueDepth, core->wakeLatch());
            cache->connectMem(port.get());
        }
        down.setRspCallback([caches](const mem::CoreRsp& rsp) {
            if (!rsp.write) // write-through completions go no further
                caches[rsp.lane]->memRsp(mem::MemRsp{rsp.reqId});
        });
    };

    std::vector<Upstream> top; // the caches above the next level down
    for (auto& core : cores_)
        for (mem::Cache* l1 : {&core->icache(), &core->dcache()})
            top.push_back({l1, core.get()});
    if (config_.l2Enabled) {
        std::vector<Upstream> l2s;
        const size_t per_cluster = 2 * config_.coresPerCluster;
        for (size_t first = 0; first < top.size(); first += per_cluster) {
            const auto begin = top.begin() + first;
            const size_t n = std::min(per_cluster, top.size() - first);
            l2s_.push_back(std::make_unique<mem::Cache>(
                config_.l2Config(n / 2), /*shared=*/true));
            link(*l2s_.back(), {begin, begin + n});
            l2s.push_back({l2s_.back().get(), nullptr});
        }
        top = std::move(l2s);
    }
    if (config_.l3Enabled) {
        l3_ = std::make_unique<mem::Cache>(config_.l3Config(),
                                           /*shared=*/true);
        link(*l3_, top);
        top = {{l3_.get(), nullptr}};
    }
    link(*memSim_, top);
}

void
Processor::start()
{
    for (auto& core : cores_)
        core->start();
}

void
Processor::tick()
{
    ++cycles_;
    memSim_->tick(cycles_);
    // Shared levels and cores that sleep through this cycle are skipped
    // (ARCHITECTURE.md "Dormant cores and caches"). Every wake lands
    // outside the core phase, so the awake set is fixed before it.
    if (l3_ && !l3_->asleep(cycles_))
        l3_->tickShared(cycles_);
    for (auto& l2 : l2s_)
        if (!l2->asleep(cycles_))
            l2->tickShared(cycles_);
    // A store to code since the last tick (a fault, a self-patching
    // guest, a reload) left the text stale: decode it again.
    text_.refresh();
    awake_.clear();
    for (auto& core : cores_)
        if (!core->asleep(cycles_))
            awake_.push_back(core.get());
    // Core phase: a core touches only its own state and its staging
    // buffers, so the order it runs in is free (setReverseCoreOrder).
    if (reverseCoreOrder_) {
        for (auto it = awake_.rbegin(); it != awake_.rend(); ++it)
            (*it)->tick(cycles_);
    } else {
        for (Core* core : awake_)
            core->tick(cycles_);
    }
    commitCrossCore();
    // Fault injection lands here, after the commit phase and before
    // sampling, where no core is mid-tick (src/faults/fault.h).
    if (faultHook_)
        faultHook_(*this, cycles_);
    // Sampling happens after the commit phase: every cross-core effect of
    // this cycle has landed (the sampling half of the determinism
    // contract).
    if (sampler_.due(cycles_)) {
        StatGroup snapshot;
        collectStats(snapshot);
        sampler_.sample(cycles_, snapshot);
    }
}

void
Processor::commitCrossCore()
{
    // Only cores that ticked this cycle can have staged anything new. A
    // leftover a sleeping core staged earlier waits on a credit (a full
    // shared lane popped, or the full board-memory queue accepting a
    // transfer) that wakes that core first, so it is drained no later
    // than a drain of every port would move it.
    //
    // Staged L1 memory requests enter the shared fabric in core order
    // (each core's I$ then D$ port), whatever order the cores ticked in.
    for (const Core* core : awake_)
        for (const auto& port : stagedPorts_[core->coreId()])
            port->drain();
    // Global barrier arrivals, also in core order. Releases take effect
    // next cycle for every wavefront.
    for (const Core* core : awake_) {
        const CoreId c = core->coreId();
        for (const PendingArrival& a : pendingArrivals_[c]) {
            for (const auto& r :
                 globalBarriers_.arrive(a.id, a.count, c, a.wid))
                cores_.at(r.core)->releaseBarrierWarp(r.warp);
        }
        pendingArrivals_[c].clear();
    }
}

void
Processor::settle()
{
    for (auto& core : cores_)
        core->settle(cycles_);
    if (l3_)
        l3_->settle(cycles_);
    for (auto& l2 : l2s_)
        l2->settle(cycles_);
}

bool
Processor::busy() const
{
    for (const auto& core : cores_) {
        if (core->busy())
            return true;
    }
    if (!memSim_->idle())
        return true;
    for (const auto& l2 : l2s_) {
        if (!l2->idle())
            return true;
    }
    if (l3_ && !l3_->idle())
        return true;
    for (const auto& ports : stagedPorts_) {
        for (const auto& port : ports)
            if (!port->empty())
                return true;
    }
    return false;
}

bool
Processor::run(uint64_t max_cycles)
{
    while (busy()) {
        if (cycles_ >= max_cycles) {
            settle();
            return false;
        }
        // Host-deadline poll (fabric per-simulation wall-clock budget).
        // Every 8192 cycles keeps the check off the hot path; the
        // deadline is a robustness bound, not a simulated event, so the
        // coarse granularity does not affect determinism of results —
        // aborted runs are failures and are never cached.
        if (abortCheck_ && (cycles_ & 0x1FFF) == 0 && abortCheck_())
            trap(RunStatus::Timeout,
                 "run aborted: host wall-clock deadline exceeded after ",
                 cycles_, " cycles");
        tick();
    }
    settle();
    // Close the series with the end-of-run remainder window (a no-op when
    // sampling is disabled or the run ended exactly on a boundary), so
    // summing a counter's deltas always reproduces its final value.
    if (sampler_.enabled()) {
        StatGroup snapshot;
        collectStats(snapshot);
        sampler_.finalize(cycles_, snapshot);
    }
    return true;
}

namespace {

/** Flatten @p group into @p flat under "<prefix>.<key>" names. */
void
flatten(StatGroup& flat, const std::string& prefix, const StatGroup& group)
{
    for (const auto& [k, v] : group.all())
        flat.counter(prefix + "." + k) += v;
}

} // namespace

void
Processor::collectStats(StatGroup& flat)
{
    settle();
    flat.counter("core.thread_instrs") += threadInstrs();
    flat.counter("core.warp_instrs") += warpInstrs();
    StatGroup cores, icache, dcache, smem, tex;
    for (auto& core : cores_) {
        cores.add(core->stats());
        icache.add(core->icache().stats());
        dcache.add(core->dcache().stats());
        smem.add(core->sharedMem().stats());
        if (core->texUnit())
            tex.add(core->texUnit()->stats());
    }
    flatten(flat, "core", cores);
    flatten(flat, "icache", icache);
    flatten(flat, "dcache", dcache);
    flatten(flat, "smem", smem);
    flatten(flat, "tex", tex);
    StatGroup l2;
    for (auto& c : l2s_)
        l2.add(c->stats());
    flatten(flat, "l2", l2);
    if (l3_)
        flatten(flat, "l3", l3_->stats());
    flatten(flat, "mem", memSim_->stats());
}

uint64_t
Processor::threadInstrs() const
{
    uint64_t sum = 0;
    for (const auto& core : cores_)
        sum += core->threadInstrs();
    return sum;
}

uint64_t
Processor::warpInstrs() const
{
    uint64_t sum = 0;
    for (const auto& core : cores_)
        sum += core->warpInstrs();
    return sum;
}

double
Processor::ipc() const
{
    return cycles_ == 0 ? 0.0
                        : static_cast<double>(threadInstrs()) /
                              static_cast<double>(cycles_);
}

void
Processor::globalArrive(uint32_t id, uint32_t count, CoreId core, WarpId wid)
{
    // Called during the core phase. Each core appends only to its own
    // buffer; the arrivals are applied in core order in commitCrossCore().
    pendingArrivals_.at(core).push_back(PendingArrival{id, count, wid});
}

} // namespace vortex::core
