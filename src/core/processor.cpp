/**
 * @file
 * Processor wiring and run loop.
 */

#include "core/processor.h"

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

namespace {

/** Connect @p upstream's memory side to lane @p lane of @p downstream. */
void
linkCacheToCache(mem::Cache& upstream, mem::Cache& downstream, uint32_t lane,
                 std::vector<std::unique_ptr<mem::MemSink>>& adapters)
{
    adapters.push_back(
        std::make_unique<mem::CacheMemPort>(downstream, lane));
    upstream.connectMem(adapters.back().get());
}

} // namespace

void
Processor::connectStaged(Core& core, mem::Cache& l1, mem::MemSink* down)
{
    auto& port = stagedPorts_.at(core.coreId())[&l1 == &core.icache() ? 0
                                                                       : 1];
    if (port)
        panic("core ", core.coreId(), " L1 staged twice");
    port = std::make_unique<mem::StagedMemPort>(
        down, l1.config().memQueueDepth, core.wakeLatch());
    l1.connectMem(port.get());
}

void
Processor::linkStagedL1(Core& core, mem::Cache& l1, mem::Cache& downstream,
                        uint32_t lane)
{
    adapters_.push_back(std::make_unique<mem::CacheMemPort>(downstream, lane));
    connectStaged(core, l1, adapters_.back().get());
    downstream.setLaneWake(lane, core.wakeLatch());
}

void
Processor::wire()
{
    const uint32_t num_clusters = config_.numClusters();

    memRouter_ = std::make_unique<mem::MemRouter>(memSim_.get());
    memSim_->setRspCallback(
        [this](const mem::MemRsp& rsp) { memRouter_->onRsp(rsp); });

    //
    // Optional L3 in front of the board memory.
    //
    if (config_.l3Enabled) {
        mem::CacheConfig c3 = config_.l3Config();
        c3.numLanes = config_.l2Enabled ? num_clusters
                                        : 2 * config_.numCores;
        l3_ = std::make_unique<mem::Cache>(c3, /*shared=*/true);
        l3_->connectMem(memRouter_->makePort(
            [this](const mem::MemRsp& rsp) { l3_->memRsp(rsp); }));
        memSim_->addCreditWake(l3_->sleepLatch());
    }

    //
    // Per-cluster L2s (or direct connection).
    //
    if (config_.l2Enabled) {
        l2s_.resize(num_clusters);
        for (uint32_t cl = 0; cl < num_clusters; ++cl) {
            uint32_t first_core = cl * config_.coresPerCluster;
            uint32_t cores_here =
                std::min(config_.coresPerCluster,
                         config_.numCores - first_core);
            l2s_[cl] = std::make_unique<mem::Cache>(
                config_.l2Config(cores_here), /*shared=*/true);
            mem::Cache& l2 = *l2s_[cl];

            // L2 responses route back to the owning L1 by lane. L1 request
            // sides go through staging ports, drained in core order in the
            // commit phase, so no core's tick touches the shared L2.
            std::vector<mem::Cache*> owners(2 * cores_here, nullptr);
            for (uint32_t i = 0; i < cores_here; ++i) {
                Core& core = *cores_[first_core + i];
                owners[2 * i] = &core.icache();
                owners[2 * i + 1] = &core.dcache();
                linkStagedL1(core, core.icache(), l2, 2 * i);
                linkStagedL1(core, core.dcache(), l2, 2 * i + 1);
            }
            l2.setRspCallback([owners](const mem::CoreRsp& rsp) {
                if (rsp.write)
                    return; // write-through completions need no routing
                owners.at(rsp.lane)->memRsp(mem::MemRsp{rsp.reqId});
            });

            // L2 memory side: into the L3 if present, else board memory.
            // Either way, the credit the L2 can sleep on wakes it.
            if (l3_) {
                linkCacheToCache(l2, *l3_, cl, adapters_);
                l3_->setLaneWake(cl, l2.sleepLatch());
            } else {
                l2.connectMem(memRouter_->makePort(
                    [&l2](const mem::MemRsp& rsp) { l2.memRsp(rsp); }));
                memSim_->addCreditWake(l2.sleepLatch());
            }
        }
        if (l3_) {
            l3_->setRspCallback([this](const mem::CoreRsp& rsp) {
                if (rsp.write)
                    return;
                l2s_.at(rsp.lane)->memRsp(mem::MemRsp{rsp.reqId});
            });
        }
        return;
    }

    //
    // No L2: L1s go straight to the L3 or the board memory.
    //
    if (l3_) {
        std::vector<mem::Cache*> owners(2 * config_.numCores, nullptr);
        for (uint32_t i = 0; i < config_.numCores; ++i) {
            Core& core = *cores_[i];
            owners[2 * i] = &core.icache();
            owners[2 * i + 1] = &core.dcache();
            linkStagedL1(core, core.icache(), *l3_, 2 * i);
            linkStagedL1(core, core.dcache(), *l3_, 2 * i + 1);
        }
        l3_->setRspCallback([owners](const mem::CoreRsp& rsp) {
            if (rsp.write)
                return;
            owners.at(rsp.lane)->memRsp(mem::MemRsp{rsp.reqId});
        });
        return;
    }
    for (auto& core : cores_) {
        for (mem::Cache* l1 : {&core->icache(), &core->dcache()})
            connectStaged(*core, *l1, memRouter_->makePort(
                [l1](const mem::MemRsp& rsp) { l1->memRsp(rsp); }));
        memSim_->addCreditWake(core->wakeLatch());
    }
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
