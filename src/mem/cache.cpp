/**
 * @file
 * Non-blocking banked cache implementation.
 */

#include "mem/cache.h"

#include <algorithm>

#include "common/bitmanip.h"
#include "common/log.h"

namespace vortex::mem {

Cache::Bank::Bank(const CacheConfig& cfg, uint32_t index)
    : input(cfg.inputQueueDepth, "bank.input"),
      pipe(cfg.pipelineLatency)
{
    (void)index;
    mshr.resize(cfg.mshrEntries);
    ways.resize(cfg.size / (cfg.lineSize * cfg.numBanks));
}

Cache::Cache(const CacheConfig& config, bool shared)
    : config_(config),
      memQueue_(config.memQueueDepth, "cache.memq"),
      stats_(config.name)
{
    if (!isPow2(config.lineSize))
        fatal("cache '", config.name, "': lineSize must be a power of two");
    if (!isPow2(config.numBanks))
        fatal("cache '", config.name, "': numBanks must be a power of two");
    if (config.numWays == 0 || config.numPorts == 0 || config.numLanes == 0 ||
        config.mshrEntries == 0)
        fatal("cache '", config.name, "': zero-sized parameter");
    numSets_ = config.size /
               (config.lineSize * config.numBanks * config.numWays);
    if (numSets_ == 0 || !isPow2(numSets_))
        fatal("cache '", config.name,
              "': size/lineSize/banks/ways must give a power-of-two number "
              "of sets >= 1, got ", numSets_);
    lineShift_ = log2Floor(config.lineSize);
    setShift_ = lineShift_ + log2Floor(config.numBanks);
    tagShift_ = setShift_ + log2Floor(numSets_);
    bankMask_ = config.numBanks - 1;
    setMask_ = numSets_ - 1;
    banks_.reserve(config.numBanks);
    for (uint32_t b = 0; b < config.numBanks; ++b)
        banks_.emplace_back(config, b);
    lanes_.reserve(config.numLanes);
    for (uint32_t l = 0; l < config.numLanes; ++l)
        lanes_.emplace_back(config.laneQueueDepth, "cache.lane");
    laneHeadBank_.assign(config.numLanes, kNoBank);
    laneWakes_.assign(config.numLanes, nullptr);
    if (shared)
        dormancy_ = std::make_unique<Dormancy<4>>(stallCounters());
}

MemSink*
Cache::link(uint32_t lane, WakeLatch* owner)
{
    laneWakes_.at(lane) = owner;
    lanePorts_.push_back(std::make_unique<CacheMemPort<Cache>>(*this, lane));
    return lanePorts_.back().get();
}

void
Cache::memRsp(const MemRsp& rsp)
{
    memRspQueue_.push_back(rsp);
    if (dormancy_)
        dormancy_->latch.wake();
    if (wakeLatch_)
        wakeLatch_->wake();
}

Cache::Way*
Cache::probe(Bank& bank, Addr addr) const
{
    const uint32_t tag = tagOf(addr);
    Way* ways = setWays(bank, addr);
    for (uint32_t w = 0; w < config_.numWays; ++w) {
        if (ways[w].valid && ways[w].tag == tag)
            return &ways[w];
    }
    return nullptr;
}

void
Cache::install(Bank& bank, Addr addr, Cycle now)
{
    // Already present (a second fill can race with flushAll in tests).
    if (Way* hit = probe(bank, addr)) {
        hit->lastUsed = now;
        return;
    }
    Way* const ways = setWays(bank, addr);
    Way* const end = ways + config_.numWays;
    // Pick an invalid way, else evict LRU.
    Way* victim = nullptr;
    for (Way* w = ways; w != end; ++w) {
        if (!w->valid) {
            victim = w;
            break;
        }
    }
    if (!victim) {
        victim = ways;
        for (Way* w = ways; w != end; ++w) {
            if (w->lastUsed < victim->lastUsed)
                victim = w;
        }
        ++ctrEvictions_;
    }
    victim->valid = true;
    victim->tag = tagOf(addr);
    victim->lastUsed = now;
}

bool
Cache::mshrHasSpace(const Bank& bank) const
{
    return bank.mshrLive < config_.mshrEntries;
}

Cache::MshrEntry*
Cache::mshrFind(Bank& bank, Addr lineAddr)
{
    for (MshrEntry& e : bank.mshr) {
        if (e.live && e.lineAddr == lineAddr)
            return &e;
    }
    return nullptr;
}

Cache::MshrEntry&
Cache::mshrFree(Bank& bank)
{
    for (MshrEntry& e : bank.mshr) {
        if (!e.live)
            return e;
    }
    panic("cache '", config_.name, "': no free MSHR slot");
}

bool
Cache::drainPipes(Cycle now)
{
    if (pipeWork_ == 0)
        return false;
    const size_t before = pipeWork_;
    for (Bank& bank : banks_) {
        while (const PipeOp* op = bank.pipe.readyFront(now)) {
            --pipeWork_;
            if (op->memReq) {
                // Space was reserved with an early-full check at schedule.
                memQueue_.push(*op->memReq);
            }
            for (const PortReq& p : op->ports) {
                if (rspCallback_)
                    rspCallback_(CoreRsp{p.reqId, p.lane, op->write});
                ++ctrCoreRsps_;
            }
            bank.pipe.pop();
        }
    }
    return pipeWork_ != before;
}

bool
Cache::drainMemQueue()
{
    bool moved = false;
    while (!memQueue_.empty() && memSink_ && memSink_->reqReady()) {
        memSink_->reqPush(memQueue_.front());
        memQueue_.pop();
        ++ctrMemReqs_;
        moved = true;
    }
    return moved;
}

bool
Cache::schedule(Cycle now)
{
    if (bankWork_ == 0)
        return false;
    bool moved = false;
    // Count memory-queue credits consumed this cycle across banks so two
    // banks cannot both claim the last slot.
    size_t memq_free = memQueue_.capacity() - memQueue_.size();
    // Subtract credits already promised to ops still inside bank pipes.
    size_t promised = pipePromisedMemReqs_;
    memq_free = memq_free > promised ? memq_free - promised : 0;

    for (Bank& bank : banks_) {
        // Priority 1: replay a filled MSHR entry (one per cycle).
        if (!bank.replayQueue.empty()) {
            PipeOp& op = bank.pipe.enqueueSlot(now);
            op.ports = bank.replayQueue.front();
            op.write = false;
            op.memReq.reset();
            bank.replayQueue.pop_front();
            --bankWork_;
            ++pipeWork_;
            ++ctrMshrReplays_;
            moved = true;
            continue;
        }
        // Priority 2: install an arrived fill and stage its replays.
        if (!bank.fillQueue.empty()) {
            Addr line_addr = bank.fillQueue.front();
            bank.fillQueue.pop_front();
            --bankWork_;
            install(bank, line_addr, now);
            // Move the MSHR entry waiting on this line (merged misses
            // included) to the replay queue.
            if (MshrEntry* entry = mshrFind(bank, line_addr)) {
                bank.replayQueue.push_back(entry->ports);
                ++bankWork_;
                entry->live = false;
                --bank.mshrLive;
            }
            ++ctrFills_;
            moved = true;
            continue;
        }
        // Priority 3: a core request from the bank input FIFO.
        if (bank.input.empty())
            continue;
        const BankReq& req = bank.input.front();
        if (req.write) {
            // Write-through: needs a memory-queue slot (early-full check).
            if (memq_free == 0) {
                ++ctrMemqStalls_;
                continue;
            }
            --memq_free;
            ++pipePromisedMemReqs_;
            if (Way* way = probe(bank, req.lineAddr)) {
                way->lastUsed = now;
                ++ctrWriteHits_;
            } else {
                ++ctrWriteMisses_;
            }
            MemReq mreq;
            mreq.lineAddr = req.lineAddr;
            mreq.write = true;
            PipeOp& op = bank.pipe.enqueueSlot(now);
            op.ports = req.ports;
            op.write = true;
            op.memReq = mreq;
            ++pipeWork_;
            bank.input.pop();
            --bankWork_;
            moved = true;
            continue;
        }
        // Read.
        if (Way* way = probe(bank, req.lineAddr)) {
            way->lastUsed = now;
            ++ctrReadHits_;
            PipeOp& op = bank.pipe.enqueueSlot(now);
            op.ports = req.ports;
            op.write = false;
            op.memReq.reset();
            ++pipeWork_;
            bank.input.pop();
            --bankWork_;
            moved = true;
            continue;
        }
        // Read miss: merge into a pending MSHR entry if one exists.
        if (MshrEntry* entry = mshrFind(bank, req.lineAddr)) {
            entry->ports.append(req.ports.begin(), req.ports.end());
            ++ctrMshrMerges_;
            ++ctrReadMisses_;
            bank.input.pop();
            --bankWork_;
            moved = true;
            continue;
        }
        // New miss: needs an MSHR entry and a memory-queue slot.
        if (!mshrHasSpace(bank)) {
            ++ctrMshrStalls_;
            continue;
        }
        if (memq_free == 0) {
            ++ctrMemqStalls_;
            continue;
        }
        --memq_free;
        ++pipePromisedMemReqs_;
        ++ctrReadMisses_;
        MemReq mreq;
        mreq.lineAddr = req.lineAddr;
        mreq.write = false;
        mreq.reqId = fillPool_.alloc(
            PendingFill{static_cast<uint32_t>(&bank - banks_.data()),
                        req.lineAddr});
        MshrEntry& entry = mshrFree(bank);
        entry.live = true;
        entry.lineAddr = req.lineAddr;
        entry.ports = req.ports;
        ++bank.mshrLive;
        // The op carries only the memory request; responses come later.
        PipeOp& op = bank.pipe.enqueueSlot(now);
        op.ports.clear();
        op.write = false;
        op.memReq = mreq;
        ++pipeWork_;
        bank.input.pop();
        --bankWork_;
        moved = true;
    }
    return moved;
}

bool
Cache::selectBanks(Cycle now)
{
    (void)now;
    // Skip the bank x lane scan on the (common) cycles with no queued
    // lane requests at all.
    if (pendingLaneReqs_ == 0)
        return false;
    const uint32_t num_lanes = config_.numLanes;
    for (uint32_t l = 0; l < num_lanes; ++l)
        laneHeadBank_[l] =
            lanes_[l].empty() ? kNoBank : bankOf(lanes_[l].front().addr);
    bool moved = false;
    // Gather head-of-queue candidates per bank.
    for (uint32_t b = 0; b < config_.numBanks; ++b) {
        Bank& bank = banks_[b];
        // Find candidate lanes.
        uint32_t candidates = 0;
        for (uint32_t l = 0; l < num_lanes; ++l)
            candidates += laneHeadBank_[l] == b;
        if (candidates == 0)
            continue;
        ctrSelCandidates_ += candidates;
        if (bank.input.full()) {
            ctrSelInputFull_ += candidates;
            continue;
        }
        // Take the first candidate's line; coalesce same-line, same-type
        // requests into the virtual ports. The first candidate is always
        // taken, so the request is built in its bank-input slot.
        BankReq& breq = bank.input.pushSlot();
        breq.ports.clear();
        uint32_t taken = 0;
        for (uint32_t l = 0; l < num_lanes; ++l) {
            if (laneHeadBank_[l] != b)
                continue;
            auto& lane = lanes_[l];
            const CoreReq& creq = lane.front();
            Addr line_addr = lineAddrOf(creq.addr);
            if (taken == 0) {
                breq.lineAddr = line_addr;
                breq.write = creq.write;
            } else if (line_addr != breq.lineAddr ||
                       creq.write != breq.write ||
                       taken >= config_.numPorts) {
                continue; // bank conflict: stays for a later cycle
            }
            breq.ports.push_back(PortReq{creq.reqId, l});
            // A full lane regaining a slot is the credit its (possibly
            // dormant) producer waits on.
            if (laneWakes_[l] && lane.full())
                laneWakes_[l]->wake();
            lane.pop();
            --pendingLaneReqs_;
            ++taken;
            // The next request (if any) competes for the later banks
            // this cycle, exactly as a fresh head would.
            laneHeadBank_[l] =
                lane.empty() ? kNoBank : bankOf(lane.front().addr);
        }
        ++bankWork_;
        ctrSelAccepted_ += taken;
        ctrSelConflicts_ += candidates - taken;
        moved = true;
    }
    return moved;
}

// Flattened: the five phases compile into one body per cache-cycle
// (ARCHITECTURE.md "The inline hot path").
[[gnu::flatten]] bool
Cache::tick(Cycle now)
{
    // 1. Matured pipeline ops emit responses / memory requests.
    size_t memq_before = memQueue_.size();
    bool moved = drainPipes(now);
    size_t emitted = memQueue_.size() - memq_before;
    pipePromisedMemReqs_ -= std::min(pipePromisedMemReqs_, emitted);

    // 2. Forward memory requests downstream.
    moved |= drainMemQueue();

    // 3. Absorb memory responses into per-bank fill queues. A response
    // whose id the pool does not hold panics there ("unmatched request
    // id"), preserving the old unknown-fill check.
    while (!memRspQueue_.empty()) {
        const MemRsp& rsp = memRspQueue_.front();
        PendingFill fill = fillPool_.take(rsp.reqId);
        banks_[fill.bank].fillQueue.push_back(fill.lineAddr);
        ++bankWork_;
        memRspQueue_.pop_front();
        moved = true;
    }

    // 4. Bank schedulers issue one operation each.
    moved |= schedule(now);

    // 5. Front-end bank selector moves lane heads into bank FIFOs.
    moved |= selectBanks(now);
    return moved;
}

void
Cache::tickShared(Cycle now)
{
    dormancy_->beginTick(now);
    if (!tick(now))
        dormancy_->sleep(now, nextEventAt());
}

Cycle
Cache::nextEventAt() const
{
    Cycle next = kNoEvent;
    if (pipeWork_ == 0)
        return next;
    for (const Bank& bank : banks_)
        next = std::min(next, bank.pipe.nextReadyAt());
    return next;
}

bool
Cache::idle() const
{
    if (!memQueue_.empty() || !memRspQueue_.empty() || !fillPool_.empty())
        return false;
    for (const auto& lane : lanes_) {
        if (!lane.empty())
            return false;
    }
    for (const Bank& bank : banks_) {
        if (!bank.input.empty() || !bank.replayQueue.empty() ||
            !bank.fillQueue.empty() || bank.mshrLive != 0 ||
            !bank.pipe.empty())
            return false;
    }
    return true;
}

void
Cache::flushAll()
{
    for (Bank& bank : banks_) {
        for (Way& w : bank.ways)
            w.valid = false;
    }
    ++ctrFlushes_;
}

double
Cache::bankUtilization() const
{
    uint64_t total = ctrSelAccepted_ + ctrSelConflicts_;
    return total == 0 ? 1.0 : static_cast<double>(ctrSelAccepted_) / total;
}

} // namespace vortex::mem
