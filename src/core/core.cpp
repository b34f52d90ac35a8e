/**
 * @file
 * SIMT core pipeline implementation.
 */

#include "core/core.h"

#include <algorithm>

#include "common/bitmanip.h"
#include "common/log.h"
#include "common/outcome.h"
#include "isa/csr.h"

namespace vortex::core {

Core::Core(const ArchConfig& config, CoreId core_id, mem::Ram& ram,
           const DecodedText& text, BarrierHub* hub)
    : config_(config),
      coreId_(core_id),
      ram_(ram),
      text_(text),
      hub_(hub),
      icache_(std::make_unique<mem::Cache>(config.icacheConfig())),
      dcache_(std::make_unique<mem::Cache>(config.dcacheConfig())),
      scheduler_(config.numWarps, config.schedPolicy),
      scoreboard_(config.numWarps),
      alu_(2, "alu.input"),
      muldiv_(2, "muldiv.input"),
      fpu_(2, "fpu.input"),
      sfu_(2, "sfu.input"),
      stats_("core")
{
    smem_ = std::make_unique<mem::SharedMem>(config.smemConfig());
    icache_->setWakeLatch(wakeLatch());
    dcache_->setWakeLatch(wakeLatch());

    if (config.texEnabled) {
        tex::TexUnitConfig tc;
        tc.numThreads = config.numThreads;
        tc.cacheLaneBase = config.numThreads;
        tc.numCacheLanes = config.numThreads;
        texUnit_ = std::make_unique<tex::TexUnit>(
            tc, ram_, dcache_.get(), [this] { return allocTexelReqId(); });
        texUnit_->setRspCallback([this](const tex::TexResponse& rsp) {
            // A stale, duplicate or foreign id panics in the arena (the
            // old "unmatched texture response" check).
            const UopHandle h = uops_.redeem(rsp.reqId);
            uops_[h].out.values.assign(rsp.colors.begin(), rsp.colors.end());
            texDone_.push_back(h);
        });
    }

    warps_.reserve(config.numWarps);
    for (uint32_t wid = 0; wid < config.numWarps; ++wid)
        warps_.emplace_back(config.numThreads);
    decodeQueue_.reserve(config.numWarps); // one fetch per wavefront
    for (uint32_t wid = 0; wid < config.numWarps; ++wid)
        ibuffers_.emplace_back(config.ibufferDepth, "ibuffer");
    lsuOps_.reserve(config.lsuDepth);

    icache_->setRspCallback([this](const mem::CoreRsp& rsp) {
        // A stale, duplicate or foreign id panics in the arena (the old
        // "unmatched fetch response" check).
        const UopHandle h = uops_.redeem(rsp.reqId);
        uops_[h].readyAt = curCycle_ + 1;
        decodeQueue_.push_back(h);
    });

    dcache_->setRspCallback([this](const mem::CoreRsp& rsp) {
        // Texel fetches carry their own id kind, so LSU responses skip
        // the texture unit's pending-set probe entirely.
        if ((rsp.reqId & kReqKindMask) == kTexelReqBase && texUnit_ &&
            texUnit_->cacheRsp(rsp))
            return;
        onLsuRsp(rsp.reqId);
    });
    smem_->setRspCallback(
        [this](const mem::CoreRsp& rsp) { onLsuRsp(rsp.reqId); });
}

std::array<uint64_t*, Core::kStallCounters>
Core::stallCounters()
{
    std::array<uint64_t*, kStallCounters> all{
        &ctrFetchIcacheStalls_, &ctrIssueScoreboardStalls_,
        &ctrIssueStructuralStalls_};
    size_t slot = 3;
    for (mem::Cache* l1 : {icache_.get(), dcache_.get()})
        for (uint64_t* ctr : l1->stallCounters())
            all[slot++] = ctr;
    return all;
}

void
Core::onLsuRsp(uint64_t req_id)
{
    // A stale or foreign id panics in the pool (the old "unmatched LSU
    // response" check).
    Uop& uop = uops_[lsuRspPool_.take(req_id)];
    if (uop.pendingRsps == 0)
        panic("core ", coreId_, ": LSU response underflow");
    --uop.pendingRsps;
    if (uop.pendingRsps == 0 && uop.lanesToIssue == 0)
        uop.memDone = true;
}

void
Core::reset()
{
    for (Warp& w : warps_)
        w.reset(0, 0);
    scheduler_.reset();
    scoreboard_.reset();
    barriers_.clear();
    uops_.clear();
    fetchOutstanding_ = 0;
    ibufFull_ = 0;
    decodeQueue_.clear();
    for (auto& ib : ibuffers_)
        ib.clear();
    for (FuPipe* fu : {&alu_, &muldiv_, &fpu_, &sfu_}) {
        fu->input.clear();
        fu->inflight.clear();
        fu->output.clear();
        fu->busyUntil = 0;
    }
    lsuOps_.clear();
    lsuRspPool_.clear();
    texDone_.clear();
    softCsrs_.clear();
    issueRR_ = 0;
    dormancy_.latch.wake();
}

void
Core::start()
{
    reset();
    warps_[0].reset(config_.startPC, 1);
    scheduler_.setActive(0, true);
}

void
Core::activateWarp(WarpId wid, Addr pc)
{
    if (wid >= config_.numWarps)
        return;
    warps_[wid].reset(pc, 1);
    scheduler_.setActive(wid, true);
    ++ctrWspawned_;
    dormancy_.latch.wake();
}

void
Core::releaseBarrierWarp(WarpId wid)
{
    scheduler_.setBarrier(wid, false);
    dormancy_.latch.wake();
}

Word
Core::csrRead(uint32_t addr, WarpId wid, ThreadId tid) const
{
    using namespace isa;
    switch (addr) {
      case CSR_CYCLE: return static_cast<Word>(cycles());
      case CSR_CYCLEH: return static_cast<Word>(cycles() >> 32);
      case CSR_INSTRET: return static_cast<Word>(warpInstrs_);
      case CSR_INSTRETH: return static_cast<Word>(warpInstrs_ >> 32);
      case CSR_THREAD_ID: return tid;
      case CSR_WARP_ID: return wid;
      case CSR_CORE_ID: return coreId_;
      case CSR_WARP_MASK:
        return static_cast<Word>(scheduler_.activeMask());
      case CSR_THREAD_MASK:
        return static_cast<Word>(warps_[wid].tmask);
      case CSR_NUM_THREADS: return config_.numThreads;
      case CSR_NUM_WARPS: return config_.numWarps;
      case CSR_NUM_CORES: return config_.numCores;
      default:
        break;
    }
    if (addr >= CSR_TEX_BASE &&
        addr < CSR_TEX_BASE + kNumTexStages * CSR_TEX_STRIDE && texUnit_)
        return texUnit_->csrRead(addr);
    auto it = softCsrs_.find(addr);
    return it == softCsrs_.end() ? 0 : it->second;
}

void
Core::csrWrite(uint32_t addr, Word value, WarpId wid)
{
    using namespace isa;
    (void)wid;
    if (addr >= CSR_TEX_BASE &&
        addr < CSR_TEX_BASE + kNumTexStages * CSR_TEX_STRIDE) {
        if (texUnit_)
            texUnit_->csrWrite(addr, value);
        return;
    }
    softCsrs_[addr] = value;
}

//
// Pipeline.
//

// Flattened: the six stages and the FU, LSU and L1-lane helpers they
// call compile into one body per core-cycle
// (ARCHITECTURE.md "The inline hot path").
[[gnu::flatten]] void
Core::tick(Cycle now)
{
    curCycle_ = now;
    dormancy_.beginTick(now);
    progress_ = false;

    // A quiet L1 or scratchpad tick, or an idle texture unit's, changes
    // nothing, so it is not called (ARCHITECTURE.md "The lean awake
    // core-cycle"). The texture unit ticks first: a texel request it
    // pushes makes the D$ not quiet.
    if (texUnit_ && !texUnit_->idle())
        texUnit_->tick(now);
    if (!dcache_->quiet())
        progress_ |= dcache_->tick(now);
    if (!icache_->quiet())
        progress_ |= icache_->tick(now);
    if (!smem_->quiet())
        progress_ |= smem_->tick(now);

    commitStage(now);
    executeTick(now);
    lsuTick(now);
    issueStage(now);
    decodeStage(now);
    fetchStage(now);

    if (!progress_ && (!texUnit_ || texUnit_->idle()))
        dormancy_.sleep(now, nextEventAt());
}

Cycle
Core::nextEventAt() const
{
    Cycle next = std::min({icache_->nextEventAt(), dcache_->nextEventAt(),
                           smem_->nextEventAt()});
    if (!decodeQueue_.empty())
        next = std::min(next, uops_[decodeQueue_.front()].readyAt);
    for (const FuPipe* fu : {&alu_, &muldiv_, &fpu_, &sfu_}) {
        for (UopHandle h : fu->inflight)
            next = std::min(next, uops_[h].readyAt);
        // An iterative op waiting for the unit to free up.
        if (!fu->input.empty() && fu->busyUntil > curCycle_)
            next = std::min(next, fu->busyUntil);
    }
    return next;
}

void
Core::fetchStage(Cycle now)
{
    (void)now;
    if (!icache_->laneReady(0)) {
        ++ctrFetchIcacheStalls_;
        return;
    }
    // select() keeps only active wavefronts, so the bits above numWarps
    // that this complement sets never matter.
    auto sel = scheduler_.select(~(fetchOutstanding_ | ibufFull_));
    if (!sel)
        return;
    WarpId wid = *sel;
    Warp& w = warps_[wid];

    // A fetch inside the processor's decoded text skips read32 + decode
    // while no store has hit code since it was decoded; any other fetch
    // decodes from RAM (invalidation contract in core/text.h).
    isa::Instr decoded;
    const isa::Instr* hit = text_.find(w.pc);
    if (!hit)
        decoded = text_.decodeAt(w.pc);
    const isa::Instr& instr = hit ? *hit : decoded;
    if (!instr.valid())
        trap(RunStatus::GuestTrap, "core ", coreId_, " warp ", wid,
             ": invalid instruction 0x", std::hex, instr.raw,
             " at PC 0x", w.pc);

    const UopHandle h = uops_.acquire();
    Uop& uop = uops_[h];
    uop.instr = instr;
    uop.pc = w.pc;
    uop.wid = wid;
    uop.uid = nextUid_++;

    // Control instructions stall further fetch of this wavefront until the
    // new PC / thread state resolves at execute (§4.2); straight-line code
    // keeps fetching PC+4.
    if (instr.isControl())
        scheduler_.setStalled(wid, true);
    else
        w.pc += 4;

    mem::CoreReq req;
    req.addr = uop.pc;
    req.write = false;
    trace(uop, TraceStage::Fetch);
    req.reqId = uops_.idOf(h);
    fetchOutstanding_ |= 1ull << wid;
    icache_->lanePush(0, req);
    ++ctrFetches_;
    progress_ = true;
}

void
Core::decodeStage(Cycle now)
{
    while (!decodeQueue_.empty()) {
        const UopHandle h = decodeQueue_.front();
        const Uop& uop = uops_[h];
        if (uop.readyAt > now)
            break;
        decodeQueue_.pop_front();
        const WarpId wid = uop.wid;
        // Space is guaranteed: fetch is gated on ibuffer occupancy and at
        // most one fetch per wavefront is in flight.
        trace(uop, TraceStage::Decode);
        ibuffers_[wid].push(h);
        fetchOutstanding_ &= ~(1ull << wid);
        if (ibuffers_[wid].full())
            ibufFull_ |= 1ull << wid;
        progress_ = true;
    }
}

void
Core::issueStage(Cycle now)
{
    (void)now;
    const uint32_t num_warps = config_.numWarps;
    auto next = [num_warps](WarpId w) -> WarpId {
        return w + 1 == num_warps ? 0 : w + 1;
    };
    WarpId wid = issueRR_;
    for (uint32_t i = 0; i < num_warps; ++i, wid = next(wid)) {
        if (ibuffers_[wid].empty())
            continue;
        const Uop& head = uops_[ibuffers_[wid].front()];
        if (!scoreboard_.ready(wid, head.instr)) {
            ++ctrIssueScoreboardStalls_;
            continue;
        }
        // Structural check on the target functional unit.
        bool free = true;
        switch (head.instr.fuType()) {
          case isa::FuType::ALU: free = !alu_.input.full(); break;
          case isa::FuType::MULDIV: free = !muldiv_.input.full(); break;
          case isa::FuType::FPU: free = !fpu_.input.full(); break;
          case isa::FuType::SFU: free = !sfu_.input.full(); break;
          case isa::FuType::LSU:
            free = lsuOps_.size() < config_.lsuDepth;
            break;
          case isa::FuType::TEX:
            free = texUnit_ && texUnit_->ready();
            break;
        }
        if (!free) {
            ++ctrIssueStructuralStalls_;
            continue;
        }
        dispatch(ibuffers_[wid].pop());
        ibufFull_ &= ~(1ull << wid);
        progress_ = true;
        issueRR_ = next(wid);
        return; // single-issue core
    }
}

void
Core::dispatch(UopHandle h)
{
    Uop& uop = uops_[h];
    const WarpId wid = uop.wid;
    trace(uop, TraceStage::Issue);
    // In-place execution reuses the arena slot's payload capacity
    // instead of building a fresh ExecOut per instruction.
    executeInto(*this, wid, uop.instr, uop.pc, uop.out);

    threadInstrs_ += popcount(uop.out.tmask);
    ++warpInstrs_;
    if (uop.out.hasDst)
        scoreboard_.setBusy(wid, uop.out.dst);

    applyScheduleEvents(uop);

    switch (uop.instr.fuType()) {
      case isa::FuType::ALU:
        alu_.input.push(h);
        break;
      case isa::FuType::MULDIV:
        muldiv_.input.push(h);
        break;
      case isa::FuType::FPU:
        fpu_.input.push(h);
        break;
      case isa::FuType::SFU:
        sfu_.input.push(h);
        break;
      case isa::FuType::LSU:
        uop.lanesToIssue = uop.out.tmask;
        uop.pendingRsps = 0;
        // An all-inactive memory op retires immediately.
        uop.memDone = uop.lanesToIssue == 0;
        lsuOps_.push_back(h);
        break;
      case isa::FuType::TEX: {
        tex::TexRequest treq;
        treq.stage = uop.out.texStage;
        // The lane payload moves to the unit: nothing reads it from the
        // parked uop once the request is in flight.
        treq.lanes = std::move(uop.out.texLanes);
        treq.reqId = uops_.idOf(h);
        texUnit_->push(std::move(treq));
        break;
      }
    }
}

void
Core::applyScheduleEvents(const Uop& uop)
{
    const WarpId wid = uop.wid;
    if (!uop.instr.isControl())
        return;
    if (uop.out.haltWarp) {
        scheduler_.setActive(wid, false);
        return;
    }
    if (uop.out.isBarrier) {
        scheduler_.setStalled(wid, false);
        scheduler_.setBarrier(wid, true);
        ++ctrBarriers_;
        if (uop.out.barrierGlobal && hub_) {
            hub_->globalArrive(uop.out.barrierId, uop.out.barrierCount,
                               coreId_, wid);
        } else {
            uint64_t release = barriers_.arrive(uop.out.barrierId,
                                                uop.out.barrierCount, wid);
            for (uint32_t w = 0; release; ++w, release >>= 1) {
                if (release & 1)
                    releaseBarrierWarp(w);
            }
        }
        return;
    }
    if (uop.out.isFence)
        return; // stays stalled; SFU completion unstalls
    // Branches, jumps, tmc (non-zero), split, join, wspawn resolve here.
    scheduler_.setStalled(wid, false);
}

uint32_t
Core::opLatency(const isa::Instr& instr, bool& iterative) const
{
    using K = isa::InstrKind;
    iterative = false;
    switch (instr.fuType()) {
      case isa::FuType::ALU:
        return config_.lat.alu;
      case isa::FuType::MULDIV:
        switch (instr.kind) {
          case K::DIV: case K::DIVU: case K::REM: case K::REMU:
            iterative = true;
            return config_.lat.div;
          default:
            return config_.lat.mul;
        }
      case isa::FuType::FPU:
        switch (instr.kind) {
          case K::FDIV_S:
            iterative = true;
            return config_.lat.fdiv;
          case K::FSQRT_S:
            iterative = true;
            return config_.lat.fsqrt;
          case K::FADD_S: case K::FSUB_S: case K::FMUL_S:
          case K::FMADD_S: case K::FMSUB_S: case K::FNMSUB_S:
          case K::FNMADD_S:
            return config_.lat.fpu;
          default:
            return config_.lat.fcvt;
        }
      default:
        return config_.lat.sfu;
    }
}

void
Core::fuAdvance(FuPipe& fu, Cycle now)
{
    // Accept at most one new op per cycle.
    if (!fu.input.empty()) {
        Uop& head = uops_[fu.input.front()];
        bool is_fence = head.out.isFence;
        bool fence_ok = !is_fence ||
                        (lsuOps_.empty() && dcache_->idle() &&
                         smem_->idle());
        if (fence_ok) {
            bool iterative;
            uint32_t lat = opLatency(head.instr, iterative);
            bool can_start = !iterative || fu.busyUntil <= now;
            if (can_start) {
                if (iterative)
                    fu.busyUntil = now + lat;
                head.readyAt = now + lat;
                fu.inflight.push_back(fu.input.pop());
                progress_ = true;
            }
        }
    }
    // Retire matured ops into the output queue in issue order (latencies
    // vary, so scan), keeping the rest in order.
    size_t kept = 0;
    for (UopHandle h : fu.inflight) {
        if (uops_[h].readyAt <= now) {
            fu.output.push_back(h);
            progress_ = true;
        } else {
            fu.inflight[kept++] = h;
        }
    }
    fu.inflight.resize(kept);
}

void
Core::executeTick(Cycle now)
{
    fuAdvance(alu_, now);
    fuAdvance(muldiv_, now);
    fuAdvance(fpu_, now);
    fuAdvance(sfu_, now);
}

void
Core::lsuTick(Cycle now)
{
    (void)now;
    // In-order lane issue: only the oldest op with unsent lanes issues.
    for (UopHandle h : lsuOps_) {
        Uop& op = uops_[h];
        if (op.lanesToIssue == 0)
            continue;
        uint64_t mask = op.lanesToIssue;
        for (uint32_t t = 0; mask; ++t, mask >>= 1) {
            if (!(mask & 1))
                continue;
            bool shared = op.out.memShared;
            bool ready = shared ? smem_->laneReady(t)
                                : dcache_->laneReady(t);
            if (!ready)
                continue;
            mem::CoreReq req;
            req.addr = op.out.addrs[t];
            req.write = op.out.memWrite;
            req.reqId = lsuRspPool_.alloc(UopHandle{h});
            ++op.pendingRsps;
            op.lanesToIssue &= ~(1ull << t);
            progress_ = true;
            if (shared)
                smem_->lanePush(t, req);
            else
                dcache_->lanePush(t, req);
        }
        break; // strictly in-order issue across ops
    }
}

void
Core::commitStage(Cycle now)
{
    (void)now;
    // Retire every ready non-writing uop (they need no writeback port) and
    // at most one register-writing uop per cycle (single writeback port).
    bool port_used = false;

    // Retiring frees the uop's arena slot in place.
    auto tryRetire = [&](UopHandle h) -> bool {
        const Uop& uop = uops_[h];
        if (uop.out.hasDst) {
            if (port_used)
                return false;
            port_used = true;
        }
        writeback(uop);
        uops_.release(h);
        progress_ = true;
        return true;
    };

    for (FuPipe* fu : {&alu_, &fpu_, &muldiv_, &sfu_}) {
        while (!fu->output.empty() && tryRetire(fu->output.front()))
            fu->output.pop_front();
    }
    // LSU completions (any order).
    size_t kept = 0;
    for (UopHandle h : lsuOps_) {
        if (!uops_[h].memDone || !tryRetire(h))
            lsuOps_[kept++] = h;
    }
    lsuOps_.resize(kept);
    // Texture completions.
    while (!texDone_.empty() && tryRetire(texDone_.front()))
        texDone_.pop_front();
}

void
Core::writeback(const Uop& uop)
{
    const WarpId wid = uop.wid;
    Warp& w = warps_[wid];
    if (uop.out.hasDst) {
        const isa::RegRef dst = uop.out.dst;
        uint64_t mask = uop.out.tmask;
        for (uint32_t t = 0; mask; ++t, mask >>= 1) {
            if (!(mask & 1))
                continue;
            if (dst.file == isa::RegFile::Int)
                w.iregs[t][dst.idx] = uop.out.values[t];
            else
                w.fregs[t][dst.idx] = uop.out.values[t];
        }
        scoreboard_.clearBusy(wid, dst);
        ++ctrWritebacks_;
    }
    if (uop.out.isFence)
        scheduler_.setStalled(wid, false);
    trace(uop, TraceStage::Commit);
    ++ctrRetired_;
}

bool
Core::busy() const
{
    // Every uop between fetch and retire holds an arena slot.
    if (scheduler_.activeMask() != 0 || !uops_.empty())
        return true;
    if (!icache_->idle() || !dcache_->idle() || !smem_->idle())
        return true;
    if (texUnit_ && !texUnit_->idle())
        return true;
    return false;
}

} // namespace vortex::core
