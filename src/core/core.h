/**
 * @file
 * One Vortex core (paper Figure 4): a five-stage in-order SIMT pipeline —
 * fetch (wavefront scheduler + I-cache), decode, per-wavefront instruction
 * buffers, issue (scoreboard + banked GPR), functional units (ALU, MULDIV,
 * FPU, LSU, SFU, TEX), and commit (single writeback port) — plus the
 * per-core L1 caches, shared memory, barrier table, and texture unit.
 */

#pragma once

#include <array>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/elastic.h"
#include "common/ring.h"
#include "common/slot_pool.h"
#include "common/stats.h"
#include "core/barrier.h"
#include "core/config.h"
#include "core/scheduler.h"
#include "core/trace.h"
#include "core/scoreboard.h"
#include "core/text.h"
#include "core/uop.h"
#include "core/warp.h"
#include "mem/cache.h"
#include "mem/ram.h"
#include "mem/sharedmem.h"
#include "tex/texunit.h"

namespace vortex::core {

/** Interface the Processor exposes for inter-core (global) barriers. */
class BarrierHub
{
  public:
    virtual ~BarrierHub() = default;
    /** Wavefront @p wid of core @p core arrived at global barrier @p id
     *  expecting @p count wavefront arrivals. The hub releases every waiting
     *  wavefront (including this one) when the barrier fires. */
    virtual void globalArrive(uint32_t id, uint32_t count, CoreId core,
                              WarpId wid) = 0;
};

/** A single SIMT core. */
class Core
{
  public:
    /** Build core @p core_id of a device configured by @p config, on
     *  shared backing RAM @p ram, fetching through the device's decoded
     *  @p text; @p hub receives global barrier arrivals (may be nullptr
     *  for single-core test rigs that never execute a global barrier). */
    Core(const ArchConfig& config, CoreId core_id, mem::Ram& ram,
         const DecodedText& text, BarrierHub* hub);

    /** Deactivate every wavefront and clear all pipeline state. */
    void reset();

    /** Activate wavefront 0 (thread 0) at the configured start PC. */
    void start();

    /**
     * Advance one cycle (caches and texture unit tick inside). A core
     * whose tick changed nothing sleeps until its next timed event or an
     * explicit wake: the tick engines skip it while asleep(), and the
     * skipped cycles re-credit that tick's stall counters in one step at
     * the next tick or settle() (ARCHITECTURE.md "Dormant cores and
     * caches"), so every counter and cycle count is exactly what ticking
     * it would have produced.
     */
    void tick(Cycle now);

    /** Does the core sleep through cycle @p now (tick engines skip it)? */
    bool asleep(Cycle now) const { return dormancy_.asleep(now); }

    /** Credit the cycles slept through up to @p now: cycles(),
     *  dormantCycles() and the stall counters are exact after it. */
    void settle(Cycle now) { dormancy_.settle(now); }

    /** Any wavefront active or any operation still in flight? */
    bool busy() const;

    //
    // Component access (hierarchy glue + tests).
    //
    mem::Cache& icache() { return *icache_; }      ///< the L1I
    mem::Cache& dcache() { return *dcache_; }      ///< the L1D
    mem::SharedMem& sharedMem() { return *smem_; } ///< the scratchpad
    /** The texture unit (nullptr when ArchConfig::texEnabled is off). */
    tex::TexUnit* texUnit() { return texUnit_.get(); }
    /** The latch that ends a sleep: hierarchy glue hands it to every
     *  producer that can change one of this core's inputs. */
    mem::WakeLatch* wakeLatch() { return &dormancy_.latch; }

    //
    // Emulator interface (functional execution).
    //
    /** Architectural state of wavefront @p wid. */
    Warp& warp(WarpId wid) { return warps_.at(wid); }
    /** Const view of wavefront @p wid. */
    const Warp& warp(WarpId wid) const { return warps_.at(wid); }
    mem::Ram& ram() { return ram_; }                      ///< backing RAM
    const ArchConfig& config() const { return config_; }  ///< the machine
    CoreId coreId() const { return coreId_; }             ///< this core's id

    /** Read CSR @p addr as seen by (wavefront, thread) — includes the
     *  Vortex identification CSRs (core/thread/wavefront ids). */
    Word csrRead(uint32_t addr, WarpId wid, ThreadId tid) const;
    /** Write soft CSR @p addr for wavefront @p wid. */
    void csrWrite(uint32_t addr, Word value, WarpId wid);

    /** wspawn target: activate wavefront @p wid at @p pc with thread 0. */
    void activateWarp(WarpId wid, Addr pc);

    /** Release a wavefront stalled at a barrier. */
    void releaseBarrierWarp(WarpId wid);

    /** The wavefront scheduler (mask maintenance from the emulator). */
    WarpScheduler& scheduler() { return scheduler_; }

    /** Attach an instruction-lifecycle trace sink (nullptr disables). */
    void setTraceSink(TraceSink* sink) { traceSink_ = sink; }

    //
    // Statistics.
    //
    StatGroup& stats() { return stats_; }             ///< core counters
    const StatGroup& stats() const { return stats_; } ///< const counters
    /** Thread-instructions retired (the IPC numerator). */
    uint64_t threadInstrs() const { return threadInstrs_; }
    /** Wavefront-instructions retired. */
    uint64_t warpInstrs() const { return warpInstrs_; }
    /** Cycles this core has ticked or slept through (exact after
     *  settle()). */
    uint64_t cycles() const { return dormancy_.cycles(); }
    /** Of cycles(), those spent dormant. A host-side diagnostic, not a
     *  simulated counter: it stays out of stats(), CSV, series and
     *  content hashes. */
    uint64_t dormantCycles() const { return dormancy_.dormantCycles(); }

  private:
    //
    // Pipeline stages.
    //
    void fetchStage(Cycle now);
    void decodeStage(Cycle now);
    void issueStage(Cycle now);
    void executeTick(Cycle now);
    void lsuTick(Cycle now);
    void commitStage(Cycle now);

    /** Earliest cycle an internal timer fires (decode queue, FU
     *  latencies, iterative-unit busy, cache and scratchpad pipes). */
    Cycle nextEventAt() const;

    /** Execute uop @p h and hand it to its functional unit. */
    void dispatch(UopHandle h);
    void applyScheduleEvents(const Uop& uop);
    void writeback(const Uop& uop);
    void onLsuRsp(uint64_t reqId);

    //
    // Request-id spaces. Every in-flight request id carries a kind in
    // its top bits, so ids from the uop arena, the LSU lane pool and the
    // texel-fetch counter can share the D$/I$/scratchpad without
    // colliding, and a D$ response routes by kind instead of probing the
    // texture unit's pending set.
    //
    static constexpr uint64_t kReqKindMask = 3ull << 62;
    static constexpr uint64_t kUopReqBase = 1ull << 62; ///< fetch, tex
    static constexpr uint64_t kLsuReqBase = 2ull << 62; ///< LSU lanes
    static constexpr uint64_t kTexelReqBase = 3ull << 62; ///< texel reads

    /** Texel-fetch ids handed to the texture unit (tracked only in the
     *  unit's own pending set, so a plain counter suffices). */
    uint64_t allocTexelReqId() { return kTexelReqBase | nextTexelReqId_++; }

    //
    // Functional-unit pipes with per-op latency; iterative ops set busy.
    //
    struct FuPipe
    {
        explicit FuPipe(uint32_t depth, const char* name)
            : input(depth, name)
        {
        }
        ElasticQueue<UopHandle> input;
        std::vector<UopHandle> inflight; ///< issue order; Uop::readyAt
        Cycle busyUntil = 0;
        Ring<UopHandle> output;
    };

    void fuAdvance(FuPipe& fu, Cycle now);
    uint32_t opLatency(const isa::Instr& instr, bool& iterative) const;

    //
    // Members.
    //
    ArchConfig config_;
    CoreId coreId_;
    mem::Ram& ram_;
    const DecodedText& text_; ///< the processor's, shared by its cores
    BarrierHub* hub_;

    std::unique_ptr<mem::Cache> icache_;
    std::unique_ptr<mem::Cache> dcache_;
    std::unique_ptr<mem::SharedMem> smem_;
    std::unique_ptr<tex::TexUnit> texUnit_;

    WarpScheduler scheduler_;
    Scoreboard scoreboard_;
    BarrierTable barriers_;
    std::vector<Warp> warps_;
    std::unordered_map<uint32_t, Word> softCsrs_;

    /** Every in-flight uop, fetch to retire. A fetch's I$ request id
     *  and a `tex` batch's id are arena ids of the uop's slot. */
    SlotPool<Uop> uops_{kUopReqBase, "core.uops"};

    //
    // Fetch / decode bookkeeping.
    //
    Ring<UopHandle> decodeQueue_; ///< fetched; ready at Uop::readyAt

    std::vector<ElasticQueue<UopHandle>> ibuffers_;
    WarpId issueRR_ = 0;

    //
    // Fetch eligibility as two wavefront masks, kept in step with the
    // I$ requests and the ibuffers (set at fetch / decode push, cleared
    // at decode push / issue pop), so the fetch stage reads
    // ~(fetchOutstanding_ | ibufFull_) instead of scanning every
    // wavefront.
    //
    uint64_t fetchOutstanding_ = 0; ///< wavefronts with an I$ fetch in flight
    uint64_t ibufFull_ = 0;         ///< wavefronts whose ibuffer is full

    FuPipe alu_;
    FuPipe muldiv_;
    FuPipe fpu_;
    FuPipe sfu_;

    /** LSU ops in dispatch order (at most lsuDepth); their progress is
     *  in the uop. */
    std::vector<UopHandle> lsuOps_;
    /** In-flight lane requests -> owning uop. */
    SlotPool<UopHandle> lsuRspPool_{kLsuReqBase, "core.lsu_rsps"};

    /** `tex` uops whose colors have arrived. */
    Ring<UopHandle> texDone_;

    uint64_t nextTexelReqId_ = 1;
    uint64_t nextUid_ = 1;
    TraceSink* traceSink_ = nullptr;

    void
    trace(const Uop& uop, TraceStage stage)
    {
        if (traceSink_)
            traceSink_->record(
                TraceEvent{uop.uid, uop.wid, uop.pc, stage, curCycle_});
    }

    Cycle curCycle_ = 0;
    uint64_t threadInstrs_ = 0;
    uint64_t warpInstrs_ = 0;
    // Counters, registered in this order at construction (common/stats.h).
    StatGroup stats_;
    uint64_t& ctrFetchIcacheStalls_ = stats_.counter("fetch_icache_stalls");
    uint64_t& ctrFetches_ = stats_.counter("fetches");
    uint64_t& ctrIssueScoreboardStalls_ =
        stats_.counter("issue_scoreboard_stalls");
    uint64_t& ctrIssueStructuralStalls_ =
        stats_.counter("issue_structural_stalls");
    uint64_t& ctrBarriers_ = stats_.counter("barriers");
    uint64_t& ctrWspawned_ = stats_.counter("wspawned");
    uint64_t& ctrWritebacks_ = stats_.counter("writebacks");
    uint64_t& ctrRetired_ = stats_.counter("retired");

    //
    // Dormancy (ARCHITECTURE.md "Dormant cores and caches").
    //
    bool progress_ = false; ///< this tick changed pipeline state
    /** Every counter a tick that changes nothing can still bump: the
     *  core's three stall counters, then each L1's stallCounters(). */
    static constexpr size_t kStallCounters =
        3 + 2 * std::tuple_size_v<decltype(std::declval<mem::Cache&>()
                                               .stallCounters())>;
    std::array<uint64_t*, kStallCounters> stallCounters();
    mem::Dormancy<kStallCounters> dormancy_{stallCounters()};
};

/** Functionally execute @p instr of wavefront @p wid (defined in
 *  emulator.cpp). Mutates the wavefront's architectural control state
 *  (PC, thread mask, IPDOM stack) and performs stores/CSR writes; register
 *  writebacks are returned for the timing model to commit. */
ExecOut execute(Core& core, WarpId wid, const isa::Instr& instr, Addr pc);

/** In-place variant of execute(): resets @p out (keeping its payload
 *  capacity — the allocation-free dispatch path) and fills it. */
void executeInto(Core& core, WarpId wid, const isa::Instr& instr, Addr pc,
                 ExecOut& out);

} // namespace vortex::core
