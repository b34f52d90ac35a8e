/**
 * @file
 * Cycle-level texture unit model (paper §4.2.2, Figure 5).
 *
 * Pipeline: (0) CSR state lookup, (1) texture address generation for all
 * threads in parallel, (2) de-duplication of texel addresses repeated across
 * threads, (3) texel memory scheduler issuing the unique addresses to the
 * data cache — the next batch is not serviced until every texel of the
 * current batch has returned — and (5) the two-cycle bilinear texel sampler
 * producing one filtered RGBA color per thread.
 *
 * Functionally the colors are computed up front via the shared sampler
 * (tex/sampler.h); the cycle model replays the same texel addresses against
 * the cache to produce the timing.
 */

#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/elastic.h"
#include "common/ring.h"
#include "common/small_vec.h"
#include "common/stats.h"
#include "isa/csr.h"
#include "mem/cache.h"
#include "mem/ram.h"
#include "tex/sampler.h"

namespace vortex::tex {

/** Texture unit configuration. */
struct TexUnitConfig
{
    uint32_t numThreads = 4;    ///< lanes per request (== core threads)
    uint32_t inputDepth = 2;    ///< request queue depth
    uint32_t addrGenLatency = 1;
    uint32_t samplerLatency = 2; ///< the two-cycle bilinear sampler
    uint32_t cacheLaneBase = 0;  ///< first D$ lane owned by the unit
    uint32_t numCacheLanes = 4;  ///< D$ lanes available for texel fetches
};

/** Per-thread sample coordinates for one `tex` instruction. */
struct TexLaneReq
{
    bool active = false;
    float u = 0.0f;
    float v = 0.0f;
    float lod = 0.0f;
};

/** Per-lane request payload: inline up to 4 lanes (the baseline machine
 *  geometry), heap-spilled beyond — shared with core::ExecOut so the
 *  core hands its lanes to the unit without converting containers. */
using TexLaneVec = SmallVec<TexLaneReq, 4>;

/** Per-lane packed RGBA8 color payload of a completed request. */
using TexColorVec = SmallVec<uint32_t, 8>;

/** A `tex` instruction issued to the unit. */
struct TexRequest
{
    uint64_t reqId = 0;
    uint32_t stage = 0; ///< texture stage (CSR window index)
    TexLaneVec lanes;   ///< per-thread sample coordinates
};

/** Completed request: one packed RGBA8 color per thread. */
struct TexResponse
{
    uint64_t reqId = 0;
    TexColorVec colors; ///< one color per lane of the request
};

/** The texture unit. */
class TexUnit
{
  public:
    TexUnit(const TexUnitConfig& config, const mem::Ram& ram,
            mem::Cache* dcache,
            std::function<uint64_t()> allocReqId);

    /** CSR-backed state of texture stage @p stage. */
    SamplerState& stageState(uint32_t stage);
    const SamplerState& stageState(uint32_t stage) const;

    /** CSR write decoded into sampler state (paper Fig. 13). */
    void csrWrite(uint32_t csrAddr, uint32_t value);
    uint32_t csrRead(uint32_t csrAddr) const;

    bool ready() const { return !input_.full(); }
    void push(const TexRequest& req);
    /** Move-push: the lane payload transfers without a copy. */
    void push(TexRequest&& req);
    void setRspCallback(std::function<void(const TexResponse&)> cb)
    {
        rspCallback_ = std::move(cb);
    }

    /** Route a cache response; @return true if this unit owned the reqId. */
    bool cacheRsp(const mem::CoreRsp& rsp);

    /** Advance one cycle; a no-op while idle(), so callers skip it then. */
    void tick(Cycle now);
    /** No batch, queued request or response in the sampler pipeline. */
    bool
    idle() const
    {
        return !batch_ && input_.empty() && samplerPipe_.empty();
    }

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

  private:
    void startBatch(Cycle now);

    TexUnitConfig config_;
    const mem::Ram& ram_;
    mem::Cache* dcache_;
    std::function<uint64_t()> allocReqId_;

    std::vector<SamplerState> stages_;

    ElasticQueue<TexRequest> input_;

    /** In-flight batch state. */
    struct Batch
    {
        TexResponse rsp;
        Cycle startedAt = 0;
        bool issuedAll = false;
    };
    std::optional<Batch> batch_;
    /** The batch's outstanding texel-fetch reqIds, unordered (kept across
     *  batches, so its storage is reused). */
    std::vector<uint64_t> pending_;
    /** The batch's unique texel addresses not yet issued (kept across
     *  batches, so its ring is reused). */
    Ring<Addr> toIssue_;
    Cycle batchReadyAt_ = 0; ///< models the address-generation latency
    std::vector<Addr> addrScratch_; ///< texel-dedup scratch (reused)

    LatencyPipe<TexResponse> samplerPipe_;
    std::function<void(const TexResponse&)> rspCallback_;
    // Counters, registered in this order at construction (common/stats.h).
    StatGroup stats_{"texunit"};
    uint64_t& ctrRequests_ = stats_.counter("requests");
    uint64_t& ctrTexelFetches_ = stats_.counter("texel_fetches");
    uint64_t& ctrUniqueTexels_ = stats_.counter("unique_texels");
    uint64_t& ctrResponses_ = stats_.counter("responses");
    uint64_t& ctrBatchCycles_ = stats_.counter("batch_cycles");
};

} // namespace vortex::tex
