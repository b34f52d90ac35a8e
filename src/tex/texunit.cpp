/**
 * @file
 * Texture unit cycle model implementation.
 */

#include "tex/texunit.h"

#include <algorithm>

#include "common/log.h"

namespace vortex::tex {

using isa::Csr;

TexUnit::TexUnit(const TexUnitConfig& config, const mem::Ram& ram,
                 mem::Cache* dcache, std::function<uint64_t()> allocReqId)
    : config_(config),
      ram_(ram),
      dcache_(dcache),
      allocReqId_(std::move(allocReqId)),
      stages_(isa::kNumTexStages),
      input_(config.inputDepth, "texunit.input"),
      samplerPipe_(config.samplerLatency)
{
}

SamplerState&
TexUnit::stageState(uint32_t stage)
{
    if (stage >= stages_.size())
        fatal("texture stage ", stage, " out of range");
    return stages_[stage];
}

const SamplerState&
TexUnit::stageState(uint32_t stage) const
{
    if (stage >= stages_.size())
        fatal("texture stage ", stage, " out of range");
    return stages_[stage];
}

void
TexUnit::csrWrite(uint32_t csrAddr, uint32_t value)
{
    uint32_t rel = csrAddr - Csr::CSR_TEX_BASE;
    uint32_t stage = rel / Csr::CSR_TEX_STRIDE;
    uint32_t field = rel % Csr::CSR_TEX_STRIDE;
    SamplerState& st = stageState(stage);
    switch (field) {
      case isa::TEX_STATE_ADDR: st.addr = value; break;
      case isa::TEX_STATE_MIPOFF: st.mipOff = value; break;
      case isa::TEX_STATE_WIDTH: st.widthLog2 = value; break;
      case isa::TEX_STATE_HEIGHT: st.heightLog2 = value; break;
      case isa::TEX_STATE_FORMAT:
        st.format = static_cast<Format>(value);
        break;
      case isa::TEX_STATE_WRAP:
        st.wrapU = static_cast<Wrap>(value & 0x3);
        st.wrapV = static_cast<Wrap>((value >> 2) & 0x3);
        break;
      case isa::TEX_STATE_FILTER:
        st.filter = static_cast<Filter>(value);
        break;
      case isa::TEX_STATE_LODS:
        st.numLods = std::max(1u, value);
        break;
      default:
        fatal("bad texture CSR field ", field);
    }
}

uint32_t
TexUnit::csrRead(uint32_t csrAddr) const
{
    uint32_t rel = csrAddr - Csr::CSR_TEX_BASE;
    uint32_t stage = rel / Csr::CSR_TEX_STRIDE;
    uint32_t field = rel % Csr::CSR_TEX_STRIDE;
    const SamplerState& st = stageState(stage);
    switch (field) {
      case isa::TEX_STATE_ADDR: return st.addr;
      case isa::TEX_STATE_MIPOFF: return st.mipOff;
      case isa::TEX_STATE_WIDTH: return st.widthLog2;
      case isa::TEX_STATE_HEIGHT: return st.heightLog2;
      case isa::TEX_STATE_FORMAT: return static_cast<uint32_t>(st.format);
      case isa::TEX_STATE_WRAP:
        return static_cast<uint32_t>(st.wrapU) |
               (static_cast<uint32_t>(st.wrapV) << 2);
      case isa::TEX_STATE_FILTER: return static_cast<uint32_t>(st.filter);
      case isa::TEX_STATE_LODS: return st.numLods;
      default:
        fatal("bad texture CSR field ", field);
    }
}

void
TexUnit::push(const TexRequest& req)
{
    input_.push(req);
    ++ctrRequests_;
}

void
TexUnit::push(TexRequest&& req)
{
    input_.push(std::move(req));
    ++ctrRequests_;
}

bool
TexUnit::cacheRsp(const mem::CoreRsp& rsp)
{
    if (!batch_)
        return false;
    auto it = std::find(pending_.begin(), pending_.end(), rsp.reqId);
    if (it == pending_.end())
        return false;
    *it = pending_.back();
    pending_.pop_back();
    return true;
}

void
TexUnit::startBatch(Cycle now)
{
    const TexRequest req = input_.pop();
    Batch batch;
    batch.rsp.reqId = req.reqId;
    batch.rsp.colors.assign(req.lanes.size(), 0);
    batch.startedAt = now;

    const SamplerState& st = stageState(req.stage);

    // Functional sampling for every active lane; collect texel addresses.
    std::vector<Addr>& addrs = addrScratch_;
    addrs.clear();
    for (size_t lane = 0; lane < req.lanes.size(); ++lane) {
        const TexLaneReq& lr = req.lanes[lane];
        if (!lr.active)
            continue;
        uint32_t lod = static_cast<uint32_t>(std::max(0.0f, lr.lod));
        SampleResult res = sample(ram_, st, lr.u, lr.v, lod);
        batch.rsp.colors[lane] = res.color.pack();
        addrs.insert(addrs.end(), res.texelAddrs.begin(),
                     res.texelAddrs.end());
        ctrTexelFetches_ += res.texelAddrs.size();
    }

    // De-duplicate texel addresses repeated across threads (Fig. 5 step 2).
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    ctrUniqueTexels_ += addrs.size();
    toIssue_.clear();
    for (Addr a : addrs)
        toIssue_.push_back(a);
    batch.issuedAll = toIssue_.empty();

    // Address generation latency before the first texel issue.
    batchReadyAt_ = now + config_.addrGenLatency;
    batch_ = std::move(batch);
}

void
TexUnit::tick(Cycle now)
{
    // Deliver filtered colors out of the sampler pipeline.
    while (const TexResponse* rsp = samplerPipe_.readyFront(now)) {
        if (rspCallback_)
            rspCallback_(*rsp);
        ++ctrResponses_;
        samplerPipe_.pop();
    }

    if (!batch_) {
        if (!input_.empty())
            startBatch(now);
        return;
    }

    if (now < batchReadyAt_)
        return;

    // Texel memory scheduler: issue unique addresses to the data cache.
    if (!batch_->issuedAll && dcache_) {
        for (uint32_t l = 0; l < config_.numCacheLanes &&
                             !toIssue_.empty(); ++l) {
            uint32_t lane = config_.cacheLaneBase + l;
            if (!dcache_->laneReady(lane))
                continue;
            mem::CoreReq creq;
            creq.addr = toIssue_.front();
            creq.write = false;
            creq.reqId = allocReqId_();
            pending_.push_back(creq.reqId);
            dcache_->lanePush(lane, creq);
            toIssue_.pop_front();
        }
        if (toIssue_.empty())
            batch_->issuedAll = true;
    }
    if (!dcache_) {
        // No cache attached (unit tests): texels return instantly.
        toIssue_.clear();
        batch_->issuedAll = true;
        pending_.clear();
    }

    // Only when all texels returned does the sampler start (and the
    // scheduler may begin servicing the next batch).
    if (batch_->issuedAll && pending_.empty()) {
        ctrBatchCycles_ += now - batch_->startedAt;
        samplerPipe_.enqueueSlot(now) = std::move(batch_->rsp);
        batch_.reset();
    }
}

} // namespace vortex::tex
