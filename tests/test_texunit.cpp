/**
 * @file
 * Texture-unit cycle-model tests: CSR read/write round trips, batch
 * processing (one batch in flight at a time), texel de-duplication across
 * threads, cache traffic generation, and bit-exact agreement with the
 * functional sampler.
 */

#include <gtest/gtest.h>

#include "isa/csr.h"
#include "mem/cache.h"
#include "mem/memsim.h"
#include "tex/texunit.h"

using namespace vortex;
using namespace vortex::tex;

namespace {

class TexUnitTest : public ::testing::Test
{
  protected:
    TexUnitTest()
        : cache_(cacheCfg()),
          mem_(mem::MemSimConfig{}),
          unit_(unitCfg(), ram_, &cache_, [this] { return nextId_++; })
    {
        cache_.connectMem(mem_.link(0, nullptr));
        mem_.setRspCallback([this](const mem::CoreRsp& r) {
            cache_.memRsp(mem::MemRsp{r.reqId});
        });
        cache_.setRspCallback([this](const mem::CoreRsp& r) {
            ASSERT_TRUE(unit_.cacheRsp(r)) << "unexpected cache response";
        });
        unit_.setRspCallback(
            [this](const TexResponse& r) { rsps_.push_back(r); });

        // 8x8 RGBA8 gradient texture at 0x1000.
        SamplerState& st = unit_.stageState(0);
        st.addr = 0x1000;
        st.widthLog2 = 3;
        st.heightLog2 = 3;
        st.format = Format::RGBA8;
        st.wrapU = st.wrapV = Wrap::Repeat;
        st.filter = Filter::Bilinear;
        for (uint32_t y = 0; y < 8; ++y) {
            for (uint32_t x = 0; x < 8; ++x) {
                Color c{static_cast<uint8_t>(x * 16),
                        static_cast<uint8_t>(y * 16), 5, 255};
                ram_.write32(st.texelAddr(0, x, y), c.pack());
            }
        }
    }

    static mem::CacheConfig
    cacheCfg()
    {
        mem::CacheConfig c;
        c.numLanes = 4;
        return c;
    }

    static TexUnitConfig
    unitCfg()
    {
        TexUnitConfig c;
        c.numThreads = 4;
        c.cacheLaneBase = 0;
        c.numCacheLanes = 4;
        return c;
    }

    void
    runUntilDone(uint32_t limit = 10000)
    {
        uint32_t n = 0;
        while (!unit_.idle() || !cache_.idle()) {
            ++now_;
            mem_.tick(now_);
            cache_.tick(now_);
            unit_.tick(now_);
            ASSERT_LT(++n, limit);
        }
    }

    TexRequest
    makeReq(uint64_t id, std::initializer_list<std::pair<float, float>> uvs)
    {
        TexRequest req;
        req.reqId = id;
        req.stage = 0;
        for (auto [u, v] : uvs) {
            TexLaneReq lr;
            lr.active = true;
            lr.u = u;
            lr.v = v;
            req.lanes.push_back(lr);
        }
        while (req.lanes.size() < 4)
            req.lanes.push_back(TexLaneReq{});
        return req;
    }

    mem::Ram ram_;
    mem::Cache cache_;
    mem::MemSim mem_;
    TexUnit unit_;
    std::vector<TexResponse> rsps_;
    uint64_t nextId_ = 1000;
    Cycle now_ = 0;
};

} // namespace

TEST_F(TexUnitTest, CsrRoundTrip)
{
    using namespace isa;
    unit_.csrWrite(texCsrAddr(1, TEX_STATE_ADDR), 0xABC00000);
    unit_.csrWrite(texCsrAddr(1, TEX_STATE_WIDTH), 7);
    unit_.csrWrite(texCsrAddr(1, TEX_STATE_HEIGHT), 6);
    unit_.csrWrite(texCsrAddr(1, TEX_STATE_FORMAT),
                   static_cast<uint32_t>(Format::RGB565));
    unit_.csrWrite(texCsrAddr(1, TEX_STATE_WRAP),
                   static_cast<uint32_t>(Wrap::Mirror) |
                       (static_cast<uint32_t>(Wrap::Repeat) << 2));
    unit_.csrWrite(texCsrAddr(1, TEX_STATE_FILTER),
                   static_cast<uint32_t>(Filter::Bilinear));
    unit_.csrWrite(texCsrAddr(1, TEX_STATE_LODS), 3);

    EXPECT_EQ(unit_.csrRead(texCsrAddr(1, TEX_STATE_ADDR)), 0xABC00000u);
    EXPECT_EQ(unit_.csrRead(texCsrAddr(1, TEX_STATE_WIDTH)), 7u);
    EXPECT_EQ(unit_.csrRead(texCsrAddr(1, TEX_STATE_HEIGHT)), 6u);
    EXPECT_EQ(unit_.stageState(1).format, Format::RGB565);
    EXPECT_EQ(unit_.stageState(1).wrapU, Wrap::Mirror);
    EXPECT_EQ(unit_.stageState(1).wrapV, Wrap::Repeat);
    EXPECT_EQ(unit_.stageState(1).filter, Filter::Bilinear);
    EXPECT_EQ(unit_.stageState(1).numLods, 3u);
    // Stage 0 unaffected.
    EXPECT_EQ(unit_.csrRead(texCsrAddr(0, TEX_STATE_ADDR)), 0x1000u);
}

TEST_F(TexUnitTest, MatchesFunctionalSampler)
{
    unit_.push(makeReq(1, {{0.1f, 0.2f}, {0.6f, 0.7f}, {0.9f, 0.1f},
                           {0.3f, 0.8f}}));
    runUntilDone();
    ASSERT_EQ(rsps_.size(), 1u);
    const SamplerState& st = unit_.stageState(0);
    float us[4] = {0.1f, 0.6f, 0.9f, 0.3f};
    float vs[4] = {0.2f, 0.7f, 0.1f, 0.8f};
    for (int lane = 0; lane < 4; ++lane) {
        Color expect = sampleBilinear(ram_, st, us[lane], vs[lane], 0).color;
        EXPECT_EQ(rsps_[0].colors[lane], expect.pack()) << "lane " << lane;
    }
}

TEST_F(TexUnitTest, DeduplicatesRepeatedTexels)
{
    // All four lanes sample the same coordinate: 4 texels (bilinear quad)
    // instead of 16.
    unit_.push(makeReq(2, {{0.5f, 0.5f}, {0.5f, 0.5f}, {0.5f, 0.5f},
                           {0.5f, 0.5f}}));
    runUntilDone();
    EXPECT_EQ(unit_.stats().get("texel_fetches"), 16u);
    EXPECT_EQ(unit_.stats().get("unique_texels"), 4u);
}

TEST_F(TexUnitTest, BatchesSerializeAndBothComplete)
{
    unit_.push(makeReq(3, {{0.1f, 0.1f}}));
    unit_.push(makeReq(4, {{0.9f, 0.9f}}));
    runUntilDone();
    ASSERT_EQ(rsps_.size(), 2u);
    EXPECT_EQ(rsps_[0].reqId, 3u);
    EXPECT_EQ(rsps_[1].reqId, 4u);
}

TEST_F(TexUnitTest, InactiveLanesReturnZero)
{
    TexRequest req = makeReq(5, {{0.5f, 0.5f}});
    unit_.push(req);
    runUntilDone();
    ASSERT_EQ(rsps_.size(), 1u);
    EXPECT_NE(rsps_[0].colors[0], 0u);
    EXPECT_EQ(rsps_[0].colors[1], 0u);
    EXPECT_EQ(rsps_[0].colors[3], 0u);
}

TEST_F(TexUnitTest, PointFilterSingleTexelPerLane)
{
    unit_.stageState(0).filter = Filter::Point;
    unit_.push(makeReq(6, {{0.1f, 0.1f}, {0.9f, 0.9f}}));
    runUntilDone();
    EXPECT_EQ(unit_.stats().get("texel_fetches"), 2u);
    ASSERT_EQ(rsps_.size(), 1u);
    const SamplerState& st = unit_.stageState(0);
    EXPECT_EQ(rsps_[0].colors[0],
              samplePoint(ram_, st, 0.1f, 0.1f, 0).color.pack());
}

TEST_F(TexUnitTest, BackPressure)
{
    EXPECT_TRUE(unit_.ready());
    unit_.push(makeReq(7, {{0.1f, 0.1f}}));
    unit_.push(makeReq(8, {{0.2f, 0.2f}}));
    EXPECT_FALSE(unit_.ready()); // input queue depth is 2
    runUntilDone();
    EXPECT_TRUE(unit_.ready());
    EXPECT_EQ(rsps_.size(), 2u);
}

//
// End-to-end multi-stage texturing: a kernel configures two texture
// stages, switches the active stage via CSR_TEX_STAGE between `tex`
// instructions, and samples from both.
//

#include "isa/assembler.h"
#include "runtime/device.h"

TEST(TexStages, KernelSwitchesStages)
{
    using namespace vortex;
    core::ArchConfig cfg;
    runtime::Device dev(cfg);

    // Two 4x4 solid-color RGBA8 textures.
    const Addr tex_a = 0x30000, tex_b = 0x31000, out = 0x32000;
    for (uint32_t i = 0; i < 16; ++i) {
        dev.ram().write32(tex_a + i * 4, Color{10, 20, 30, 255}.pack());
        dev.ram().write32(tex_b + i * 4, Color{200, 150, 100, 255}.pack());
    }

    isa::Assembler as(cfg.startPC);
    isa::ObjectFile obj = as.assembleObject({{"two_stages.s", R"(
        # stage 0 <- texture A
        li t0, 0x30000
        csrw 0x7C0, t0
        csrwi 0x7C2, 2
        csrwi 0x7C3, 2
        csrwi 0x7C4, 0        # RGBA8
        csrwi 0x7C5, 5        # repeat/repeat
        csrwi 0x7C6, 0        # point
        csrwi 0x7C7, 1
        # stage 1 <- texture B
        li t0, 0x31000
        csrw 0x7C8, t0
        csrwi 0x7CA, 2
        csrwi 0x7CB, 2
        csrwi 0x7CC, 0
        csrwi 0x7CD, 5
        csrwi 0x7CE, 0
        csrwi 0x7CF, 1
        # u = v = 0.5, lod = 0
        la t1, half
        flw ft0, 0(t1)
        fmv.s ft1, ft0
        fmv.w.x ft2, zero
        # sample stage 0
        csrwi 0x7BF, 0
        vx_tex t2, ft0, ft1, ft2
        li t3, 0x32000
        sw t2, 0(t3)
        # sample stage 1
        csrwi 0x7BF, 1
        vx_tex t2, ft0, ft1, ft2
        sw t2, 4(t3)
        li t4, 0
        vx_tmc t4
    .align 2
    half: .float 0.5
    )"}});
    dev.uploadObject(obj);
    dev.start();
    ASSERT_TRUE(dev.readyWait(1000000));
    EXPECT_EQ(dev.ram().read32(out), (Color{10, 20, 30, 255}.pack()));
    EXPECT_EQ(dev.ram().read32(out + 4),
              (Color{200, 150, 100, 255}.pack()));
}
