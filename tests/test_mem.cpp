/**
 * @file
 * Memory-subsystem tests: RAM paging, the memory simulator's latency,
 * bandwidth and lanes, the non-blocking banked cache (hits, misses, MSHR
 * merging, virtual-port coalescing, bank conflicts, write-through traffic,
 * flush), the scratchpad, and a randomized completeness property: every
 * request receives exactly one response, under any mix, with no deadlock.
 * Also the wake sources a dormant core or shared cache relies on: memory
 * responses, lane pushes, and credit returns from staging ports,
 * shared-cache lanes and the board memory, including how the Processor
 * wires them to its L2s and L3.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/processor.h"
#include "mem/cache.h"
#include "mem/memsim.h"
#include "mem/ram.h"
#include "mem/sharedmem.h"
#include "mem/staging.h"
#include "stat_rows.h"

using namespace vortex;
using namespace vortex::mem;

//
// RAM.
//

TEST(Ram, ReadWriteWidths)
{
    Ram ram;
    ram.write32(0x100, 0x11223344);
    EXPECT_EQ(ram.read8(0x100), 0x44u);
    EXPECT_EQ(ram.read8(0x103), 0x11u);
    EXPECT_EQ(ram.read16(0x100), 0x3344u);
    EXPECT_EQ(ram.read16(0x102), 0x1122u);
    EXPECT_EQ(ram.read32(0x100), 0x11223344u);
    ram.write8(0x101, 0xAA);
    EXPECT_EQ(ram.read32(0x100), 0x1122AA44u);
    ram.writeFloat(0x200, 2.5f);
    EXPECT_EQ(ram.readFloat(0x200), 2.5f);
}

TEST(Ram, PageBoundaryCrossing)
{
    Ram ram;
    Addr edge = Ram::kPageSize - 2;
    ram.write32(edge, 0xCAFEBABE);
    EXPECT_EQ(ram.read32(edge), 0xCAFEBABEu);
    EXPECT_EQ(ram.numPages(), 2u);

    std::vector<uint8_t> blob(300);
    for (size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<uint8_t>(i);
    ram.writeBlock(Ram::kPageSize - 100, blob.data(), blob.size());
    std::vector<uint8_t> back(300);
    ram.readBlock(Ram::kPageSize - 100, back.data(), back.size());
    EXPECT_EQ(blob, back);
}

TEST(Ram, UntouchedReadsZero)
{
    Ram ram;
    EXPECT_EQ(ram.read32(0xDEAD0000), 0u);
    EXPECT_EQ(ram.numPages(), 0u);
}

TEST(Ram, EdgesOfTheAddressSpaceAndOfALeaf)
{
    // 0x00FFFFFC and 0x01000000 sit on either side of a 16 MiB
    // boundary; 0x0 and 0xFFFFFFFC in the first and the last page.
    Ram ram;
    const Addr addrs[] = {0x0, 0x00FFFFFC, 0x01000000, 0xFFFFFFFC};
    for (Addr a : addrs)
        ram.write32(a, a ^ 0x5A5A5A5A);
    EXPECT_EQ(ram.numPages(), 4u);
    for (Addr a : addrs)
        EXPECT_EQ(ram.read32(a), a ^ 0x5A5A5A5A) << std::hex << a;
    // A word and a block straddling the 16 MiB boundary.
    ram.write32(0x00FFFFFE, 0xCAFEBABE);
    EXPECT_EQ(ram.read32(0x00FFFFFE), 0xCAFEBABEu);
    EXPECT_EQ(ram.read16(0x00FFFFFE), 0xBABEu);
    EXPECT_EQ(ram.read16(0x01000000), 0xCAFEu);
    std::vector<uint8_t> blob(64, 0xA5), back(64);
    ram.writeBlock(0x00FFFFE0, blob.data(), blob.size());
    ram.readBlock(0x00FFFFE0, back.data(), back.size());
    EXPECT_EQ(blob, back);
    EXPECT_EQ(ram.numPages(), 4u);
    // A block read over unwritten pages reads zeros.
    std::vector<uint8_t> zeros(16, 0xFF);
    ram.readBlock(0x7FFFFFF8, zeros.data(), zeros.size());
    EXPECT_EQ(zeros, std::vector<uint8_t>(16, 0));
    EXPECT_EQ(ram.numPages(), 4u);
}

TEST(Ram, AccessesWrapAtTheTopOfTheSpace)
{
    // An unaligned word and a block past 0xFFFFFFFF wrap to 0x0: nothing
    // touches host memory past the 4 GiB span.
    Ram ram;
    ram.write32(0xFFFFFFFE, 0xCAFEBABE);
    EXPECT_EQ(ram.read32(0xFFFFFFFE), 0xCAFEBABEu);
    EXPECT_EQ(ram.read16(0x0), 0xCAFEu);
    std::vector<uint8_t> blob(32), back(32);
    for (size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<uint8_t>(i + 1);
    ram.writeBlock(0xFFFFFFF0, blob.data(), blob.size());
    ram.readBlock(0xFFFFFFF0, back.data(), back.size());
    EXPECT_EQ(blob, back);
    EXPECT_EQ(ram.read8(0x0), 17u);
    EXPECT_EQ(ram.numPages(), 2u);
}

TEST(Ram, CodeMarksAcrossLeaves)
{
    Ram ram;
    // Marking a page nothing has written commits no page.
    ram.markCodePage(0x80000000);
    EXPECT_EQ(ram.numPages(), 0u);
    EXPECT_EQ(ram.read32(0x80000000), 0u);
    const uint64_t epoch = ram.codeWriteEpoch();
    // A store to an unmarked page, near the marked one or far from it,
    // leaves the epoch; a store to the marked page, from any width,
    // bumps it.
    ram.write32(0x80010000, 1);
    ram.write32(0x10000000, 1);
    ram.write8(0x7FFFFFFF, 1);
    EXPECT_EQ(ram.codeWriteEpoch(), epoch);
    ram.write32(0x8000FFFC, 1);
    EXPECT_EQ(ram.codeWriteEpoch(), epoch + 1);
    ram.write8(0x80000001, 1);
    EXPECT_EQ(ram.codeWriteEpoch(), epoch + 2);
    const uint32_t word = 0;
    ram.writeBlock(0x80000000, &word, sizeof(word));
    EXPECT_EQ(ram.codeWriteEpoch(), epoch + 3);
    EXPECT_EQ(ram.numPages(), 4u);
}

/** Lines of /proc/self/maps: this process's kernel mappings. */
size_t
mapCount()
{
    std::ifstream maps("/proc/self/maps");
    size_t n = 0;
    for (std::string line; std::getline(maps, line);)
        ++n;
    return n;
}

TEST(Ram, ScatteredStoresDoNotSplitTheMapping)
{
    // One byte every 128 KiB across 256 MiB: 2,048 written 64 KiB pages
    // (8 MiB resident), none adjacent. Committing page by page would split
    // the span into ~4,096 mappings, and a guest writing 16x as many would
    // reach the kernel's vm.max_map_count; committing 2 MiB regions keeps
    // these contiguous regions one mapping.
    Ram ram;
    const size_t before = mapCount();
    for (Addr a = 0x10000000; a < 0x20000000; a += 128 * 1024)
        ram.write8(a, 1);
    const size_t after = mapCount();
    EXPECT_EQ(ram.numPages(), 2048u);
    EXPECT_LT(after, before + 64) << before << " -> " << after << " maps";
    EXPECT_EQ(ram.read8(0x10000000), 1u);
    EXPECT_EQ(ram.read8(0x10010000), 0u);
}

//
// MemSim.
//

TEST(MemSim, ReadLatency)
{
    MemSimConfig cfg;
    cfg.latency = 10;
    cfg.lineSize = 64;
    cfg.busWidth = 16; // 4-cycle transfer
    MemSim mem(cfg);
    std::vector<std::pair<uint64_t, Cycle>> done;
    mem.setRspCallback(
        [&](const CoreRsp& r) { done.push_back({r.reqId, 0}); });

    mem.lanePush(0, CoreReq{0x1000, false, 1});
    Cycle now = 0;
    Cycle rsp_cycle = 0;
    while (done.empty() && now < 100) {
        ++now;
        mem.tick(now);
        if (!done.empty())
            rsp_cycle = now;
    }
    ASSERT_EQ(done.size(), 1u);
    // Accepted at cycle 1, responds at 1 + latency + lineCycles = 15.
    EXPECT_EQ(rsp_cycle, 15u);
    EXPECT_TRUE(mem.idle());
}

TEST(MemSim, WritesConsumeBandwidthNoResponse)
{
    MemSimConfig cfg;
    MemSim mem(cfg);
    int rsps = 0;
    mem.setRspCallback([&](const CoreRsp&) { ++rsps; });
    mem.lanePush(0, CoreReq{0x0, true, 1});
    mem.lanePush(0, CoreReq{0x40, true, 2});
    for (Cycle now = 1; now < 50; ++now)
        mem.tick(now);
    EXPECT_EQ(rsps, 0);
    EXPECT_TRUE(mem.idle());
    EXPECT_EQ(mem.stats().get("writes"), 2u);
}

TEST(MemSim, ChannelParallelism)
{
    // Two requests on different channels start the same cycle; on the same
    // channel they serialize by the transfer occupancy.
    MemSimConfig cfg;
    cfg.latency = 5;
    cfg.lineSize = 64;
    cfg.busWidth = 16;
    cfg.numChannels = 2;
    MemSim mem(cfg);
    std::vector<Cycle> times;
    Cycle now = 0;
    mem.setRspCallback([&](const CoreRsp&) { times.push_back(now); });
    // Same channel: lines 0 and 2 (interleaved by line index).
    mem.lanePush(0, CoreReq{0 * 64, false, 1});
    mem.lanePush(0, CoreReq{2 * 64, false, 2});
    for (now = 1; now < 50; ++now)
        mem.tick(now);
    ASSERT_EQ(times.size(), 2u);
    Cycle same_gap = times[1] - times[0];
    EXPECT_EQ(same_gap, 4u); // serialized by the 4-cycle transfer

    times.clear();
    MemSim mem2(cfg);
    mem2.setRspCallback([&](const CoreRsp&) { times.push_back(now); });
    mem2.lanePush(0, CoreReq{0 * 64, false, 1});
    mem2.lanePush(0, CoreReq{1 * 64, false, 2}); // different channel
    for (now = 1; now < 50; ++now)
        mem2.tick(now);
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[1] - times[0], 0u); // parallel channels
}

//
// Cache.
//

namespace {

struct CacheHarness
{
    explicit CacheHarness(CacheConfig ccfg = {}, MemSimConfig mcfg = {},
                          bool shared = false)
        : cache(ccfg, shared), mem(mcfg)
    {
        cache.connectMem(mem.link(0, nullptr));
        mem.setRspCallback(
            [this](const CoreRsp& r) { cache.memRsp(MemRsp{r.reqId}); });
        cache.setRspCallback(
            [this](const CoreRsp& r) { rsps.push_back(r); });
    }

    void
    tick()
    {
        ++now;
        mem.tick(now);
        cache.tick(now);
    }

    /** Run until idle; panics (via test failure) on stall-out. */
    void
    drain(uint32_t limit = 10000)
    {
        uint32_t n = 0;
        while (!cache.idle() || !mem.idle()) {
            tick();
            ASSERT_LT(++n, limit) << "cache did not drain";
        }
    }

    void
    push(uint32_t lane, Addr addr, bool write, uint64_t id)
    {
        while (!cache.laneReady(lane))
            tick();
        CoreReq req;
        req.addr = addr;
        req.write = write;
        req.reqId = id;
        cache.lanePush(lane, req);
    }

    Cache cache;
    MemSim mem;
    std::vector<CoreRsp> rsps;
    Cycle now = 0;
};

} // namespace

TEST(Cache, MissThenHitLatency)
{
    CacheHarness h;
    h.push(0, 0x1000, false, 1);
    h.drain();
    ASSERT_EQ(h.rsps.size(), 1u);
    EXPECT_EQ(h.cache.stats().get("read_misses"), 1u);
    Cycle miss_time = h.now;

    // Same line again: a hit, much faster.
    Cycle start = h.now;
    h.push(0, 0x1004, false, 2);
    h.drain();
    EXPECT_EQ(h.cache.stats().get("read_hits"), 1u);
    EXPECT_LT(h.now - start, miss_time / 2);
}

TEST(Cache, MshrMergesSameLine)
{
    CacheHarness h;
    // Four lanes read the same line in consecutive cycles: one memory
    // fill, the rest merge.
    h.push(0, 0x2000, false, 1);
    h.tick();
    h.push(1, 0x2004, false, 2);
    h.tick();
    h.push(2, 0x2008, false, 3);
    h.tick();
    h.push(3, 0x200C, false, 4);
    h.drain();
    EXPECT_EQ(h.rsps.size(), 4u);
    EXPECT_EQ(h.mem.stats().get("reads"), 1u);
    EXPECT_GE(h.cache.stats().get("mshr_merges"), 1u);
    // A merged miss answers each request on the lane it was pushed to.
    for (const CoreRsp& r : h.rsps)
        EXPECT_EQ(r.lane, r.reqId - 1) << r.reqId;
}

TEST(Cache, VirtualPortCoalescing)
{
    // With 4 virtual ports, 4 same-cycle same-line requests coalesce into
    // one bank access; with 1 port they serialize as bank conflicts.
    for (uint32_t ports : {1u, 4u}) {
        CacheConfig ccfg;
        ccfg.numPorts = ports;
        ccfg.numLanes = 4;
        CacheHarness h(ccfg);
        for (uint32_t lane = 0; lane < 4; ++lane)
            h.push(lane, 0x3000 + 4 * lane, false, lane + 1);
        h.drain();
        EXPECT_EQ(h.rsps.size(), 4u);
        for (const CoreRsp& r : h.rsps)
            EXPECT_EQ(r.lane, r.reqId - 1) << ports << " ports";
        if (ports == 4) {
            EXPECT_EQ(h.cache.stats().get("sel_conflicts"), 0u);
            EXPECT_EQ(h.cache.bankUtilization(), 1.0);
        } else {
            EXPECT_GE(h.cache.stats().get("sel_conflicts"), 3u);
            EXPECT_LT(h.cache.bankUtilization(), 1.0);
        }
    }
}

TEST(Cache, DifferentBanksNoConflict)
{
    CacheConfig ccfg;
    ccfg.numPorts = 1;
    CacheHarness h(ccfg);
    // Four different lines mapping to the four banks.
    for (uint32_t lane = 0; lane < 4; ++lane)
        h.push(lane, 0x4000 + 64 * lane, false, lane + 1);
    h.drain();
    EXPECT_EQ(h.rsps.size(), 4u);
    EXPECT_EQ(h.cache.stats().get("sel_conflicts"), 0u);
}

TEST(Cache, WriteThroughTraffic)
{
    CacheHarness h;
    h.push(0, 0x5000, true, 1);
    h.drain();
    ASSERT_EQ(h.rsps.size(), 1u);
    EXPECT_TRUE(h.rsps[0].write);
    EXPECT_EQ(h.mem.stats().get("writes"), 1u);
    EXPECT_EQ(h.mem.stats().get("reads"), 0u);

    // A read of that line still misses (no write-allocate).
    h.push(0, 0x5000, false, 2);
    h.drain();
    EXPECT_EQ(h.mem.stats().get("reads"), 1u);
}

TEST(Cache, EvictionOnCapacity)
{
    CacheConfig ccfg; // 16KB, 4 banks, 2 ways, 64B lines -> 32 sets/bank
    CacheHarness h(ccfg);
    // Three lines in the same set of the same bank (stride = banks * sets
    // * lineSize = 4*32*64 = 8192) overflow the 2 ways.
    for (uint64_t i = 0; i < 3; ++i) {
        h.push(0, static_cast<Addr>(0x10000 + i * 8192), false, i + 1);
        h.drain();
    }
    EXPECT_EQ(h.cache.stats().get("evictions"), 1u);
    // Re-reading the evicted line misses again.
    h.push(0, 0x10000, false, 9);
    h.drain();
    EXPECT_EQ(h.cache.stats().get("read_misses"), 4u);
}

TEST(Cache, FlushInvalidates)
{
    CacheHarness h;
    h.push(0, 0x6000, false, 1);
    h.drain();
    h.push(0, 0x6000, false, 2);
    h.drain();
    EXPECT_EQ(h.cache.stats().get("read_hits"), 1u);
    h.cache.flushAll();
    h.push(0, 0x6000, false, 3);
    h.drain();
    EXPECT_EQ(h.cache.stats().get("read_misses"), 2u);
}

TEST(Cache, RandomStressCompleteness)
{
    // Property: every request gets exactly one response, on the lane it
    // was pushed to, regardless of the mix of reads/writes/banks/lines,
    // with a small MSHR and memory queue (exercises the early-full
    // deadlock avoidance).
    CacheConfig ccfg;
    ccfg.mshrEntries = 2;
    ccfg.memQueueDepth = 2;
    ccfg.numLanes = 4;
    MemSimConfig mcfg;
    mcfg.latency = 17;
    mcfg.queueDepth = 2;
    CacheHarness h(ccfg, mcfg);

    Xorshift rng(99);
    std::map<uint64_t, uint32_t> outstanding; // reqId -> lane pushed
    uint64_t next_id = 1;
    const int kReqs = 2000;
    int sent = 0;
    while (sent < kReqs || !outstanding.empty()) {
        if (sent < kReqs) {
            uint32_t lane = rng.nextBounded(4);
            if (h.cache.laneReady(lane)) {
                CoreReq req;
                req.addr = rng.nextBounded(0x4000) & ~3u;
                req.write = rng.nextBounded(4) == 0;
                req.reqId = next_id++;
                h.cache.lanePush(lane, req);
                outstanding.emplace(req.reqId, lane);
                ++sent;
            }
        }
        h.tick();
        for (const CoreRsp& r : h.rsps) {
            auto it = outstanding.find(r.reqId);
            ASSERT_NE(it, outstanding.end()) << "duplicate response";
            EXPECT_EQ(r.lane, it->second) << r.reqId;
            outstanding.erase(it);
        }
        h.rsps.clear();
        ASSERT_LT(h.now, 1000000u) << "stall-out (deadlock?)";
    }
    h.drain();
    EXPECT_TRUE(h.cache.idle());
}

namespace {

/** One request per lane on a random subset of lanes, on one cycle in
 *  @p gap, so the unit both queues work and drains quiet. */
template <typename Unit>
void
pushBurst(Unit& unit, uint32_t lanes, Xorshift& rng, uint32_t gap,
          Addr base, uint64_t& next_id)
{
    if (rng.nextBounded(gap) != 0)
        return;
    for (uint32_t l = 0; l < lanes; ++l) {
        if (rng.nextBounded(2) == 0 || !unit.laneReady(l))
            continue;
        CoreReq req;
        req.addr = base + (rng.nextBounded(0x10000) & ~3u);
        req.write = rng.nextBounded(4) == 0;
        req.reqId = next_id++;
        unit.lanePush(l, req);
    }
}

/** Random traffic through @p h; at every cycle where quiet() holds,
 *  tick() must return false and move no counter in stats(). Counts
 *  the quiet cycles, and those with a fill still outstanding. */
void
checkQuietCacheTicks(CacheHarness& h, uint64_t seed, uint64_t& quiet,
                     uint64_t& quiet_busy)
{
    Xorshift rng(seed);
    uint64_t next_id = 1;
    const uint32_t lanes = h.cache.config().numLanes;
    for (int i = 0; i < 20000; ++i) {
        pushBurst(h.cache, lanes, rng, 64, 0, next_id);
        ++h.now;
        h.mem.tick(h.now);
        if (!h.cache.quiet()) {
            h.cache.tick(h.now);
            h.rsps.clear();
            continue;
        }
        const StatRows before = statRows(h.cache.stats());
        ASSERT_FALSE(h.cache.tick(h.now)) << "cycle " << h.now;
        ASSERT_EQ(statRows(h.cache.stats()), before) << "cycle " << h.now;
        ++quiet;
        quiet_busy += !h.cache.idle();
    }
}

} // namespace

TEST(Cache, QuietTickIsANoOp)
{
    // A core skips the tick of a quiet L1 (ARCHITECTURE.md "The inline
    // hot path"); this guards the skip if a later phase adds state that
    // quiet() does not see. The L1 is the compute_1c D$ (8 lanes: 4 LSU
    // + 4 texture); the L2 is a 4-core cluster's, built shared.
    core::ArchConfig arch;
    arch.numThreads = 4;
    arch.texEnabled = true;
    ASSERT_EQ(arch.dcacheConfig().numLanes, 8u);
    for (bool l2 : {false, true}) {
        CacheHarness h(l2 ? arch.l2Config(4) : arch.dcacheConfig(), {}, l2);
        uint64_t quiet = 0, quiet_busy = 0;
        checkQuietCacheTicks(h, l2 ? 31 : 17, quiet, quiet_busy);
        // Both kinds of quiet cycle occur: fully idle, and waiting on
        // a memory fill with nothing else to do.
        EXPECT_GT(quiet - quiet_busy, 1000u) << "l2=" << l2;
        EXPECT_GT(quiet_busy, 1000u) << "l2=" << l2;
    }
}

TEST(SharedMem, QuietTickIsANoOp)
{
    core::ArchConfig arch;
    arch.numThreads = 4;
    arch.smemLatency = 3;
    SharedMem smem(arch.smemConfig());
    smem.setRspCallback([](const CoreRsp&) {});
    Xorshift rng(23);
    uint64_t next_id = 1, quiet = 0;
    for (Cycle now = 1; now <= 20000; ++now) {
        pushBurst(smem, arch.numThreads, rng, 8, 0xFF000000, next_id);
        if (!smem.quiet()) {
            smem.tick(now);
            continue;
        }
        const StatRows before = statRows(smem.stats());
        ASSERT_FALSE(smem.tick(now)) << "cycle " << now;
        ASSERT_EQ(statRows(smem.stats()), before) << "cycle " << now;
        ++quiet;
    }
    EXPECT_GT(quiet, 1000u);
}

//
// SharedMem.
//

TEST(SharedMem, ConflictFreeParallelAccess)
{
    SharedMemConfig cfg;
    SharedMem smem(cfg);
    std::vector<CoreRsp> rsps;
    smem.setRspCallback([&](const CoreRsp& r) { rsps.push_back(r); });
    // Four lanes to four different banks: all accepted in one cycle.
    for (uint32_t lane = 0; lane < 4; ++lane) {
        CoreReq req;
        req.addr = 0xFF000000 + 4 * lane;
        req.reqId = lane + 1;
        smem.lanePush(lane, req);
    }
    Cycle now = 0;
    while (!smem.idle() && now < 100)
        smem.tick(++now);
    EXPECT_EQ(rsps.size(), 4u);
    EXPECT_EQ(smem.stats().get("bank_conflicts"), 0u);
    for (const CoreRsp& r : rsps)
        EXPECT_EQ(r.lane, r.reqId - 1) << r.reqId;
}

TEST(SharedMem, BankConflictSerializes)
{
    SharedMemConfig cfg;
    SharedMem smem(cfg);
    std::vector<CoreRsp> rsps;
    smem.setRspCallback([&](const CoreRsp& r) { rsps.push_back(r); });
    // Two lanes to the same bank (same word offset).
    for (uint32_t lane = 0; lane < 2; ++lane) {
        CoreReq req;
        req.addr = 0xFF000000; // same bank
        req.reqId = lane + 1;
        smem.lanePush(lane, req);
    }
    Cycle now = 0;
    while (!smem.idle() && now < 100)
        smem.tick(++now);
    EXPECT_EQ(rsps.size(), 2u);
    EXPECT_GE(smem.stats().get("bank_conflicts"), 1u);
    for (const CoreRsp& r : rsps)
        EXPECT_EQ(r.lane, r.reqId - 1) << r.reqId;
}

//
// Board-memory lanes (mem/memtypes.h "link rule").
//

TEST(MemSim, AnswersEachReadOnItsLane)
{
    MemSim mem(MemSimConfig{});
    std::vector<CoreRsp> got;
    mem.setRspCallback([&](const CoreRsp& r) { got.push_back(r); });
    MemSink* a = mem.link(0, nullptr);
    MemSink* b = mem.link(1, nullptr);
    // Each lane numbers its reads from its own pool, so ids repeat
    // across lanes.
    a->reqPush(MemReq{0x1000, false, 7});
    b->reqPush(MemReq{0x2000, false, 7});
    b->reqPush(MemReq{0x3000, true, 0}); // write: no response
    a->reqPush(MemReq{0x4000, false, 8});
    b->reqPush(MemReq{0x5000, false, 8});
    // A push straight into a lane nothing linked is answered there too.
    mem.lanePush(5, CoreReq{0x6000, false, 8});
    for (Cycle now = 1; !mem.idle(); ++now) {
        ASSERT_LT(now, 1000u) << "memory did not drain";
        mem.tick(now);
    }
    ASSERT_EQ(got.size(), 5u);
    const std::pair<uint64_t, uint32_t> want[] = {
        {7, 0}, {7, 1}, {8, 0}, {8, 1}, {8, 5}};
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].reqId, want[i].first) << i;
        EXPECT_EQ(got[i].lane, want[i].second) << i;
        EXPECT_FALSE(got[i].write) << i;
    }
}

//
// Dormant-owner wakes (ARCHITECTURE.md "Dormant cores and caches").
//

namespace {

/** A downstream sink that accepts requests only while open. */
struct GateSink : MemSink
{
    bool open = true;
    std::vector<MemReq> got;
    bool reqReady() const override { return open; }
    void reqPush(const MemReq& req) override { got.push_back(req); }
};

/** A latch whose owner sleeps until woken. */
WakeLatch
asleep()
{
    WakeLatch latch;
    latch.sleepUntil = kNoEvent;
    return latch;
}

} // namespace

TEST(Wake, DrainingAFullStagingPortWakesItsOwner)
{
    GateSink sink;
    WakeLatch latch = asleep();
    StagedMemPort port(&sink, 2, &latch);
    port.reqPush(MemReq{0x0, false, 1});
    port.reqPush(MemReq{0x40, false, 2});
    EXPECT_FALSE(port.reqReady());

    sink.open = false;
    port.drain(); // nothing moves: no credit, no wake
    EXPECT_EQ(latch.sleepUntil, kNoEvent);

    sink.open = true;
    port.drain();
    EXPECT_EQ(latch.sleepUntil, 0u);
    EXPECT_EQ(sink.got.size(), 2u);

    // A port that was never full returns no credit anyone waits on.
    latch = asleep();
    port.reqPush(MemReq{0x80, false, 3});
    port.drain();
    EXPECT_EQ(latch.sleepUntil, kNoEvent);
}

TEST(Wake, PoppingAFullCacheLaneWakesTheLaneOwner)
{
    CacheHarness h;
    WakeLatch owner = asleep(), other = asleep();
    h.cache.link(0, &owner);
    h.cache.link(1, &other);
    CoreReq req;
    for (uint64_t id = 1; h.cache.laneReady(0); ++id) {
        req.addr = 0x1000 + 4 * static_cast<Addr>(id);
        req.reqId = id;
        h.cache.lanePush(0, req);
    }
    h.tick();
    EXPECT_EQ(owner.sleepUntil, 0u);
    EXPECT_EQ(other.sleepUntil, kNoEvent);
    EXPECT_TRUE(h.cache.laneReady(0));
    h.drain();
}

TEST(Wake, MemoryResponseWakesTheCacheOwner)
{
    CacheHarness h;
    h.push(0, 0x1000, false, 1);
    WakeLatch latch = asleep();
    h.cache.setWakeLatch(&latch);
    h.drain(); // the miss's fill is the only wake source here
    EXPECT_EQ(latch.sleepUntil, 0u);
    EXPECT_EQ(h.rsps.size(), 1u);
}

TEST(Wake, BoardMemoryAcceptingFromAFullQueueWakesEveryLaneOwner)
{
    MemSimConfig cfg;
    cfg.queueDepth = 2;
    MemSim mem(cfg);
    // The lanes share one queue, so room in it is credit for both.
    WakeLatch a = asleep(), b = asleep();
    MemSink* port = mem.link(0, &a);
    mem.link(1, &b);

    port->reqPush(MemReq{0x0, true});
    mem.tick(1); // accepted from a non-full queue: nobody was blocked
    EXPECT_EQ(a.sleepUntil, kNoEvent);
    EXPECT_EQ(b.sleepUntil, kNoEvent);

    for (Cycle now = 2; !mem.idle(); ++now)
        mem.tick(now);
    port->reqPush(MemReq{0x0, true});
    port->reqPush(MemReq{0x40, true});
    EXPECT_FALSE(port->reqReady());
    mem.tick(100);
    EXPECT_EQ(a.sleepUntil, 0u);
    EXPECT_EQ(b.sleepUntil, 0u);
    EXPECT_TRUE(port->reqReady());
}

TEST(Wake, LanePushWakesASleepingSharedCache)
{
    CacheHarness h({}, {}, /*shared=*/true);
    h.cache.tickShared(1); // idle: nothing to do until an input arrives
    ASSERT_TRUE(h.cache.asleep(2));
    CoreReq req;
    req.addr = 0x1000;
    req.reqId = 1;
    h.cache.lanePush(0, req);
    EXPECT_FALSE(h.cache.asleep(2));
}

TEST(Wake, MemoryResponseWakesASleepingSharedCache)
{
    CacheHarness h({}, {}, /*shared=*/true);
    h.push(0, 0x1000, false, 1);
    // The Processor's loop: the board memory, then the cache unless it
    // sleeps through the cycle.
    auto step = [&h] {
        ++h.now;
        h.mem.tick(h.now);
        if (!h.cache.asleep(h.now))
            h.cache.tickShared(h.now);
    };
    // Run until the miss has gone to memory and the cache sleeps on it.
    while (h.mem.idle() || !h.cache.asleep(h.now + 1)) {
        step();
        ASSERT_LT(h.now, 100u) << "the miss never reached memory";
    }
    ASSERT_EQ(h.cache.nextEventAt(), kNoEvent) << "no timer may wake it";
    while (!h.cache.idle() || !h.mem.idle()) {
        step();
        ASSERT_LT(h.now, 1000u) << "the fill did not wake the cache";
    }
    EXPECT_EQ(h.rsps.size(), 1u);
    EXPECT_GT(h.cache.dormantCycles(), 0u);
}

namespace {

/** @p cores cores in 4-core L2 clusters, optionally in front of an L3. */
core::ArchConfig
clusteredConfig(uint32_t cores, bool l3)
{
    core::ArchConfig c;
    c.numCores = cores;
    c.coresPerCluster = 4;
    c.l2Enabled = true;
    c.l3Enabled = l3;
    return c;
}

/** Fill the board memory's input queue with line writes. */
void
fillBoardMemory(MemSim& mem)
{
    for (Addr line = 0; mem.laneReady(0); line += 0x40)
        mem.lanePush(0, CoreReq{line, true});
}

} // namespace

TEST(Wake, BoardMemoryCreditWakesTheSharedCacheInFrontOfIt)
{
    // The cache wired to the board memory: the L2 without an L3, else
    // the L3 (and not the L2 behind it).
    for (bool l3 : {false, true}) {
        core::Processor p(clusteredConfig(4, l3));
        Cache& front = l3 ? *p.l3() : *p.l2(0);
        front.sleepLatch()->sleepUntil = kNoEvent;
        p.l2(0)->sleepLatch()->sleepUntil = kNoEvent;
        fillBoardMemory(p.memSim());
        p.memSim().tick(1);
        ASSERT_TRUE(p.memSim().laneReady(0));
        EXPECT_FALSE(front.asleep(2)) << "l3=" << l3;
        if (l3) {
            EXPECT_TRUE(p.l2(0)->asleep(2));
        }
    }
}

TEST(Wake, L3LanePopWakesTheL2ThatFillsTheLane)
{
    core::Processor p(clusteredConfig(8, /*l3=*/true));
    Cache& l3 = *p.l3();
    for (size_t cl = 0; cl < 2; ++cl)
        p.l2(cl)->sleepLatch()->sleepUntil = kNoEvent;
    CoreReq req;
    for (uint64_t id = 1; l3.laneReady(1); ++id) {
        req.addr = 0x40 * static_cast<Addr>(id);
        req.reqId = id;
        l3.lanePush(1, req);
    }
    l3.tick(1);
    ASSERT_TRUE(l3.laneReady(1));
    EXPECT_FALSE(p.l2(1)->asleep(2));
    EXPECT_TRUE(p.l2(0)->asleep(2));
}
