/**
 * @file
 * google-benchmark micro suite: throughput of the individual substrates
 * (decoder, assembler, functional sampler, cache model, and
 * whole-processor simulation speed). These are simulator engineering
 * numbers, not paper figures; they guard against performance regressions
 * in the infrastructure itself.
 */

#include <benchmark/benchmark.h>

#include "common/stats.h"
#include "core/decode_cache.h"
#include "isa/assembler.h"
#include "isa/isa.h"
#include "kernels/kernels.h"
#include "mem/cache.h"
#include "mem/ram.h"
#include "runtime/workloads.h"
#include "tex/sampler.h"

using namespace vortex;

static void
BM_Decode(benchmark::State& state)
{
    // A representative mix of encodings.
    const uint32_t words[] = {
        0x00A50533, // add a0, a0, a0
        0x0005A503, // lw a0, 0(a1)
        0x00B52023, // sw a1, 0(a0)
        0x00C58563, // beq a1, a2, ...
        0x00A585D3, // fadd.s fa1, fa1, fa0
        0x0000100B, // vx_tmc-ish custom
    };
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(isa::decode(words[i % 6]));
        ++i;
    }
}
BENCHMARK(BM_Decode);

static void
BM_AssembleVecAdd(benchmark::State& state)
{
    std::string src = std::string(kernels::runtimeSource()) +
                      kernels::kernelSource("vecadd");
    for (auto _ : state) {
        isa::Assembler as;
        benchmark::DoNotOptimize(as.assemble(src));
    }
}
BENCHMARK(BM_AssembleVecAdd);

static void
BM_SamplerBilinear(benchmark::State& state)
{
    mem::Ram ram;
    tex::SamplerState st;
    st.addr = 0x1000;
    st.widthLog2 = 6;
    st.heightLog2 = 6;
    st.format = tex::Format::RGBA8;
    st.wrapU = st.wrapV = tex::Wrap::Repeat;
    st.filter = tex::Filter::Bilinear;
    for (uint32_t i = 0; i < 64 * 64; ++i)
        ram.write32(0x1000 + i * 4, i * 0x01010101u);
    float u = 0.1f;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tex::sampleBilinear(ram, st, u, 0.7f, 0));
        u += 0.013f;
        if (u > 1.0f)
            u -= 1.0f;
    }
}
BENCHMARK(BM_SamplerBilinear);

static void
BM_CacheHitStream(benchmark::State& state)
{
    mem::CacheConfig cfg;
    cfg.numLanes = 4;
    mem::Cache cache(cfg);
    mem::MemSimConfig mcfg;
    mem::MemSim memsim(mcfg);
    cache.connectMem(&memsim);
    memsim.setRspCallback(
        [&](const mem::MemRsp& rsp) { cache.memRsp(rsp); });
    uint64_t id = 1;
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        for (uint32_t lane = 0; lane < 4; ++lane) {
            if (cache.laneReady(lane)) {
                mem::CoreReq req;
                req.addr = (lane * 64) & 0xFFF;
                req.reqId = id++;
                req.lane = lane;
                cache.lanePush(lane, req);
            }
        }
        cache.tick(now);
        memsim.tick(now);
    }
    state.SetItemsProcessed(static_cast<int64_t>(id));
}
BENCHMARK(BM_CacheHitStream);

static void
BM_FetchDecode(benchmark::State& state)
{
    // The per-fetch host cost of producing a decoded instruction from a
    // PC, over a loop-shaped 256-instruction code region. Arg 0 is the
    // pre-decode-cache path (RAM read + full decode every fetch); arg 1
    // is the steady-state DecodeCache::lookup path the core now runs.
    mem::Ram ram;
    const Addr base = 0x80000000;
    const uint32_t n = 256;
    for (uint32_t i = 0; i < n; ++i)
        ram.write32(base + i * 4, 0x00A50533); // add a0, a0, a0
    core::DecodeCache dcache;
    const bool cached = state.range(0) != 0;
    Addr pc = base;
    for (auto _ : state) {
        if (cached) {
            benchmark::DoNotOptimize(dcache.lookup(ram, pc));
        } else {
            benchmark::DoNotOptimize(isa::decode(ram.read32(pc)));
        }
        pc += 4;
        if (pc == base + n * 4)
            pc = base;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FetchDecode)->Arg(0)->Arg(1);

static void
BM_StatCounterLookup(benchmark::State& state)
{
    // The per-event cost of bumping a stat counter in a group sized like
    // the D$'s (18 keys). Arg 0 is the string-keyed map probe the hot
    // paths used to pay per event; arg 1 is the cached CounterRef.
    StatGroup g("dcache");
    static const char* kKeys[] = {
        "core_reads", "core_writes", "core_rsps", "mem_reqs",
        "mshr_replays", "fills", "memq_stalls", "write_hits",
        "write_misses", "read_hits", "read_misses", "mshr_merges",
        "mshr_stalls", "evictions", "sel_candidates", "sel_input_full",
        "sel_accepted", "sel_conflicts",
    };
    for (const char* k : kKeys)
        g.counter(k);
    CounterRef ref = g.counterRef("read_hits");
    const bool use_ref = state.range(0) != 0;
    for (auto _ : state) {
        if (use_ref)
            ++ref;
        else
            ++g.counter("read_hits");
    }
    benchmark::DoNotOptimize(g.get("read_hits"));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatCounterLookup)->Arg(0)->Arg(1);

static void
BM_SimulatorThroughput(benchmark::State& state)
{
    // Whole-stack simulation speed in simulated cycles per second.
    uint64_t cycles = 0;
    for (auto _ : state) {
        core::ArchConfig cfg;
        runtime::Device dev(cfg);
        runtime::RunResult r = runtime::runVecAdd(dev, 1024);
        if (!r.ok)
            state.SkipWithError("vecadd verification failed");
        cycles += r.cycles;
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

static void
BM_SimulatorSampling(benchmark::State& state)
{
    // Tick-path cost of per-interval counter sampling. Arg is
    // ArchConfig::sampleInterval: 0 = disabled (the guard branch only —
    // must be indistinguishable from BM_SimulatorThroughput), small
    // intervals bound the worst-case snapshot overhead.
    uint64_t cycles = 0, samples = 0;
    for (auto _ : state) {
        core::ArchConfig cfg;
        cfg.sampleInterval = static_cast<uint64_t>(state.range(0));
        runtime::Device dev(cfg);
        runtime::RunResult r = runtime::runVecAdd(dev, 1024);
        if (!r.ok)
            state.SkipWithError("vecadd verification failed");
        cycles += r.cycles;
        samples += dev.processor().timeSeries().numSamples();
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    state.counters["samples"] = static_cast<double>(samples);
}
BENCHMARK(BM_SimulatorSampling)
    ->Arg(0)
    ->Arg(10000)
    ->Arg(1000)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
