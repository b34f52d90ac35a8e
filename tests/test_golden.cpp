/**
 * @file
 * Golden simulated-timing gate for host-performance work: the exact
 * cycle counts, thread-instruction counts, and headline device counters
 * of all six `perf_smoke` runs, in BOTH core orders (forward, and
 * reversed through core::Processor::setReverseCoreOrder). This table is
 * the single pin of those rows; ci/golden_outputs.json additionally
 * hashes the campaign's whole CSV/JSON output.
 *
 * Purpose: any host-perf refactor (decode caches, pooled uops, slot
 * pools, counter handles, ...) must leave simulated timing bit-identical
 * — these numbers may only change when the *timing model* deliberately
 * changes, and such a change must update this table and regenerate
 * ci/golden_outputs.json together, saying so.
 *
 * A second table pins the *entire* flattened collectStats row (every
 * counter, in key order) of stall-heavy runs that exercise every wake
 * path of dormant cores and shared caches (ARCHITECTURE.md "Dormant
 * cores and caches"): L2-clustered cores (also with a multi-cycle
 * scratchpad), L2 clusters in front of an L3, a global-barrier guest, an
 * L3 without L2s, one core of 64 wavefronts (the top bit of every
 * per-wavefront mask), plus a sampled series whose prime interval lands
 * samples mid-sleep. Stall counters that a dormant core or shared cache
 * re-credits for each sleeping cycle are in those rows, so a missed
 * credit, a missed timer or a missed wake shows up here. The
 * L2-in-front-of-L3 row runs saxpy, not bfs: bfs cores race on `cost[]`
 * in the same cycle (a program-level race, mem/ram.h), and on that
 * wiring the race gives reversed core order other cycles (68447, not
 * 68433).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "runtime/device.h"
#include "runtime/workloads.h"
#include "sweep/presets.h"
#include "sweep/spec.h"

using namespace vortex;

namespace {

/** One pinned run: matrix-order id + its headline counters. */
struct Golden
{
    const char* id; ///< RunSpec::id(), e.g. "vecadd/1"
    uint64_t cycles;
    uint64_t threadInstrs;
    uint64_t coreRetired;
    uint64_t icacheReads;
    uint64_t dcacheReads;
    uint64_t dcacheReadHits;
    uint64_t dcacheReadMisses;
    uint64_t memBytes;
};

/** The six perf_smoke runs, in matrix order. */
const Golden kGolden[] = {
    {"vecadd/1", 29368, 46140, 11582, 11582, 10338, 9152, 1186, 155840},
    {"vecadd/2", 16416, 47224, 11900, 11900, 10436, 8675, 1761, 164544},
    {"saxpy/1", 29799, 44092, 11070, 11070, 10338, 9125, 1213, 155776},
    {"saxpy/2", 16542, 45176, 11388, 11388, 10436, 9109, 1327, 163712},
    {"sgemm/1", 50766, 113981, 28543, 28543, 30050, 29560, 490, 49536},
    {"sgemm/2", 29821, 115066, 28862, 28862, 30148, 29200, 948, 62144},
};

/** Execute every perf_smoke run in the given core order and compare
 *  cycles / instructions / headline counters against the pinned table. */
void
checkOrder(bool reversed)
{
    sweep::SweepSpec spec = sweep::findPreset("perf_smoke")->spec();
    std::vector<sweep::RunSpec> runs = spec.expand();
    ASSERT_EQ(runs.size(), std::size(kGolden));

    for (size_t i = 0; i < runs.size(); ++i) {
        sweep::RunSpec& run = runs[i];
        const Golden& want = kGolden[i];
        ASSERT_EQ(run.id(), want.id) << "matrix order drifted";

        runtime::Device dev(run.config);
        dev.processor().setReverseCoreOrder(reversed);
        runtime::RunResult r = run.workload.run(dev);
        ASSERT_TRUE(r.ok) << run.id() << ": " << r.error;

        StatGroup flat;
        dev.processor().collectStats(flat);

        const char* order = reversed ? " [reversed]" : " [forward]";
        EXPECT_EQ(r.cycles, want.cycles) << want.id << order;
        EXPECT_EQ(r.threadInstrs, want.threadInstrs) << want.id << order;
        EXPECT_EQ(flat.get("core.thread_instrs"), want.threadInstrs)
            << want.id << order;
        EXPECT_EQ(flat.get("core.retired"), want.coreRetired)
            << want.id << order;
        EXPECT_EQ(flat.get("icache.core_reads"), want.icacheReads)
            << want.id << order;
        EXPECT_EQ(flat.get("dcache.core_reads"), want.dcacheReads)
            << want.id << order;
        EXPECT_EQ(flat.get("dcache.read_hits"), want.dcacheReadHits)
            << want.id << order;
        EXPECT_EQ(flat.get("dcache.read_misses"), want.dcacheReadMisses)
            << want.id << order;
        EXPECT_EQ(flat.get("mem.bytes"), want.memBytes)
            << want.id << order;
    }
}

/** Machines of the full-row pins. */
enum class Machine
{
    Clustered8,         ///< 8 cores in two 4-core L2 clusters
    Clustered8SlowSmem, ///< the same with an 8-cycle scratchpad
    Flat4,              ///< 4 cores straight to board memory
    L3Only4,            ///< 4 cores sharing an L3, no L2
    Clustered8L3,       ///< Clustered8 with the two L2s in front of an L3
    Wide64,             ///< 1 core of 64 wavefronts (bit 63 of every mask)
};

/** One run pinned by its whole flattened counter row. */
struct GoldenRow
{
    const char* id;
    Machine machine;
    const char* kernel; ///< Rodinia kernel, or a self-checking .s guest
    uint64_t cycles;
    std::vector<std::pair<std::string, uint64_t>> row;
};

const GoldenRow kGoldenRows[] = {
    {"bfs/8c-l2x4", Machine::Clustered8, "bfs", 70622,
     {
        {"core.thread_instrs", 288137}, {"core.warp_instrs", 108525},
        {"core.fetch_icache_stalls", 0}, {"core.fetches", 108525},
        {"core.issue_scoreboard_stalls", 67389},
        {"core.issue_structural_stalls", 508339}, {"core.barriers", 672},
        {"core.wspawned", 288}, {"core.writebacks", 65960},
        {"core.retired", 108525}, {"icache.core_reads", 108525},
        {"icache.core_writes", 0}, {"icache.core_rsps", 108525},
        {"icache.mem_reqs", 96}, {"icache.mshr_replays", 96},
        {"icache.fills", 96}, {"icache.memq_stalls", 0},
        {"icache.write_hits", 0}, {"icache.write_misses", 0},
        {"icache.read_hits", 108394}, {"icache.read_misses", 131},
        {"icache.mshr_merges", 35}, {"icache.mshr_stalls", 0},
        {"icache.evictions", 0}, {"icache.sel_candidates", 108525},
        {"icache.sel_input_full", 0}, {"icache.sel_accepted", 108525},
        {"icache.sel_conflicts", 0}, {"icache.flushes", 0},
        {"dcache.core_reads", 34080}, {"dcache.core_writes", 10382},
        {"dcache.core_rsps", 44462}, {"dcache.mem_reqs", 13117},
        {"dcache.mshr_replays", 2735}, {"dcache.fills", 2735},
        {"dcache.memq_stalls", 149290}, {"dcache.write_hits", 3236},
        {"dcache.write_misses", 7146}, {"dcache.read_hits", 26942},
        {"dcache.read_misses", 7138}, {"dcache.mshr_merges", 4403},
        {"dcache.mshr_stalls", 508}, {"dcache.evictions", 2282},
        {"dcache.sel_candidates", 641981}, {"dcache.sel_input_full", 542965},
        {"dcache.sel_accepted", 44462}, {"dcache.sel_conflicts", 54554},
        {"dcache.flushes", 0}, {"smem.reads", 4608}, {"smem.writes", 288},
        {"smem.candidates", 10368}, {"smem.bank_conflicts", 5472},
        {"smem.accesses", 4896}, {"tex.requests", 0}, {"tex.texel_fetches", 0},
        {"tex.unique_texels", 0}, {"tex.responses", 0},
        {"tex.batch_cycles", 0}, {"l2.core_reads", 2831},
        {"l2.core_writes", 10382}, {"l2.core_rsps", 13213},
        {"l2.mem_reqs", 11991}, {"l2.mshr_replays", 1609}, {"l2.fills", 1609},
        {"l2.memq_stalls", 47842}, {"l2.write_hits", 4634},
        {"l2.write_misses", 5748}, {"l2.read_hits", 1159},
        {"l2.read_misses", 1672}, {"l2.mshr_merges", 63},
        {"l2.mshr_stalls", 197}, {"l2.evictions", 1332},
        {"l2.sel_candidates", 170976}, {"l2.sel_input_full", 142920},
        {"l2.sel_accepted", 13213}, {"l2.sel_conflicts", 14843},
        {"l2.flushes", 0}, {"mem.reads", 1609}, {"mem.writes", 10382},
        {"mem.bytes", 767424}, {"mem.responses", 1609},
     }},
    {"saxpy/8c-l2x4", Machine::Clustered8, "saxpy", 13521,
     {
        {"core.thread_instrs", 51680}, {"core.warp_instrs", 13296},
        {"core.fetch_icache_stalls", 0}, {"core.fetches", 13296},
        {"core.issue_scoreboard_stalls", 51000},
        {"core.issue_structural_stalls", 88337}, {"core.barriers", 32},
        {"core.wspawned", 24}, {"core.writebacks", 9176},
        {"core.retired", 13296}, {"icache.core_reads", 13296},
        {"icache.core_writes", 0}, {"icache.core_rsps", 13296},
        {"icache.mem_reqs", 72}, {"icache.mshr_replays", 72},
        {"icache.fills", 72}, {"icache.memq_stalls", 0},
        {"icache.write_hits", 0}, {"icache.write_misses", 0},
        {"icache.read_hits", 13206}, {"icache.read_misses", 90},
        {"icache.mshr_merges", 18}, {"icache.mshr_stalls", 0},
        {"icache.evictions", 0}, {"icache.sel_candidates", 13296},
        {"icache.sel_input_full", 0}, {"icache.sel_accepted", 13296},
        {"icache.sel_conflicts", 0}, {"icache.flushes", 0},
        {"dcache.core_reads", 11024}, {"dcache.core_writes", 2824},
        {"dcache.core_rsps", 13848}, {"dcache.mem_reqs", 3302},
        {"dcache.mshr_replays", 478}, {"dcache.fills", 478},
        {"dcache.memq_stalls", 24025}, {"dcache.write_hits", 2048},
        {"dcache.write_misses", 776}, {"dcache.read_hits", 8699},
        {"dcache.read_misses", 2325}, {"dcache.mshr_merges", 1847},
        {"dcache.mshr_stalls", 0}, {"dcache.evictions", 187},
        {"dcache.sel_candidates", 88819}, {"dcache.sel_input_full", 55495},
        {"dcache.sel_accepted", 13848}, {"dcache.sel_conflicts", 19476},
        {"dcache.flushes", 0}, {"smem.reads", 384}, {"smem.writes", 24},
        {"smem.candidates", 864}, {"smem.bank_conflicts", 456},
        {"smem.accesses", 408}, {"tex.requests", 0}, {"tex.texel_fetches", 0},
        {"tex.unique_texels", 0}, {"tex.responses", 0},
        {"tex.batch_cycles", 0}, {"l2.core_reads", 550},
        {"l2.core_writes", 2824}, {"l2.core_rsps", 3374},
        {"l2.mem_reqs", 3229}, {"l2.mshr_replays", 405}, {"l2.fills", 405},
        {"l2.memq_stalls", 13830}, {"l2.write_hits", 2048},
        {"l2.write_misses", 776}, {"l2.read_hits", 102},
        {"l2.read_misses", 448}, {"l2.mshr_merges", 43}, {"l2.mshr_stalls", 0},
        {"l2.evictions", 69}, {"l2.sel_candidates", 31759},
        {"l2.sel_input_full", 27123}, {"l2.sel_accepted", 3374},
        {"l2.sel_conflicts", 1262}, {"l2.flushes", 0}, {"mem.reads", 405},
        {"mem.writes", 2824}, {"mem.bytes", 206656}, {"mem.responses", 405},
     }},
    {"bfs/8c-l2x4-smem8", Machine::Clustered8SlowSmem, "bfs", 70421,
     {
        {"core.thread_instrs", 288149}, {"core.warp_instrs", 108537},
        {"core.fetch_icache_stalls", 0}, {"core.fetches", 108537},
        {"core.issue_scoreboard_stalls", 67321},
        {"core.issue_structural_stalls", 561808}, {"core.barriers", 672},
        {"core.wspawned", 288}, {"core.writebacks", 65968},
        {"core.retired", 108537}, {"icache.core_reads", 108537},
        {"icache.core_writes", 0}, {"icache.core_rsps", 108537},
        {"icache.mem_reqs", 96}, {"icache.mshr_replays", 96},
        {"icache.fills", 96}, {"icache.memq_stalls", 0},
        {"icache.write_hits", 0}, {"icache.write_misses", 0},
        {"icache.read_hits", 108404}, {"icache.read_misses", 133},
        {"icache.mshr_merges", 37}, {"icache.mshr_stalls", 0},
        {"icache.evictions", 0}, {"icache.sel_candidates", 108537},
        {"icache.sel_input_full", 0}, {"icache.sel_accepted", 108537},
        {"icache.sel_conflicts", 0}, {"icache.flushes", 0},
        {"dcache.core_reads", 34084}, {"dcache.core_writes", 10386},
        {"dcache.core_rsps", 44470}, {"dcache.mem_reqs", 12974},
        {"dcache.mshr_replays", 2588}, {"dcache.fills", 2588},
        {"dcache.memq_stalls", 149479}, {"dcache.write_hits", 3240},
        {"dcache.write_misses", 7146}, {"dcache.read_hits", 27195},
        {"dcache.read_misses", 6889}, {"dcache.mshr_merges", 4301},
        {"dcache.mshr_stalls", 517}, {"dcache.evictions", 2135},
        {"dcache.sel_candidates", 640695}, {"dcache.sel_input_full", 541831},
        {"dcache.sel_accepted", 44470}, {"dcache.sel_conflicts", 54394},
        {"dcache.flushes", 0}, {"smem.reads", 4608}, {"smem.writes", 288},
        {"smem.candidates", 11120}, {"smem.bank_conflicts", 6224},
        {"smem.accesses", 4896}, {"tex.requests", 0}, {"tex.texel_fetches", 0},
        {"tex.unique_texels", 0}, {"tex.responses", 0},
        {"tex.batch_cycles", 0}, {"l2.core_reads", 2684},
        {"l2.core_writes", 10386}, {"l2.core_rsps", 13070},
        {"l2.mem_reqs", 11994}, {"l2.mshr_replays", 1608}, {"l2.fills", 1608},
        {"l2.memq_stalls", 47932}, {"l2.write_hits", 4740},
        {"l2.write_misses", 5646}, {"l2.read_hits", 1014},
        {"l2.read_misses", 1670}, {"l2.mshr_merges", 62},
        {"l2.mshr_stalls", 113}, {"l2.evictions", 1331},
        {"l2.sel_candidates", 171296}, {"l2.sel_input_full", 143439},
        {"l2.sel_accepted", 13070}, {"l2.sel_conflicts", 14787},
        {"l2.flushes", 0}, {"mem.reads", 1608}, {"mem.writes", 10386},
        {"mem.bytes", 767616}, {"mem.responses", 1608},
     }},
    {"stress_barrier/4c", Machine::Flat4, "stress_barrier", 92215,
     {
        {"core.thread_instrs", 152299}, {"core.warp_instrs", 43699},
        {"core.fetch_icache_stalls", 0}, {"core.fetches", 43699},
        {"core.issue_scoreboard_stalls", 1894},
        {"core.issue_structural_stalls", 611340}, {"core.barriers", 784},
        {"core.wspawned", 396}, {"core.writebacks", 33629},
        {"core.retired", 43699}, {"icache.core_reads", 43699},
        {"icache.core_writes", 0}, {"icache.core_rsps", 43699},
        {"icache.mem_reqs", 42}, {"icache.mshr_replays", 42},
        {"icache.fills", 42}, {"icache.memq_stalls", 0},
        {"icache.write_hits", 0}, {"icache.write_misses", 0},
        {"icache.read_hits", 43646}, {"icache.read_misses", 53},
        {"icache.mshr_merges", 11}, {"icache.mshr_stalls", 0},
        {"icache.evictions", 0}, {"icache.sel_candidates", 43699},
        {"icache.sel_input_full", 0}, {"icache.sel_accepted", 43699},
        {"icache.sel_conflicts", 0}, {"icache.flushes", 0},
        {"dcache.core_reads", 13724}, {"dcache.core_writes", 13341},
        {"dcache.core_rsps", 27065}, {"dcache.mem_reqs", 17008},
        {"dcache.mshr_replays", 3667}, {"dcache.fills", 3667},
        {"dcache.memq_stalls", 124112}, {"dcache.write_hits", 3615},
        {"dcache.write_misses", 9726}, {"dcache.read_hits", 4971},
        {"dcache.read_misses", 8753}, {"dcache.mshr_merges", 5086},
        {"dcache.mshr_stalls", 144}, {"dcache.evictions", 3649},
        {"dcache.sel_candidates", 494963}, {"dcache.sel_input_full", 427688},
        {"dcache.sel_accepted", 27065}, {"dcache.sel_conflicts", 40210},
        {"dcache.flushes", 0}, {"smem.reads", 6336}, {"smem.writes", 396},
        {"smem.candidates", 14256}, {"smem.bank_conflicts", 7524},
        {"smem.accesses", 6732}, {"tex.requests", 0}, {"tex.texel_fetches", 0},
        {"tex.unique_texels", 0}, {"tex.responses", 0},
        {"tex.batch_cycles", 0}, {"mem.reads", 3709}, {"mem.writes", 13341},
        {"mem.bytes", 1091200}, {"mem.responses", 3709},
     }},
    {"saxpy/4c-l3", Machine::L3Only4, "saxpy", 12541,
     {
        {"core.thread_instrs", 47344}, {"core.warp_instrs", 12024},
        {"core.fetch_icache_stalls", 0}, {"core.fetches", 12024},
        {"core.issue_scoreboard_stalls", 41092},
        {"core.issue_structural_stalls", 21051}, {"core.barriers", 16},
        {"core.wspawned", 12}, {"core.writebacks", 8172},
        {"core.retired", 12024}, {"icache.core_reads", 12024},
        {"icache.core_writes", 0}, {"icache.core_rsps", 12024},
        {"icache.mem_reqs", 36}, {"icache.mshr_replays", 36},
        {"icache.fills", 36}, {"icache.memq_stalls", 0},
        {"icache.write_hits", 0}, {"icache.write_misses", 0},
        {"icache.read_hits", 11976}, {"icache.read_misses", 48},
        {"icache.mshr_merges", 12}, {"icache.mshr_stalls", 0},
        {"icache.evictions", 0}, {"icache.sel_candidates", 12024},
        {"icache.sel_input_full", 0}, {"icache.sel_accepted", 12024},
        {"icache.sel_conflicts", 0}, {"icache.flushes", 0},
        {"dcache.core_reads", 10632}, {"dcache.core_writes", 2436},
        {"dcache.core_rsps", 13068}, {"dcache.mem_reqs", 2796},
        {"dcache.mshr_replays", 360}, {"dcache.fills", 360},
        {"dcache.memq_stalls", 2427}, {"dcache.write_hits", 2040},
        {"dcache.write_misses", 396}, {"dcache.read_hits", 8638},
        {"dcache.read_misses", 1994}, {"dcache.mshr_merges", 1634},
        {"dcache.mshr_stalls", 0}, {"dcache.evictions", 89},
        {"dcache.sel_candidates", 36889}, {"dcache.sel_input_full", 5158},
        {"dcache.sel_accepted", 13068}, {"dcache.sel_conflicts", 18663},
        {"dcache.flushes", 0}, {"smem.reads", 192}, {"smem.writes", 12},
        {"smem.candidates", 432}, {"smem.bank_conflicts", 228},
        {"smem.accesses", 204}, {"tex.requests", 0}, {"tex.texel_fetches", 0},
        {"tex.unique_texels", 0}, {"tex.responses", 0},
        {"tex.batch_cycles", 0}, {"l3.core_reads", 396},
        {"l3.core_writes", 2436}, {"l3.core_rsps", 2832},
        {"l3.mem_reqs", 2766}, {"l3.mshr_replays", 330}, {"l3.fills", 330},
        {"l3.memq_stalls", 1736}, {"l3.write_hits", 2048},
        {"l3.write_misses", 388}, {"l3.read_hits", 41},
        {"l3.read_misses", 355}, {"l3.mshr_merges", 25}, {"l3.mshr_stalls", 0},
        {"l3.evictions", 4}, {"l3.sel_candidates", 6085},
        {"l3.sel_input_full", 2617}, {"l3.sel_accepted", 2832},
        {"l3.sel_conflicts", 636}, {"l3.flushes", 0}, {"mem.reads", 330},
        {"mem.writes", 2436}, {"mem.bytes", 177024}, {"mem.responses", 330},
     }},
    {"saxpy/8c-l2x4-l3", Machine::Clustered8L3, "saxpy", 13473,
     {
        {"core.thread_instrs", 51680}, {"core.warp_instrs", 13296},
        {"core.fetch_icache_stalls", 0}, {"core.fetches", 13296},
        {"core.issue_scoreboard_stalls", 79891},
        {"core.issue_structural_stalls", 80679}, {"core.barriers", 32},
        {"core.wspawned", 24}, {"core.writebacks", 9176},
        {"core.retired", 13296}, {"icache.core_reads", 13296},
        {"icache.core_writes", 0}, {"icache.core_rsps", 13296},
        {"icache.mem_reqs", 72}, {"icache.mshr_replays", 72},
        {"icache.fills", 72}, {"icache.memq_stalls", 0},
        {"icache.write_hits", 0}, {"icache.write_misses", 0},
        {"icache.read_hits", 13207}, {"icache.read_misses", 89},
        {"icache.mshr_merges", 17}, {"icache.mshr_stalls", 0},
        {"icache.evictions", 0}, {"icache.sel_candidates", 13296},
        {"icache.sel_input_full", 0}, {"icache.sel_accepted", 13296},
        {"icache.sel_conflicts", 0}, {"icache.flushes", 0},
        {"dcache.core_reads", 11024}, {"dcache.core_writes", 2824},
        {"dcache.core_rsps", 13848}, {"dcache.mem_reqs", 3323},
        {"dcache.mshr_replays", 499}, {"dcache.fills", 499},
        {"dcache.memq_stalls", 16259}, {"dcache.write_hits", 2044},
        {"dcache.write_misses", 780}, {"dcache.read_hits", 8576},
        {"dcache.read_misses", 2448}, {"dcache.mshr_merges", 1949},
        {"dcache.mshr_stalls", 0}, {"dcache.evictions", 208},
        {"dcache.sel_candidates", 73509}, {"dcache.sel_input_full", 40091},
        {"dcache.sel_accepted", 13848}, {"dcache.sel_conflicts", 19570},
        {"dcache.flushes", 0}, {"smem.reads", 384}, {"smem.writes", 24},
        {"smem.candidates", 864}, {"smem.bank_conflicts", 456},
        {"smem.accesses", 408}, {"tex.requests", 0}, {"tex.texel_fetches", 0},
        {"tex.unique_texels", 0}, {"tex.responses", 0},
        {"tex.batch_cycles", 0}, {"l2.core_reads", 571},
        {"l2.core_writes", 2824}, {"l2.core_rsps", 3395},
        {"l2.mem_reqs", 3228}, {"l2.mshr_replays", 404}, {"l2.fills", 404},
        {"l2.memq_stalls", 11818}, {"l2.write_hits", 2048},
        {"l2.write_misses", 776}, {"l2.read_hits", 121},
        {"l2.read_misses", 450}, {"l2.mshr_merges", 46},
        {"l2.mshr_stalls", 395}, {"l2.evictions", 68},
        {"l2.sel_candidates", 24479}, {"l2.sel_input_full", 19818},
        {"l2.sel_accepted", 3395}, {"l2.sel_conflicts", 1266},
        {"l2.flushes", 0}, {"l3.core_reads", 404}, {"l3.core_writes", 2824},
        {"l3.core_rsps", 3228}, {"l3.mem_reqs", 3218},
        {"l3.mshr_replays", 394}, {"l3.fills", 394}, {"l3.memq_stalls", 13535},
        {"l3.write_hits", 2048}, {"l3.write_misses", 776}, {"l3.read_hits", 3},
        {"l3.read_misses", 401}, {"l3.mshr_merges", 7}, {"l3.mshr_stalls", 0},
        {"l3.evictions", 68}, {"l3.sel_candidates", 13940},
        {"l3.sel_input_full", 10289}, {"l3.sel_accepted", 3228},
        {"l3.sel_conflicts", 423}, {"l3.flushes", 0}, {"mem.reads", 394},
        {"mem.writes", 2824}, {"mem.bytes", 205952}, {"mem.responses", 394},
     }},
    {"saxpy/1c-64w", Machine::Wide64, "saxpy", 59291,
     {
        {"core.thread_instrs", 59572}, {"core.warp_instrs", 15030},
        {"core.fetch_icache_stalls", 0}, {"core.fetches", 15030},
        {"core.issue_scoreboard_stalls", 11370},
        {"core.issue_structural_stalls", 1274406}, {"core.barriers", 64},
        {"core.wspawned", 63}, {"core.writebacks", 10599},
        {"core.retired", 15030}, {"icache.core_reads", 15030},
        {"icache.core_writes", 0}, {"icache.core_rsps", 15030},
        {"icache.mem_reqs", 9}, {"icache.mshr_replays", 9},
        {"icache.fills", 9}, {"icache.memq_stalls", 0},
        {"icache.write_hits", 0}, {"icache.write_misses", 0},
        {"icache.read_hits", 14883}, {"icache.read_misses", 147},
        {"icache.mshr_merges", 138}, {"icache.mshr_stalls", 0},
        {"icache.evictions", 0}, {"icache.sel_candidates", 15032},
        {"icache.sel_input_full", 2}, {"icache.sel_accepted", 15030},
        {"icache.sel_conflicts", 0}, {"icache.flushes", 0},
        {"dcache.core_reads", 11778}, {"dcache.core_writes", 3585},
        {"dcache.core_rsps", 15363}, {"dcache.mem_reqs", 5287},
        {"dcache.mshr_replays", 1702}, {"dcache.fills", 1702},
        {"dcache.memq_stalls", 6557}, {"dcache.write_hits", 2032},
        {"dcache.write_misses", 1553}, {"dcache.read_hits", 7135},
        {"dcache.read_misses", 4643}, {"dcache.mshr_merges", 2941},
        {"dcache.mshr_stalls", 9727}, {"dcache.evictions", 1446},
        {"dcache.sel_candidates", 77533}, {"dcache.sel_input_full", 39809},
        {"dcache.sel_accepted", 15363}, {"dcache.sel_conflicts", 22361},
        {"dcache.flushes", 0}, {"smem.reads", 768}, {"smem.writes", 3},
        {"smem.candidates", 1861}, {"smem.bank_conflicts", 1090},
        {"smem.accesses", 771}, {"tex.requests", 0}, {"tex.texel_fetches", 0},
        {"tex.unique_texels", 0}, {"tex.responses", 0},
        {"tex.batch_cycles", 0}, {"mem.reads", 1711}, {"mem.writes", 3585},
        {"mem.bytes", 338944}, {"mem.responses", 1711},
     }},
};

core::ArchConfig
machineConfig(Machine m)
{
    core::ArchConfig c;
    switch (m) {
      case Machine::Clustered8:
      case Machine::Clustered8SlowSmem:
      case Machine::Clustered8L3:
        c = sweep::baselineConfig(8);
        c.coresPerCluster = 4;
        c.l2Enabled = true;
        if (m == Machine::Clustered8SlowSmem)
            c.smemLatency = 8; // scratchpad responses mature mid-sleep
        if (m == Machine::Clustered8L3)
            c.l3Enabled = true;
        break;
      case Machine::Flat4:
        c = sweep::baselineConfig(4);
        c.l2Enabled = false;
        break;
      case Machine::L3Only4:
        c = sweep::baselineConfig(4);
        c.l2Enabled = false;
        c.l3Enabled = true;
        break;
      case Machine::Wide64:
        c = sweep::baselineConfig(1);
        c.numWarps = 64;
        break;
    }
    return c;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Run @p kernel at scale 1 on @p dev: a Rodinia kernel through its
 *  host harness, or a zoo guest through the self-check mailbox. */
runtime::RunResult
runKernel(runtime::Device& dev, const std::string& kernel)
{
    if (kernel != "stress_barrier")
        return runtime::runRodinia(dev, kernel, 1);
    sweep::WorkloadSpec w;
    w.kernel = kernel;
    w.program = std::string(VORTEX_KERNELS_DIR) + "/" + kernel + ".s";
    w.programSource = readFile(w.program);
    w.check = "selfcheck";
    return w.run(dev);
}

void
checkRows(bool reversed)
{
    const char* order = reversed ? " [reversed]" : " [forward]";
    for (const GoldenRow& want : kGoldenRows) {
        runtime::Device dev(machineConfig(want.machine));
        dev.processor().setReverseCoreOrder(reversed);
        runtime::RunResult r = runKernel(dev, want.kernel);
        ASSERT_TRUE(r.ok) << want.id << order << ": " << r.error;
        EXPECT_EQ(r.cycles, want.cycles) << want.id << order;

        StatGroup flat;
        dev.processor().collectStats(flat);
        std::vector<std::pair<std::string, uint64_t>> got(flat.all().begin(),
                                                          flat.all().end());
        ASSERT_EQ(got.size(), want.row.size()) << want.id << order;
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], want.row[i])
                << want.id << order << " counter #" << i;
        }
    }
}

/** FNV-1a 64 over every field of @p ts (interval, stamps, keys, deltas). */
uint64_t
seriesDigest(const TimeSeries& ts)
{
    uint64_t h = 1469598103934665603ull;
    auto byte = [&h](uint8_t b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    auto word = [&byte](uint64_t v) {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    };
    word(ts.interval);
    for (uint64_t c : ts.sampleCycles)
        word(c);
    for (const std::string& k : ts.keys) {
        for (char ch : k)
            byte(static_cast<uint8_t>(ch));
        word(0);
    }
    for (const auto& row : ts.deltas)
        for (uint64_t d : row)
            word(d);
    return h;
}

} // namespace

TEST(Golden, FullCounterRowsForwardCoreOrder)
{
    checkRows(/*reversed=*/false);
}

TEST(Golden, FullCounterRowsReversedCoreOrder)
{
    checkRows(/*reversed=*/true);
}

TEST(Golden, PrimeIntervalSeriesBothCoreOrders)
{
    // 997 is prime and shares no factor with any pipeline latency, so
    // sample boundaries fall inside dormant stretches of every core.
    for (bool reversed : {false, true}) {
        core::ArchConfig cfg = machineConfig(Machine::Clustered8);
        cfg.sampleInterval = 997;
        runtime::Device dev(cfg);
        dev.processor().setReverseCoreOrder(reversed);
        runtime::RunResult r = runtime::runRodinia(dev, "bfs", 1);
        ASSERT_TRUE(r.ok) << r.error;
        const TimeSeries& ts = dev.processor().timeSeries();
        EXPECT_EQ(ts.numSamples(), 71u) << "reversed=" << reversed;
        EXPECT_EQ(ts.keys.size(), 81u) << "reversed=" << reversed;
        EXPECT_EQ(ts.sampleCycles.back(), 70622u) << "reversed=" << reversed;
        EXPECT_EQ(seriesDigest(ts), 0x2bd1e975f4c9ba8cull)
            << "reversed=" << reversed;
    }
}

TEST(Golden, StallHeavyClusteredRunIsMostlyDormant)
{
    // Keeps the dormant-core tick from silently switching itself off:
    // on the L2-clustered runs above most core-cycles are spent asleep.
    for (const char* kernel : {"bfs", "saxpy"}) {
        runtime::Device dev(machineConfig(Machine::Clustered8));
        runtime::RunResult r = runtime::runRodinia(dev, kernel, 1);
        ASSERT_TRUE(r.ok) << r.error;
        uint64_t dormant = 0, cycles = 0;
        for (size_t c = 0; c < dev.processor().numCores(); ++c) {
            dormant += dev.processor().core(c).dormantCycles();
            cycles += dev.processor().core(c).cycles();
        }
        EXPECT_GE(2 * dormant, cycles)
            << kernel << ": " << dormant << " of " << cycles
            << " core-cycles dormant";
    }
}

TEST(Golden, StallHeavyClusteredRunHasMostlyDormantL2s)
{
    // The same floor for the shared caches: most L2-cycles of those runs
    // change nothing, so a shared cache that stops sleeping shows here.
    for (const char* kernel : {"bfs", "saxpy"}) {
        runtime::Device dev(machineConfig(Machine::Clustered8));
        runtime::RunResult r = runtime::runRodinia(dev, kernel, 1);
        ASSERT_TRUE(r.ok) << r.error;
        uint64_t dormant = 0, cycles = 0;
        for (size_t cl = 0; dev.processor().l2(cl); ++cl) {
            dormant += dev.processor().l2(cl)->dormantCycles();
            cycles += r.cycles;
        }
        EXPECT_GE(2 * dormant, cycles)
            << kernel << ": " << dormant << " of " << cycles
            << " L2-cycles dormant";
    }
}

TEST(Golden, PerfSmokeForwardCoreOrderMatchesBenchBaseline)
{
    checkOrder(/*reversed=*/false);
}

TEST(Golden, PerfSmokeReversedCoreOrderMatchesBenchBaseline)
{
    checkOrder(/*reversed=*/true);
}
