/**
 * @file
 * Architectural configuration of the simulated Vortex processor. The
 * defaults model the paper's baseline: 4 wavefronts x 4 threads per core
 * (chosen in §6.2.1), 16 KiB L1D + shared memory, 8 KiB L1I, 4-bank
 * single-virtual-port data cache, and a 2-channel board memory (Arria 10).
 */

#pragma once

#include <cstdint>

#include "common/types.h"
#include "mem/cache.h"
#include "mem/memsim.h"
#include "mem/sharedmem.h"

#include "core/scheduler.h"

namespace vortex::core {

/** Functional-unit latencies in cycles (paper §6.2: DSP-based FMA; nearn is
 *  hurt by its "expensive long-latency floating-point square-root"). */
struct FuLatencies
{
    uint32_t alu = 1;   ///< pipelined
    uint32_t mul = 3;   ///< pipelined
    uint32_t div = 32;  ///< iterative (unit busy)
    uint32_t fpu = 4;   ///< add/mul/fma, pipelined DSP
    uint32_t fcvt = 2;  ///< converts/moves/compares, pipelined
    uint32_t fdiv = 16; ///< iterative (unit busy)
    uint32_t fsqrt = 24;///< iterative (unit busy)
    uint32_t sfu = 1;   ///< wspawn/tmc/split/join/bar control ops
};

/** Full machine configuration. */
struct ArchConfig
{
    //
    // SIMT geometry.
    //
    uint32_t numThreads = 4; ///< threads per wavefront (max 64)
    uint32_t numWarps = 4;   ///< wavefronts per core
    uint32_t numCores = 1;   ///< cores in the device
    uint32_t coresPerCluster = 4; ///< cores sharing one (optional) L2

    //
    // Pipeline.
    //
    uint32_t ibufferDepth = 2; ///< per-wavefront instruction-buffer depth
    uint32_t lsuDepth = 4; ///< in-flight warp memory ops per core
    SchedPolicy schedPolicy =
        SchedPolicy::Hierarchical; ///< wavefront selection policy
    FuLatencies lat;               ///< functional-unit latencies

    //
    // L1 caches (per core).
    //
    uint32_t lineSize = 64;     ///< cache line size (bytes; also board mem)
    uint32_t icacheSize = 8192; ///< L1I size (bytes)
    uint32_t icacheWays = 2;    ///< L1I associativity
    uint32_t dcacheSize = 16384;///< L1D size (bytes)
    uint32_t dcacheWays = 2;    ///< L1D associativity
    uint32_t dcacheBanks = 4;   ///< L1D bank count
    uint32_t dcachePorts = 1; ///< virtual ports per bank (Fig. 19 knob)
    uint32_t mshrEntries = 8; ///< MSHR entries per bank (non-blocking depth)

    //
    // Shared memory (per core).
    //
    uint32_t smemSize = 16384; ///< scratchpad size (bytes)
    uint32_t smemLatency = 1;  ///< scratchpad access latency (cycles)

    //
    // Optional cache hierarchy.
    //
    bool l2Enabled = false;   ///< attach a per-cluster L2
    uint32_t l2Size = 131072; ///< L2 size (bytes)
    uint32_t l2Banks = 8;     ///< L2 bank count
    uint32_t l2Ways = 4;      ///< L2 associativity
    bool l3Enabled = false;   ///< attach a device-level L3
    uint32_t l3Size = 262144; ///< L3 size (bytes)
    uint32_t l3Banks = 8;     ///< L3 bank count
    uint32_t l3Ways = 8;      ///< L3 associativity

    //
    // Board memory.
    //
    mem::MemSimConfig mem{/*latency=*/80, /*lineSize=*/64, /*busWidth=*/16,
                          /*numChannels=*/2,
                          /*queueDepth=*/16}; ///< board-memory model

    //
    // Texture units.
    //
    bool texEnabled = true; ///< build the per-core texture units

    //
    // Retired: the parallel tick backend was removed, and a simulation
    // runs on one host thread. The simulator reads neither field; spec
    // files and --set accept only the defaults.
    //
    bool parallelTick = false; ///< retired (ignored)
    uint32_t tickThreads = 0;  ///< retired (ignored)

    //
    // Observability. When nonzero, the Processor snapshots every device
    // StatGroup each `sampleInterval` cycles (at the cycle-boundary
    // commit point, so the series is the same in either core order)
    // and delta-encodes the increments into a TimeSeries (common/stats.h).
    // 0 disables sampling; the disabled path costs one branch per cycle.
    //
    uint64_t sampleInterval = 0; ///< cycles between counter snapshots

    //
    // Software-visible layout.
    //
    Addr startPC = 0x80000000;  ///< reset PC of wavefront 0
    Addr smemBase = 0xFF000000; ///< per-core scratchpad window

    /** Number of clusters implied by numCores/coresPerCluster. */
    uint32_t
    numClusters() const
    {
        return (numCores + coresPerCluster - 1) / coresPerCluster;
    }

    /** L1 instruction-cache geometry. */
    mem::CacheConfig
    icacheConfig() const
    {
        mem::CacheConfig c;
        c.name = "icache";
        c.size = icacheSize;
        c.lineSize = lineSize;
        c.numBanks = 1;
        c.numWays = icacheWays;
        c.numPorts = 1;
        c.numLanes = 1;
        c.mshrEntries = mshrEntries;
        // The I-cache is a simple single-bank read-only store: its hit
        // path is shorter than the D$'s four-stage bank pipeline. This
        // keeps the per-wavefront fetch round trip from starving
        // low-wavefront configurations.
        c.pipelineLatency = 1;
        return c;
    }

    /** L1 data-cache geometry. Lanes: [0, NT) LSU, [NT, 2*NT) texture. */
    mem::CacheConfig
    dcacheConfig() const
    {
        mem::CacheConfig c;
        c.name = "dcache";
        c.size = dcacheSize;
        c.lineSize = lineSize;
        c.numBanks = dcacheBanks;
        c.numWays = dcacheWays;
        c.numPorts = dcachePorts;
        c.numLanes = texEnabled ? 2 * numThreads : numThreads;
        c.mshrEntries = mshrEntries;
        return c;
    }

    /** Per-cluster L2 geometry serving @p coresInCluster cores (one I$
     *  plus one D$ lane each). */
    mem::CacheConfig
    l2Config(uint32_t coresInCluster) const
    {
        mem::CacheConfig c;
        c.name = "l2cache";
        c.size = l2Size;
        c.lineSize = lineSize;
        c.numBanks = l2Banks;
        c.numWays = l2Ways;
        c.numPorts = 1;
        c.numLanes = 2 * coresInCluster; ///< one I$ + one D$ port per core
        c.mshrEntries = 2 * mshrEntries;
        c.memQueueDepth = 16;
        return c;
    }

    /** Device-level L3 geometry: one lane per L2, or per L1 when the
     *  L2s are off. */
    mem::CacheConfig
    l3Config() const
    {
        mem::CacheConfig c;
        c.name = "l3cache";
        c.size = l3Size;
        c.lineSize = lineSize;
        c.numBanks = l3Banks;
        c.numWays = l3Ways;
        c.numPorts = 1;
        c.numLanes = l2Enabled ? numClusters() : 2 * numCores;
        c.mshrEntries = 4 * mshrEntries;
        c.memQueueDepth = 32;
        return c;
    }

    /** Per-core scratchpad geometry (one bank and lane per thread). */
    mem::SharedMemConfig
    smemConfig() const
    {
        mem::SharedMemConfig c;
        c.size = smemSize;
        c.numBanks = numThreads;
        c.numLanes = numThreads;
        c.latency = smemLatency;
        return c;
    }
};

} // namespace vortex::core
