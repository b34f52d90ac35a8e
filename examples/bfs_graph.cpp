/**
 * @file
 * Graph-analytics example (one of the application domains the paper's
 * introduction motivates): breadth-first search over a synthetic
 * small-world graph on the simulated GPU, with the iterative frontier
 * kernel synchronizing cores through global barriers.
 */

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "kernels/kernels.h"
#include "runtime/device.h"
#include "runtime/kargs.h"

using namespace vortex;

int
main()
{
    const uint32_t num_nodes = 2048;
    const uint32_t ring_hops = 2;   // local edges per side
    const uint32_t shortcuts = 1;   // random long-range edges
    const uint32_t max_degree = 2 * ring_hops + shortcuts;

    // Watts-Strogatz-style small world: ring lattice + random shortcuts.
    Xorshift rng(7);
    std::vector<uint32_t> row_ptr(num_nodes + 1, 0), col_idx;
    for (uint32_t i = 0; i < num_nodes; ++i) {
        for (uint32_t h = 1; h <= ring_hops; ++h) {
            col_idx.push_back((i + h) % num_nodes);
            col_idx.push_back((i + num_nodes - h) % num_nodes);
        }
        col_idx.push_back(rng.nextBounded(num_nodes));
        row_ptr[i + 1] = static_cast<uint32_t>(col_idx.size());
    }

    core::ArchConfig cfg;
    cfg.numCores = 4;
    cfg.l2Enabled = true;
    runtime::Device dev(cfg);

    std::vector<int32_t> levels(num_nodes, -1);
    levels[0] = 0;
    Addr drow = dev.memAlloc(row_ptr.size() * 4);
    Addr dcol = dev.memAlloc(col_idx.size() * 4);
    Addr dlev = dev.memAlloc(levels.size() * 4);
    Addr dchg = dev.memAlloc(4);
    dev.copyToDev(drow, row_ptr.data(), row_ptr.size() * 4);
    dev.copyToDev(dcol, col_idx.data(), col_idx.size() * 4);
    dev.copyToDev(dlev, levels.data(), levels.size() * 4);

    dev.uploadKernel(kernels::kernel("bfs"));
    dev.setKernelArg(
        runtime::BfsArgs{num_nodes, max_degree, drow, dcol, dlev, dchg, 0});
    dev.runKernel();
    dev.copyFromDev(levels.data(), dlev, levels.size() * 4);

    // Level histogram.
    int32_t max_level = 0;
    uint32_t unreachable = 0;
    for (int32_t l : levels) {
        if (l < 0)
            ++unreachable;
        else
            max_level = std::max(max_level, l);
    }
    std::vector<uint32_t> hist(max_level + 1, 0);
    for (int32_t l : levels) {
        if (l >= 0)
            ++hist[l];
    }

    std::printf("BFS over %u nodes / %zu edges on a 4-core device\n",
                num_nodes, col_idx.size());
    std::printf("cycles: %llu   IPC: %.3f   levels: %d   unreachable: %u\n",
                static_cast<unsigned long long>(dev.cycles()), dev.ipc(),
                max_level, unreachable);
    for (int32_t l = 0; l <= max_level; ++l) {
        std::printf("  level %2d: %5u ", l, hist[l]);
        for (uint32_t i = 0; i < hist[l] / 16 + 1; ++i)
            std::printf("*");
        std::printf("\n");
    }
    return 0;
}
