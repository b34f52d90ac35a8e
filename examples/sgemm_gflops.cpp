/**
 * @file
 * Machine-learning-style workload: single-precision matrix multiply on
 * the simulated GPU, reported as GFLOPS at the paper's 200 MHz FPGA clock.
 * The paper's headline is 25.6 GFLOPS peak on 32 Stratix-10 cores; this
 * example shows how measured sgemm throughput relates to the peak
 * (peak = cores x threads x 2 FLOP/FMA x 0.2 GHz).
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <vector>

#include "runtime/workloads.h"

using namespace vortex;

int
main(int argc, char** argv)
{
    uint32_t n = 48;
    if (argc > 1) {
        const char* end = argv[1] + std::strlen(argv[1]);
        auto [ptr, ec] = std::from_chars(argv[1], end, n);
        if (ec != std::errc() || ptr != end || n == 0) {
            std::fprintf(stderr, "usage: %s [N]  (N: matrix size, a whole "
                                 "positive number; default 48)\n",
                         argv[0]);
            return 2;
        }
    }

    std::printf("sgemm %ux%u on simulated Vortex machines "
                "(200 MHz FPGA clock)\n\n", n, n);
    std::printf("%-8s %-10s %12s %10s %12s %10s\n", "cores", "geometry",
                "cycles", "IPC", "GFLOPS", "peak");

    for (uint32_t cores : {1u, 4u, 8u, 16u}) {
        core::ArchConfig cfg;
        cfg.numCores = cores;
        cfg.numWarps = 4;
        cfg.numThreads = 4;
        cfg.l2Enabled = cores >= 4;
        runtime::Device dev(cfg);
        runtime::RunResult r = runtime::runSgemm(dev, n);
        if (!r.ok) {
            std::printf("verification FAILED: %s\n", r.error.c_str());
            return 1;
        }
        const double flops = 2.0 * n * n * n;
        const double seconds = static_cast<double>(r.cycles) / 200.0e6;
        const double gflops = flops / seconds / 1.0e9;
        const double peak =
            cores * cfg.numThreads * 2 * 0.2; // FMA/cycle/thread at 200 MHz
        std::printf("%-8u %uW-%uT %14llu %10.3f %10.3f %10.1f\n", cores,
                    cfg.numWarps, cfg.numThreads,
                    static_cast<unsigned long long>(r.cycles), r.ipc,
                    gflops, peak);
    }
    std::printf("\n(the paper's 25.6 GFLOPS = 32 cores x 4 threads x "
                "2 FLOP x 0.1 GHz utilization-free peak on Stratix 10)\n");
    return 0;
}
