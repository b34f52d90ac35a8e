/**
 * @file
 * Programmatic use of the simulation-campaign subsystem: load a built-in
 * preset by name, reshape it with the declarative API (keep its kernel
 * axis, sweep wavefront count instead of core count), run it on a job
 * pool with result caching, and read metrics back — both through the
 * typed records and as CSV. The preset is the checked-in spec file
 * examples/specs/perf_smoke.toml; the CLI equivalent of this sweep is:
 *
 *   vortex_sweep run --axis kernel=vecadd,saxpy,sgemm \
 *                    --axis numWarps=2,4,8 --jobs 0 --cache .sweep-cache
 *
 * The reshaped spec round-trips through the versionable file form
 * (docs/SWEEP_SPECS.md): serialize it with specToToml / writeSpecToml,
 * check the file in, and later rerun it with `vortex_sweep run --spec` or
 * parseSpecFile — the expanded runs hash identically, so both forms
 * share cache entries.
 */

#include <cstdio>
#include <iostream>

#include "sweep/campaign.h"
#include "sweep/presets.h"
#include "sweep/specfile.h"

using namespace vortex;

int
main()
{
    sweep::SweepSpec spec = sweep::findPreset("perf_smoke")->spec();
    spec.name = "warp_scaling";
    spec.description = "perf_smoke kernels x wavefront count";
    spec.axes[1] = sweep::Axis::sweepU32("numWarps", {2, 4, 8});

    // The campaign as a document: what `--dump-spec` would write, and
    // what `--spec` (or parseSpecText/parseSpecFile) reads back.
    std::printf("spec file form:\n%s\n",
                sweep::specToToml(spec).c_str());

    sweep::CampaignOptions opts;
    opts.jobs = 0;                    // one worker per host CPU
    opts.cacheDir = ".sweep-cache";   // re-runs are instant
    sweep::CampaignResult result = sweep::Campaign(opts).run(spec);

    // Typed access: every record carries the verified metrics and the
    // flattened device counters.
    for (const sweep::RunRecord& rec : result.records)
        std::printf("%-10s ipc=%.3f  dcache reads=%llu%s\n",
                    rec.spec.id().c_str(), rec.result.ipc,
                    static_cast<unsigned long long>(
                        rec.stats.get("dcache.core_reads")),
                    rec.fromCache ? "  (cached)" : "");

    // Report + CSV emission share the campaign's deterministic order.
    sweep::pivotIpc(result).print(std::cout);
    std::printf("\nCSV:\n");
    result.writeCsv(std::cout);
    return 0;
}
