/**
 * @file
 * `vortex_sweep` — the unified simulation-campaign and fabric CLI.
 *
 * Thin wrapper over sweep::cliMain (src/sweep/cli.h), where the whole
 * grammar lives so the CLI-compat tests can drive it in-process.
 *
 *   vortex_sweep specs list
 *   vortex_sweep run --preset fig18 --jobs 4 --cache .sweep-cache
 *   vortex_sweep run --spec examples/specs/fig18.toml --jobs 0 --progress
 *   vortex_sweep run --preset perf_smoke --shard 0/2 --cache shard0
 *   vortex_sweep cache merge merged shard0 shard1
 *   vortex_sweep cache list merged
 *   vortex_sweep serve --listen /tmp/fabric.sock --cache merged --jobs 0
 *   vortex_sweep submit --socket /tmp/fabric.sock --spec sweep.toml
 *   vortex_sweep specs dump --preset fig18 fig18.toml
 *
 * Every invocation starts with one of these commands; see
 * `vortex_sweep -h`.
 */

#include <string>
#include <vector>

#include "sweep/cli.h"

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    return vortex::sweep::cliMain(args);
}
