/**
 * @file
 * The `vortex_sweep` command-line interface, as a library entry point so
 * the CLI tests can drive it in-process.
 *
 * Grammar (docs/FABRIC.md has the fabric workflows):
 *
 *   vortex_sweep run [options]             execute a campaign
 *   vortex_sweep cache list|merge|prune    result-cache maintenance
 *   vortex_sweep serve --listen PATH       the fabric submission service
 *   vortex_sweep submit --socket PATH      submit a spec to a service
 *   vortex_sweep specs list|fields|dump    spec/preset introspection
 *
 * An argv whose first element is not one of these words (or -h/--help)
 * is a usage error (exit 2).
 */

#pragma once

#include <string>
#include <vector>

namespace vortex::sweep {

/**
 * Run the vortex_sweep CLI over @p args (argv without the program name)
 * and return the process exit code. Never throws: fatal() diagnostics
 * are printed to stderr and become exit code 1, usage errors exit 2.
 */
int cliMain(const std::vector<std::string>& args);

} // namespace vortex::sweep
