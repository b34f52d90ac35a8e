/**
 * @file
 * Built-in campaign presets: one per paper figure/table plus the cache
 * and pipeline ablations and the CI smoke campaigns. A simulation
 * preset is the checked-in spec file examples/specs/NAME.toml (embedded
 * at build time, common/embedded.h), parsed exactly as `--spec FILE`
 * parses it, plus the renderer of its figure-shaped report. The area
 * presets (Fig. 15, Tables 3-5) produce a ReportTable directly from the
 * calibrated area model, without running the simulator.
 *
 * The `vortex_sweep` CLI and the tests look presets up by name, so a
 * campaign has one definition: its spec file.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sweep/campaign.h"
#include "sweep/report.h"
#include "sweep/spec.h"

namespace vortex::sweep {

/**
 * Baseline machine builder: the paper's 4W-4T core (§6.2.1), scaled to
 * @p cores with the evaluation's machine rules — clusters attach an L2
 * from 4 cores (§4.1) and the board becomes the 8-channel Stratix 10
 * above 16 cores (§6.5). Scaling starts from @p base so axis assignments
 * made before a "cores" assignment survive it.
 */
core::ArchConfig baselineConfig(uint32_t cores = 1,
                                core::ArchConfig base = {});

/** Renders a campaign's figure-shaped human report. */
using ReportFn = std::function<ReportTable(const CampaignResult&)>;

/** One runnable experiment in the preset registry: a simulation preset
 *  (`specText` set) or an area table (`table` set). */
struct Preset
{
    std::string name;        ///< CLI name (e.g. "fig18")
    std::string description; ///< one-liner for `specs list` / the README
    /** Simulation presets: the embedded examples/specs/NAME.toml. */
    const char* specText = nullptr;
    /** Area presets: builds the finished table. */
    std::function<ReportTable()> table;
    /** Simulation presets: renders the report from campaign results. */
    ReportFn report;

    /** The campaign: specText parsed exactly as `--spec` parses a file
     *  (so `program` paths resolve against the working directory and
     *  $VORTEX_PROGRAM_PATH). @throws SpecParseError */
    SweepSpec spec() const;
};

/**
 * Every built-in preset, in paper order. Built on first call, reading
 * only each spec file's description; fatal if a registered simulation
 * preset has no embedded spec file.
 */
const std::vector<Preset>& presets();

/** Registry lookup; nullptr when @p name is unknown. */
const Preset* findPreset(const std::string& name);

/**
 * Generic two-axis IPC pivot: rows = first-axis labels, columns =
 * second-axis labels. The report shape of the ablation presets and the
 * fallback for ad-hoc CLI sweeps with two axes.
 */
ReportTable pivotIpc(const CampaignResult& result);

} // namespace vortex::sweep
