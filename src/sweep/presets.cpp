/**
 * @file
 * The built-in preset registry: report renderers for the paper figures,
 * the area tables, and the name-ordered list that pairs each renderer
 * with its embedded spec file.
 */

#include "sweep/presets.h"

#include <algorithm>
#include <cstdio>

#include "area/area.h"
#include "common/embedded.h"
#include "common/log.h"
#include "common/outcome.h"
#include "sweep/specfile.h"

namespace vortex::sweep {

namespace {

/** Format a "model / paper" comparison cell. */
std::string
mvp(double model, double paper, int prec = 0)
{
    return fmtF(model, prec) + " / " + fmtF(paper, prec);
}

/** The source-tree path of preset @p name's spec file, for diagnostics. */
std::string
specPath(const std::string& name)
{
    return "examples/specs/" + name + ".toml";
}

/** The distinct first-axis labels of @p r in matrix order: the rows of
 *  a figure-shaped report (the kernels, for the Rodinia figures). */
std::vector<std::string>
rowLabels(const CampaignResult& r)
{
    std::vector<std::string> rows;
    for (const RunRecord& rec : r.records) {
        const std::string& row = rec.spec.coords[0].second;
        if (std::find(rows.begin(), rows.end(), row) == rows.end())
            rows.push_back(row);
    }
    return rows;
}

//
// Figure 14 — core design-space geometries.
//

ReportTable
fig14Report(const CampaignResult& r)
{
    ReportTable t = pivotIpc(r);
    t.title = "Figure 14: IPC per core configuration";
    double base = r.at({"sgemm", "4W-4T"}).result.ipc;
    double w2t8 = r.at({"sgemm", "2W-8T"}).result.ipc;
    double w8t2 = r.at({"sgemm", "8W-2T"}).result.ipc;
    t.notes.push_back(
        "shape check (paper: 2W-8T ~ +20% on sgemm, 8W-2T ~ -36%):");
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  sgemm 2W-8T / 4W-4T = %+.1f%%",
                  100.0 * (w2t8 / base - 1.0));
    t.notes.push_back(buf);
    std::snprintf(buf, sizeof(buf), "  sgemm 8W-2T / 4W-4T = %+.1f%%",
                  100.0 * (w8t2 / base - 1.0));
    t.notes.push_back(buf);
    return t;
}

//
// Figure 18 — core-count scaling.
//

ReportTable
fig18Report(const CampaignResult& r)
{
    const std::vector<std::string> counts = {"1", "2", "4", "8", "16"};
    ReportTable t;
    t.title = "Figure 18: IPC vs core count";
    t.columns = {"kernel", "group"};
    for (const std::string& c : counts)
        t.columns.push_back(c + "c");
    t.columns.push_back("speedup(16c/1c)");
    for (const std::string& kernel : rowLabels(r)) {
        std::vector<std::string> row = {
            kernel,
            runtime::isComputeBound(kernel) ? "compute" : "memory"};
        double first = 0.0, last = 0.0;
        for (const std::string& c : counts) {
            double ipc = r.at({kernel, c}).result.ipc;
            if (c == counts.front())
                first = ipc;
            last = ipc;
            row.push_back(fmtF(ipc, 3));
        }
        row.push_back(fmtF(last / first, 2) + "x");
        t.addRow(std::move(row));
    }
    return t;
}

//
// Figure 19 — D$ virtual multi-porting.
//

ReportTable
fig19Report(const CampaignResult& r)
{
    const std::vector<std::string> ports = {"1", "2", "4"};
    ReportTable t;
    t.title = "Figure 19: D$ bank utilization / IPC vs virtual ports "
              "(1 core, 4 banks)";
    t.columns = {"kernel"};
    for (const std::string& p : ports)
        t.columns.push_back("util@" + p + "p");
    for (const std::string& p : ports)
        t.columns.push_back("IPC@" + p + "p");
    for (const std::string& kernel : rowLabels(r)) {
        std::vector<std::string> row = {kernel};
        for (const std::string& p : ports)
            row.push_back(
                fmtPct(r.at({kernel, p}).dcacheBankUtilization(), 1));
        for (const std::string& p : ports)
            row.push_back(fmtF(r.at({kernel, p}).result.ipc, 3));
        t.addRow(std::move(row));
    }
    return t;
}

//
// Figure 20 — HW vs SW texture filtering.
//

ReportTable
fig20Report(const CampaignResult& r)
{
    ReportTable t;
    t.title = "Figure 20: HW vs SW texture filtering "
              "(kilocycles; lower is better)";
    if (!r.records.empty()) {
        const std::string sz =
            std::to_string(r.records.front().spec.workload.texSize);
        t.notes.push_back("(render target " + sz + "x" + sz + " RGBA8)");
    }
    t.columns = {"cores", "filter", "SW", "HW", "SW/HW"};
    for (const char* c : {"1", "2", "4", "8"}) {
        for (const char* f : {"point", "bilinear", "trilinear"}) {
            double sw = static_cast<double>(
                            r.at({c, f, "sw"}).result.cycles) /
                        1000.0;
            double hw = static_cast<double>(
                            r.at({c, f, "hw"}).result.cycles) /
                        1000.0;
            t.addRow({c, f, fmtF(sw, 1), fmtF(hw, 1),
                      fmtF(sw / hw, 2) + "x"});
        }
    }
    return t;
}

//
// Figure 21 — board-memory latency/bandwidth scaling.
//

ReportTable
fig21Report(const CampaignResult& r)
{
    ReportTable t;
    t.title = "Figure 21: memory latency/bandwidth scaling";
    if (!r.records.empty()) {
        const core::ArchConfig& c = r.records.front().spec.config;
        t.notes.push_back(
            "(machine: " + std::to_string(c.numCores) + " cores x " +
            std::to_string(c.numWarps) + "W x " +
            std::to_string(c.numThreads) + "T, L2 " +
            (c.l2Enabled ? "enabled" : "disabled") + ")");
    }
    t.columns = {"kernel", "latency"};
    for (const char* bw : {"x1", "x2", "x4"})
        t.columns.push_back(std::string("bw ") + bw);
    for (const std::string& kernel : rowLabels(r)) {
        for (const char* lat : {"25", "50", "100", "200", "400"}) {
            std::vector<std::string> row = {
                kernel + (runtime::isComputeBound(kernel) ? " (compute)"
                                                          : " (memory)"),
                lat};
            for (const char* bw : {"x1", "x2", "x4"})
                row.push_back(fmtF(r.at({kernel, lat, bw}).result.ipc, 3));
            t.addRow(std::move(row));
        }
    }
    return t;
}

//
// Area/synthesis tables (no simulation; the calibrated model of
// area/area.h against the paper's published rows).
//

ReportTable
table3Report()
{
    struct PaperRow
    {
        const char* name;
        uint32_t w, t;
        double lut, regs, bram, fmax;
    };
    const PaperRow paper[] = {
        {"4W-4T", 4, 4, 21502, 32661, 131, 233},
        {"2W-8T", 2, 8, 36361, 54438, 238, 224},
        {"8W-2T", 8, 2, 16981, 24343, 77, 225},
        {"4W-8T", 4, 8, 37857, 57614, 247, 224},
        {"8W-4T", 8, 4, 24485, 34854, 139, 228},
    };
    ReportTable t;
    t.title = "Table 3: core synthesis (model vs paper)";
    t.columns = {"config", "LUT (mdl/paper)", "Regs (mdl/paper)",
                 "BRAM (mdl/pap)", "fmax (mdl/pap)"};
    for (const PaperRow& row : paper) {
        area::CoreArea a = area::coreArea(row.w, row.t);
        t.addRow({row.name, mvp(a.luts, row.lut), mvp(a.regs, row.regs),
                  mvp(a.brams, row.bram), mvp(a.fmaxMhz, row.fmax)});
    }
    t.notes.push_back("(model is least-squares calibrated on these rows; "
                      "max residual ~2%)");
    return t;
}

ReportTable
table4Report()
{
    struct PaperRow
    {
        uint32_t cores;
        area::Fpga fpga;
        double alm, regsK, bram, dsp, fmax;
    };
    const PaperRow paper[] = {
        {1, area::Fpga::Arria10, 13, 78, 10, 2, 234},
        {2, area::Fpga::Arria10, 19, 111, 15, 5, 225},
        {4, area::Fpga::Arria10, 30, 176, 25, 9, 223},
        {8, area::Fpga::Arria10, 53, 305, 45, 19, 210},
        {16, area::Fpga::Arria10, 85, 525, 83, 38, 203},
        {32, area::Fpga::Stratix10, 70, 1057, 23, 20, 200},
    };
    ReportTable t;
    t.title = "Table 4: multi-core synthesis (model vs paper)";
    t.columns = {"cores",    "FPGA",      "ALM% m/p", "Regs(K) m/p",
                 "BRAM% m/p", "DSP% m/p", "fmax m/p"};
    for (const PaperRow& row : paper) {
        area::DeviceArea a = area::deviceArea(row.cores, row.fpga);
        t.addRow({std::to_string(row.cores),
                  row.fpga == area::Fpga::Arria10 ? "A10" : "S10",
                  mvp(a.almPercent, row.alm), mvp(a.regsK, row.regsK),
                  mvp(a.bramPercent, row.bram), mvp(a.dspPercent, row.dsp),
                  mvp(a.fmaxMhz, row.fmax)});
    }
    t.notes.push_back("(A10 rows calibrated; the S10 row is rescaled by "
                      "device capacity)");
    return t;
}

ReportTable
table5Report()
{
    struct PaperRow
    {
        uint32_t ports;
        double lut, regs, bram, fmax;
    };
    const PaperRow paper[] = {
        {1, 10747, 13238, 72, 253},
        {2, 11722, 13650, 72, 250},
        {4, 13516, 14928, 72, 244},
    };
    ReportTable t;
    t.title = "Table 5: 4-bank D$ synthesis (model vs paper)";
    t.columns = {"ports", "LUT (mdl/paper)", "Regs (mdl/paper)",
                 "BRAM (m/p)", "fmax (m/p)"};
    double lut1 = 0.0;
    for (const PaperRow& row : paper) {
        area::CacheArea a = area::cacheArea(4, row.ports, 16384);
        if (row.ports == 1)
            lut1 = a.luts;
        t.addRow({std::to_string(row.ports), mvp(a.luts, row.lut),
                  mvp(a.regs, row.regs), mvp(a.brams, row.bram),
                  mvp(a.fmaxMhz, row.fmax)});
    }
    area::CacheArea a2 = area::cacheArea(4, 2, 16384);
    area::CacheArea a4 = area::cacheArea(4, 4, 16384);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "LUT delta: 2-port %+.1f%% (paper +9%%), 4-port %+.1f%% "
                  "(paper +25%%)",
                  100.0 * (a2.luts / lut1 - 1.0),
                  100.0 * (a4.luts / lut1 - 1.0));
    t.notes.push_back(buf);
    return t;
}

ReportTable
fig15Report()
{
    ReportTable t;
    t.title = "Figure 15: area distribution (8-core build)";
    t.columns = {"component", "share", ""};
    double total = 0.0;
    for (const area::AreaSlice& s : area::areaDistribution()) {
        t.addRow({s.component, fmtPct(s.fraction, 1),
                  std::string(
                      static_cast<size_t>(s.fraction * 100.0 + 0.5), '#')});
        total += s.fraction;
    }
    t.addRow({"(total)", fmtPct(total, 1), ""});
    return t;
}

/** The fault_smoke report: per-kernel counts of masked / sdc /
 *  detected / hang runs (docs/ROBUSTNESS.md). */
ReportTable
faultClassificationReport(const CampaignResult& r)
{
    // Classification from the (status, ok) pair (docs/ROBUSTNESS.md):
    // masked   — the run completed and still verified;
    // sdc      — completed but verification mismatched (silent data
    //            corruption);
    // detected — the machine or the guest caught it (guest trap or
    //            self-check FAIL);
    // hang     — the watchdog expired (timeout).
    ReportTable t;
    t.title = r.name + ": fault classification";
    t.columns = {"kernel", "masked", "sdc",  "detected",
                 "hang",   "other",  "runs"};
    for (const std::string& row : rowLabels(r)) {
        uint64_t masked = 0, sdc = 0, detected = 0, hang = 0, other = 0,
                 total = 0;
        for (const RunRecord& rec : r.records) {
            if (rec.spec.coords[0].second != row)
                continue;
            ++total;
            const runtime::RunResult& res = rec.result;
            if (res.ok)
                ++masked;
            else if (res.status == RunStatus::Ok)
                ++sdc;
            else if (res.status == RunStatus::GuestTrap ||
                     res.status == RunStatus::SelfcheckFail)
                ++detected;
            else if (res.status == RunStatus::Timeout)
                ++hang;
            else
                ++other;
        }
        t.addRow({row, std::to_string(masked), std::to_string(sdc),
                  std::to_string(detected), std::to_string(hang),
                  std::to_string(other), std::to_string(total)});
    }
    return t;
}

} // namespace

core::ArchConfig
baselineConfig(uint32_t cores, core::ArchConfig base)
{
    base.numCores = cores;
    if (cores >= 4) {
        base.l2Enabled = true; // clusters attach an optional L2 (§4.1)
        base.coresPerCluster = 4;
    }
    if (cores > 16)
        base.mem.numChannels = 8; // Stratix 10 board (8 banks, §6.5)
    return base;
}

ReportTable
pivotIpc(const CampaignResult& r)
{
    if (r.axisNames.size() != 2)
        fatal("pivotIpc: campaign '", r.name, "' has ",
              r.axisNames.size(), " axes, need exactly 2");
    ReportTable t;
    t.title = r.name + ": IPC";
    t.columns = {r.axisNames[0] + " \\ " + r.axisNames[1]};
    for (const RunRecord& rec : r.records)
        if (rec.spec.coords[0] == r.records.front().spec.coords[0])
            t.columns.push_back(rec.spec.coords[1].second);
    for (const std::string& row : rowLabels(r)) {
        std::vector<std::string> cells = {row};
        for (size_t c = 1; c < t.columns.size(); ++c)
            cells.push_back(
                fmtF(r.at({row, t.columns[c]}).result.ipc, 3));
        t.addRow(std::move(cells));
    }
    return t;
}

SweepSpec
Preset::spec() const
{
    return parseSpecText(specText, specPath(name));
}

const std::vector<Preset>&
presets()
{
    static const std::vector<Preset> all = [] {
        std::vector<Preset> p;
        auto sweep = [&](const std::string& name, ReportFn report) {
            const char* text = embedded::find(embedded::specFiles(), name);
            if (!text)
                fatal("preset '", name, "' has no ", specPath(name));
            p.push_back(Preset{name,
                               parseSpecDescription(text, specPath(name)),
                               text, nullptr, std::move(report)});
        };
        auto table = [&](const std::string& name,
                         const std::string& description,
                         std::function<ReportTable()> build) {
            p.push_back(Preset{name, description, nullptr, std::move(build),
                               nullptr});
        };

        sweep("fig14", fig14Report);
        table("fig15", "per-component area distribution of the 8-core build",
              fig15Report);
        sweep("fig18", fig18Report);
        sweep("fig19", fig19Report);
        sweep("fig20", fig20Report);
        sweep("fig21", fig21Report);
        table("table3", "core synthesis, five geometries (area model)",
              table3Report);
        table("table4", "whole-device synthesis, 1-32 cores (area model)",
              table4Report);
        table("table5", "virtually multi-ported D$ synthesis (area model)",
              table5Report);
        for (const char* name :
             {"ablation_mshr", "ablation_banks", "ablation_linesize",
              "ablation_ibuffer", "ablation_lsu", "ablation_sched",
              "ablation_fsqrt", "perf_smoke", "asm_smoke", "workload_zoo"})
            sweep(name, pivotIpc);
        sweep("fault_smoke", faultClassificationReport);
        return p;
    }();
    return all;
}

const Preset*
findPreset(const std::string& name)
{
    for (const Preset& p : presets())
        if (p.name == name)
            return &p;
    return nullptr;
}

} // namespace vortex::sweep
