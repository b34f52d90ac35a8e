/**
 * @file
 * `vortex_verify` — static verification of guest kernels.
 *
 * Assembles a kernel (a shipped one by name, or an assembly file) the
 * same way the driver does — native runtime first, kernel second — and
 * runs the static analyzer (src/analysis/) against the configured
 * machine instead of executing it:
 *
 *   vortex_verify --all
 *   vortex_verify --kernel sgemm
 *   vortex_verify --kernel bfs --json -
 *   vortex_verify --asm mykernel.s --set numWarps=8
 *   vortex_verify --asm boot.s --freestanding
 *
 * Exit status: 0 = every program verified clean (no errors, no
 * warnings), 1 = findings, 2 = usage or input error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "common/log.h"
#include "kernels/kernels.h"
#include "runtime/device.h"
#include "sweep/spec.h"

using namespace vortex;

namespace {

int
usage(int code)
{
    std::printf(
        "usage: vortex_verify [input] [options]\n"
        "\n"
        "input (exactly one):\n"
        "  --kernel NAME        verify a shipped kernel (see --list)\n"
        "  --asm FILE           verify an assembly file\n"
        "  --all                verify every shipped kernel\n"
        "  --list               list shipped kernel names and exit\n"
        "\n"
        "options:\n"
        "  --set F=V            override a machine config field, as in\n"
        "                       vortex_sweep (repeatable)\n"
        "  --freestanding       with --asm: do not prepend the native\n"
        "                       runtime (crt0 + spawn_tasks)\n"
        "  --json PATH          machine-readable report ('-' = stdout)\n"
        "  --quiet              suppress per-diagnostic text output\n"
        "  -h, --help           this text\n"
        "\n"
        "exit status: 0 = clean, 1 = findings, 2 = usage/input error\n");
    return code;
}

struct Job
{
    std::string name;
    std::string source;      ///< kernel assembly (appended to runtime)
    bool freestanding = false;
};

/** Assemble and analyze one job. @return the report. */
analysis::Report
verifyOne(const Job& job, const core::ArchConfig& config,
          isa::Program& program)
{
    isa::Assembler assembler(config.startPC);
    program = job.freestanding
                  ? assembler.assembleUnits({{job.name, job.source}})
                  : kernels::assembleWithRuntime(assembler, job.name,
                                                 job.source);
    return analysis::analyze(program,
                             runtime::analyzerOptions(config, program));
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

int
run(int argc, char** argv)
{
    std::vector<Job> jobs;
    core::ArchConfig config;
    sweep::WorkloadSpec unusedWl;
    std::string jsonPath;
    std::string asmPath;
    bool all = false;
    bool freestanding = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            return usage(0);
        } else if (arg == "--list") {
            for (const kernels::NamedKernel& k : kernels::allKernels())
                std::printf("%s\n", k.name);
            return 0;
        } else if (arg == "--kernel") {
            std::string name = value();
            const char* src = kernels::kernelSource(name);
            if (src == nullptr)
                fatal("unknown kernel '", name,
                      "' (see vortex_verify --list)");
            jobs.push_back({name, src, false});
        } else if (arg == "--asm") {
            asmPath = value();
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--set") {
            sweep::applySetArg(config, unusedWl,
                               sweep::splitSetArg(value()));
        } else if (arg == "--freestanding") {
            freestanding = true;
        } else if (arg == "--json") {
            jsonPath = value();
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return usage(2);
        }
    }

    if (all)
        for (const kernels::NamedKernel& k : kernels::allKernels())
            jobs.push_back({k.name, k.source(), false});
    if (!asmPath.empty())
        jobs.push_back({asmPath, readFile(asmPath), freestanding});
    if (jobs.empty()) {
        std::fprintf(stderr,
                     "one of --kernel/--asm/--all is required\n");
        return usage(2);
    }

    std::ostringstream json;
    json << "{\n  \"programs\": [";
    bool anyFindings = false;
    bool firstJson = true;
    for (const Job& job : jobs) {
        isa::Program program;
        analysis::Report report = verifyOne(job, config, program);
        if (!report.clean())
            anyFindings = true;
        if (!quiet) {
            std::ostringstream text;
            report.print(text, &program);
            std::printf("== %s: %s\n%s", job.name.c_str(),
                        report.clean() ? "clean" : "FINDINGS",
                        text.str().c_str());
        }
        std::ostringstream one;
        report.writeJson(one, &program);
        std::string body = one.str();
        // Splice the program name into the report object.
        body.insert(body.find('{') + 1,
                    "\n  \"name\": \"" + job.name + "\",");
        json << (firstJson ? "\n" : ",\n") << body;
        firstJson = false;
    }
    json << "  ]\n}\n";

    if (!jsonPath.empty()) {
        if (jsonPath == "-") {
            std::cout << json.str();
        } else {
            std::ofstream out(jsonPath);
            if (!out)
                fatal("cannot write '", jsonPath, "'");
            out << json.str();
        }
    }
    return anyFindings ? 1 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
