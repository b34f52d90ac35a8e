/**
 * @file
 * Declarative simulation-sweep specifications.
 *
 * A SweepSpec names a set of axes — each axis a list of labeled points
 * that assign values to ArchConfig fields and/or workload choices — and
 * expands their cartesian product into a flat run matrix of RunSpec
 * entries. Fields are addressed by name so sweeps can be written
 * declaratively in presets, spec files or CLI arguments, with no
 * per-figure loop code.
 *
 * Every field is declared once, as one row of the field table in
 * spec.cpp: its name, help text, typed accessor, and which outputs
 * carry it. applyField / sweepableFields (`--set`, spec files, `specs
 * fields`), RunSpec::canonical() (the content hash) and the spec-file
 * dump are all loops over that table, so adding a field is adding a row.
 * The FNV-1a hash of canonical() is the content key of the campaign
 * result cache (see campaign.h).
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "faults/fault.h"
#include "kernels/kernels.h"
#include "runtime/workloads.h"

namespace vortex::runtime {
class Device;
}

namespace vortex::sweep {

/** What one run executes: a Rodinia kernel or a texture rendering pass. */
struct WorkloadSpec
{
    /** Workload family. */
    enum class Kind : uint8_t
    {
        Rodinia, ///< one of the seven verified Rodinia kernels (§6.1)
        Texture, ///< HW-vs-SW texture filtering pass (§6.4)
    };

    Kind kind = Kind::Rodinia; ///< which family this run executes

    std::string kernel = "vecadd"; ///< Rodinia kernel name (Kind::Rodinia)
    uint32_t scale = 1;            ///< problem-size multiplier (1 = test-sized)

    /**
     * Optional guest-program file (assembly) to execute instead of the
     * selected kernel's built-in source (workloadGuest()). The named
     * kernel still chooses the argument-setup + host-verification
     * harness. Resolved against the CWD and the
     * VORTEX_PROGRAM_PATH environment variable (colon-separated
     * prefixes); the file is read eagerly when the field is applied.
     */
    std::string program;
    std::string programSource; ///< contents of `program` (loaded eagerly)

    /**
     * Optional harness-free result check for `program` workloads. Empty
     * means "use the named kernel's C++ harness" (the default). Two
     * forms are accepted (validated eagerly when the field is applied;
     * see parseCheckValue):
     *
     *  - `"selfcheck"` — the guest verifies its own results and writes
     *    PASS/FAIL to the self-check mailbox (docs/TOOLCHAIN.md);
     *  - `"memcmp:ADDR:LEN:FNV"` — after the run, LEN bytes of device
     *    memory at ADDR must hash (FNV-1a 64) to FNV; ADDR/LEN/FNV are
     *    hex with optional 0x prefix.
     *
     * Like `program`, the value is part of RunSpec::canonical() and so
     * of the result-cache content hash.
     */
    std::string check;

    runtime::TexFilterMode texFilter =
        runtime::TexFilterMode::Bilinear; ///< filtering mode (Kind::Texture)
    bool texHw = true;                    ///< hardware `tex` path vs software
    uint32_t texSize = 64;                ///< square texture/render-target size

    /**
     * Fault-injection parameters (`[faults]` spec section, the
     * "faults.*" fields, `--faults` on the CLI). All-zero (the
     * default) means no injection and no watchdog override; when set,
     * the fields enter RunSpec::canonical() so faulted runs get their
     * own content-hash cache keys (docs/ROBUSTNESS.md).
     */
    faults::FaultSpec faults;

    /** Short human-readable description, e.g. "sgemm x2" or
     *  "texture bilinear hw 64". */
    std::string describe() const;

    /** Why this workload cannot run, or empty when it can: a program
     *  workload without a `check` runs its kernel's harness, so the
     *  kernel must be a Rodinia one. */
    std::string whyUnrunnable() const;

    /**
     * Execute this workload on @p dev (verified against the host
     * reference; see runtime/workloads.h). Installs the fault plan and
     * watchdog first when `faults` is set, and translates run-path
     * SimError/FatalError throws into a failed RunResult carrying the
     * structured RunStatus — a hanging or trapping guest returns a
     * `timeout` / `guest_trap` row instead of propagating an exception.
     */
    runtime::RunResult run(runtime::Device& dev) const;
};

/** One labeled point on an axis: a set of field assignments applied
 *  together (e.g. {"4W-8T", {{"numWarps","4"},{"numThreads","8"}}}). */
struct AxisPoint
{
    std::string label; ///< coordinate label used in ids, CSV, and reports
    std::vector<std::pair<std::string, std::string>> sets; ///< field=value
};

/** A named sweep dimension: an ordered list of points. */
struct Axis
{
    std::string name;             ///< dimension name (CSV column header)
    std::vector<AxisPoint> points;///< the swept values, in sweep order

    /** Axis over one field; each value becomes a point labeled by the
     *  value itself. */
    static Axis sweep(const std::string& field,
                      const std::vector<std::string>& values);

    /** Convenience uint32 overload of sweep(). */
    static Axis sweepU32(const std::string& field,
                         const std::vector<uint32_t>& values);
};

/** One fully-resolved run of the matrix. */
struct RunSpec
{
    core::ArchConfig config; ///< the machine this run simulates
    WorkloadSpec workload;   ///< what it executes
    /** (axis name, point label) for every axis, in spec order. */
    std::vector<std::pair<std::string, std::string>> coords;

    /** Coordinate labels joined by '/', e.g. "sgemm/8c". */
    std::string id() const;

    /** Canonical `field = value` serialization of every hashed config
     *  and workload field, in table order (the cache key preimage). */
    std::string canonical() const;

    /** 16-hex-digit FNV-1a 64 hash of canonical(). */
    std::string contentHash() const;
};

/** A declarative sweep: base machine + workload, and the axes whose
 *  cartesian product forms the run matrix. */
struct SweepSpec
{
    std::string name;        ///< campaign name (default output basename)
    std::string description; ///< one-line summary shown by `specs list`
    core::ArchConfig base;   ///< configuration before axis assignments
    WorkloadSpec baseWorkload; ///< workload before axis assignments
    std::vector<Axis> axes;  ///< first axis slowest, last axis fastest

    /**
     * Fabric shard annotation (`[fabric] shard = "I/N"` in spec files,
     * `--shard I/N` on the CLI): with shardCount > 1 a campaign over
     * this spec executes only shard shardIndex's slice of the matrix
     * (see shardAssignment in campaign.h). Execution metadata only —
     * it never reaches RunSpec::canonical() or the result-cache content
     * hash, so a shard-annotated spec shares cache entries with its
     * unsharded twin. 0/0 = unsharded.
     */
    uint32_t shardIndex = 0;
    uint32_t shardCount = 0; ///< total shards (0 or 1 = unsharded)

    /**
     * Expand the axes row-major (the last axis varies fastest) into the
     * flat run matrix. Fatal on an unknown field name, an unparsable
     * value or a run whose workload cannot run (whyUnrunnable()).
     */
    std::vector<RunSpec> expand() const;

    /** Product of the axis sizes (1 when there are no axes). */
    size_t runCount() const;
};

/**
 * Assign @p value to the named configuration or workload field.
 * Recognized names are listed by sweepableFields(); they cover every
 * ArchConfig knob (including dotted "mem.*" and "lat.*" subfields),
 * the workload selectors ("kernel", "scale", "workload", "texFilter",
 * "texHw", "texSize"), and the derived "cores" field which applies the
 * paper's machine-scaling rules (L2 clusters from 4 cores, the 8-channel
 * Stratix 10 board above 16; see presets.h baselineConfig).
 *
 * @return false when @p name is not a known field (cfg/wl untouched);
 *         fatal on a value that does not parse for a known field.
 */
bool applyField(core::ArchConfig& cfg, WorkloadSpec& wl,
                const std::string& name, const std::string& value);

/** One entry of sweepableFields(). */
struct FieldInfo
{
    const char* name; ///< the name applyField() matches
    const char* help; ///< one-line description for `vortex_sweep specs fields`
};

/** Every field name applyField() accepts, with a one-line description,
 *  in table order. */
const std::vector<FieldInfo>& sweepableFields();

/** A serialization built from the field table. */
enum class FieldOutput : uint8_t
{
    Hash, ///< RunSpec::canonical(): bools as 0/1
    Dump, ///< the spec-file dump (writeSpecToml): bools as true/false
};

/** One field as an output writes it. */
struct FieldText
{
    const char* name;    ///< table name ("numThreads", "faults.seed", ...)
    const char* section; ///< spec-file section ("base", "workload", "faults")
    std::string value;   ///< value text
};

/**
 * The fields @p out writes for (@p cfg, @p wl), in table order. A
 * workload family's own fields appear only for that family; `program`,
 * `program.fnv`, `check` and the `faults.*` fields only when set.
 */
std::vector<FieldText> fieldTexts(FieldOutput out, const core::ArchConfig& cfg,
                                  const WorkloadSpec& wl);

/** Whether "faults.@p key" is a field: the keys a spec file's `[faults]`
 *  section and `--faults` accept. */
bool isFaultsKey(const std::string& key);

/** The isFaultsKey() keys, ", "-joined in table order, for diagnostics. */
std::string faultsKeyList();

/** Split one `--set FIELD=VALUE` argument at its first '='; fatal when
 *  there is no '=' or FIELD is empty. */
std::pair<std::string, std::string> splitSetArg(const std::string& arg);

/** applyField() for a splitSetArg() pair; fatal when the field is not a
 *  sweep field. The one `--set` handler of every command-line tool. */
void applySetArg(core::ArchConfig& cfg, WorkloadSpec& wl,
                 const std::pair<std::string, std::string>& kv);

/** Registry name (kernels::findKernel) of the kernel @p w names: the
 *  Rodinia kernel name, or "tex_<filter>_<hw|sw>". */
std::string workloadKernelName(const WorkloadSpec& w);

/**
 * The guest @p w executes: its `program` file as one unit named by its
 * path, else the shipped kernel workloadKernelName(@p w); fatal when
 * that kernel does not exist. The one place a run's guest is chosen:
 * WorkloadSpec::run executes it and `--verify` analyzes it.
 */
kernels::Guest workloadGuest(const WorkloadSpec& w);

/** Strict uint32 parse (whole string must consume); fatal on failure,
 *  naming @p what. Shared by the field table, preset arguments, and
 *  the CLI so every numeric surface rejects the same typos. */
uint32_t parseU32Value(const std::string& what, const std::string& value);

/** Strict boolean parse (0/1/true/false/on/off); fatal on failure. */
bool parseBoolValue(const std::string& what, const std::string& value);

/**
 * Parse a fabric shard selector "I/N" (shard I of N, 0-based) into
 * @p index / @p count; fatal, naming @p what, unless 0 <= I < N and
 * N >= 1. Shared by the CLI `--shard` flag and the `[fabric] shard`
 * spec-file key so both surfaces reject the same typos.
 */
void parseShardValue(const std::string& what, const std::string& value,
                     uint32_t& index, uint32_t& count);

/**
 * Resolve a `[workload] program` path: the path itself if it exists,
 * else each colon-separated prefix of $VORTEX_PROGRAM_PATH joined with
 * it (first hit wins). Returns the path unchanged when nothing exists —
 * the subsequent open reports the error.
 */
std::string resolveProgramPath(const std::string& path);

/** resolveProgramPath + read; fatal with a clear message on failure. */
std::string loadProgramSource(const std::string& path);

/** Parsed form of a `[workload] check` value (see WorkloadSpec::check). */
struct CheckSpec
{
    enum class Kind : uint8_t
    {
        None,   ///< empty value: use the kernel's C++ harness
        Self,   ///< "selfcheck": guest writes PASS/FAIL to the mailbox
        Memcmp, ///< "memcmp:ADDR:LEN:FNV": hash a device-memory window
    };
    Kind kind = Kind::None;
    Addr addr = 0;      ///< window base (Kind::Memcmp)
    uint32_t len = 0;   ///< window length in bytes (Kind::Memcmp)
    uint64_t fnv = 0;   ///< expected FNV-1a 64 hash (Kind::Memcmp)
};

/**
 * Parse a `check` field value into its CheckSpec; fatal, naming
 * @p what, on anything other than "", "selfcheck", or a well-formed
 * "memcmp:ADDR:LEN:FNV" whose window ends inside the 32-bit address
 * space (ADDR+LEN <= 2^32). Shared by the field table (so spec files
 * report malformed values with file:line:col) and the run dispatch.
 */
CheckSpec parseCheckValue(const std::string& what,
                          const std::string& value);

} // namespace vortex::sweep
