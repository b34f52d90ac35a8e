/**
 * @file
 * Sweep-spec expansion, the field table, and canonical
 * serialization/hashing of resolved runs.
 */

#include "sweep/spec.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/fnv.h"
#include "common/log.h"
#include "runtime/device.h"
#include "sweep/presets.h"

namespace vortex::sweep {

uint32_t
parseU32Value(const std::string& what, const std::string& value)
{
    try {
        size_t pos = 0;
        unsigned long v = std::stoul(value, &pos);
        if (pos != value.size() || v > UINT32_MAX)
            throw std::invalid_argument(value);
        return static_cast<uint32_t>(v);
    } catch (const std::exception&) {
        fatal(what, ": cannot parse '", value,
              "' as an unsigned integer");
    }
}

bool
parseBoolValue(const std::string& what, const std::string& value)
{
    if (value == "0" || value == "false" || value == "off")
        return false;
    if (value == "1" || value == "true" || value == "on")
        return true;
    fatal(what, ": cannot parse '", value,
          "' as a boolean (use 0/1/true/false/on/off)");
}

void
parseShardValue(const std::string& what, const std::string& value,
                uint32_t& index, uint32_t& count)
{
    size_t slash = value.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= value.size())
        fatal(what, ": expected I/N (shard I of N, 0-based), got '",
              value, "'");
    index = parseU32Value(what, value.substr(0, slash));
    count = parseU32Value(what, value.substr(slash + 1));
    if (count == 0)
        fatal(what, ": shard count must be >= 1 (got '", value, "')");
    if (index >= count)
        fatal(what, ": shard index ", index, " out of range for ", count,
              " shard", count == 1 ? "" : "s");
}

namespace {

/** Strict parse of a T-typed (uint32_t, uint64_t or bool) field value;
 *  fatal, naming the field, on failure. */
template <typename T>
T
parseAs(const char* name, const std::string& value)
{
    const std::string what = std::string("sweep field '") + name + "'";
    if constexpr (std::is_same_v<T, bool>) {
        return parseBoolValue(what, value);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
        return parseU32Value(what, value);
    } else {
        try {
            size_t pos = 0;
            uint64_t v = std::stoull(value, &pos);
            if (pos != value.size())
                throw std::invalid_argument(value);
            return v;
        } catch (const std::exception&) {
            fatal(what, ": cannot parse '", value,
                  "' as an unsigned integer");
        }
    }
}

/** Value text of a T-typed field (bools as 0/1). */
template <typename T>
std::string
textOf(T v)
{
    if constexpr (std::is_same_v<T, bool>)
        return v ? "1" : "0";
    else
        return std::to_string(v);
}

core::SchedPolicy
parseSchedPolicy(const std::string& value)
{
    if (value == "hierarchical")
        return core::SchedPolicy::Hierarchical;
    if (value == "roundrobin" || value == "round-robin")
        return core::SchedPolicy::RoundRobin;
    fatal("sweep field 'schedPolicy': unknown policy '", value,
          "' (hierarchical | roundrobin)");
}

runtime::TexFilterMode
parseTexFilter(const std::string& value)
{
    if (value == "point")
        return runtime::TexFilterMode::Point;
    if (value == "bilinear")
        return runtime::TexFilterMode::Bilinear;
    if (value == "trilinear")
        return runtime::TexFilterMode::Trilinear;
    fatal("sweep field 'texFilter': unknown mode '", value,
          "' (point | bilinear | trilinear)");
}

/** The spelling parseSchedPolicy() reads back. */
const char*
schedPolicyName(core::SchedPolicy p)
{
    return p == core::SchedPolicy::RoundRobin ? "roundrobin"
                                              : "hierarchical";
}


/** FNV-1a 64 of @p s as 16 hex digits. */
std::string
fnvHex(const std::string& s)
{
    Fnv1a64 h;
    h.text(s);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h.value()));
    return buf;
}

/** When an output writes a field (FieldDef::only). */
enum class Only : uint8_t
{
    Always,
    Rodinia,  ///< the rodinia family's own fields
    Texture,  ///< the texture family's own fields
    NonEmpty, ///< optional text, written only when set
    Faulted,  ///< all four faults.* fields, when any of them is set
};

/** Which serializations write a field (FieldDef::outputs bits). */
enum : uint8_t
{
    kHash = 1,        ///< RunSpec::canonical(), the content-hash preimage
    kDump = 2,        ///< the spec-file dump (writeSpecToml)
    kDumpNonZero = 4, ///< the dump, only when the value is not 0
};

/**
 * One row of the field table. The row order is the order of every
 * output: `specs fields`, canonical() and the dump.
 */
struct FieldDef
{
    const char* name;
    const char* help;    ///< `specs fields` text (settable rows)
    const char* section; ///< spec-file section the dump writes it in
    uint8_t outputs;     ///< kHash / kDump / kDumpNonZero bits
    Only only;
    bool boolean; ///< the hash writes 0/1, the dump true/false
    /** Parse a value into the field; nullptr = cannot be set. */
    void (*set)(core::ArchConfig&, WorkloadSpec&, const std::string&);
    /** The field's value text; nullptr = never written out. */
    std::string (*get)(const core::ArchConfig&, const WorkloadSpec&);
};

/** Row for the T-typed field at `obj.path` (obj: c = the machine, w =
 *  the workload). */
#define VORTEX_FIELD(T, obj, path, section, outputs, only, help)            \
    {#path, help, section, outputs, Only::only, std::is_same_v<T, bool>,    \
     []([[maybe_unused]] core::ArchConfig& c,                               \
        [[maybe_unused]] WorkloadSpec& w, const std::string& v) {           \
         obj.path = parseAs<T>(#path, v);                                   \
     },                                                                     \
     []([[maybe_unused]] const core::ArchConfig& c,                         \
        [[maybe_unused]] const WorkloadSpec& w) {                           \
         return textOf<T>(obj.path);                                        \
     }}
#define VORTEX_U32_FIELD(field, help)                                       \
    VORTEX_FIELD(uint32_t, c, field, "base", kHash | kDump, Always, help)
#define VORTEX_BOOL_FIELD(field, help)                                      \
    VORTEX_FIELD(bool, c, field, "base", kHash | kDump, Always, help)
/** A retired config field: dumps write @p def, the only value it
 *  accepts. */
#define VORTEX_RETIRED_FIELD(T, field, def)                                 \
    {#field, "retired: the parallel tick backend was removed (only " #def  \
             ")",                                                           \
     "base", kDump, Only::Always, std::is_same_v<T, bool>,                  \
     [](core::ArchConfig&, WorkloadSpec&, const std::string& v) {           \
         if (parseAs<T>(#field, v) != (def))                                \
             fatal("sweep field '" #field "': the parallel tick backend "   \
                   "was removed; only " #def " is accepted");               \
     },                                                                     \
     [](const core::ArchConfig&, const WorkloadSpec&) {                     \
         return textOf<T>(def);                                             \
     }}
/** A hashed u32 config field with no sweep knob. */
#define VORTEX_HASHED_FIELD(field)                                          \
    {#field, nullptr, "base", kHash, Only::Always, false, nullptr,          \
     [](const core::ArchConfig& c, const WorkloadSpec&) {                   \
         return textOf<uint32_t>(c.field);                                  \
     }}

constexpr FieldDef kFields[] = {
    // SIMT geometry.
    VORTEX_U32_FIELD(numThreads, "threads per wavefront"),
    VORTEX_U32_FIELD(numWarps, "wavefronts per core"),
    VORTEX_U32_FIELD(numCores, "core count (raw; see also 'cores')"),
    VORTEX_U32_FIELD(coresPerCluster, "cores sharing one L2 cluster"),
    // Derived: the dump writes the concrete fields it expands to.
    {"cores", "core count with the paper's scaling rules (L2 from 4 "
              "cores, 8-channel board above 16)",
     "base", 0, Only::Always, false,
     [](core::ArchConfig& c, WorkloadSpec&, const std::string& v) {
         c = baselineConfig(parseAs<uint32_t>("cores", v), c);
     },
     nullptr},

    // Pipeline.
    VORTEX_U32_FIELD(ibufferDepth, "instruction-buffer depth"),
    VORTEX_U32_FIELD(lsuDepth, "in-flight warp memory ops per core"),
    {"schedPolicy", "wavefront scheduling (hierarchical | roundrobin)",
     "base", kHash | kDump, Only::Always, false,
     [](core::ArchConfig& c, WorkloadSpec&, const std::string& v) {
         c.schedPolicy = parseSchedPolicy(v);
     },
     [](const core::ArchConfig& c, const WorkloadSpec&) {
         return std::string(schedPolicyName(c.schedPolicy));
     }},
    VORTEX_U32_FIELD(lat.alu, "ALU latency (cycles)"),
    VORTEX_U32_FIELD(lat.mul, "integer-multiply latency"),
    VORTEX_U32_FIELD(lat.div, "integer-divide latency"),
    VORTEX_U32_FIELD(lat.fpu, "FP add/mul/fma latency"),
    VORTEX_U32_FIELD(lat.fcvt, "FP convert/move/compare latency"),
    VORTEX_U32_FIELD(lat.fdiv, "FP divide latency"),
    VORTEX_U32_FIELD(lat.fsqrt, "FP square-root latency"),
    VORTEX_U32_FIELD(lat.sfu, "SFU latency"),

    // L1 caches.
    {"lineSize", "cache AND board-memory line size (bytes)",
     "base", kHash | kDump, Only::Always, false,
     [](core::ArchConfig& c, WorkloadSpec&, const std::string& v) {
         c.lineSize = parseAs<uint32_t>("lineSize", v);
         c.mem.lineSize = c.lineSize;
     },
     [](const core::ArchConfig& c, const WorkloadSpec&) {
         return textOf(c.lineSize);
     }},
    VORTEX_U32_FIELD(icacheSize, "L1I size (bytes)"),
    VORTEX_U32_FIELD(icacheWays, "L1I associativity"),
    VORTEX_U32_FIELD(dcacheSize, "L1D size (bytes)"),
    VORTEX_U32_FIELD(dcacheWays, "L1D associativity"),
    VORTEX_U32_FIELD(dcacheBanks, "L1D bank count"),
    VORTEX_U32_FIELD(dcachePorts, "L1D virtual ports per bank (Fig. 19)"),
    VORTEX_U32_FIELD(mshrEntries, "MSHR entries per bank"),

    // Shared memory.
    VORTEX_U32_FIELD(smemSize, "per-core scratchpad size (bytes)"),
    VORTEX_U32_FIELD(smemLatency, "scratchpad latency (cycles)"),

    // Optional cache hierarchy.
    VORTEX_BOOL_FIELD(l2Enabled, "attach a per-cluster L2"),
    VORTEX_U32_FIELD(l2Size, "L2 size (bytes)"),
    VORTEX_U32_FIELD(l2Banks, "L2 bank count"),
    VORTEX_U32_FIELD(l2Ways, "L2 associativity"),
    VORTEX_BOOL_FIELD(l3Enabled, "attach a device-level L3"),
    VORTEX_U32_FIELD(l3Size, "L3 size (bytes)"),
    VORTEX_U32_FIELD(l3Banks, "L3 bank count"),
    VORTEX_U32_FIELD(l3Ways, "L3 associativity"),

    // Board memory.
    VORTEX_U32_FIELD(mem.latency, "board-memory latency (cycles)"),
    VORTEX_HASHED_FIELD(mem.lineSize), // set through lineSize
    VORTEX_U32_FIELD(mem.busWidth, "bytes per channel per cycle"),
    VORTEX_U32_FIELD(mem.numChannels, "independent memory channels"),
    VORTEX_U32_FIELD(mem.queueDepth, "memory input-queue depth"),

    // Texture + host backend.
    VORTEX_BOOL_FIELD(texEnabled, "build the per-core texture units"),
    VORTEX_HASHED_FIELD(startPC),
    VORTEX_HASHED_FIELD(smemBase),
    // Retired with the parallel tick backend: accepted only at their
    // defaults, so the shipped specs that write them still parse and
    // dump unchanged. Never hashed.
    VORTEX_RETIRED_FIELD(bool, parallelTick, false),
    VORTEX_RETIRED_FIELD(uint32_t, tickThreads, 0),

    // Observability. Hashed even though it cannot change simulation
    // results: a cached record must carry the time series the request
    // asks for, and the series shape depends on the interval.
    VORTEX_FIELD(uint64_t, c, sampleInterval, "base", kHash | kDump, Always,
                 "cycles between counter snapshots (0 = off)"),

    // Workload selection. The family comes first: kernel and texFilter
    // imply one, so a dump must set the family before them.
    {"workload", "workload family (rodinia | texture)",
     "workload", kHash | kDump, Only::Always, false,
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         if (v == "rodinia")
             w.kind = WorkloadSpec::Kind::Rodinia;
         else if (v == "texture")
             w.kind = WorkloadSpec::Kind::Texture;
         else
             fatal("sweep field 'workload': unknown family '", v,
                   "' (rodinia | texture)");
     },
     [](const core::ArchConfig&, const WorkloadSpec& w) {
         return std::string(w.kind == WorkloadSpec::Kind::Rodinia
                                ? "rodinia"
                                : "texture");
     }},
    {"kernel", "Rodinia kernel name (implies workload=rodinia)",
     "workload", kHash | kDump, Only::Rodinia, false,
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.kind = WorkloadSpec::Kind::Rodinia;
         w.kernel = v;
     },
     [](const core::ArchConfig&, const WorkloadSpec& w) { return w.kernel; }},
    VORTEX_FIELD(uint32_t, w, scale, "workload", kHash | kDump, Rodinia,
                 "Rodinia problem-size multiplier"),
    {"texFilter", "texture filtering (point | bilinear | trilinear; "
                  "implies workload=texture)",
     "workload", kHash | kDump, Only::Texture, false,
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.kind = WorkloadSpec::Kind::Texture;
         w.texFilter = parseTexFilter(v);
     },
     [](const core::ArchConfig&, const WorkloadSpec& w) {
         return std::string(runtime::texFilterName(w.texFilter));
     }},
    VORTEX_FIELD(bool, w, texHw, "workload", kHash | kDump, Texture,
                 "1 = hardware `tex` instruction, 0 = software sampler"),
    VORTEX_FIELD(uint32_t, w, texSize, "workload", kHash | kDump, Texture,
                 "square texture/render-target size (power of two)"),
    {"program", "assembly file run through the object pipeline instead "
                "of the kernel's built-in source (kernel still selects "
                "the argument/verification harness)",
     "workload", kHash | kDump, Only::NonEmpty, false,
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.program = v;
         w.programSource = loadProgramSource(v);
     },
     [](const core::ArchConfig&, const WorkloadSpec& w) {
         return w.program;
     }},
    // The cache key must change when the FILE CONTENT changes, not just
    // the path: the loaded source's hash enters the preimage.
    {"program.fnv", nullptr, "workload", kHash, Only::NonEmpty, false,
     nullptr,
     [](const core::ArchConfig&, const WorkloadSpec& w) {
         return w.program.empty() ? std::string() : fnvHex(w.programSource);
     }},
    {"check", "harness-free result check for program workloads "
              "(selfcheck | memcmp:ADDR:LEN:FNV)",
     "workload", kHash | kDump, Only::NonEmpty, false,
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         // Validate eagerly so spec files report malformed values with
         // file:line:col; the raw text is what gets hashed/serialized.
         parseCheckValue("sweep field 'check'", v);
         w.check = v;
     },
     [](const core::ArchConfig&, const WorkloadSpec& w) { return w.check; }},

    // Fault injection (docs/ROBUSTNESS.md; [faults] in spec files). Only
    // when set: a clean run's preimage (and so its cache key) is the same
    // as before faults existed, while every distinct injection gets its
    // own key. The watchdog is hashed because it changes what a long run
    // *returns* (timeout), even though it cannot change a completing one.
    VORTEX_FIELD(uint64_t, w, faults.seed, "faults", kHash | kDump, Faulted,
                 "fault-injection PRNG seed selecting the upsets"),
    VORTEX_FIELD(uint32_t, w, faults.count, "faults", kHash | kDump,
                 Faulted, "single-bit upsets to inject (0 = off)"),
    VORTEX_FIELD(uint64_t, w, faults.window, "faults", kHash | kDumpNonZero,
                 Faulted,
                 "trigger-cycle window for injections (0 = default)"),
    VORTEX_FIELD(uint64_t, w, faults.watchdog, "faults",
                 kHash | kDumpNonZero, Faulted,
                 "cycle watchdog override for hang detection "
                 "(0 = runner default)"),
};

#undef VORTEX_FIELD
#undef VORTEX_U32_FIELD
#undef VORTEX_BOOL_FIELD
#undef VORTEX_RETIRED_FIELD
#undef VORTEX_HASHED_FIELD

} // namespace

std::string
resolveProgramPath(const std::string& path)
{
    auto exists = [](const std::string& p) {
        return static_cast<bool>(std::ifstream(p));
    };
    if (exists(path))
        return path;
    if (const char* env = std::getenv("VORTEX_PROGRAM_PATH")) {
        std::string prefixes = env;
        size_t start = 0;
        while (start <= prefixes.size()) {
            size_t colon = prefixes.find(':', start);
            std::string prefix =
                prefixes.substr(start, colon == std::string::npos
                                           ? std::string::npos
                                           : colon - start);
            if (!prefix.empty()) {
                std::string candidate = prefix + "/" + path;
                if (exists(candidate))
                    return candidate;
            }
            if (colon == std::string::npos)
                break;
            start = colon + 1;
        }
    }
    return path;
}

namespace {

/** Strict hex parse (optional 0x prefix, whole string must consume);
 *  fatal on failure, naming @p what. */
uint64_t
parseHexValue(const std::string& what, const std::string& value)
{
    std::string digits = value;
    if (digits.size() > 2 && digits[0] == '0' &&
        (digits[1] == 'x' || digits[1] == 'X'))
        digits = digits.substr(2);
    if (digits.empty() || digits.size() > 16)
        fatal(what, ": cannot parse '", value, "' as a hex number");
    uint64_t v = 0;
    for (char c : digits) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            d = c - 'A' + 10;
        else
            fatal(what, ": cannot parse '", value, "' as a hex number");
        v = (v << 4) | static_cast<uint64_t>(d);
    }
    return v;
}

} // namespace

CheckSpec
parseCheckValue(const std::string& what, const std::string& value)
{
    CheckSpec spec;
    if (value.empty())
        return spec;
    if (value == "selfcheck") {
        spec.kind = CheckSpec::Kind::Self;
        return spec;
    }
    const std::string prefix = "memcmp:";
    if (value.rfind(prefix, 0) == 0) {
        std::string rest = value.substr(prefix.size());
        size_t c1 = rest.find(':');
        size_t c2 = c1 == std::string::npos ? std::string::npos
                                            : rest.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos ||
            rest.find(':', c2 + 1) != std::string::npos)
            fatal(what, ": '", value,
                  "' is not of the form memcmp:ADDR:LEN:FNV");
        spec.kind = CheckSpec::Kind::Memcmp;
        uint64_t addr = parseHexValue(what, rest.substr(0, c1));
        uint64_t len = parseHexValue(what, rest.substr(c1 + 1,
                                                       c2 - c1 - 1));
        // The window must end inside the address space (LEN itself is
        // a uint32): Ram addresses would wrap past 0xFFFFFFFF.
        if (addr > UINT32_MAX || len > UINT32_MAX ||
            addr + len > (uint64_t{1} << 32))
            fatal(what, ": '", value,
                  "' window ADDR+LEN exceeds the 32-bit address space");
        spec.addr = static_cast<Addr>(addr);
        spec.len = static_cast<uint32_t>(len);
        spec.fnv = parseHexValue(what, rest.substr(c2 + 1));
        return spec;
    }
    fatal(what, ": unknown check '", value,
          "' (selfcheck | memcmp:ADDR:LEN:FNV)");
}

std::string
loadProgramSource(const std::string& path)
{
    std::string resolved = resolveProgramPath(path);
    std::ifstream in(resolved, std::ios::binary);
    if (!in)
        fatal("cannot open program file '", path,
              "' (also searched $VORTEX_PROGRAM_PATH prefixes)");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
workloadKernelName(const WorkloadSpec& w)
{
    if (w.kind == WorkloadSpec::Kind::Rodinia)
        return w.kernel;
    return runtime::textureKernelName(w.texFilter, w.texHw);
}

kernels::Guest
workloadGuest(const WorkloadSpec& w)
{
    if (!w.program.empty())
        return {w.program, {{w.program, w.programSource}}};
    return kernels::kernel(workloadKernelName(w));
}

std::string
WorkloadSpec::describe() const
{
    std::ostringstream os;
    if (kind == Kind::Rodinia) {
        os << kernel;
        if (scale != 1)
            os << " x" << scale;
    } else {
        os << "texture " << runtime::texFilterName(texFilter)
           << (texHw ? " hw " : " sw ") << texSize;
    }
    if (!program.empty())
        os << " @" << program;
    if (!check.empty())
        os << " [" << check << "]";
    return os.str();
}

std::string
WorkloadSpec::whyUnrunnable() const
{
    if (kind != Kind::Rodinia || program.empty() || !check.empty() ||
        runtime::isRodiniaKernel(kernel))
        return {};
    return "kernel '" + kernel + "' has no Rodinia harness, so program '" +
           program + "' needs a check (selfcheck | memcmp:ADDR:LEN:FNV)";
}

namespace {

/** Failed RunResult of class @p status, with whatever counters the
 *  device accumulated before the run ended. */
runtime::RunResult
failedResult(runtime::Device& dev, RunStatus status,
             const std::string& what)
{
    runtime::RunResult r;
    r.ok = false;
    r.status = status;
    r.error = what;
    r.cycles = dev.processor().cycles();
    r.threadInstrs = dev.processor().threadInstrs();
    r.ipc = dev.processor().ipc();
    return r;
}

/** Memory-word upsets target this many words from startPC — enough to
 *  cover the image (code + data) of every shipped guest program. */
constexpr uint32_t kFaultMemWords = 0x4000 / 4;

} // namespace

runtime::RunResult
WorkloadSpec::run(runtime::Device& dev) const
{
    try {
        if (faults.watchdog)
            dev.setCycleLimit(faults.watchdog);
        if (faults.count)
            faults::FaultInjector::install(
                faults, dev.processor(), dev.processor().config().startPC,
                kFaultMemWords);
        if (!check.empty() && program.empty())
            fatal("workload check '", check,
                  "' requires a program file ([workload] program = ...)");
        const kernels::Guest guest = workloadGuest(*this);
        if (!check.empty()) {
            // Harness-free path: the guest program is the workload.
            CheckSpec c = parseCheckValue("workload check", check);
            if (c.kind == CheckSpec::Kind::Self)
                return runtime::runSelfCheck(dev, guest);
            return runtime::runMemcmp(dev, guest, c.addr, c.len, c.fnv);
        }
        if (kind == Kind::Rodinia)
            return runtime::runRodinia(dev, kernel, scale, guest);
        return runtime::runTexture(dev, texFilter, texHw, texSize, guest);
    } catch (const SimError& e) {
        // Structured run-path failure (watchdog, guest trap): one failed
        // row, not a campaign abort (docs/ROBUSTNESS.md).
        return failedResult(dev, e.status(), e.what());
    } catch (const FatalError& e) {
        // Anything else fatal on the run path is a host-side error.
        return failedResult(dev, RunStatus::HostError, e.what());
    }
}

Axis
Axis::sweep(const std::string& field, const std::vector<std::string>& values)
{
    Axis a;
    a.name = field;
    for (const std::string& v : values)
        a.points.push_back(AxisPoint{v, {{field, v}}});
    return a;
}

Axis
Axis::sweepU32(const std::string& field, const std::vector<uint32_t>& values)
{
    std::vector<std::string> vs;
    for (uint32_t v : values)
        vs.push_back(std::to_string(v));
    return sweep(field, vs);
}

std::string
RunSpec::id() const
{
    std::string s;
    for (const auto& [axis, label] : coords) {
        (void)axis;
        if (!s.empty())
            s += '/';
        s += label;
    }
    return s.empty() ? workload.describe() : s;
}

std::string
RunSpec::canonical() const
{
    std::string s = "vortex-run v2\n"; // v2: added sampleInterval
    for (const FieldText& f : fieldTexts(FieldOutput::Hash, config, workload))
        s.append(f.name).append(" = ").append(f.value).append("\n");
    return s;
}

std::string
RunSpec::contentHash() const
{
    return fnvHex(canonical());
}

size_t
SweepSpec::runCount() const
{
    size_t n = 1;
    for (const Axis& a : axes)
        n *= a.points.size();
    return n;
}

std::vector<RunSpec>
SweepSpec::expand() const
{
    for (const Axis& a : axes)
        if (a.points.empty())
            fatal("sweep '", name, "': axis '", a.name, "' has no points");

    std::vector<RunSpec> runs;
    runs.reserve(runCount());
    std::vector<size_t> idx(axes.size(), 0);
    while (true) {
        RunSpec r;
        r.config = base;
        r.workload = baseWorkload;
        for (size_t a = 0; a < axes.size(); ++a) {
            const AxisPoint& p = axes[a].points[idx[a]];
            r.coords.emplace_back(axes[a].name, p.label);
            for (const auto& [field, value] : p.sets)
                if (!applyField(r.config, r.workload, field, value))
                    fatal("sweep '", name, "': axis '", axes[a].name,
                          "' point '", p.label, "': unknown field '",
                          field, "'");
        }
        const std::string why = r.workload.whyUnrunnable();
        if (!why.empty())
            fatal("sweep '", name, "'",
                  r.coords.empty() ? "" : " run '" + r.id() + "'", ": ",
                  why);
        runs.push_back(std::move(r));

        // Row-major increment: the last axis varies fastest.
        size_t a = axes.size();
        while (a > 0) {
            --a;
            if (++idx[a] < axes[a].points.size())
                break;
            idx[a] = 0;
            if (a == 0)
                return runs;
        }
        if (axes.empty())
            return runs;
    }
}

bool
applyField(core::ArchConfig& cfg, WorkloadSpec& wl, const std::string& name,
           const std::string& value)
{
    for (const FieldDef& f : kFields) {
        if (f.set && name == f.name) {
            f.set(cfg, wl, value);
            return true;
        }
    }
    return false;
}

const std::vector<FieldInfo>&
sweepableFields()
{
    static const std::vector<FieldInfo> infos = [] {
        std::vector<FieldInfo> v;
        for (const FieldDef& f : kFields)
            if (f.set)
                v.push_back(FieldInfo{f.name, f.help});
        return v;
    }();
    return infos;
}

std::vector<FieldText>
fieldTexts(FieldOutput out, const core::ArchConfig& cfg,
           const WorkloadSpec& wl)
{
    const uint8_t mask = out == FieldOutput::Hash ? kHash
                                                  : kDump | kDumpNonZero;
    std::vector<FieldText> texts;
    for (const FieldDef& f : kFields) {
        if (!(f.outputs & mask))
            continue;
        std::string v = f.get(cfg, wl);
        bool written = false;
        switch (f.only) {
        case Only::Always: written = true; break;
        case Only::Rodinia:
            written = wl.kind == WorkloadSpec::Kind::Rodinia;
            break;
        case Only::Texture:
            written = wl.kind == WorkloadSpec::Kind::Texture;
            break;
        case Only::NonEmpty: written = !v.empty(); break;
        case Only::Faulted: written = wl.faults.any(); break;
        }
        if (!written || ((f.outputs & mask) == kDumpNonZero && v == "0"))
            continue;
        if (f.boolean && out == FieldOutput::Dump)
            v = v == "1" ? "true" : "false";
        texts.push_back(FieldText{f.name, f.section, std::move(v)});
    }
    return texts;
}

bool
isFaultsKey(const std::string& key)
{
    for (const FieldDef& f : kFields)
        if (f.set && "faults." + key == f.name)
            return true;
    return false;
}

std::string
faultsKeyList()
{
    std::string keys;
    for (const FieldDef& f : kFields)
        if (std::string_view(f.name).starts_with("faults."))
            keys.append(keys.empty() ? "" : ", ").append(f.name + 7);
    return keys;
}

std::pair<std::string, std::string>
splitSetArg(const std::string& arg)
{
    size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("--set expects KEY=VALUE (got '", arg, "')");
    return {arg.substr(0, eq), arg.substr(eq + 1)};
}

void
applySetArg(core::ArchConfig& cfg, WorkloadSpec& wl,
            const std::pair<std::string, std::string>& kv)
{
    if (!applyField(cfg, wl, kv.first, kv.second))
        fatal("--set: unknown field '", kv.first,
              "' (vortex_sweep specs fields)");
}

} // namespace vortex::sweep
