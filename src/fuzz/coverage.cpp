/**
 * @file
 * Corpus-coverage measurement and its pinned JSON format (coverage.h).
 */

#include "fuzz/coverage.h"

#include <sstream>

#include "analysis/analysis.h"
#include "common/json.h"
#include "common/log.h"
#include "isa/assembler.h"
#include "isa/object.h"
#include "kernels/kernels.h"
#include "runtime/device.h"

namespace vortex::fuzz {

namespace {

/** Name of the decoder dispatch path for a raw encoding's major
 *  opcode, or nullptr for encodings no path accepts. */
const char*
decodePathName(uint32_t raw)
{
    switch (raw & 0x7F) {
    case isa::OPC_LOAD:     return "LOAD";
    case isa::OPC_LOAD_FP:  return "LOAD-FP";
    case isa::OPC_VORTEX:   return "VORTEX";
    case isa::OPC_MISC_MEM: return "MISC-MEM";
    case isa::OPC_OP_IMM:   return "OP-IMM";
    case isa::OPC_AUIPC:    return "AUIPC";
    case isa::OPC_STORE:    return "STORE";
    case isa::OPC_STORE_FP: return "STORE-FP";
    case isa::OPC_TEX:      return "TEX";
    case isa::OPC_OP:       return "OP";
    case isa::OPC_LUI:      return "LUI";
    case isa::OPC_MADD:     return "MADD";
    case isa::OPC_MSUB:     return "MSUB";
    case isa::OPC_NMSUB:    return "NMSUB";
    case isa::OPC_NMADD:    return "NMADD";
    case isa::OPC_OP_FP:    return "OP-FP";
    case isa::OPC_BRANCH:   return "BRANCH";
    case isa::OPC_JALR:     return "JALR";
    case isa::OPC_JAL:      return "JAL";
    case isa::OPC_SYSTEM:   return "SYSTEM";
    default:                return nullptr;
    }
}

/** Emit a JSON array of strings from a sorted set. */
void
writeArray(std::ostream& os, const char* key,
           const std::set<std::string>& values)
{
    os << "  \"" << key << "\": [";
    bool first = true;
    for (const std::string& v : values) {
        os << (first ? "" : ", ") << "\"" << v << "\"";
        first = false;
    }
    os << "]";
}

/** Member @p key of coverage document @p doc; fatal, naming @p what,
 *  when it is absent. */
const json::Node&
coverageField(const json::Node& doc, const char* key,
              const std::string& what)
{
    const json::Node* v = doc.find(key);
    if (!v)
        fatal(what, ": missing coverage key '", key, "'");
    return *v;
}

/** The unsigned integer member @p key of @p doc, at most @p max. */
uint64_t
unsignedField(const json::Node& doc, const char* key, uint64_t max,
              const std::string& what)
{
    const json::Node& v = coverageField(doc, key, what);
    if (v.kind != json::Node::Kind::Integer || v.integer < 0)
        fatal(what, ":", v.line, ":", v.col, ": coverage key '", key,
              "' is not an unsigned integer");
    if (static_cast<uint64_t>(v.integer) > max)
        fatal(what, ":", v.line, ":", v.col, ": coverage key '", key,
              "' is out of range");
    return static_cast<uint64_t>(v.integer);
}

/** The string-array member @p key of @p doc. */
std::set<std::string>
stringSet(const json::Node& doc, const char* key, const std::string& what)
{
    const json::Node& v = coverageField(doc, key, what);
    if (v.kind != json::Node::Kind::Array)
        fatal(what, ":", v.line, ":", v.col, ": coverage key '", key,
              "' is not an array");
    std::set<std::string> out;
    for (const json::Node& e : v.children) {
        if (e.kind != json::Node::Kind::String)
            fatal(what, ":", e.line, ":", e.col, ": coverage key '", key,
                  "' holds a ", e.kindName(), ", not a string");
        out.insert(e.str);
    }
    return out;
}

/** List the baseline entries of @p kind missing from @p measured. */
void
reportMissing(std::ostream& os, const char* kind,
              const std::set<std::string>& baseline,
              const std::set<std::string>& measured)
{
    for (const std::string& v : baseline)
        if (!measured.count(v))
            os << kind << " '" << v
               << "' is in the baseline but no longer exercised\n";
}

} // namespace

CoverageReport
measureCoverage(uint64_t startSeed, uint32_t count, const GenOptions& opts)
{
    CoverageReport report;
    report.startSeed = startSeed;
    report.seeds = count;
    core::ArchConfig config = fuzzConfig();
    for (uint64_t seed = startSeed; seed < startSeed + count; ++seed) {
        GeneratedKernel k = generateKernel(seed, opts);
        const std::string unit = "<fuzz:" + std::to_string(seed) + ">";
        isa::ObjectFile obj = kernels::assembleGuest(
            config.startPC, {unit, {{unit, k.source}}});
        isa::Program program = obj.toProgram(config.startPC);

        // Decode every word of the executable sections: the mnemonics
        // and major-opcode dispatch paths the corpus reaches.
        for (const isa::ObjSection& s : obj.sections) {
            if (!s.exec)
                continue;
            for (uint32_t off = s.offset; off + 4 <= s.offset + s.size;
                 off += 4) {
                uint32_t raw = static_cast<uint32_t>(program.image[off]) |
                               static_cast<uint32_t>(
                                   program.image[off + 1]) << 8 |
                               static_cast<uint32_t>(
                                   program.image[off + 2]) << 16 |
                               static_cast<uint32_t>(
                                   program.image[off + 3]) << 24;
                isa::Instr in = isa::decode(raw);
                if (!in.valid())
                    continue;
                report.instrKinds.insert(isa::instrInfo(in.kind).mnemonic);
                if (const char* path = decodePathName(raw))
                    report.decodePaths.insert(path);
            }
        }

        analysis::Report rep = analysis::analyze(
            program, runtime::analyzerOptions(config, program));
        report.analyzerChecks.insert(rep.exercisedChecks.begin(),
                                     rep.exercisedChecks.end());
    }
    return report;
}

std::string
coverageJson(const CoverageReport& report)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"spec\": \"vortex-fuzz-coverage/v1\",\n";
    os << "  \"startSeed\": " << report.startSeed << ",\n";
    os << "  \"seeds\": " << report.seeds << ",\n";
    writeArray(os, "instrKinds", report.instrKinds);
    os << ",\n";
    writeArray(os, "decodePaths", report.decodePaths);
    os << ",\n";
    writeArray(os, "analyzerChecks", report.analyzerChecks);
    os << "\n}\n";
    return os.str();
}

CoverageReport
parseCoverageJson(const std::string& text, const std::string& what)
{
    json::Node doc;
    try {
        doc = json::parse(text, what);
    } catch (const ParseError& e) {
        fatal(e.what());
    }
    const std::string* spec = doc.findString("spec");
    if (!spec || *spec != "vortex-fuzz-coverage/v1")
        fatal(what, ": not a vortex-fuzz-coverage/v1 document");
    CoverageReport report;
    report.startSeed = unsignedField(doc, "startSeed", UINT64_MAX, what);
    report.seeds = static_cast<uint32_t>(
        unsignedField(doc, "seeds", UINT32_MAX, what));
    report.instrKinds = stringSet(doc, "instrKinds", what);
    report.decodePaths = stringSet(doc, "decodePaths", what);
    report.analyzerChecks = stringSet(doc, "analyzerChecks", what);
    return report;
}

std::string
coverageRegressions(const CoverageReport& baseline,
                    const CoverageReport& measured)
{
    std::ostringstream os;
    reportMissing(os, "InstrKind", baseline.instrKinds,
                  measured.instrKinds);
    reportMissing(os, "decode path", baseline.decodePaths,
                  measured.decodePaths);
    reportMissing(os, "analyzer check", baseline.analyzerChecks,
                  measured.analyzerChecks);
    return os.str();
}

} // namespace vortex::fuzz
