/**
 * @file
 * Tests for the sweep-spec file subsystem (src/sweep/specfile.h) and the
 * campaign's LPT scheduling:
 *
 *  - the shipped examples/specs/ files: each is its own canonical dump
 *    byte for byte, round-trips to a content-hash-identical run
 *    matrix, and the sweep presets are exactly these files, embedded
 *    unchanged;
 *  - malformed input fails with file:line:col diagnostics;
 *  - JSON specs parse to the same matrix as their TOML equivalent, and
 *    the JSON reader's diagnostics are pinned by a malformed corpus;
 *  - LPT claim ordering never changes emitted CSV bytes, for any job
 *    count and any cache warmth, and the cost estimate / cached
 *    host-seconds probes behave.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/embedded.h"
#include "common/log.h"
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/presets.h"
#include "sweep/specfile.h"

using namespace vortex;
using namespace vortex::sweep;

namespace {

/** Content of @p path; empty when unreadable (the caller's EXPECT
 *  then reports the mismatch). */
std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** (name, path) of every shipped examples/specs/ file, by name. */
std::vector<std::pair<std::string, std::string>>
shippedSpecs()
{
    std::vector<std::pair<std::string, std::string>> specs;
    for (const auto& entry :
         std::filesystem::directory_iterator(VORTEX_SPECS_DIR))
        if (entry.path().extension() == ".toml")
            specs.emplace_back(entry.path().stem().string(),
                               entry.path().string());
    std::sort(specs.begin(), specs.end());
    return specs;
}

/** Content hashes of the expanded matrix, in matrix order. */
std::vector<std::string>
matrixHashes(const SweepSpec& spec)
{
    std::vector<std::string> hashes;
    for (const RunSpec& r : spec.expand())
        hashes.push_back(r.contentHash());
    return hashes;
}

/** A fast two-axis campaign used by the scheduling tests. */
SweepSpec
tinySpec()
{
    SweepSpec s;
    s.name = "tiny";
    s.base = baselineConfig(1);
    s.axes = {Axis::sweep("kernel", {"vecadd", "saxpy"}),
              Axis::sweepU32("numWarps", {2, 4})};
    return s;
}

std::string
freshTempDir(const char* tag)
{
    static int serial = 0;
    std::string dir =
        (std::filesystem::temp_directory_path() /
         (std::string("vortex_specfile_test_") + tag + "_" +
          std::to_string(::getpid()) + "_" + std::to_string(serial++)))
            .string();
    std::filesystem::remove_all(dir);
    return dir;
}

/** EXPECT that parsing @p text throws a SpecParseError at the given
 *  position whose message contains @p fragment. */
void
expectParseError(const std::string& text, size_t line, size_t col,
                 const std::string& fragment)
{
    try {
        parseSpecText(text, "t.toml");
        FAIL() << "expected SpecParseError containing '" << fragment
               << "'";
    } catch (const SpecParseError& e) {
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_EQ(e.column(), col) << e.what();
        EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
            << e.what();
        // The position is part of the rendered diagnostic too.
        std::string pos = "t.toml:" + std::to_string(line) + ":" +
                          std::to_string(col) + ":";
        EXPECT_NE(std::string(e.what()).find(pos), std::string::npos)
            << e.what();
    }
}

} // namespace

TEST(SpecFile, ShippedSpecsAreCanonicalDumps)
{
    // Each file is exactly what writeSpecToml emits for it, so
    // `--dump-spec` of an edited preset diffs cleanly against the file.
    for (const auto& [name, path] : shippedSpecs()) {
        std::string text = readFile(path);
        EXPECT_EQ(text, specToToml(parseSpecText(text, path)))
            << path << " is not in canonical form; rewrite it with "
            << "vortex_sweep run --spec " << path << " --dump-spec "
            << path;
    }
}

TEST(SpecFile, ShippedSpecsRoundTripHashIdentical)
{
    for (const auto& [name, path] : shippedSpecs()) {
        SweepSpec original = parseSpecFile(path);
        SweepSpec reparsed =
            parseSpecText(specToToml(original), name + ".toml");

        EXPECT_EQ(original.name, name) << path;
        EXPECT_EQ(reparsed.name, original.name);
        EXPECT_EQ(reparsed.description, original.description);
        ASSERT_EQ(reparsed.runCount(), original.runCount()) << name;
        EXPECT_EQ(matrixHashes(reparsed), matrixHashes(original)) << name;

        // Ids (axis labels) survive too — reports index by them.
        std::vector<RunSpec> a = original.expand(), b = reparsed.expand();
        for (size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i].id(), b[i].id()) << name;
    }
}

TEST(SpecFile, SweepPresetsAreExactlyTheShippedFiles)
{
    std::set<std::string> presetNames, fileNames;
    for (const Preset& p : presets())
        if (!p.table)
            presetNames.insert(p.name);
    for (const auto& [name, path] : shippedSpecs()) {
        fileNames.insert(name);
        // The built-in copy is the file as it is now, not a stale embed.
        const char* embeddedText =
            embedded::find(embedded::specFiles(), name);
        ASSERT_NE(embeddedText, nullptr) << path;
        EXPECT_EQ(std::string(embeddedText), readFile(path)) << path;
    }
    EXPECT_EQ(presetNames, fileNames);
}

TEST(SpecFile, JsonAndTomlSpecsExpandIdentically)
{
    const char* toml = "name = \"mini\"\n"
                       "[base]\n"
                       "numWarps = 8\n"
                       "[workload]\n"
                       "kernel = \"saxpy\"\n"
                       "[[axes]]\n"
                       "name = \"cores\"\n"
                       "[[axes.points]]\n"
                       "label = \"1\"\n"
                       "set.cores = 1\n"
                       "[[axes.points]]\n"
                       "label = \"2\"\n"
                       "set.cores = 2\n";
    const char* json = R"({
      "name": "m\u0069ni",
      "base": {"numWarps": 8},
      "workload": {"kernel": "s\u0061xpy"},
      "axes": [
        {"name": "cores", "points": [
          {"label": "1", "set": {"cores": 1}},
          {"label": "2", "set": {"cores": 2}}
        ]}
      ]
    })";
    SweepSpec t = parseSpecText(toml, "m.toml");
    SweepSpec j = parseSpecText(json, "m.json");
    EXPECT_EQ(t.name, "mini");
    EXPECT_EQ(j.name, "mini");
    ASSERT_EQ(t.runCount(), 2u);
    EXPECT_EQ(matrixHashes(t), matrixHashes(j));
    EXPECT_EQ(t.expand()[1].config.numCores, 2u);
    EXPECT_EQ(t.expand()[0].config.numWarps, 8u);
    EXPECT_EQ(t.expand()[0].workload.kernel, "saxpy");
}

TEST(SpecFile, MalformedInputReportsLineAndColumn)
{
    // Bad value for a known field: position of the value.
    expectParseError("name = \"x\"\n[base]\nnumWarps = \"banana\"\n", 3,
                     12, "cannot parse 'banana'");
    // Unknown field name: position of the value node it was given.
    expectParseError("[base]\nnoSuchField = 3\n", 2, 15,
                     "unknown sweep field 'noSuchField'");
    // Unknown top-level key: position of the key.
    expectParseError("bogus = 1\n", 1, 1, "unknown top-level key");
    // Unterminated string.
    expectParseError("name = \"oops\n", 1, 8, "unterminated string");
    // Floats are rejected with a hint.
    expectParseError("[base]\nnumWarps = 4.5\n", 2, 12,
                     "floating-point");
    // Duplicate keys.
    expectParseError("name = \"a\"\nname = \"b\"\n", 2, 1, "set twice");
    // A point without a label (position: the `points` component of the
    // [[axes.points]] header that opened the point).
    expectParseError("[[axes]]\nname = \"kernel\"\n[[axes.points]]\n"
                     "set.kernel = \"saxpy\"\n",
                     3, 8, "needs a label");
    // An axis with no points at all.
    expectParseError("[[axes]]\nname = \"kernel\"\n", 1, 3, "no points");
    // Unterminated table header.
    expectParseError("[base\nnumWarps = 2\n", 1, 1,
                     "unterminated table header");
    // JSON: trailing garbage and duplicate keys carry positions too.
    expectParseError("{\"name\": \"x\"} xxx", 1, 15, "trailing content");
    expectParseError("{\"name\": \"x\", \"name\": \"y\"}", 1, 15,
                     "set twice");
    // JSON: null rejected with schema guidance.
    expectParseError("{\"name\": null}", 1, 10, "null is not used");
    // A program workload whose kernel has no Rodinia harness needs a
    // check: position of the kernel assignment in effect for the first
    // such run, in [workload] or in the axis point that selects it.
    expectParseError("[workload]\nkernel = \"hang\"\n"
                     "program = \"examples/kernels/hang.s\"\n",
                     2, 10, "kernel 'hang' has no Rodinia harness");
    expectParseError("[workload]\nprogram = \"examples/kernels/hang.s\"\n"
                     "[[axes]]\nname = \"k\"\n"
                     "[[axes.points]]\nlabel = \"a\"\nset.kernel = \"saxpy\"\n"
                     "[[axes.points]]\nlabel = \"b\"\nset.kernel = \"hang\"\n",
                     10, 14, "needs a check (selfcheck");
}

TEST(SpecFile, CustomKernelIsCheckedPerRun)
{
    // The check may come from another axis: every run has one, so the
    // spec is accepted, and dropping it from one point is rejected at
    // the kernel assignment that run uses.
    const std::string head = "[workload]\nkernel = \"hang\"\n"
                             "program = \"examples/kernels/hang.s\"\n"
                             "[[axes]]\nname = \"c\"\n"
                             "[[axes.points]]\nlabel = \"self\"\n"
                             "set.check = \"selfcheck\"\n"
                             "[[axes.points]]\nlabel = \"mem\"\n";
    EXPECT_EQ(parseSpecText(head + "set.check = \"memcmp:0:4:0\"\n",
                            "t.toml")
                  .runCount(),
              2u);
    expectParseError(head + "set.scale = 2\n", 2, 10, "needs a check");

    // Expansion rejects the same run when no file positions exist
    // (a spec built from --set/--axis arguments).
    SweepSpec cli;
    cli.name = "cli";
    applyField(cli.base, cli.baseWorkload, "kernel", "hang");
    applyField(cli.base, cli.baseWorkload, "program",
               "examples/kernels/hang.s");
    EXPECT_THROW(cli.expand(), FatalError);
    applyField(cli.base, cli.baseWorkload, "check", "selfcheck");
    EXPECT_EQ(cli.expand().size(), 1u);
}

TEST(SpecFile, CrlfLineEndingsParseLikeLf)
{
    // A spec checked out with Windows line endings (git autocrlf) must
    // parse identically to the LF original.
    std::string lf = specToToml(findPreset("fig19")->spec());
    std::string crlf;
    for (char c : lf) {
        if (c == '\n')
            crlf += '\r';
        crlf += c;
    }
    SweepSpec a = parseSpecText(lf, "lf.toml");
    SweepSpec b = parseSpecText(crlf, "crlf.toml");
    EXPECT_EQ(matrixHashes(a), matrixHashes(b));
}

TEST(SpecFile, StrayTokensInKeysAndHeadersAreErrorsNotDropped)
{
    // 'name extra = ...' must not silently parse as 'name = ...'.
    expectParseError("name extra = \"x\"\n", 1, 6,
                     "unexpected text after key");
    // Junk inside a table header must not silently become [base].
    expectParseError("[base junk]\nnumWarps = 2\n", 1, 7,
                     "unexpected text after key");
}

TEST(SpecFile, FaultsSectionRoundTrips)
{
    // A [faults] section populates the workload FaultSpec, enters the
    // canonical serialization (distinct content hash), and survives a
    // dump/parse round trip byte-identically.
    SweepSpec spec = parseSpecText("name = \"f\"\n"
                                   "[faults]\n"
                                   "seed = 7\n"
                                   "count = 3\n"
                                   "window = 5000\n"
                                   "watchdog = 200000\n",
                                   "f.toml");
    EXPECT_EQ(spec.baseWorkload.faults.seed, 7u);
    EXPECT_EQ(spec.baseWorkload.faults.count, 3u);
    EXPECT_EQ(spec.baseWorkload.faults.window, 5000u);
    EXPECT_EQ(spec.baseWorkload.faults.watchdog, 200000u);

    SweepSpec clean = parseSpecText("name = \"f\"\n", "f.toml");
    EXPECT_NE(spec.expand()[0].contentHash(),
              clean.expand()[0].contentHash());

    std::string dump = specToToml(spec);
    EXPECT_NE(dump.find("[faults]"), std::string::npos);
    SweepSpec reparsed = parseSpecText(dump, "f2.toml");
    EXPECT_EQ(specToToml(reparsed), dump);
    EXPECT_EQ(reparsed.expand()[0].contentHash(),
              spec.expand()[0].contentHash());

    // Unknown keys inside [faults] are positioned errors.
    expectParseError("name = \"f\"\n[faults]\nbogus = 1\n", 3, 1,
                     "unknown faults key");
}

TEST(SpecFile, SchemaIdIsValidatedWhenPresent)
{
    EXPECT_NO_THROW(
        parseSpecText("spec = \"vortex-sweep/v1\"\nname = \"a\"\n"));
    expectParseError("spec = \"vortex-sweep/v9\"\n", 1, 8,
                     "unsupported schema");
}

TEST(SpecFile, SampleIntervalAndOverridesSurviveTheFile)
{
    const char* toml = "name = \"sampled\"\n"
                       "[base]\n"
                       "sampleInterval = 5000\n"
                       "dcachePorts = 2\n"
                       "[workload]\n"
                       "workload = \"texture\"\n"
                       "texFilter = \"trilinear\"\n"
                       "texHw = false\n"
                       "texSize = 32\n";
    SweepSpec s = parseSpecText(toml, "s.toml");
    EXPECT_EQ(s.base.sampleInterval, 5000u);
    EXPECT_EQ(s.base.dcachePorts, 2u);
    EXPECT_EQ(s.baseWorkload.kind, WorkloadSpec::Kind::Texture);
    EXPECT_EQ(s.baseWorkload.texFilter, runtime::TexFilterMode::Trilinear);
    EXPECT_FALSE(s.baseWorkload.texHw);
    EXPECT_EQ(s.baseWorkload.texSize, 32u);
    // And they round-trip through the serializer.
    SweepSpec again = parseSpecText(specToToml(s), "s2.toml");
    EXPECT_EQ(matrixHashes(again), matrixHashes(s));
}

TEST(SpecFile, CheckFieldRoundTripsAndDifferentiatesTheHash)
{
    const char* toml = "name = \"zoo1\"\n"
                       "[workload]\n"
                       "kernel = \"bitonic\"\n"
                       "program = \"examples/kernels/bitonic.s\"\n"
                       "check = \"selfcheck\"\n";
    SweepSpec s = parseSpecText(toml, "z.toml");
    EXPECT_EQ(s.baseWorkload.check, "selfcheck");

    // Serializes, reparses, and is a fixpoint.
    std::string once = specToToml(s);
    EXPECT_NE(once.find("check = \"selfcheck\""), std::string::npos);
    SweepSpec again = parseSpecText(once, "z2.toml");
    EXPECT_EQ(again.baseWorkload.check, "selfcheck");
    EXPECT_EQ(once, specToToml(again));
    EXPECT_EQ(matrixHashes(again), matrixHashes(s));

    // The check is part of the run's identity: flipping it must change
    // the content hash — a memcmp'd run never aliases a selfcheck'd
    // one, and neither aliases an unchecked run.
    ASSERT_EQ(s.runCount(), 1u);
    RunSpec checked = s.expand()[0];
    RunSpec memcmpd = checked;
    memcmpd.workload.check = "memcmp:0x10000000:100:deadbeef";
    RunSpec unchecked = checked;
    unchecked.workload.check.clear();
    EXPECT_NE(checked.contentHash(), memcmpd.contentHash());
    EXPECT_NE(checked.contentHash(), unchecked.contentHash());
    EXPECT_NE(checked.canonical().find("check = selfcheck"),
              std::string::npos);
}

TEST(SpecFile, MalformedCheckValuesReportLineAndColumn)
{
    // Bad value of a known field: position of the value.
    expectParseError("[workload]\ncheck = \"bogus\"\n", 2, 9,
                     "unknown check 'bogus'");
    expectParseError("[workload]\ncheck = \"memcmp:zz:4:0\"\n", 2, 9,
                     "cannot parse 'zz' as a hex number");
    expectParseError("[workload]\ncheck = \"memcmp:0:4\"\n", 2, 9,
                     "not of the form memcmp:ADDR:LEN:FNV");
    // A window that would wrap past 0xFFFFFFFF, or span more than the
    // address space, is refused before any run reads it.
    expectParseError("[workload]\ncheck = \"memcmp:FFFFFF00:200:0\"\n", 2,
                     9, "window ADDR+LEN exceeds the 32-bit address space");
    expectParseError("[workload]\ncheck = \"memcmp:2:FFFFFFFF:0\"\n", 2, 9,
                     "window ADDR+LEN exceeds the 32-bit address space");
    EXPECT_EQ(sweep::parseCheckValue("c", "memcmp:FFFFFF00:100:0").len,
              0x100u);
}

namespace {

/** The diagnostic of parsing @p text as "c.json" ("<ok>" when it
 *  parses). */
std::string
diagnosticOf(const std::string& text)
{
    try {
        parseSpecText(text, "c.json");
    } catch (const SpecParseError& e) {
        return e.what();
    }
    return "<ok>";
}

} // namespace

TEST(SpecFile, JsonDiagnosticCorpusIsPinned)
{
    // Malformed JSON specs covering every lexer and structure error of
    // the JSON reader plus the schema builder's checks. Each diagnostic
    // is byte-identical to the spec parser's own before the reader moved
    // to common/json.h.
    struct Case
    {
        const char* text;
        const char* diagnostic;
    };
    const Case kCorpus[] = {
        {"{",
         "c.json:1:2: expected a \"key\" string"},
        {"{\"",
         "c.json:1:3: unterminated string"},
        {"{\"name\"",
         "c.json:1:8: expected ':'"},
        {"{\"name\":",
         "c.json:1:9: unexpected end of input"},
        {"{\"name\": ",
         "c.json:1:10: unexpected end of input"},
        {"{\"name\": \"x\"",
         "c.json:1:13: expected '}'"},
        {"{\"name\": \"x\",",
         "c.json:1:14: expected a \"key\" string"},
        {"{\"name\": \"x\", }",
         "c.json:1:15: expected a \"key\" string"},
        {"{\"name\": \"x\"}}",
         "c.json:1:14: trailing content after document"},
        {"{\"name\" \"x\"}",
         "c.json:1:9: expected ':'"},
        {"{name: \"x\"}",
         "c.json:1:2: expected a \"key\" string"},
        {"{\"name\": 'x'}",
         "c.json:1:10: unrecognized value"},
        {"{\"name\": tru}",
         "c.json:1:10: unrecognized literal"},
        {"{\"name\": fals}",
         "c.json:1:10: unrecognized literal"},
        {"{\"name\": tx}",
         "c.json:1:10: unrecognized literal"},
        {"{\"name\": nul}",
         "c.json:1:10: unrecognized value"},
        {"{\"name\": +1}",
         "c.json:1:10: unrecognized value"},
        {"{\"name\": .5}",
         "c.json:1:10: unrecognized value"},
        {"{\"name\": null}",
         "c.json:1:10: null is not used by sweep specs (omit the key instead)"},
        {"{\"base\": {\"numWarps\": 4.5}}",
         "c.json:1:23: floating-point values are not used by sweep specs"},
        {"{\"base\": {\"numWarps\": 1e3}}",
         "c.json:1:23: floating-point values are not used by sweep specs"},
        {"{\"base\": {\"numWarps\": -5.25E-2}}",
         "c.json:1:23: floating-point values are not used by sweep specs"},
        {"{\"base\": {\"numWarps\": -}}",
         "c.json:1:23: malformed number"},
        {"{\"base\": {\"numWarps\": -x}}",
         "c.json:1:23: malformed number"},
        {"{\"base\": {\"numWarps\": 99999999999999999999}}",
         "c.json:1:23: integer out of range"},
        {"{\"name\": \"a\\qb\"}",
         "c.json:1:13: unsupported escape '\\q'"},
        {"{\"name\": \"a\nb\"}",
         "c.json:1:12: unterminated string"},
        {"{\"name\": \"abc",
         "c.json:1:14: unterminated string"},
        {"{\"name\": \"a\\",
         "c.json:1:13: unterminated string"},
        {"{\"name\": \"x\", \"name\": \"y\"}",
         "c.json:1:15: key 'name' set twice"},
        {"{\"axes\": [1 2]}",
         "c.json:1:13: expected ']'"},
        {"{\"axes\": [1,]}",
         "c.json:1:13: unrecognized value"},
        {"{\"axes\": [",
         "c.json:1:11: unexpected end of input"},
        {"{\"axes\": [{}",
         "c.json:1:13: expected ']'"},
        {"{\"axes\": [{\"name\": \"k\", \"points\": [}]}",
         "c.json:1:36: unrecognized value"},
        {"{\"axes\": {\"name\": \"k\"}}",
         "c.json:1:10: expected an array of axes, got a table"},
        {"{\"axes\": [{\"name\": \"k\"}]}",
         "c.json:1:11: axis 'k' has no points"},
        {"{\"axes\": [{\"points\": []}]}",
         "c.json:1:11: axis needs a name"},
        {"{\"axes\": [{\"name\": \"k\", \"points\": [{\"set\": {\"kernel\": \"vecadd\"}}]}]}",
         "c.json:1:36: axis point needs a label"},
        {"{\"axes\": [{\"name\": \"k\", \"points\": [{\"label\": \"a\", \"bogus\": 1}]}]}",
         "c.json:1:51: unknown point key 'bogus' (point keys: label, set)"},
        {"{\"axes\": [{\"name\": \"k\", \"points\": [{\"label\": \"a\", \"set\": {\"nosuch\": 1}}]}]}",
         "c.json:1:69: unknown sweep field 'nosuch' (vortex_sweep specs fields lists them)"},
        {"{\"axes\": [{\"name\": \"k\", \"points\": [{\"label\": \"a\", \"set\": {\"numWarps\": null}}]}]}",
         "c.json:1:71: null is not used by sweep specs (omit the key instead)"},
        {"{\"axes\": [{\"name\": 7, \"points\": []}]}",
         "c.json:1:20: expected a string axis name, got a integer"},
        {"{\"axes\": [{\"name\": \"k\", \"points\": [\"a\"]}]}",
         "c.json:1:36: expected a point table, got a string"},
        {"{\"base\": {\"numWarps\": \"banana\"}}",
         "c.json:1:23: fatal: sweep field 'numWarps': cannot parse 'banana' as an unsigned integer"},
        {"{\"base\": {\"numWarps\": true}}",
         "c.json:1:23: fatal: sweep field 'numWarps': cannot parse 'true' as an unsigned integer"},
        {"{\"base\": []}",
         "c.json:1:10: expected a table of field assignments, got a array"},
        {"{\"base\": {\"numWarps\": [1]}}",
         "c.json:1:23: expected a scalar value, got a array"},
        {"{\"spec\": \"vortex-sweep/v9\"}",
         "c.json:1:10: unsupported schema 'vortex-sweep/v9' (this build reads vortex-sweep/v1)"},
        {"{\"spec\": 1}",
         "c.json:1:10: expected a schema-id string, got a integer"},
        {"{\"bogus\": 1}",
         "c.json:1:2: unknown top-level key 'bogus' (keys: spec, name, description, base, workload, faults, fabric, axes)"},
        {"{\"fabric\": {\"shard\": \"3/3\"}}",
         "c.json:1:22: fatal: fabric shard: shard index 3 out of range for 3 shards"},
        {"{\"workload\": {\"kernel\": \"hang\", \"program\": \"examples/kernels/hang.s\"}}",
         "c.json:1:25: kernel 'hang' has no Rodinia harness, so program 'examples/kernels/hang.s' needs a check (selfcheck | memcmp:ADDR:LEN:FNV)"},
        {"{\"fabric\": {\"nope\": 1}}",
         "c.json:1:13: unknown fabric key 'nope' (fabric keys: shard)"},
        {"{\"faults\": {\"nope\": 1}}",
         "c.json:1:13: unknown faults key 'nope' (faults keys: seed, count, window, watchdog)"},
        {"{\"name\": [\"x\"]}",
         "c.json:1:10: expected a string name, got a array"},
        {"{\"name\": \"x\"}\n\n  x",
         "c.json:3:3: trailing content after document"},
        {"{\n  \"base\": {\n    \"numWarps\": 4.5\n  }\n}",
         "c.json:3:17: floating-point values are not used by sweep specs"},
        {"{\"name\": \"x\" , \"base\" : { \"numWarps\" : 2 , } }",
         "c.json:1:44: expected a \"key\" string"},
        {"{\"name\": \"x\"}garbage",
         "c.json:1:14: trailing content after document"},
        {"{\"name\": -5.5}",
         "c.json:1:10: floating-point values are not used by sweep specs"},
        {"{\"name\": \"x\", \"description\": \"line\\tone\\/two\\b\\f\\r\"",
         "c.json:1:52: expected '}'"},
        {"  {\"name\": \"x\" ",
         "c.json:1:16: expected '}'"},
        {"{\"description\": 5}",
         "c.json:1:17: expected a string description, got a integer"},
        {"{\"axes\": [{\"name\": \"k\", \"name\": \"j\"}]}",
         "c.json:1:25: key 'name' set twice"},
        {"{\"workload\": {\"check\": \"bogus\"}}",
         "c.json:1:24: fatal: sweep field 'check': unknown check 'bogus' (selfcheck | memcmp:ADDR:LEN:FNV)"},
        {"{\"workload\": {\"check\": \"memcmp:FFFFFF00:200:0\"}}",
         "c.json:1:24: fatal: sweep field 'check': 'memcmp:FFFFFF00:200:0' window ADDR+LEN exceeds the 32-bit address space"},
        {"{\"faults\": []}",
         "c.json:1:12: expected a faults table, got a array"},
        {"{\"fabric\": \"x\"}",
         "c.json:1:12: expected a fabric table, got a string"},
    };
    for (const Case& c : kCorpus)
        EXPECT_EQ(diagnosticOf(c.text), c.diagnostic) << c.text;

    // Truncate a complete spec after every byte: the FNV-1a digest of
    // the 305 diagnostics, pinned from the same parser.
    const std::string full =
        "{\"spec\": \"vortex-sweep/v1\", \"name\": \"t\", \"description\": \"d\\n\",\n"
        " \"base\": {\"numWarps\": 2, \"lat\": {\"alu\": 1}, \"l2Enabled\": false},\n"
        " \"workload\": {\"kernel\": \"saxpy\"},\n"
        " \"axes\": [{\"name\": \"k\", \"points\": [{\"label\": \"a\", "
        "\"set\": {\"kernel\": \"vecadd\"}},\n"
        "   {\"label\": \"b\", \"set\": {\"numWarps\": 4, \"lat\": {\"mul\": 3}}}]}]}";
    ASSERT_EQ(diagnosticOf(full), "<ok>");
    std::string all;
    for (size_t n = 1; n < full.size(); ++n)
        all += diagnosticOf(full.substr(0, n)) + "\n";
    uint64_t digest = 0xcbf29ce484222325ull;
    for (unsigned char b : all)
        digest = (digest ^ b) * 0x100000001b3ull;
    EXPECT_EQ(digest, 0x9d361b0dc8a10053ull) << all;
}

TEST(SpecFile, JsonReaderChangesOnlyEscapesDepthAndMalformedNumbers)
{
    // \u escapes decode in the range jsonEscape emits; higher code
    // points and short escapes are positioned errors.
    EXPECT_EQ(diagnosticOf("{\"name\": \"mini\\u00e9\"}"),
              "c.json:1:16: unsupported escape '\\u00e9' "
              "(only \\u0000-\\u007f are decoded)");
    EXPECT_EQ(diagnosticOf("{\"name\": \"mini\\u00\"}"),
              "c.json:1:16: malformed escape '\\u' (expected four hex "
              "digits)");
    EXPECT_EQ(parseSpecText("{\"name\": \"\\u0009\\u007f\\u0000\"}").name,
              std::string("\t\x7f\0", 3));
    // Nesting past the bound stops at the first bracket too deep.
    EXPECT_EQ(diagnosticOf("{\"axes\": " + std::string(65, '[') +
                           std::string(65, ']') + "}"),
              "c.json:1:73: document nests deeper than 64 levels");
    // A malformed number is a syntax error, whatever its shape.
    EXPECT_EQ(diagnosticOf("{\"name\": 1.}"), "c.json:1:10: malformed number");
    EXPECT_EQ(diagnosticOf("{\"name\": -.5}"),
              "c.json:1:10: malformed number");
    // Syntax is checked before the schema rejects a float or a null.
    EXPECT_EQ(diagnosticOf("{\"name\": 1.5, \"x\": }"),
              "c.json:1:20: unrecognized value");
}

TEST(SpecFile, DeepNestingIsADiagnosticNotACrash)
{
    // 100,000 levels overflowed the stack of the recursive parser (and
    // of the tree's destructor) before nesting was bounded.
    const size_t n = 100000;
    expectParseError("{\"axes\": " + std::string(n, '[') +
                         std::string(n, ']') + "}",
                     1, 73, "document nests deeper than 64 levels");
    std::string toml = "[base]\n";
    for (size_t i = 0; i < n; ++i)
        toml += "a.";
    expectParseError(toml + "a = 1\n", 2, 129,
                     "key nests deeper than 64 levels");
}

TEST(Lpt, EstimateRanksObviouslyLongerRunsHigher)
{
    SweepSpec s;
    s.base = baselineConfig(1);
    RunSpec small = s.expand()[0]; // vecadd x1 on the 1-core baseline

    RunSpec bigKernel = small;
    bigKernel.workload.kernel = "sgemm";
    bigKernel.workload.scale = 2;
    EXPECT_GT(estimateRunCost(bigKernel), estimateRunCost(small));

    RunSpec bigMachine = small;
    bigMachine.config.numCores = 16;
    EXPECT_GT(estimateRunCost(bigMachine), estimateRunCost(small));

    // Deterministic: same spec, same estimate.
    EXPECT_DOUBLE_EQ(estimateRunCost(small), estimateRunCost(small));
}

TEST(Lpt, CsvBytesAreIdenticalAcrossJobsAndCacheWarmthUnderLpt)
{
    SweepSpec spec = tinySpec();

    auto csvOf = [&](const CampaignOptions& o) {
        std::ostringstream os;
        Campaign(o).run(spec).writeCsv(os);
        return os.str();
    };

    CampaignOptions lpt1;
    lpt1.jobs = 1;
    CampaignOptions lpt4 = lpt1;
    lpt4.jobs = 4;

    std::string base = csvOf(lpt1);
    EXPECT_EQ(base, csvOf(lpt4));

    // Half-warm cache: run a sub-matrix first, then the full campaign
    // with LPT at --jobs 4. Hits are claimed last, misses by estimate —
    // bytes still identical.
    std::string dir = freshTempDir("lpt");
    SweepSpec half = tinySpec();
    half.axes[0] = Axis::sweep("kernel", {"vecadd"});
    CampaignOptions warm;
    warm.jobs = 2;
    warm.cacheDir = dir;
    Campaign(warm).run(half);

    CampaignOptions cached4 = lpt4;
    cached4.cacheDir = dir;
    CampaignResult r = Campaign(cached4).run(spec);
    EXPECT_EQ(r.cacheHits, 2u);
    EXPECT_EQ(r.cacheMisses, 2u);
    std::ostringstream os;
    r.writeCsv(os);
    EXPECT_EQ(base, os.str());
    std::filesystem::remove_all(dir);
}

TEST(Lpt, CachedHostSecondsRoundTripsThroughTheCache)
{
    std::string dir = freshTempDir("hs");
    CampaignOptions opts;
    opts.cacheDir = dir;
    SweepSpec spec = tinySpec();
    CampaignResult cold = Campaign(opts).run(spec);

    for (const RunRecord& rec : cold.records) {
        double s = CacheStore(dir).recordedHostSeconds(rec.spec.contentHash());
        EXPECT_GE(s, 0.0);
        // What the cache replays is what the run cost this host.
        EXPECT_DOUBLE_EQ(s, rec.hostSeconds);
    }
    EXPECT_LT(CacheStore(dir).recordedHostSeconds("0123456789abcdef"), 0.0);
    EXPECT_LT(CacheStore(dir + "/nope").recordedHostSeconds("0123456789abcdef"),
              0.0);

    // An entry written before the host_seconds provenance line existed
    // is still a hit: the probe reports 0 (unknown cost), not absent —
    // otherwise LPT would price warm pre-upgrade caches as full work.
    const std::string hash = cold.records[0].spec.contentHash();
    const std::string path = dir + "/" + hash + ".run";
    std::ifstream in(path);
    std::ostringstream stripped;
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("host_seconds ", 0) != 0)
            stripped << line << "\n";
    in.close();
    std::ofstream(path, std::ios::trunc) << stripped.str();
    EXPECT_DOUBLE_EQ(CacheStore(dir).recordedHostSeconds(hash), 0.0);
    std::filesystem::remove_all(dir);
}
