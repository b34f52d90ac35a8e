/**
 * @file
 * Tests for the guest-program toolchain: the relocatable VXOB object
 * format (write -> read -> write byte fixpoint, hostile-input
 * rejection), relocation/rebase correctness against the flat assembler
 * as ground truth, the Device loader (entry check, decoded text and
 * code-page pre-marking), and the golden contract — every unit of every
 * built-in guest is its checked-in `.s` file, and a `program =` twin of
 * a Rodinia kernel is bit-identical in cycles, retired thread
 * instructions, and verified output to the built-in kernel, in both
 * core orders and on more than one machine geometry.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <set>
#include <sstream>

#include "common/log.h"
#include "isa/assembler.h"
#include "isa/isa.h"
#include "isa/object.h"
#include "kernels/kernels.h"
#include "runtime/device.h"
#include "runtime/workloads.h"
#include "sweep/presets.h"
#include "sweep/spec.h"
#include "sweep/specfile.h"

using namespace vortex;
using namespace vortex::isa;

namespace {

/** A program exercising every relocation kind the assembler emits:
 *  la (Hi20+Lo12I), lui/%hi (Hi20), I-type %lo (Lo12I), S-type %lo
 *  (Lo12S), .word label (Abs32), plus rebase-invariant material
 *  (branches, a label difference) that must need no relocation. */
const char* const kRelocSource = R"(
main:
    la a0, table
    lw a1, 0(a0)
    lui a2, %hi(value)
    lw a3, %lo(value)(a2)
    addi a4, a2, %lo(value)
    sw a1, %lo(value)(a2)
    beqz a1, done
    j main
done:
    ret
.rodata
table:
    .word value
    .word table
    .word done
    .word 1234
    .word table_end - table
table_end:
.data
value:
    .word 42
)";

ObjectFile
assembleReloc(Addr base)
{
    Assembler as(base);
    return as.assembleObject({{"reloc.s", kRelocSource}});
}

std::string
kernelsDir()
{
    return VORTEX_KERNELS_DIR;
}

std::string
unitsDir()
{
    return VORTEX_UNITS_DIR;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(ObjectFormat, WriteReadWriteIsAByteFixpoint)
{
    ObjectFile obj = assembleReloc(0x80000000);
    EXPECT_FALSE(obj.relocs.empty());
    EXPECT_GE(obj.sections.size(), 3u); // .text, .rodata, .data

    std::vector<uint8_t> bytes = writeObject(obj);
    ObjectFile back = readObject(bytes.data(), bytes.size(), "mem.vxo");
    std::vector<uint8_t> again = writeObject(back);
    EXPECT_EQ(bytes, again);

    EXPECT_EQ(back.linkBase, obj.linkBase);
    EXPECT_EQ(back.entry, obj.entry);
    EXPECT_EQ(back.image, obj.image);
    EXPECT_EQ(back.relocs.size(), obj.relocs.size());
    EXPECT_EQ(back.symbols.size(), obj.symbols.size());
}

TEST(ObjectFormat, RejectsBadMagicVersionAndEveryTruncation)
{
    ObjectFile obj = assembleReloc(0x80000000);
    std::vector<uint8_t> bytes = writeObject(obj);

    // Wrong magic: a clear "not an object file", not a parse crash.
    {
        std::vector<uint8_t> bad = bytes;
        bad[0] ^= 0xFF;
        try {
            readObject(bad.data(), bad.size(), "bad.vxo");
            FAIL() << "expected bad-magic rejection";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "not a Vortex object file"),
                      std::string::npos)
                << e.what();
        }
    }

    // Future version: named with both the found and supported numbers.
    {
        std::vector<uint8_t> bad = bytes;
        bad[4] = 9; // version u16 follows the u32 magic
        try {
            readObject(bad.data(), bad.size(), "bad.vxo");
            FAIL() << "expected version rejection";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "unsupported object version 9"),
                      std::string::npos)
                << e.what();
        }
    }

    // Every strict prefix must be rejected as truncated — no field is
    // optional and no read may run past the buffer.
    for (size_t len = 0; len < bytes.size(); ++len)
        EXPECT_THROW(readObject(bytes.data(), len, "cut.vxo"), FatalError)
            << "prefix of " << len << " bytes parsed";
}

TEST(ObjectFormat, RebaseMatchesTheFlatAssemblerExactly)
{
    // Ground truth: assembling the same source directly at the target
    // base. Loading the 0x80000000-linked object at 0xA0001000 must
    // reproduce that byte-for-byte — every relocation patched, every
    // pc-relative encoding untouched, every symbol shifted.
    const Addr linkBase = 0x80000000;
    const Addr loadBase = 0xA0001000;
    ObjectFile obj = assembleReloc(linkBase);

    Program direct = Assembler(loadBase).assemble(kRelocSource, "reloc.s");
    Program moved = obj.toProgram(loadBase);
    EXPECT_EQ(moved.base, loadBase);
    EXPECT_EQ(moved.entry, direct.entry);
    EXPECT_EQ(moved.image, direct.image);
    EXPECT_EQ(moved.symbols, direct.symbols);

    // Identity load: no patching, image equals the linked image.
    Program same = obj.toProgram(linkBase);
    EXPECT_EQ(same.image, obj.image);
    EXPECT_EQ(same.symbol("value"),
              direct.symbol("value") - loadBase + linkBase);
}

TEST(ObjectFormat, DisassemblyIsInvariantUnderRebase)
{
    // Rebase may change immediate *values* (relocated hi/lo pairs) but
    // never what instruction a word decodes to or which registers it
    // names.
    ObjectFile obj = assembleReloc(0x80000000);
    Program a = obj.toProgram(0x80000000);
    Program b = obj.toProgram(0x90000000);
    Addr textEnd = a.symbol("table") - a.base; // .rodata starts there
    for (Addr off = 0; off < textEnd; off += 4) {
        uint32_t wa = 0, wb = 0;
        std::memcpy(&wa, &a.image[off], 4);
        std::memcpy(&wb, &b.image[off], 4);
        Instr ia = decode(wa);
        Instr ib = decode(wb);
        ASSERT_TRUE(ia.valid()) << "offset " << off;
        EXPECT_EQ(ia.kind, ib.kind) << "offset " << off;
        EXPECT_EQ(ia.rd, ib.rd) << "offset " << off;
        EXPECT_EQ(ia.rs1, ib.rs1) << "offset " << off;
        EXPECT_EQ(ia.rs2, ib.rs2) << "offset " << off;
    }
}

TEST(Loader, FileRoundTripAndEntryCheck)
{
    ObjectFile obj = assembleReloc(0x80000000);
    std::string path = std::string(::testing::TempDir()) + "toolchain.vxo";
    writeObjectFile(obj, path);
    ObjectFile back = readObjectFile(path);
    EXPECT_EQ(writeObject(back), writeObject(obj));
    std::remove(path.c_str());

    // The device starts every core at startPC; an object whose entry is
    // not at the image start cannot run and must be refused loudly.
    core::ArchConfig cfg;
    runtime::Device dev(cfg);
    ObjectFile off = obj;
    off.entry = off.linkBase + 8;
    try {
        dev.uploadObject(off);
        FAIL() << "expected entry-mismatch rejection";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("does not match the machine "
                                             "start PC"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Loader, MissingMainIsReportedAtTheKernel)
{
    // The runtime's `call main` is the reference, but the fault is the
    // guest's: every runtime-hosted path (the guest build, the device
    // upload, vortex_verify --asm) reports it at the guest's first unit,
    // line 1.
    const std::string noMain = ".data\nx: .word 1\n.text\nfoo:\n    ret\n";
    const std::string pinned = "nomain.s:1:1: undefined symbol 'main': the "
                               "native runtime calls it, so the kernel "
                               "must define it";
    const kernels::Guest guest{"nomain.s", {{"nomain.s", noMain}}};
    auto diagnosticOf = [&](auto assemble) {
        try {
            assemble();
        } catch (const AsmError& e) {
            return std::string(e.what());
        }
        return std::string("<ok>");
    };
    EXPECT_EQ(diagnosticOf([&] { kernels::assembleGuest(0x80000000, guest); }),
              pinned);
    core::ArchConfig cfg;
    runtime::Device dev(cfg);
    EXPECT_EQ(diagnosticOf([&] { dev.uploadKernel(guest); }), pinned);
    // Other undefined symbols keep their own position.
    const kernels::Guest undefined{"k.s", {{"k.s", "main:\n    call nosuch\n"}}};
    EXPECT_EQ(
        diagnosticOf([&] { kernels::assembleGuest(0x80000000, undefined); }),
        "k.s:2:10: undefined symbol 'nosuch'");
}

TEST(Loader, PreMarksCodePagesForDecodedTextInvalidation)
{
    // A store to freshly loaded (never yet fetched) code must bump the
    // code-write epoch: the loader pre-marked the executable pages, it
    // did not wait for the first fetch to discover them. Every guest,
    // an ad-hoc source or a shipped kernel, is loaded that way.
    core::ArchConfig cfg;
    runtime::Device adhoc(cfg);
    adhoc.uploadKernel("main:\n    ret\n");
    runtime::Device builtin(cfg);
    builtin.uploadKernel(kernels::kernel("sgemm"));
    for (runtime::Device* dev : {&adhoc, &builtin}) {
        mem::Ram& ram = dev->ram();
        const uint64_t before = ram.codeWriteEpoch();
        ram.write32(cfg.startPC, 0x13); // nop over the entry
        EXPECT_EQ(ram.codeWriteEpoch(), before + 1);
    }
}

TEST(Golden, BuiltinRodiniaKernelsAreTheCheckedInFiles)
{
    // Every unit of every shipped guest is a checked-in file: the seven
    // Rodinia kernels in examples/kernels/, the runtime and the texture
    // units in src/kernels/.
    EXPECT_EQ(std::string(kernels::runtimeSource()),
              readFile(unitsDir() + "/runtime.s"))
        << "runtime.s: the embedded copy is stale";
    std::set<std::string> units;
    for (const kernels::Guest& k : kernels::allKernels()) {
        const bool rodinia = k.units.size() == 1;
        for (const SourceUnit& u : k.units) {
            const std::string dir = rodinia ? kernelsDir() : unitsDir();
            EXPECT_EQ(u.text, readFile(dir + "/" + u.name))
                << k.name << ": the embedded " << u.name << " is stale";
            units.insert(u.name);
        }
    }
    // 7 Rodinia kernels; tex_main, tex_sw_bilinear and 5 task units.
    EXPECT_EQ(units.size(), 7u + 7u);
    for (const char* name : {"vecadd", "saxpy", "sgemm", "sfilter", "nearn",
                             "gaussian", "bfs"}) {
        const char* builtin = kernels::kernelSource(name);
        ASSERT_NE(builtin, nullptr) << name;
        EXPECT_EQ(std::string(builtin),
                  readFile(kernelsDir() + "/" + name + ".s"))
            << name << ": the embedded copy is stale";
    }
}

TEST(Golden, CheckedInTwinsAreBitIdenticalToBuiltinKernels)
{
    // A `program =` file resolves to a one-unit guest named by its path
    // (sweep::workloadGuest), and the registry entry of the same kernel
    // is that same file (test above). This pins that resolution: the
    // two must give the same cycles, retired thread instructions and
    // verified output, on two geometries and in both core orders.
    struct Twin
    {
        const char* kernel;
        const char* file;
    };
    const Twin twins[] = {{"vecadd", "vecadd.s"},
                          {"saxpy", "saxpy.s"},
                          {"sgemm", "sgemm.s"},
                          {"sfilter", "sfilter.s"},
                          {"nearn", "nearn.s"},
                          {"gaussian", "gaussian.s"},
                          {"bfs", "bfs.s"}};
    for (const Twin& t : twins) {
        for (uint32_t cores : {1u, 4u}) {
            for (bool reversed : {false, true}) {
                core::ArchConfig cfg = sweep::baselineConfig(1);
                cfg.numCores = cores;

                sweep::WorkloadSpec builtin;
                builtin.kernel = t.kernel;
                runtime::Device dev1(cfg);
                dev1.processor().setReverseCoreOrder(reversed);
                runtime::RunResult r1 = builtin.run(dev1);
                ASSERT_TRUE(r1.ok) << t.kernel << ": " << r1.error;

                sweep::WorkloadSpec twin = builtin;
                twin.program = kernelsDir() + "/" + t.file;
                twin.programSource = readFile(twin.program);
                runtime::Device dev2(cfg);
                dev2.processor().setReverseCoreOrder(reversed);
                runtime::RunResult r2 = twin.run(dev2);
                ASSERT_TRUE(r2.ok) << twin.program << ": " << r2.error;

                EXPECT_EQ(r1.cycles, r2.cycles)
                    << t.kernel << " cores=" << cores
                    << " reversed=" << reversed;
                EXPECT_EQ(r1.threadInstrs, r2.threadInstrs)
                    << t.kernel << " cores=" << cores
                    << " reversed=" << reversed;
            }
        }
    }
}

TEST(Golden, AsmSmokeSpecRunsTheTwinsEndToEnd)
{
    // The shipped spec drives the same pipeline from a file: parse,
    // expand (which reads each .s eagerly), and run one point.
    ::setenv("VORTEX_PROGRAM_PATH",
             (kernelsDir() + "/../..").c_str(), 1);
    sweep::SweepSpec spec =
        sweep::parseSpecFile(std::string(VORTEX_SPECS_DIR) +
                             "/asm_smoke.toml");
    std::vector<sweep::RunSpec> runs = spec.expand();
    ASSERT_EQ(runs.size(), 14u); // 7 kernels x 2 core counts
    for (const sweep::RunSpec& r : runs) {
        EXPECT_FALSE(r.workload.program.empty()) << r.id();
        EXPECT_FALSE(r.workload.programSource.empty()) << r.id();
        // The program text is part of the cache key.
        EXPECT_NE(r.canonical().find("program.fnv = "), std::string::npos);
    }
    runtime::Device dev(runs[0].config);
    runtime::RunResult res = runs[0].workload.run(dev);
    EXPECT_TRUE(res.ok) << res.error;
}
