/**
 * @file
 * ISA-layer tests: encode/decode round-trip over every instruction kind
 * (property test with randomized operand fields), immediate edge cases,
 * operand classification, disassembly, and golden digests of the whole
 * decode/disassemble/encode map and of every shipped guest image.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <sstream>

#include "common/log.h"
#include "common/rng.h"
#include "isa/assembler.h"
#include "isa/isa.h"
#include "isa/object.h"
#include "kernels/kernels.h"

using namespace vortex;
using namespace vortex::isa;

namespace {

/** A random instance of @p kind: each field its operand letters name
 *  gets a random in-range value, the rest stay zero. */
Instr
randomInstr(InstrKind kind, Xorshift& rng)
{
    auto reg = [&] { return rng.nextBounded(32); };
    auto simm = [&](uint32_t bits) {
        return static_cast<int32_t>(rng.nextBounded(1u << bits)) -
               (1 << (bits - 1));
    };
    Instr in;
    in.kind = kind;
    for (const char* c = instrInfo(kind).operands; *c; ++c) {
        switch (*c) {
          case 'd': case 'D': in.rd = reg(); break;
          case 's': case 'S': in.rs1 = reg(); break;
          case 't': case 'T': in.rs2 = reg(); break;
          case 'R': in.rs3 = reg(); break;
          case 'j': case 'o': case 'q': in.imm = simm(12); break;
          case 'p': in.imm = simm(12) * 2; break;
          case 'a': in.imm = simm(20) * 2; break;
          case 'u':
            in.imm = static_cast<int32_t>(rng.next() & 0xFFFFF000u);
            break;
          case '>': case 'Z':
            in.imm = static_cast<int32_t>(rng.nextBounded(32));
            break;
          case 'E': in.csr = rng.nextBounded(0x1000); break;
          default: break;
        }
    }
    return in;
}

/** 64-bit FNV-1a over everything fed to it. */
struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void* data, size_t n)
    {
        const auto* p = static_cast<const uint8_t*>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }
    void u32(uint32_t v) { bytes(&v, sizeof v); }
    void
    str(const std::string& s)
    {
        u32(static_cast<uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }
};

/** Everything the ISA layer derives from @p word: the decoded fields,
 *  and for a valid word its disassembly and re-encoding. */
void
hashWord(Fnv1a& f, uint32_t word)
{
    Instr in = decode(word);
    f.u32(static_cast<uint32_t>(in.kind));
    f.u32(in.rd);
    f.u32(in.rs1);
    f.u32(in.rs2);
    f.u32(in.rs3);
    f.u32(static_cast<uint32_t>(in.imm));
    f.u32(in.csr);
    if (in.valid()) {
        f.str(disassemble(in));
        f.u32(encode(in));
    }
}

/** Digest of every opcode x funct3 x funct7 with a spread of register
 *  fields, then of 1 M pseudo-random words. */
uint64_t
isaDigest()
{
    Fnv1a f;
    for (uint32_t opc = 0; opc < 128; ++opc)
        for (uint32_t f3 = 0; f3 < 8; ++f3)
            for (uint32_t f7 = 0; f7 < 128; ++f7)
                for (uint32_t rs2 : {0u, 1u, 2u, 31u})
                    for (uint32_t rd : {0u, 5u})
                        for (uint32_t rs1 : {0u, 7u})
                            hashWord(f, (f7 << 25) | (rs2 << 20) |
                                            (rs1 << 15) | (f3 << 12) |
                                            (rd << 7) | opc);
    Xorshift rng(0x15A);
    for (int i = 0; i < 1000000; ++i)
        hashWord(f, static_cast<uint32_t>(rng.next()));
    return f.h;
}

/** FNV-1a of @p bytes. */
uint64_t
fnv(const std::vector<uint8_t>& bytes)
{
    Fnv1a f;
    f.bytes(bytes.data(), bytes.size());
    return f.h;
}

/** Digests of one guest assembled after the runtime, as a flat image and
 *  through the VXOB object path (the serialized object, then its image
 *  loaded at the link base). */
struct ImagePin
{
    std::string name;
    uint64_t flat;
    uint64_t object;
    uint64_t loaded;
};

ImagePin
pinImage(const std::string& name, const std::vector<SourceUnit>& guest)
{
    const Addr base = 0x80000000;
    std::vector<SourceUnit> units = {{"runtime.s", kernels::runtimeSource()}};
    units.insert(units.end(), guest.begin(), guest.end());
    ImagePin pin{name, 0, 0, 0};
    pin.flat = fnv(Assembler(base).assembleUnits(units).image);
    std::vector<uint8_t> obj =
        writeObject(Assembler(base).assembleObject(units));
    pin.object = fnv(obj);
    pin.loaded =
        fnv(readObject(obj.data(), obj.size(), name).toProgram(base).image);
    return pin;
}

/** Every built-in kernel, then every checked-in .s file by name. */
std::vector<ImagePin>
allImagePins()
{
    std::vector<ImagePin> pins;
    for (const kernels::Guest& k : kernels::allKernels())
        pins.push_back(pinImage(k.name, k.units));
    std::vector<std::string> files;
    for (const auto& e :
         std::filesystem::directory_iterator(VORTEX_KERNELS_DIR))
        if (e.path().extension() == ".s")
            files.push_back(e.path().filename().string());
    std::sort(files.begin(), files.end());
    for (const std::string& file : files) {
        std::ifstream in(std::string(VORTEX_KERNELS_DIR) + "/" + file);
        std::ostringstream text;
        text << in.rdbuf();
        pins.push_back(pinImage(file, {{file, text.str()}}));
    }
    return pins;
}

} // namespace

class IsaRoundTrip : public ::testing::TestWithParam<uint16_t>
{
};

TEST_P(IsaRoundTrip, EncodeDecode)
{
    auto kind = static_cast<InstrKind>(GetParam());
    Xorshift rng(GetParam() * 977 + 1);
    for (int iter = 0; iter < 64; ++iter) {
        Instr in = randomInstr(kind, rng);
        uint32_t word = encode(in);
        Instr out = decode(word);
        EXPECT_EQ(out.kind, kind) << instrInfo(kind).mnemonic;
        // The disassembly prints every operand field the row names.
        EXPECT_EQ(disassemble(out), disassemble(in));
        // Re-encoding the decoded form must be stable.
        EXPECT_EQ(encode(out), word) << instrInfo(kind).mnemonic;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, IsaRoundTrip,
    ::testing::Range<uint16_t>(1,
                               static_cast<uint16_t>(InstrKind::kCount)),
    [](const ::testing::TestParamInfo<uint16_t>& info) {
        std::string m =
            instrInfo(static_cast<InstrKind>(info.param)).mnemonic;
        for (char& c : m) {
            if (c == '.')
                c = '_';
        }
        return m;
    });

TEST(Isa, ImmediateEdges)
{
    Instr in;
    in.kind = InstrKind::ADDI;
    in.rd = 1;
    in.rs1 = 2;
    in.imm = -2048;
    EXPECT_EQ(decode(encode(in)).imm, -2048);
    in.imm = 2047;
    EXPECT_EQ(decode(encode(in)).imm, 2047);
    in.imm = 2048;
    EXPECT_THROW(encode(in), PanicError);

    in.kind = InstrKind::JAL;
    in.imm = -(1 << 20);
    EXPECT_EQ(decode(encode(in)).imm, -(1 << 20));
    in.imm = (1 << 20) - 2;
    EXPECT_EQ(decode(encode(in)).imm, (1 << 20) - 2);
    in.imm = 3; // misaligned
    EXPECT_THROW(encode(in), PanicError);

    in.kind = InstrKind::BEQ;
    in.imm = -4096;
    EXPECT_EQ(decode(encode(in)).imm, -4096);
    in.imm = 4094;
    EXPECT_EQ(decode(encode(in)).imm, 4094);
}

TEST(Isa, InvalidEncodings)
{
    EXPECT_FALSE(decode(0x00000000).valid());
    EXPECT_FALSE(decode(0xFFFFFFFF).valid());
    // OP with reserved funct7.
    EXPECT_FALSE(decode(0x40001033 | (0x15 << 25)).valid());
}

TEST(Isa, OperandClassification)
{
    Instr lw = decode(encode([] {
        Instr i;
        i.kind = InstrKind::LW;
        i.rd = 5;
        i.rs1 = 6;
        i.imm = 16;
        return i;
    }()));
    EXPECT_EQ(lw.dst().file, RegFile::Int);
    EXPECT_EQ(lw.src1().file, RegFile::Int);
    EXPECT_FALSE(lw.src2().valid());
    EXPECT_TRUE(lw.isLoad());
    EXPECT_FALSE(lw.isStore());
    EXPECT_EQ(lw.fuType(), FuType::LSU);

    Instr fsw;
    fsw.kind = InstrKind::FSW;
    fsw.rs1 = 2;
    fsw.rs2 = 3;
    EXPECT_FALSE(fsw.dst().valid());
    EXPECT_EQ(fsw.src1().file, RegFile::Int);
    EXPECT_EQ(fsw.src2().file, RegFile::Fp);
    EXPECT_TRUE(fsw.isStore());

    Instr fma;
    fma.kind = InstrKind::FMADD_S;
    EXPECT_EQ(fma.dst().file, RegFile::Fp);
    EXPECT_EQ(fma.src3().file, RegFile::Fp);
    EXPECT_EQ(fma.fuType(), FuType::FPU);

    Instr tex;
    tex.kind = InstrKind::VX_TEX;
    EXPECT_EQ(tex.dst().file, RegFile::Int);
    EXPECT_EQ(tex.src1().file, RegFile::Fp);
    EXPECT_EQ(tex.fuType(), FuType::TEX);

    Instr bar;
    bar.kind = InstrKind::VX_BAR;
    EXPECT_FALSE(bar.dst().valid());
    EXPECT_TRUE(bar.isControl());
    EXPECT_EQ(bar.fuType(), FuType::SFU);

    // Every instruction row: the classifiers return the row's unit, flags
    // and register files, each operand keeping its own field's index.
    const size_t num_kinds = static_cast<size_t>(InstrKind::kCount);
    for (const InstrInfo& row : instrTable().first(num_kinds)) {
        SCOPED_TRACE(row.mnemonic);
        Instr in;
        in.kind = row.kind;
        in.rd = 1;
        in.rs1 = 2;
        in.rs2 = 3;
        in.rs3 = 4;
        EXPECT_EQ(in.fuType(), row.fu);
        EXPECT_EQ(in.isControl(), (row.flags & kControl) != 0);
        EXPECT_EQ(in.isBranch(), (row.flags & kBranch) != 0);
        EXPECT_EQ(in.isLoad(), (row.flags & kLoad) != 0);
        EXPECT_EQ(in.isStore(), (row.flags & kStore) != 0);
        EXPECT_EQ(in.isFloatOp(), row.fu == FuType::FPU);
        auto expected = [](RegFile file, RegId idx) {
            return RegRef{file, file == RegFile::None ? RegId{0} : idx};
        };
        EXPECT_EQ(in.dst(), expected(row.dst, 1));
        EXPECT_EQ(in.src1(), expected(row.src1, 2));
        EXPECT_EQ(in.src2(), expected(row.src2, 3));
        EXPECT_EQ(in.src3(), expected(row.src3, 4));
    }

    // x0 destination is not a write.
    RegRef x0{RegFile::Int, 0};
    EXPECT_FALSE(x0.isWrite());
    RegRef f0{RegFile::Fp, 0};
    EXPECT_TRUE(f0.isWrite());
}

TEST(Isa, Disassemble)
{
    Instr in;
    in.kind = InstrKind::ADDI;
    in.rd = 10;
    in.rs1 = 2;
    in.imm = -4;
    EXPECT_EQ(disassemble(in), "addi a0, sp, -4");

    in = Instr{};
    in.kind = InstrKind::VX_TEX;
    in.rd = 5;
    in.rs1 = 0;
    in.rs2 = 1;
    in.rs3 = 2;
    EXPECT_EQ(disassemble(in), "vx_tex t0, ft0, ft1, ft2");

    in = Instr{};
    in.kind = InstrKind::FLW;
    in.rd = 10;
    in.rs1 = 8;
    in.imm = 12;
    EXPECT_EQ(disassemble(in), "flw fa0, 12(s0)");
}

TEST(Isa, RegisterNames)
{
    EXPECT_STREQ(intRegName(0), "zero");
    EXPECT_STREQ(intRegName(2), "sp");
    EXPECT_STREQ(intRegName(31), "t6");
    EXPECT_STREQ(fpRegName(0), "ft0");
    EXPECT_STREQ(fpRegName(10), "fa0");
}

TEST(Isa, DecodeDisassembleEncodeArePinned)
{
    // Golden: a change to any decoded field, don't-care bit, disassembly
    // or re-encoding of any enumerated word changes the digest.
    EXPECT_EQ(isaDigest(), 0x05219c5959b74f4full);
}

TEST(Isa, KernelImagesArePinned)
{
    // Golden: the flat image and the serialized VXOB object of every
    // guest, assembled after the runtime.
    const std::map<std::string, std::pair<uint64_t, uint64_t>> expected = {
        {"vecadd", {0x522cee525fe940a5ull, 0xc7caf8b4bdc53299ull}},
        {"saxpy", {0x00364e8baec95c8cull, 0x92de30bf3c88296dull}},
        {"sgemm", {0x849768c738b9ac0bull, 0xe5a20b955915784full}},
        {"sfilter", {0xdf83db89ae1da1ecull, 0x6798beca8e2a3f54ull}},
        {"nearn", {0xd3661492ceebd0fdull, 0x66e291e188455531ull}},
        {"gaussian", {0x064b8eaa069e39adull, 0x516f815c648640ceull}},
        {"bfs", {0xac058f7f88c6d028ull, 0x17ca3342a6f39294ull}},
        {"tex_point_hw", {0xe2be41174838b6a1ull, 0x5b3c94e5da67b92full}},
        {"tex_bilinear_hw", {0xe2be41174838b6a1ull, 0x5b3c94e5da67b92full}},
        {"tex_trilinear_hw", {0x31e5466d9063f75aull, 0x1ff57a4d27d13d6cull}},
        {"tex_point_sw", {0x711f3e83ae0ebbe9ull, 0x544432cb2daca157ull}},
        {"tex_bilinear_sw", {0xa78e4e2d4c2e1f4bull, 0xc2c47bebedb8765full}},
        {"tex_trilinear_sw", {0x651d9fcb6bb96959ull, 0x670169c1da6ec485ull}},
        {"bfs.s", {0xac058f7f88c6d028ull, 0x17ca3342a6f39294ull}},
        {"bitonic.s", {0xf5e2d3f8e65ecf53ull, 0x8a2b7ba45f4e23e9ull}},
        {"gaussian.s", {0x064b8eaa069e39adull, 0x516f815c648640ceull}},
        {"hang.s", {0xd239ce5466ee6424ull, 0xfc87b37b7e034371ull}},
        {"histogram.s", {0xc418ae3016027ba6ull, 0x79527483cd4936ebull}},
        {"nearn.s", {0xd3661492ceebd0fdull, 0x66e291e188455531ull}},
        {"reduce_tree.s", {0x8eb03d4f36a93e2eull, 0x4017772e2d85413bull}},
        {"saxpy.s", {0x00364e8baec95c8cull, 0x92de30bf3c88296dull}},
        {"sfilter.s", {0xdf83db89ae1da1ecull, 0x6798beca8e2a3f54ull}},
        {"sgemm.s", {0x849768c738b9ac0bull, 0xe5a20b955915784full}},
        {"stress_bank.s", {0x78bdc1581a4039b3ull, 0xfbd8895ec0a05decull}},
        {"stress_barrier.s", {0x54cdb80a732aee8aull, 0x30ef2b8f245776d7ull}},
        {"stress_diverge.s", {0x194ed648a46de2c1ull, 0x537f5756092ba42dull}},
        {"vecadd.s", {0x522cee525fe940a5ull, 0xc7caf8b4bdc53299ull}},
    };
    std::vector<ImagePin> pins = allImagePins();
    EXPECT_EQ(pins.size(), expected.size());
    for (const ImagePin& pin : pins) {
        auto it = expected.find(pin.name);
        ASSERT_NE(it, expected.end()) << pin.name;
        EXPECT_EQ(pin.flat, it->second.first) << pin.name;
        EXPECT_EQ(pin.object, it->second.second) << pin.name;
        EXPECT_EQ(pin.loaded, pin.flat) << pin.name;
    }
}
