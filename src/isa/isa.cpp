/**
 * @file
 * The opcode table, checked at compile time, and the decoder and encoder
 * that read it. Operand classification reads it inline (isa.h).
 */

#include "isa/isa.h"

#include <array>

#include "common/bitmanip.h"
#include "common/log.h"

namespace vortex::isa {

namespace {

using K = InstrKind;
using F = InstrFormat;

constexpr size_t kNumKinds = static_cast<size_t>(InstrKind::kCount);

// Field placement.
constexpr uint32_t RD(uint32_t v) { return v << 7; }
constexpr uint32_t F3(uint32_t v) { return v << 12; }
constexpr uint32_t RS1(uint32_t v) { return v << 15; }
constexpr uint32_t RS2(uint32_t v) { return v << 20; }
constexpr uint32_t F7(uint32_t v) { return v << 25; }
constexpr uint32_t IMM12(int32_t v) { return (v & 0xFFFu) << 20; }

// Masks: opcode alone, + funct3, + funct7, + both, + funct7 and rs2.
constexpr uint32_t kOpc = 0x7F;
constexpr uint32_t kF3 = kOpc | F3(7);
constexpr uint32_t kF7 = kOpc | F7(0x7F);
constexpr uint32_t kF37 = kF3 | kF7;
constexpr uint32_t kF7Rs2 = kF7 | RS2(31);

/** The instruction-word bits operand letter @p c encodes. */
constexpr uint32_t
fieldBits(char c)
{
    switch (c) {
      case 'd': case 'D': return RD(31);
      case 's': case 'S': case 'Z': return RS1(31);
      case 't': case 'T': case '>': return RS2(31);
      case 'R': return 0xF8000000u;
      case 'U': return RS1(31) | RS2(31);
      case 'j': case 'o': case 'E': return 0xFFF00000u;
      case 'q': case 'p': return 0xFE000F80u;
      case 'u': case 'a': return 0xFFFFF000u;
      default: return 0; // separators
    }
}

constexpr uint32_t
operandBits(const char* ops)
{
    uint32_t b = 0;
    for (; *ops; ++ops)
        b |= fieldBits(*ops);
    return b;
}

constexpr InstrInfo
op(const char* mnemonic, InstrKind kind, InstrFormat format,
   uint32_t match, uint32_t mask, const char* ops, FuType fu = FuType::ALU,
   uint8_t flags = 0, uint8_t width = 0)
{
    InstrInfo r{mnemonic, kind,          format,        match,
                mask,     ops,           fu,            flags,
                width,    RegFile::None, RegFile::None, RegFile::None,
                RegFile::None};
    for (; *ops; ++ops) {
        switch (*ops) {
          case 'd': r.dst = RegFile::Int; break;
          case 'D': r.dst = RegFile::Fp; break;
          case 's': r.src1 = RegFile::Int; break;
          case 'S': r.src1 = RegFile::Fp; break;
          case 't': r.src2 = RegFile::Int; break;
          case 'T': r.src2 = RegFile::Fp; break;
          case 'R': r.src3 = RegFile::Fp; break;
          default: break;
        }
    }
    return r;
}

constexpr FuType MD = FuType::MULDIV;
constexpr FuType FP = FuType::FPU;
constexpr FuType LS = FuType::LSU;
constexpr FuType SF = FuType::SFU;
constexpr uint8_t kBr = kControl | kBranch;

} // namespace

namespace detail {

constexpr std::array<InstrInfo, kNumKinds> kInstrRows = {{
    op("<invalid>", K::Invalid, F::I, 0, 0, ""),

    op("lui", K::LUI, F::U, OPC_LUI, kOpc, "d,u"),
    op("auipc", K::AUIPC, F::U, OPC_AUIPC, kOpc, "d,u"),
    op("jal", K::JAL, F::J, OPC_JAL, kOpc, "d,a", FuType::ALU, kControl),
    op("jalr", K::JALR, F::I, OPC_JALR, kF3, "d,o(s)", FuType::ALU,
       kControl),
    op("beq", K::BEQ, F::B, OPC_BRANCH | F3(0), kF3, "s,t,p", FuType::ALU,
       kBr),
    op("bne", K::BNE, F::B, OPC_BRANCH | F3(1), kF3, "s,t,p", FuType::ALU,
       kBr),
    op("blt", K::BLT, F::B, OPC_BRANCH | F3(4), kF3, "s,t,p", FuType::ALU,
       kBr),
    op("bge", K::BGE, F::B, OPC_BRANCH | F3(5), kF3, "s,t,p", FuType::ALU,
       kBr),
    op("bltu", K::BLTU, F::B, OPC_BRANCH | F3(6), kF3, "s,t,p",
       FuType::ALU, kBr),
    op("bgeu", K::BGEU, F::B, OPC_BRANCH | F3(7), kF3, "s,t,p",
       FuType::ALU, kBr),
    op("lb", K::LB, F::I, OPC_LOAD | F3(0), kF3, "d,o(s)", LS, kLoad, 1),
    op("lh", K::LH, F::I, OPC_LOAD | F3(1), kF3, "d,o(s)", LS, kLoad, 2),
    op("lw", K::LW, F::I, OPC_LOAD | F3(2), kF3, "d,o(s)", LS, kLoad, 4),
    op("lbu", K::LBU, F::I, OPC_LOAD | F3(4), kF3, "d,o(s)", LS, kLoad, 1),
    op("lhu", K::LHU, F::I, OPC_LOAD | F3(5), kF3, "d,o(s)", LS, kLoad, 2),
    op("sb", K::SB, F::S, OPC_STORE | F3(0), kF3, "t,q(s)", LS, kStore, 1),
    op("sh", K::SH, F::S, OPC_STORE | F3(1), kF3, "t,q(s)", LS, kStore, 2),
    op("sw", K::SW, F::S, OPC_STORE | F3(2), kF3, "t,q(s)", LS, kStore, 4),
    op("addi", K::ADDI, F::I, OPC_OP_IMM | F3(0), kF3, "d,s,j"),
    op("slti", K::SLTI, F::I, OPC_OP_IMM | F3(2), kF3, "d,s,j"),
    op("sltiu", K::SLTIU, F::I, OPC_OP_IMM | F3(3), kF3, "d,s,j"),
    op("xori", K::XORI, F::I, OPC_OP_IMM | F3(4), kF3, "d,s,j"),
    op("ori", K::ORI, F::I, OPC_OP_IMM | F3(6), kF3, "d,s,j"),
    op("andi", K::ANDI, F::I, OPC_OP_IMM | F3(7), kF3, "d,s,j"),
    op("slli", K::SLLI, F::I, OPC_OP_IMM | F3(1), kF37, "d,s,>"),
    op("srli", K::SRLI, F::I, OPC_OP_IMM | F3(5), kF37, "d,s,>"),
    op("srai", K::SRAI, F::I, OPC_OP_IMM | F3(5) | F7(0x20), kF37,
       "d,s,>"),
    op("add", K::ADD, F::R, OPC_OP | F3(0), kF37, "d,s,t"),
    op("sub", K::SUB, F::R, OPC_OP | F3(0) | F7(0x20), kF37, "d,s,t"),
    op("sll", K::SLL, F::R, OPC_OP | F3(1), kF37, "d,s,t"),
    op("slt", K::SLT, F::R, OPC_OP | F3(2), kF37, "d,s,t"),
    op("sltu", K::SLTU, F::R, OPC_OP | F3(3), kF37, "d,s,t"),
    op("xor", K::XOR, F::R, OPC_OP | F3(4), kF37, "d,s,t"),
    op("srl", K::SRL, F::R, OPC_OP | F3(5), kF37, "d,s,t"),
    op("sra", K::SRA, F::R, OPC_OP | F3(5) | F7(0x20), kF37, "d,s,t"),
    op("or", K::OR, F::R, OPC_OP | F3(6), kF37, "d,s,t"),
    op("and", K::AND, F::R, OPC_OP | F3(7), kF37, "d,s,t"),
    op("fence", K::FENCE, F::Sys, OPC_MISC_MEM, kF3, "", SF, kControl),
    op("ecall", K::ECALL, F::Sys, OPC_SYSTEM, ~0u, "", SF, kControl),
    op("ebreak", K::EBREAK, F::Sys, OPC_SYSTEM | IMM12(1), ~0u, "", SF,
       kControl),

    op("csrrw", K::CSRRW, F::I, OPC_SYSTEM | F3(1), kF3, "d,E,s", SF),
    op("csrrs", K::CSRRS, F::I, OPC_SYSTEM | F3(2), kF3, "d,E,s", SF),
    op("csrrc", K::CSRRC, F::I, OPC_SYSTEM | F3(3), kF3, "d,E,s", SF),
    op("csrrwi", K::CSRRWI, F::I, OPC_SYSTEM | F3(5), kF3, "d,E,Z", SF),
    op("csrrsi", K::CSRRSI, F::I, OPC_SYSTEM | F3(6), kF3, "d,E,Z", SF),
    op("csrrci", K::CSRRCI, F::I, OPC_SYSTEM | F3(7), kF3, "d,E,Z", SF),

    op("mul", K::MUL, F::R, OPC_OP | F3(0) | F7(1), kF37, "d,s,t", MD),
    op("mulh", K::MULH, F::R, OPC_OP | F3(1) | F7(1), kF37, "d,s,t", MD),
    op("mulhsu", K::MULHSU, F::R, OPC_OP | F3(2) | F7(1), kF37, "d,s,t",
       MD),
    op("mulhu", K::MULHU, F::R, OPC_OP | F3(3) | F7(1), kF37, "d,s,t", MD),
    op("div", K::DIV, F::R, OPC_OP | F3(4) | F7(1), kF37, "d,s,t", MD),
    op("divu", K::DIVU, F::R, OPC_OP | F3(5) | F7(1), kF37, "d,s,t", MD),
    op("rem", K::REM, F::R, OPC_OP | F3(6) | F7(1), kF37, "d,s,t", MD),
    op("remu", K::REMU, F::R, OPC_OP | F3(7) | F7(1), kF37, "d,s,t", MD),

    // FP arithmetic ignores the rounding-mode funct3 (kF7 masks) and the
    // fused multiply-adds also ignore fmt (opcode-only masks).
    op("flw", K::FLW, F::I, OPC_LOAD_FP | F3(2), kF3, "D,o(s)", LS, kLoad,
       4),
    op("fsw", K::FSW, F::S, OPC_STORE_FP | F3(2), kF3, "T,q(s)", LS,
       kStore, 4),
    op("fmadd.s", K::FMADD_S, F::R4, OPC_MADD, kOpc, "D,S,T,R", FP),
    op("fmsub.s", K::FMSUB_S, F::R4, OPC_MSUB, kOpc, "D,S,T,R", FP),
    op("fnmsub.s", K::FNMSUB_S, F::R4, OPC_NMSUB, kOpc, "D,S,T,R", FP),
    op("fnmadd.s", K::FNMADD_S, F::R4, OPC_NMADD, kOpc, "D,S,T,R", FP),
    op("fadd.s", K::FADD_S, F::R, OPC_OP_FP | F7(0x00), kF7, "D,S,T", FP),
    op("fsub.s", K::FSUB_S, F::R, OPC_OP_FP | F7(0x04), kF7, "D,S,T", FP),
    op("fmul.s", K::FMUL_S, F::R, OPC_OP_FP | F7(0x08), kF7, "D,S,T", FP),
    op("fdiv.s", K::FDIV_S, F::R, OPC_OP_FP | F7(0x0C), kF7, "D,S,T", FP),
    op("fsqrt.s", K::FSQRT_S, F::R, OPC_OP_FP | F7(0x2C), kF7Rs2, "D,S",
       FP),
    op("fsgnj.s", K::FSGNJ_S, F::R, OPC_OP_FP | F3(0) | F7(0x10), kF37,
       "D,S,T", FP),
    op("fsgnjn.s", K::FSGNJN_S, F::R, OPC_OP_FP | F3(1) | F7(0x10), kF37,
       "D,S,T", FP),
    op("fsgnjx.s", K::FSGNJX_S, F::R, OPC_OP_FP | F3(2) | F7(0x10), kF37,
       "D,S,T", FP),
    op("fmin.s", K::FMIN_S, F::R, OPC_OP_FP | F3(0) | F7(0x14), kF37,
       "D,S,T", FP),
    op("fmax.s", K::FMAX_S, F::R, OPC_OP_FP | F3(1) | F7(0x14), kF37,
       "D,S,T", FP),
    op("fcvt.w.s", K::FCVT_W_S, F::R, OPC_OP_FP | F7(0x60) | RS2(0),
       kF7Rs2, "d,S", FP),
    op("fcvt.wu.s", K::FCVT_WU_S, F::R, OPC_OP_FP | F7(0x60) | RS2(1),
       kF7Rs2, "d,S", FP),
    op("fmv.x.w", K::FMV_X_W, F::R, OPC_OP_FP | F3(0) | F7(0x70), kF37,
       "d,S", FP),
    op("feq.s", K::FEQ_S, F::R, OPC_OP_FP | F3(2) | F7(0x50), kF37,
       "d,S,T", FP),
    op("flt.s", K::FLT_S, F::R, OPC_OP_FP | F3(1) | F7(0x50), kF37,
       "d,S,T", FP),
    op("fle.s", K::FLE_S, F::R, OPC_OP_FP | F3(0) | F7(0x50), kF37,
       "d,S,T", FP),
    op("fclass.s", K::FCLASS_S, F::R, OPC_OP_FP | F3(1) | F7(0x70), kF37,
       "d,S", FP),
    op("fcvt.s.w", K::FCVT_S_W, F::R, OPC_OP_FP | F7(0x68) | RS2(0),
       kF7Rs2, "D,s", FP),
    op("fcvt.s.wu", K::FCVT_S_WU, F::R, OPC_OP_FP | F7(0x68) | RS2(1),
       kF7Rs2, "D,s", FP),
    op("fmv.w.x", K::FMV_W_X, F::R, OPC_OP_FP | F3(0) | F7(0x78), kF37,
       "D,s", FP),

    // Vortex ops ignore rd and funct3; tex ignores funct3 and fmt.
    op("vx_tmc", K::VX_TMC, F::R, OPC_VORTEX | F7(VXF_TMC), kF7, "s", SF,
       kControl),
    op("vx_wspawn", K::VX_WSPAWN, F::R, OPC_VORTEX | F7(VXF_WSPAWN), kF7,
       "s,t", SF, kControl),
    op("vx_split", K::VX_SPLIT, F::R, OPC_VORTEX | F7(VXF_SPLIT), kF7, "s",
       SF, kControl),
    op("vx_join", K::VX_JOIN, F::R, OPC_VORTEX | F7(VXF_JOIN), kF7, "", SF,
       kControl),
    op("vx_bar", K::VX_BAR, F::R, OPC_VORTEX | F7(VXF_BAR), kF7, "s,t", SF,
       kControl),
    op("vx_tex", K::VX_TEX, F::R4, OPC_TEX, kOpc, "d,S,T,R", FuType::TEX),
}};

} // namespace detail

namespace {

using detail::kInstrRows;

/** An alias of @p base: its row, with @p fixed fields set and operands
 *  @p ops; every bit outside those operands is fixed. */
constexpr InstrInfo
alias(const char* mnemonic, InstrKind base, uint32_t fixed, const char* ops)
{
    InstrInfo r = kInstrRows[static_cast<size_t>(base)];
    r.mnemonic = mnemonic;
    r.match |= fixed;
    r.mask = ~operandBits(ops);
    r.operands = ops;
    return r;
}

constexpr InstrInfo kAliasRows[] = {
    alias("nop", K::ADDI, 0, ""),
    alias("mv", K::ADDI, 0, "d,s"),
    alias("not", K::XORI, IMM12(-1), "d,s"),
    alias("neg", K::SUB, 0, "d,t"),
    alias("seqz", K::SLTIU, IMM12(1), "d,s"),
    alias("snez", K::SLTU, 0, "d,t"),
    alias("sltz", K::SLT, 0, "d,s"),
    alias("sgtz", K::SLT, 0, "d,t"),
    alias("beqz", K::BEQ, 0, "s,p"),
    alias("bnez", K::BNE, 0, "s,p"),
    alias("blez", K::BGE, 0, "t,p"),
    alias("bgez", K::BGE, 0, "s,p"),
    alias("bltz", K::BLT, 0, "s,p"),
    alias("bgtz", K::BLT, 0, "t,p"),
    alias("bgt", K::BLT, 0, "t,s,p"),
    alias("ble", K::BGE, 0, "t,s,p"),
    alias("bgtu", K::BLTU, 0, "t,s,p"),
    alias("bleu", K::BGEU, 0, "t,s,p"),
    alias("j", K::JAL, 0, "a"),
    alias("jal", K::JAL, RD(1), "a"),
    alias("call", K::JAL, RD(1), "a"),
    alias("tail", K::JAL, 0, "a"),
    alias("jalr", K::JALR, 0, "d,s,j"),
    alias("jalr", K::JALR, RD(1), "s"),
    alias("jr", K::JALR, 0, "s"),
    alias("ret", K::JALR, RS1(1), ""),
    alias("csrr", K::CSRRS, 0, "d,E"),
    alias("csrw", K::CSRRW, 0, "E,s"),
    alias("csrs", K::CSRRS, 0, "E,s"),
    alias("csrc", K::CSRRC, 0, "E,s"),
    alias("csrwi", K::CSRRWI, 0, "E,Z"),
    alias("fmv.s", K::FSGNJ_S, 0, "D,U"),
    alias("fabs.s", K::FSGNJX_S, 0, "D,U"),
    alias("fneg.s", K::FSGNJN_S, 0, "D,U"),
};

constexpr size_t kNumAliases = std::size(kAliasRows);

constexpr std::array<InstrInfo, kNumKinds + kNumAliases> kTable = [] {
    std::array<InstrInfo, kNumKinds + kNumAliases> t{};
    for (size_t i = 0; i < kNumKinds; ++i)
        t[i] = kInstrRows[i];
    for (size_t i = 0; i < kNumAliases; ++i)
        t[kNumKinds + i] = kAliasRows[i];
    return t;
}();

/** The table is well formed: instruction rows sit at their kind, masks
 *  cover the major opcode, match bits lie inside the mask and outside the
 *  operand fields (for aliases: inside their base's mask too), and no
 *  word matches two instructions. */
constexpr bool
wellFormed()
{
    for (size_t i = 0; i < kTable.size(); ++i) {
        const InstrInfo& r = kTable[i];
        const InstrInfo& base = kTable[static_cast<size_t>(r.kind)];
        if (i < kNumKinds && static_cast<size_t>(r.kind) != i)
            return false;
        if (i > 0 && (r.mask & kOpc) != kOpc)
            return false;
        if ((r.match & ~r.mask) || (operandBits(r.operands) & r.mask) ||
            (r.mask & base.mask) != base.mask ||
            (r.match & base.mask) != base.match)
            return false;
    }
    for (size_t a = 1; a < kNumKinds; ++a)
        for (size_t b = a + 1; b < kNumKinds; ++b)
            if (((kTable[a].match ^ kTable[b].match) & kTable[a].mask &
                 kTable[b].mask) == 0)
                return false;
    return true;
}
static_assert(wellFormed());

/** Instruction rows grouped by major opcode, the way binutils hashes its
 *  table: rows[start[o]] .. rows[start[o + 1] - 1] have opcode o. */
struct OpcodeIndex
{
    std::array<uint8_t, 129> start{};
    std::array<uint8_t, kNumKinds> rows{};
};

constexpr OpcodeIndex kByOpcode = [] {
    OpcodeIndex ix;
    uint8_t n = 0;
    for (uint32_t opc = 0; opc < 128; ++opc) {
        ix.start[opc] = n;
        for (size_t k = 1; k < kNumKinds; ++k)
            if ((kInstrRows[k].match & kOpc) == opc)
                ix.rows[n++] = static_cast<uint8_t>(k);
    }
    ix.start[128] = n;
    return ix;
}();

int32_t
immI(uint32_t raw)
{
    return sext(bits(raw, 20, 12), 12);
}

int32_t
immS(uint32_t raw)
{
    return sext((bits(raw, 25, 7) << 5) | bits(raw, 7, 5), 12);
}

int32_t
immB(uint32_t raw)
{
    uint32_t v = (bits(raw, 31, 1) << 12) | (bits(raw, 7, 1) << 11) |
                 (bits(raw, 25, 6) << 5) | (bits(raw, 8, 4) << 1);
    return sext(v, 13);
}

int32_t
immJ(uint32_t raw)
{
    uint32_t v = (bits(raw, 31, 1) << 20) | (bits(raw, 12, 8) << 12) |
                 (bits(raw, 20, 1) << 11) | (bits(raw, 21, 10) << 1);
    return sext(v, 21);
}

} // namespace

std::span<const InstrInfo>
instrTable()
{
    return kTable;
}

//
// Decoder
//

Instr
decode(uint32_t raw)
{
    Instr in;
    in.raw = raw;
    const uint32_t opc = raw & kOpc;
    const InstrInfo* match = nullptr;
    for (size_t j = kByOpcode.start[opc]; j < kByOpcode.start[opc + 1]; ++j) {
        const InstrInfo& r = kTable[kByOpcode.rows[j]];
        if ((raw & r.mask) == r.match) {
            match = &r;
            break;
        }
    }
    if (!match)
        return in;
    const InstrInfo& row = *match;
    in.kind = row.kind;
    in.rd = bits(raw, 7, 5);
    in.rs1 = bits(raw, 15, 5);
    in.rs2 = bits(raw, 20, 5);
    in.rs3 = bits(raw, 27, 5);
    for (const char* c = row.operands; *c; ++c) {
        switch (*c) {
          case 'j': case 'o': in.imm = immI(raw); break;
          case 'q': in.imm = immS(raw); break;
          case 'p': in.imm = immB(raw); break;
          case 'a': in.imm = immJ(raw); break;
          case 'u': in.imm = static_cast<int32_t>(raw & 0xFFFFF000u); break;
          case '>': in.imm = static_cast<int32_t>(in.rs2); break;
          case 'Z': in.imm = static_cast<int32_t>(in.rs1); break;
          case 'E': in.csr = bits(raw, 20, 12); break;
          default: break;
        }
    }
    return in;
}

//
// Encoder
//

uint32_t
encode(const InstrInfo& row, const Instr& in)
{
    uint32_t w = row.match;
    for (const char* c = row.operands; *c; ++c) {
        const int32_t imm = in.imm;
        const auto u = static_cast<uint32_t>(imm);
        switch (*c) {
          case 'd': case 'D': w |= RD(in.rd); break;
          case 's': case 'S': w |= RS1(in.rs1); break;
          case 't': case 'T': w |= RS2(in.rs2); break;
          case 'R': w |= in.rs3 << 27; break;
          case 'U': w |= RS1(in.rs1) | RS2(in.rs1); break;
          case 'j': case 'o':
            if (imm < -2048 || imm > 2047)
                panic("I-immediate out of range: ", imm);
            w |= IMM12(imm);
            break;
          case 'q':
            if (imm < -2048 || imm > 2047)
                panic("S-immediate out of range: ", imm);
            w |= (bits(u, 5, 7) << 25) | (bits(u, 0, 5) << 7);
            break;
          case 'p':
            if (imm < -4096 || imm > 4095 || (imm & 1))
                panic("B-immediate out of range or misaligned: ", imm);
            w |= (bits(u, 12, 1) << 31) | (bits(u, 5, 6) << 25) |
                 (bits(u, 1, 4) << 8) | (bits(u, 11, 1) << 7);
            break;
          case 'a':
            if (imm < -(1 << 20) || imm >= (1 << 20) || (imm & 1))
                panic("J-immediate out of range or misaligned: ", imm);
            w |= (bits(u, 20, 1) << 31) | (bits(u, 1, 10) << 21) |
                 (bits(u, 11, 1) << 20) | (bits(u, 12, 8) << 12);
            break;
          case 'u':
            if (u & 0xFFF)
                panic("U-immediate has low bits set: ", imm);
            w |= u;
            break;
          case '>':
            if (imm < 0 || imm > 31)
                panic("shift amount out of range: ", imm);
            w |= RS2(u);
            break;
          case 'E':
            if (in.csr > 0xFFF)
                panic("CSR address out of range: ", in.csr);
            w |= in.csr << 20;
            break;
          case 'Z': w |= RS1(u & 0x1F); break;
          default: break;
        }
    }
    return w;
}

uint32_t
encode(const Instr& in)
{
    if (!in.valid() || in.kind >= InstrKind::kCount)
        panic("encode: invalid instruction kind");
    return encode(instrInfo(in.kind), in);
}

} // namespace vortex::isa
