/**
 * @file
 * Instruction-set definition for the simulated Vortex processor:
 * RV32IMF + Zicsr + the six-instruction Vortex extension of Table 2
 * (wspawn, tmc, split, join, bar, tex).
 *
 * The Vortex instructions are R-type encodings in the custom-0 opcode
 * (0x0B), distinguished by funct7, except `tex` which follows the R4 format
 * (like the FMA group, paper §3.2) in the custom-1 opcode (0x2B).
 *
 * Every instruction and single-instruction alias is one row of one
 * constant table (instrTable()): its MATCH/MASK bits and a binutils-style
 * operand string drive decode, encode, operand classification, the
 * disassembler and the assembler. Adding an instruction is one row plus
 * its semantics in core/emulator.cpp.
 */

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "common/types.h"

namespace vortex::isa {

/** Base RISC-V major opcodes used by the decoder. */
enum MajorOpcode : uint32_t
{
    OPC_LOAD = 0x03,
    OPC_LOAD_FP = 0x07,
    OPC_VORTEX = 0x0B, ///< custom-0: wspawn/tmc/split/join/bar
    OPC_MISC_MEM = 0x0F,
    OPC_OP_IMM = 0x13,
    OPC_AUIPC = 0x17,
    OPC_STORE = 0x23,
    OPC_STORE_FP = 0x27,
    OPC_TEX = 0x2B, ///< custom-1: tex (R4 format)
    OPC_OP = 0x33,
    OPC_LUI = 0x37,
    OPC_MADD = 0x43,
    OPC_MSUB = 0x47,
    OPC_NMSUB = 0x4B,
    OPC_NMADD = 0x4F,
    OPC_OP_FP = 0x53,
    OPC_BRANCH = 0x63,
    OPC_JALR = 0x67,
    OPC_JAL = 0x6F,
    OPC_SYSTEM = 0x73,
};

/** funct7 minor codes inside OPC_VORTEX. */
enum VortexFunct7 : uint32_t
{
    VXF_TMC = 0,
    VXF_WSPAWN = 1,
    VXF_SPLIT = 2,
    VXF_JOIN = 3,
    VXF_BAR = 4,
};

/** Every instruction the simulator implements. */
enum class InstrKind : uint16_t
{
    Invalid = 0,

    // RV32I
    LUI, AUIPC, JAL, JALR,
    BEQ, BNE, BLT, BGE, BLTU, BGEU,
    LB, LH, LW, LBU, LHU,
    SB, SH, SW,
    ADDI, SLTI, SLTIU, XORI, ORI, ANDI, SLLI, SRLI, SRAI,
    ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
    FENCE, ECALL, EBREAK,

    // Zicsr
    CSRRW, CSRRS, CSRRC, CSRRWI, CSRRSI, CSRRCI,

    // RV32M
    MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU,

    // RV32F
    FLW, FSW,
    FMADD_S, FMSUB_S, FNMSUB_S, FNMADD_S,
    FADD_S, FSUB_S, FMUL_S, FDIV_S, FSQRT_S,
    FSGNJ_S, FSGNJN_S, FSGNJX_S,
    FMIN_S, FMAX_S,
    FCVT_W_S, FCVT_WU_S, FMV_X_W,
    FEQ_S, FLT_S, FLE_S, FCLASS_S,
    FCVT_S_W, FCVT_S_WU, FMV_W_X,

    // Vortex extension (Table 2)
    VX_TMC,    ///< tmc %numT       : thread mask control
    VX_WSPAWN, ///< wspawn %numW,%PC: wavefront activation
    VX_SPLIT,  ///< split %pred     : control-flow divergence
    VX_JOIN,   ///< join            : control-flow reconvergence
    VX_BAR,    ///< bar %id,%numW   : wavefront barrier
    VX_TEX,    ///< tex %dst,%u,%v,%lod : texture sampling

    kCount
};

/** Encoding format of an instruction. */
enum class InstrFormat : uint8_t
{
    R, I, S, B, U, J, R4, Sys
};

/** Functional unit an instruction dispatches to (paper Fig. 4). */
enum class FuType : uint8_t
{
    ALU,    ///< integer ALU incl. branches/jumps
    MULDIV, ///< integer multiplier / iterative divider
    FPU,    ///< floating-point unit (DSP blocks on FPGA)
    LSU,    ///< load/store unit -> D-cache / shared memory
    SFU,    ///< CSR, fence, and Vortex control instructions
    TEX,    ///< texture unit
};

/** Which register file an operand lives in. */
enum class RegFile : uint8_t { None, Int, Fp };

/** A register reference: file + index. */
struct RegRef
{
    RegFile file = RegFile::None;
    RegId idx = 0;

    bool valid() const { return file != RegFile::None; }
    /** Writes to x0 are architectural no-ops. */
    bool
    isWrite() const
    {
        return file == RegFile::Fp || (file == RegFile::Int && idx != 0);
    }
    bool
    operator==(const RegRef& o) const
    {
        return file == o.file && idx == o.idx;
    }
};

/** A decoded instruction. */
struct Instr
{
    InstrKind kind = InstrKind::Invalid;
    RegId rd = 0;
    RegId rs1 = 0;
    RegId rs2 = 0;
    RegId rs3 = 0;
    uint16_t csr = 0; ///< CSR address for Zicsr instructions
    int32_t imm = 0;  ///< sign-extended immediate (U-type: already shifted)
    uint32_t raw = 0; ///< original encoding

    bool valid() const { return kind != InstrKind::Invalid; }

    /** Destination register (RegFile::None if this kind writes nothing). */
    RegRef dst() const;
    /** Source registers; invalid RegRefs for unused slots. */
    RegRef src1() const;
    RegRef src2() const;
    RegRef src3() const;

    /** Dispatch target. */
    FuType fuType() const;

    /** True for instructions that may change the control flow or the
     *  thread/warp state, which stall the fetch of their warp (§4.2). */
    bool isControl() const;
    bool isBranch() const; ///< conditional branch
    bool isLoad() const;
    bool isStore() const;
    bool isFloatOp() const; ///< executes on the FPU
};

// Decoded text and every in-flight uop hold one: keep it four words.
static_assert(sizeof(Instr) == 16);

/** InstrInfo::flags bits. */
enum InstrFlag : uint8_t
{
    kControl = 1, ///< stalls its warp's fetch until resolved (§4.2)
    kBranch = 2,  ///< conditional branch
    kLoad = 4,
    kStore = 8,
};

/**
 * One row of the opcode table: a word `w` is this row's instruction when
 * `(w & mask) == match`. Bits in neither the mask nor an operand field
 * are don't-cares (e.g. the FP rounding mode).
 *
 * Operand letters, in assembly order; `,` separates operands and
 * `o(s)`/`q(s)` is one memory operand:
 *  - `d`/`D` rd, `s`/`S` rs1, `t`/`T` rs2, `R` rs3 (lower case: integer
 *    register, upper case: FP register); `U` one FP register in both rs1
 *    and rs2
 *  - `j` 12-bit signed immediate, `o` I-type and `q` S-type offset
 *  - `p` branch and `a` jump target (pc-relative), `u` 20-bit upper
 *    immediate, `>` 5-bit shift amount
 *  - `E` 12-bit CSR address, `Z` 5-bit CSR immediate
 *
 * An alias row (`mv`, `ret`, ...) carries its base instruction's kind and
 * classification; its match also holds the fields the alias fixes, and
 * its mask covers every bit its operands do not.
 */
struct InstrInfo
{
    const char* mnemonic;
    InstrKind kind; ///< the instruction this row encodes
    InstrFormat format;
    uint32_t match;
    uint32_t mask;
    const char* operands;
    FuType fu;
    uint8_t flags;  ///< InstrFlag bits
    uint8_t width;  ///< memory access bytes; 0 when not a load or store
    RegFile dst;    ///< register files, derived from the operand letters
    RegFile src1;
    RegFile src2;
    RegFile src3;
};

namespace detail {

/** The instruction rows of instrTable(), row i of kind i: what
 *  instrInfo() reads. Defined, and checked, in isa.cpp. */
extern const std::array<InstrInfo, static_cast<size_t>(InstrKind::kCount)>
    kInstrRows;

/** Operand @p idx in register file @p file (index 0 when None). */
inline RegRef
ref(RegFile file, RegId idx)
{
    return {file, file == RegFile::None ? RegId{0} : idx};
}

} // namespace detail

/** The row of @p kind. Inline with the classifiers below: the core
 *  pipeline calls them per uop (ARCHITECTURE.md "The inline hot path"). */
inline const InstrInfo&
instrInfo(InstrKind kind)
{
    return detail::kInstrRows[static_cast<size_t>(kind)];
}

inline RegRef
Instr::dst() const
{
    return detail::ref(instrInfo(kind).dst, rd);
}

inline RegRef
Instr::src1() const
{
    return detail::ref(instrInfo(kind).src1, rs1);
}

inline RegRef
Instr::src2() const
{
    return detail::ref(instrInfo(kind).src2, rs2);
}

inline RegRef
Instr::src3() const
{
    return detail::ref(instrInfo(kind).src3, rs3);
}

inline FuType
Instr::fuType() const
{
    return instrInfo(kind).fu;
}

inline bool
Instr::isControl() const
{
    return instrInfo(kind).flags & kControl;
}

inline bool
Instr::isBranch() const
{
    return instrInfo(kind).flags & kBranch;
}

inline bool
Instr::isLoad() const
{
    return instrInfo(kind).flags & kLoad;
}

inline bool
Instr::isStore() const
{
    return instrInfo(kind).flags & kStore;
}

inline bool
Instr::isFloatOp() const
{
    return fuType() == FuType::FPU;
}

/** Every row: the instructions in InstrKind order (row i is kind i,
 *  row 0 is Invalid), then the aliases. */
std::span<const InstrInfo> instrTable();

/** Decode a raw 32-bit instruction word. Invalid encodings decode to an
 *  Instr with kind == InstrKind::Invalid. */
Instr decode(uint32_t raw);

/** Encode a decoded instruction back into its 32-bit word.
 *  Panics on malformed operands (e.g. immediate out of range). */
uint32_t encode(const Instr& instr);

/** Encode @p instr's operand fields, as @p row's operand letters name
 *  them, into @p row's match bits. */
uint32_t encode(const InstrInfo& row, const Instr& instr);

/** Render a decoded instruction as assembly text (for tracing/tests). */
std::string disassemble(const Instr& instr);

/** ABI names: x-registers ("zero", "ra", ...) and f-registers ("ft0", ...). */
const char* intRegName(RegId r);
const char* fpRegName(RegId r);

} // namespace vortex::isa
