/**
 * @file
 * Assembler tests: labels, directives, pseudo-instructions, expressions,
 * %hi/%lo, error reporting, and the runtime+kernel concatenation path.
 */

#include <cstring>
#include <gtest/gtest.h>

#include "common/log.h"
#include "isa/assembler.h"
#include "isa/isa.h"
#include "isa/object.h"
#include "kernels/kernels.h"

using namespace vortex;
using namespace vortex::isa;

namespace {

uint32_t
word(const Program& p, size_t index)
{
    size_t off = index * 4;
    return static_cast<uint32_t>(p.image.at(off)) |
           (static_cast<uint32_t>(p.image.at(off + 1)) << 8) |
           (static_cast<uint32_t>(p.image.at(off + 2)) << 16) |
           (static_cast<uint32_t>(p.image.at(off + 3)) << 24);
}

Instr
instrAt(const Program& p, size_t index)
{
    return decode(word(p, index));
}

} // namespace

TEST(Assembler, BasicInstructions)
{
    Assembler as(0x80000000);
    Program p = as.assemble(R"(
        add a0, a1, a2
        addi t0, t1, -7
        lw s0, 8(sp)
        sw s1, -4(gp)
        lui a0, 0x12345
    )");
    Instr i0 = instrAt(p, 0);
    EXPECT_EQ(i0.kind, InstrKind::ADD);
    EXPECT_EQ(i0.rd, 10u);
    EXPECT_EQ(i0.rs1, 11u);
    EXPECT_EQ(i0.rs2, 12u);
    Instr i1 = instrAt(p, 1);
    EXPECT_EQ(i1.kind, InstrKind::ADDI);
    EXPECT_EQ(i1.imm, -7);
    Instr i2 = instrAt(p, 2);
    EXPECT_EQ(i2.kind, InstrKind::LW);
    EXPECT_EQ(i2.rs1, 2u);
    EXPECT_EQ(i2.imm, 8);
    Instr i3 = instrAt(p, 3);
    EXPECT_EQ(i3.kind, InstrKind::SW);
    EXPECT_EQ(i3.rs2, 9u);
    EXPECT_EQ(i3.imm, -4);
    Instr i4 = instrAt(p, 4);
    EXPECT_EQ(i4.kind, InstrKind::LUI);
    EXPECT_EQ(static_cast<uint32_t>(i4.imm), 0x12345000u);
}

TEST(Assembler, LabelsAndBranches)
{
    Assembler as(0x1000);
    Program p = as.assemble(R"(
    start:
        addi t0, zero, 3
    loop:
        addi t0, t0, -1
        bnez t0, loop
        j start
    )");
    EXPECT_EQ(p.symbol("start"), 0x1000u);
    EXPECT_EQ(p.symbol("loop"), 0x1004u);
    Instr b = instrAt(p, 2);
    EXPECT_EQ(b.kind, InstrKind::BNE);
    EXPECT_EQ(b.imm, -4);
    Instr j = instrAt(p, 3);
    EXPECT_EQ(j.kind, InstrKind::JAL);
    EXPECT_EQ(j.rd, 0u);
    EXPECT_EQ(j.imm, -12);
}

TEST(Assembler, LiExpansion)
{
    Assembler as(0);
    Program p = as.assemble(R"(
        li a0, 5
        li a1, 0x12345678
        li a2, -2048
        li a3, 0xFFFFF800
    )");
    // Small constants: a single addi.
    EXPECT_EQ(instrAt(p, 0).kind, InstrKind::ADDI);
    EXPECT_EQ(instrAt(p, 0).imm, 5);
    // Large: lui + addi.
    Instr lui = instrAt(p, 1);
    Instr addi = instrAt(p, 2);
    EXPECT_EQ(lui.kind, InstrKind::LUI);
    EXPECT_EQ(addi.kind, InstrKind::ADDI);
    uint32_t value = static_cast<uint32_t>(lui.imm) +
                     static_cast<uint32_t>(addi.imm);
    EXPECT_EQ(value, 0x12345678u);
    EXPECT_EQ(instrAt(p, 3).imm, -2048);
    // 0xFFFFF800 parses as a large unsigned literal: lui+addi, but the
    // combined value must wrap to the same bit pattern.
    Instr lui2 = instrAt(p, 4);
    Instr addi2 = instrAt(p, 5);
    EXPECT_EQ(lui2.kind, InstrKind::LUI);
    EXPECT_EQ(static_cast<uint32_t>(lui2.imm) +
                  static_cast<uint32_t>(addi2.imm),
              0xFFFFF800u);
}

TEST(Assembler, LaResolvesSymbols)
{
    Assembler as(0x80000000);
    Program p = as.assemble(R"(
        la a0, data
        nop
    data:
        .word 0xCAFEBABE
    )");
    Instr lui = instrAt(p, 0);
    Instr addi = instrAt(p, 1);
    uint32_t addr = static_cast<uint32_t>(lui.imm) +
                    static_cast<uint32_t>(addi.imm);
    EXPECT_EQ(addr, p.symbol("data"));
    EXPECT_EQ(word(p, 3), 0xCAFEBABEu);
}

TEST(Assembler, Directives)
{
    Assembler as(0);
    Program p = as.assemble(R"(
        .equ MAGIC, 0x42
        .byte 1, 2, MAGIC
        .align 2
        .half 0x1234, 0xBEEF
        .word MAGIC + 1
        .space 8
        .asciz "hi\n"
        .float 1.5
    )");
    EXPECT_EQ(p.image.at(0), 1);
    EXPECT_EQ(p.image.at(1), 2);
    EXPECT_EQ(p.image.at(2), 0x42);
    // .align 2 pads to offset 4.
    EXPECT_EQ(p.image.at(4), 0x34);
    EXPECT_EQ(p.image.at(5), 0x12);
    EXPECT_EQ(p.image.at(6), 0xEF);
    EXPECT_EQ(p.image.at(7), 0xBE);
    EXPECT_EQ(word(p, 2), 0x43u);
    // 8 zero bytes of .space, then "hi\n\0".
    EXPECT_EQ(p.image.at(20), 'h');
    EXPECT_EQ(p.image.at(21), 'i');
    EXPECT_EQ(p.image.at(22), '\n');
    EXPECT_EQ(p.image.at(23), 0);
    // .float aligned to 4 => offset 24.
    float f;
    std::memcpy(&f, &p.image[24], 4);
    EXPECT_EQ(f, 1.5f);
}

TEST(Assembler, HiLoExpressions)
{
    Assembler as(0);
    Program p = as.assemble(R"(
        lui a0, %hi(0x12345FFF)
        addi a0, a0, %lo(0x12345FFF)
    )");
    Instr lui = instrAt(p, 0);
    Instr addi = instrAt(p, 1);
    uint32_t v = static_cast<uint32_t>(lui.imm) +
                 static_cast<uint32_t>(addi.imm);
    EXPECT_EQ(v, 0x12345FFFu);
}

TEST(Assembler, PseudoInstructions)
{
    Assembler as(0);
    Program p = as.assemble(R"(
        nop
        mv a0, a1
        not a2, a3
        neg a4, a5
        seqz t0, t1
        snez t2, t3
        ret
        fmv.s fa0, fa1
        fneg.s fa2, fa3
        fabs.s fa4, fa5
        csrr t0, 0xCC0
        csrw 0x7C0, t1
        csrwi 0x7C1, 3
    )");
    EXPECT_EQ(instrAt(p, 0).kind, InstrKind::ADDI);
    EXPECT_EQ(instrAt(p, 1).kind, InstrKind::ADDI);
    EXPECT_EQ(instrAt(p, 2).kind, InstrKind::XORI);
    EXPECT_EQ(instrAt(p, 2).imm, -1);
    EXPECT_EQ(instrAt(p, 3).kind, InstrKind::SUB);
    EXPECT_EQ(instrAt(p, 4).kind, InstrKind::SLTIU);
    EXPECT_EQ(instrAt(p, 5).kind, InstrKind::SLTU);
    Instr ret = instrAt(p, 6);
    EXPECT_EQ(ret.kind, InstrKind::JALR);
    EXPECT_EQ(ret.rs1, 1u);
    EXPECT_EQ(ret.rd, 0u);
    EXPECT_EQ(instrAt(p, 7).kind, InstrKind::FSGNJ_S);
    EXPECT_EQ(instrAt(p, 8).kind, InstrKind::FSGNJN_S);
    EXPECT_EQ(instrAt(p, 9).kind, InstrKind::FSGNJX_S);
    Instr csrr = instrAt(p, 10);
    EXPECT_EQ(csrr.kind, InstrKind::CSRRS);
    EXPECT_EQ(csrr.csr, 0xCC0u);
    EXPECT_EQ(csrr.rs1, 0u);
    EXPECT_EQ(instrAt(p, 11).kind, InstrKind::CSRRW);
    EXPECT_EQ(instrAt(p, 12).kind, InstrKind::CSRRWI);
}

TEST(Assembler, VortexInstructions)
{
    Assembler as(0);
    Program p = as.assemble(R"(
        vx_tmc t0
        vx_wspawn t1, t2
        vx_split t3
        vx_join
        vx_bar t4, t5
        vx_tex a0, ft0, ft1, ft2
    )");
    EXPECT_EQ(instrAt(p, 0).kind, InstrKind::VX_TMC);
    EXPECT_EQ(instrAt(p, 1).kind, InstrKind::VX_WSPAWN);
    EXPECT_EQ(instrAt(p, 2).kind, InstrKind::VX_SPLIT);
    EXPECT_EQ(instrAt(p, 3).kind, InstrKind::VX_JOIN);
    EXPECT_EQ(instrAt(p, 4).kind, InstrKind::VX_BAR);
    Instr tex = instrAt(p, 5);
    EXPECT_EQ(tex.kind, InstrKind::VX_TEX);
    EXPECT_EQ(tex.rd, 10u);
    EXPECT_EQ(tex.rs1, 0u);
    EXPECT_EQ(tex.rs2, 1u);
    EXPECT_EQ(tex.rs3, 2u);
}

namespace {

/** @p src must fail with an AsmError anchored exactly at
 *  prog.s:@p line:@p col whose message contains @p substr. When
 *  @p object is set the source goes through assembleObject() instead,
 *  for diagnostics only the relocatable path emits. */
void
expectAsmError(const char* src, int line, int col, const char* substr,
               bool object = false)
{
    Assembler as(0);
    try {
        if (object)
            as.assembleObject({{"prog.s", src}});
        else
            as.assemble(src, "prog.s");
        FAIL() << "expected AsmError with '" << substr << "'";
    } catch (const AsmError& e) {
        EXPECT_EQ(e.file(), "prog.s") << e.what();
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_EQ(e.column(), col) << e.what();
        EXPECT_NE(e.message().find(substr), std::string::npos) << e.what();
        // what() renders the gcc-style anchor verbatim.
        EXPECT_EQ(std::string(e.what()),
                  "prog.s:" + std::to_string(line) + ":" +
                      std::to_string(col) + ": " + e.message());
    }
}

} // namespace

TEST(Assembler, ErrorsPinFileLineAndColumn)
{
    // AsmError derives from FatalError, so callers that only know the
    // generic type still catch assembly failures.
    Assembler as(0);
    EXPECT_THROW(as.assemble("bogus a0, a1"), FatalError);

    expectAsmError("nop\nnop\nbogus x9", 3, 1, "unknown mnemonic 'bogus'");
    expectAsmError("add a0, a1", 1, 1, "add: expected 3 operands, got 2");
    expectAsmError("lw a0, 4(f1)", 1, 8, "bad base register 'f1'");
    expectAsmError("add a0, a1, ft0", 1, 13,
                   "expected integer register, got 'ft0'");
    expectAsmError("j nowhere", 1, 3, "undefined symbol 'nowhere'");
    expectAsmError("dup:\ndup:\n nop", 2, 1, "duplicate label 'dup'");
    expectAsmError(".unknown 4", 1, 1, "unknown directive '.unknown'");
    expectAsmError("  .equ foo", 1, 3, ".equ needs <name>, <value>");
    expectAsmError(".section .bogus", 1, 10,
                   "unknown section '.bogus' (supported: .text, .rodata, "
                   ".data)");
    expectAsmError(".data\n.ascii 42", 2, 8, "expected a quoted string");
    expectAsmError(".data\n.float 1.q2", 2, 8, "bad float literal '1.q2'");
}

TEST(Assembler, ErrorsPinOperandRanges)
{
    expectAsmError("addi a0, a0, 5000", 1, 14,
                   "immediate 5000 out of range [-2048, 2047]");
    expectAsmError("slli a0, a0, 33", 1, 14,
                   "shift amount 33 out of range [0, 31]");
    expectAsmError("lw a0, 4096(a1)", 1, 8,
                   "memory offset 4096 out of range [-2048, 2047]");
    expectAsmError("lw a0, a1", 1, 8, "expected imm(reg) operand");
    expectAsmError("start: nop\n.space 8192\n.align 2\nbeq a0, a1, start",
                   4, 13,
                   "branch target out of range (offset -8196, limit "
                   "+-4 KiB)");
    expectAsmError("csrr a0, 0x1000", 1, 10,
                   "CSR address 4096 out of range [0, 4095]");
    expectAsmError("csrrw a0, -1, a1", 1, 11,
                   "CSR address -1 out of range [0, 4095]");
    expectAsmError("csrrwi x1, 0x7c0, 40", 1, 19,
                   "CSR immediate 40 out of range [0, 31]");
    expectAsmError("csrrsi a0, 0x7c0, -1", 1, 19,
                   "CSR immediate -1 out of range [0, 31]");
    expectAsmError("csrwi 0x7c0, 32", 1, 14,
                   "CSR immediate 32 out of range [0, 31]");
    expectAsmError("lui a0, 0x100000", 1, 9,
                   "upper immediate 1048576 out of range [0, 1048575]");
    expectAsmError("lui a0, -1", 1, 9,
                   "upper immediate -1 out of range [0, 1048575]");
    expectAsmError("auipc a0, -5", 1, 11,
                   "upper immediate -5 out of range [0, 1048575]");
    expectAsmError(".byte 300", 1, 7,
                   "byte value 300 out of range [-128, 255]");
    expectAsmError(".half 70000", 1, 7,
                   "half value 70000 out of range [-32768, 65535]");
    expectAsmError(".word 0x100000001", 1, 7,
                   "word value 4294967297 out of range [-2147483648, "
                   "4294967295]");
    expectAsmError("li a0, 0x123456789", 1, 8,
                   "li value 4886718345 out of range [-2147483648, "
                   "4294967295]");

    // The limits themselves assemble.
    Program p = Assembler(0).assemble(
        "csrrwi x1, 0xfff, 31\ncsrr a0, 0\nlui a0, 0xfffff\nauipc a0, 0");
    EXPECT_EQ(instrAt(p, 0).csr, 0xFFFu);
    EXPECT_EQ(instrAt(p, 0).imm, 31);
    EXPECT_EQ(instrAt(p, 1).csr, 0u);
    EXPECT_EQ(static_cast<uint32_t>(instrAt(p, 2).imm), 0xFFFFF000u);
    EXPECT_EQ(instrAt(p, 3).imm, 0);

    Program d = Assembler(0).assemble(
        ".byte -128, 255\n.half -32768, 65535\n"
        ".word -2147483648, 0xffffffff");
    EXPECT_EQ(d.image, (std::vector<uint8_t>{0x80, 0xFF,              // .byte
                                             0x00, 0x80, 0xFF, 0xFF,  // .half
                                             0x00, 0x00,              // pad
                                             0x00, 0x00, 0x00, 0x80,  // .word
                                             0xFF, 0xFF, 0xFF, 0xFF}));
    Program li = Assembler(0).assemble("li a0, 0xffffffff\n"
                                       "li a1, -2147483648");
    // Each expands to lui + addi: 0x00000000 - 1 and 0x80000000 + 0.
    EXPECT_EQ(instrAt(li, 0).imm, 0);
    EXPECT_EQ(instrAt(li, 1).imm, -1);
    EXPECT_EQ(static_cast<uint32_t>(instrAt(li, 2).imm), 0x80000000u);
    EXPECT_EQ(instrAt(li, 3).imm, 0);
}

TEST(Assembler, ErrorsRejectStrayOperands)
{
    expectAsmError("nop x1", 1, 1, "nop: expected 0 operands, got 1");
    expectAsmError("ret x1", 1, 1, "ret: expected 0 operands, got 1");
    expectAsmError("ecall 1", 1, 1, "ecall: expected 0 operands, got 1");
    expectAsmError("ebreak 5", 1, 1, "ebreak: expected 0 operands, got 1");
    expectAsmError("fence rw, rw", 1, 1, "fence: expected 0 operands, got 2");
}

TEST(Assembler, DiagnosticCorpus)
{
    // One malformed line per operand letter, alias and jal/jalr form,
    // with the exact text reported; `object` lines go through
    // assembleObject() for the relocation diagnostics.
    struct Case
    {
        const char* src;
        const char* what;
        bool object = false;
    };
    const Case corpus[] = {
        {"add a0, a1", "1: add: expected 3 operands, got 2"},
        {"add ft0, a1, a2", "5: expected integer register, got 'ft0'"},
        {"add a0, fa1, a2", "9: expected integer register, got 'fa1'"},
        {"add a0, a1, x32", "13: expected integer register, got 'x32'"},
        {"fadd.s a0, fa1, fa2", "8: expected FP register, got 'a0'"},
        {"fadd.s fa0, a1, fa2", "13: expected FP register, got 'a1'"},
        {"fadd.s fa0, fa1, a2", "18: expected FP register, got 'a2'"},
        {"fmadd.s fa0, fa1, fa2, a3", "24: expected FP register, got 'a3'"},
        {"fmadd.s fa0, fa1, fa2", "1: fmadd.s: expected 4 operands, got 3"},
        {"vx_tex a0, fa1, fa2, x3", "22: expected FP register, got 'x3'"},
        {"vx_tex fa0, fa1, fa2, fa3",
         "8: expected integer register, got 'fa0'"},
        {"addi a0, a1, 2048", "14: immediate 2048 out of range [-2048, 2047]"},
        {"addi a0, a1, -2049",
         "14: immediate -2049 out of range [-2048, 2047]"},
        {"addi a0, a1, nowhere", "14: undefined symbol 'nowhere'"},
        {"addi a0, a1, 1+", "14: malformed expression: 1+"},
        {"slli a0, a1, -1", "14: shift amount -1 out of range [0, 31]"},
        {"srai a0, a1, 32", "14: shift amount 32 out of range [0, 31]"},
        {"lw a0, 2048(a1)",
         "8: memory offset 2048 out of range [-2048, 2047]"},
        {"lw a0, 0(q1)", "8: bad base register 'q1'"},
        {"lw a0, 0(a1", "8: unbalanced parens in '0(a1'"},
        {"lw a0, a1", "8: expected imm(reg) operand, got 'a1'"},
        {"lw fa0, 0(a1)", "4: expected integer register, got 'fa0'"},
        {"flw a0, 0(a1)", "5: expected FP register, got 'a0'"},
        {"flw fa0, -2049(a1)",
         "10: memory offset -2049 out of range [-2048, 2047]"},
        {"sw a0, 2048(a1)",
         "8: memory offset 2048 out of range [-2048, 2047]"},
        {"sw fa0, 0(a1)", "4: expected integer register, got 'fa0'"},
        {"fsw a0, 0(a1)", "5: expected FP register, got 'a0'"},
        {"fsw fa0, 0(fa1)", "10: bad base register 'fa1'"},
        {"beq a0, a1, 4097",
         "13: branch target out of range (offset 4097, limit +-4 KiB)"},
        {"beq a0, a1, 3",
         "13: branch target out of range (offset 3, limit +-4 KiB)"},
        {"beq a0, fa1, 0", "9: expected integer register, got 'fa1'"},
        {"bne a0, a1, nowhere", "13: undefined symbol 'nowhere'"},
        {"jal a0, 0x100000",
         "9: jump target out of range (offset 1048576, limit +-1 MiB)"},
        {"jal a0, 1", "9: jump target out of range (offset 1, limit +-1 MiB)"},
        {"jal fa0, 0", "5: expected integer register, got 'fa0'"},
        {"jal", "1: jal: expected 2 operands, got 0"},
        {"jal a0, a1, 0", "1: jal: expected 2 operands, got 3"},
        {"jal 0x200000",
         "5: jump target out of range (offset 2097152, limit +-1 MiB)"},
        {"jalr", "1: jalr: expected 3 operands, got 0"},
        {"jalr a0, a1, a2, a3", "1: jalr: expected 3 operands, got 4"},
        {"jalr fa0", "6: expected integer register, got 'fa0'"},
        {"jalr a0, a1", "10: expected imm(reg) operand, got 'a1'"},
        {"jalr a0, a1, 4096", "14: immediate 4096 out of range [-2048, 2047]"},
        {"jalr a0, 0(fa1)", "10: bad base register 'fa1'"},
        {"jalr fa0, a1, 0", "6: expected integer register, got 'fa0'"},
        {"lui a0, nowhere", "9: undefined symbol 'nowhere'"},
        {"lui fa0, 1", "5: expected integer register, got 'fa0'"},
        {"auipc a0", "1: auipc: expected 2 operands, got 1"},
        {"csrrw a0, 0x7c0, fa1", "18: expected integer register, got 'fa1'"},
        {"csrrs a0, nowhere, a1", "11: undefined symbol 'nowhere'"},
        {"csrrc fa0, 0x7c0, a1", "7: expected integer register, got 'fa0'"},
        {"csrrwi a0, 0x7c0, a1", "19: undefined symbol 'a1'"},
        {"fsqrt.s fa0, a1", "14: expected FP register, got 'a1'"},
        {"fcvt.w.s fa0, fa1", "10: expected integer register, got 'fa0'"},
        {"fcvt.s.w fa0, fa1", "15: expected integer register, got 'fa1'"},
        {"fmv.x.w a0", "1: fmv.x.w: expected 2 operands, got 1"},
        {"feq.s a0, fa1, a2", "16: expected FP register, got 'a2'"},
        {"fclass.s a0, a1", "14: expected FP register, got 'a1'"},
        {"fmv.w.x a0, a1", "9: expected FP register, got 'a0'"},
        {"vx_tmc fa0", "8: expected integer register, got 'fa0'"},
        {"vx_tmc a0, a1", "1: vx_tmc: expected 1 operands, got 2"},
        {"vx_wspawn a0", "1: vx_wspawn: expected 2 operands, got 1"},
        {"vx_bar a0, fa1", "12: expected integer register, got 'fa1'"},
        {"vx_join a0", "1: vx_join: expected 0 operands, got 1"},
        {"vx_split", "1: vx_split: expected 1 operands, got 0"},
        {"mv a0", "1: mv: expected 2 operands, got 1"},
        {"mv a0, fa0", "8: expected integer register, got 'fa0'"},
        {"not fa0, a0", "5: expected integer register, got 'fa0'"},
        {"neg a0, fa1", "9: expected integer register, got 'fa1'"},
        {"seqz a0", "1: seqz: expected 2 operands, got 1"},
        {"snez a0, ft1", "10: expected integer register, got 'ft1'"},
        {"sltz ft0, a0", "6: expected integer register, got 'ft0'"},
        {"sgtz a0, a0, a0", "1: sgtz: expected 2 operands, got 3"},
        {"beqz a0", "1: beqz: expected 2 operands, got 1"},
        {"bnez fa0, 0", "6: expected integer register, got 'fa0'"},
        {"blez a0, 5",
         "10: branch target out of range (offset 5, limit +-4 KiB)"},
        {"bgez a0, nowhere", "10: undefined symbol 'nowhere'"},
        {"bltz a0, 8192",
         "10: branch target out of range (offset 8192, limit +-4 KiB)"},
        {"bgtz a0, a1, 0", "1: bgtz: expected 2 operands, got 3"},
        {"bgt a0, a1", "1: bgt: expected 3 operands, got 2"},
        {"ble a0, fa1, 0", "9: expected integer register, got 'fa1'"},
        {"bgtu fa0, a1, 0", "6: expected integer register, got 'fa0'"},
        {"bleu a0, a1, 9000",
         "14: branch target out of range (offset 9000, limit +-4 KiB)"},
        {"j", "1: j: expected 1 operands, got 0"},
        {"j 0x100001",
         "3: jump target out of range (offset 1048577, limit +-1 MiB)"},
        {"call a0, nowhere", "1: call: expected 1 operands, got 2"},
        {"call nowhere", "6: undefined symbol 'nowhere'"},
        {"tail 3", "6: jump target out of range (offset 3, limit +-1 MiB)"},
        {"jr fa0", "4: expected integer register, got 'fa0'"},
        {"jr", "1: jr: expected 1 operands, got 0"},
        {"csrr a0", "1: csrr: expected 2 operands, got 1"},
        {"csrr fa0, 0x7c0", "6: expected integer register, got 'fa0'"},
        {"csrw 0x7c0", "1: csrw: expected 2 operands, got 1"},
        {"csrw 0x7c0, fa0", "13: expected integer register, got 'fa0'"},
        {"csrs nowhere, a0", "6: undefined symbol 'nowhere'"},
        {"csrc 0x7c0, 5", "13: expected integer register, got '5'"},
        {"csrwi 0x7c0, a0", "14: undefined symbol 'a0'"},
        {"csrwi 0x7c0", "1: csrwi: expected 2 operands, got 1"},
        {"fmv.s fa0, a0", "12: expected FP register, got 'a0'"},
        {"fabs.s a0, fa0", "8: expected FP register, got 'a0'"},
        {"fneg.s fa0", "1: fneg.s: expected 2 operands, got 1"},
        {"li a0", "1: li needs <rd>, <imm>"},
        {"li fa0, 1", "4: expected integer register, got 'fa0'"},
        {"la a0, nowhere", "8: undefined symbol 'nowhere'"},
        {"bogus a0", "1: unknown mnemonic 'bogus'"},
        {"NOPE", "1: unknown mnemonic 'nope'"},
        {"main: auipc a0, main",
         "17: not relocatable: label in a field that cannot "
         "be relocated",
         true},
        {"main: csrr a0, main",
         "16: not relocatable: label in a field that cannot "
         "be relocated",
         true},
        {"main: slli a0, a0, main",
         "20: not relocatable: label in a field that cannot "
         "be relocated",
         true},
        {"main: csrwi 0x7c0, main",
         "20: not relocatable: label in a field that cannot "
         "be relocated",
         true},
        {"main: lui a0, main",
         "15: not relocatable: raw label in lui (use "
         "%hi(...))",
         true},
        {"main: jalr a0, main(a1)",
         "16: not relocatable: raw label in an I-type "
         "immediate (use %lo(...) or la)",
         true},
        {"main: sw a0, main(a1)",
         "14: not relocatable: raw label in a store offset "
         "(use %lo(...))",
         true},
    };
    for (const Case& c : corpus) {
        Assembler as(0);
        try {
            if (c.object)
                as.assembleObject({{"prog.s", c.src}});
            else
                as.assemble(c.src, "prog.s");
            ADD_FAILURE() << "accepted: " << c.src;
        } catch (const AsmError& e) {
            EXPECT_EQ(std::string(e.what()), std::string("prog.s:1:") + c.what)
                << c.src;
        }
    }
}

TEST(Assembler, EveryAliasFormEncodes)
{
    Program p = Assembler(0).assemble(R"(
    L:
        nop
        mv a0, a1
        not a2, a3
        neg a4, a5
        seqz t0, t1
        snez t2, t3
        sltz s2, s3
        sgtz s4, s5
        beqz a0, L
        bnez a1, L
        blez a2, L
        bgez a3, L
        bltz a4, L
        bgtz a5, L
        bgt a0, a1, L
        ble a2, a3, L
        bgtu a4, a5, L
        bleu a6, a7, L
        j L
        jal L
        call L
        tail L
        jalr t0
        jalr t1, 8(t2)
        jalr t3, t4, -8
        jr t5
        ret
        csrr t0, 0xCC0
        csrw 0x7C0, t1
        csrs 0x7C1, t2
        csrc 0x7C2, t3
        csrwi 0x7C3, 17
        fmv.s fa0, fa1
        fabs.s fa2, fa3
        fneg.s fa4, fa5
    )");
    const uint32_t expected[] = {
        0x00000013, 0x00058513, 0xfff6c613, 0x40f00733, 0x00133293, 0x01c033b3,
        0x0009a933, 0x01502a33, 0xfe0500e3, 0xfc059ee3, 0xfcc05ce3, 0xfc06dae3,
        0xfc0748e3, 0xfcf046e3, 0xfca5c4e3, 0xfcc6d2e3, 0xfce7e0e3, 0xfb08fee3,
        0xfb9ff06f, 0xfb5ff0ef, 0xfb1ff0ef, 0xfadff06f, 0x000280e7, 0x00838367,
        0xff8e8e67, 0x000f0067, 0x00008067, 0xcc0022f3, 0x7c031073, 0x7c13a073,
        0x7c2e3073, 0x7c38d073, 0x20b58553, 0x20d6a653, 0x20f79753,
    };
    ASSERT_EQ(p.size(), sizeof expected);
    for (size_t i = 0; i < std::size(expected); ++i)
        EXPECT_EQ(word(p, i), expected[i]) << "instruction " << i;
}

TEST(Assembler, ObjectModeRejectsUnrelocatableExpressions)
{
    // These assemble fine into a flat Program (the address is known),
    // but cannot be represented in the relocatable object format, and
    // the diagnostic points at the offending operand.
    expectAsmError("main:\n    addi a0, a0, main\n", 2, 18,
                   "not relocatable: raw label in an I-type immediate "
                   "(use %lo(...) or la)",
                   /*object=*/true);
    expectAsmError("main:\n    lui a0, main\n", 2, 13,
                   "not relocatable: raw label in lui (use %hi(...))",
                   /*object=*/true);
    expectAsmError("a:\nb:\n.data\n.word a+b\n", 4, 7,
                   "not relocatable: expression with net label weight 2",
                   /*object=*/true);
    // A label *difference* has net weight 0 and is rebase-invariant, so
    // it is representable without any relocation.
    Assembler as(0);
    EXPECT_NO_THROW(as.assembleObject({{"prog.s",
                                        "a:\nnop\nb:\n.data\n.word b-a\n"}}));
}

TEST(Assembler, CommentsAndLabelsOnSameLine)
{
    Assembler as(0);
    Program p = as.assemble(R"(
        start: addi a0, zero, 1   # trailing comment
        // full-line comment
        next: ; comment
        addi a0, a0, 1
    )");
    EXPECT_EQ(p.symbol("start"), 0u);
    EXPECT_EQ(p.symbol("next"), 4u);
    EXPECT_EQ(p.size(), 8u);
}

TEST(Assembler, RuntimePlusKernelsAssemble)
{
    // Every embedded kernel must assemble cleanly with the runtime.
    Assembler as(0x80000000);
    for (const char* kernel :
         {kernels::vecadd(), kernels::saxpy(), kernels::sgemm(),
          kernels::sfilter(), kernels::nearn(), kernels::gaussian(),
          kernels::bfs(), kernels::texPointHw(), kernels::texBilinearHw(),
          kernels::texTrilinearHw(), kernels::texPointSw(),
          kernels::texBilinearSw(), kernels::texTrilinearSw()}) {
        Program p = as.assembleAll({kernels::runtimeSource(), kernel});
        EXPECT_GT(p.size(), 200u);
        EXPECT_NO_THROW(p.symbol("main"));
        EXPECT_NO_THROW(p.symbol("_start"));
        EXPECT_NO_THROW(p.symbol("spawn_tasks"));
        // Every emitted word must decode to a valid instruction or be data.
        Instr first = instrAt(p, 0);
        EXPECT_TRUE(first.valid());
    }
}
