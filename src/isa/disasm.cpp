/**
 * @file
 * Disassembler and register naming (used by the trace infrastructure and the
 * round-trip property tests).
 */

#include <array>
#include <sstream>

#include "isa/isa.h"

namespace vortex::isa {

namespace {

constexpr std::array<const char*, 32> kIntRegNames = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
};

constexpr std::array<const char*, 32> kFpRegNames = {
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7",
    "fs0", "fs1", "fa0", "fa1", "fa2", "fa3", "fa4", "fa5",
    "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7",
    "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
};

} // namespace

const char*
intRegName(RegId r)
{
    return kIntRegNames[r & 31];
}

const char*
fpRegName(RegId r)
{
    return kFpRegNames[r & 31];
}

std::string
disassemble(const Instr& in)
{
    const InstrInfo& row = instrInfo(in.kind);
    std::ostringstream os;
    os << row.mnemonic;
    if (*row.operands)
        os << " ";
    for (const char* c = row.operands; *c; ++c) {
        switch (*c) {
          case 'd': os << intRegName(in.rd); break;
          case 'D': os << fpRegName(in.rd); break;
          case 's': os << intRegName(in.rs1); break;
          case 'S': os << fpRegName(in.rs1); break;
          case 't': os << intRegName(in.rs2); break;
          case 'T': os << fpRegName(in.rs2); break;
          case 'R': os << fpRegName(in.rs3); break;
          case 'u':
            os << "0x" << std::hex << (static_cast<uint32_t>(in.imm) >> 12)
               << std::dec;
            break;
          case 'E': os << "0x" << std::hex << in.csr << std::dec; break;
          case ',': os << ", "; break;
          case '(': case ')': os << *c; break;
          default: os << in.imm; break; // j o q p a > Z
        }
    }
    return os.str();
}

} // namespace vortex::isa
