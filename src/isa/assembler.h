/**
 * @file
 * Two-pass RISC-V assembler for the Vortex ISA (RV32IMF + Table 2
 * extension). This replaces the POCL/LLVM toolchain of the paper's software
 * stack (DESIGN.md substitution #3): kernels in this repository are genuine
 * RISC-V programs assembled to the same binary format the simulator fetches
 * and decodes.
 *
 * Supported syntax:
 *  - labels (`name:`), `#`/`//`/`;` comments
 *  - every row of isa::instrTable(): the RV32IMF + Zicsr + Vortex
 *    instructions and their single-instruction aliases (nop, mv, ret,
 *    beqz, csrr, fmv.s, ...), each operand parsed and range checked as
 *    its row's operand letter says; plus li and la
 *  - sections: `.text` / `.rodata` / `.data` (also via `.section`), laid
 *    out in that order into one flat image
 *  - directives: .word, .half, .byte, .float, .space, .zero, .align,
 *    .balign, .ascii, .asciz, .equ, .globl/.global
 *  - immediate expressions: decimal/hex literals, labels, `.equ` constants,
 *    `+`/`-` chains, %hi(expr), %lo(expr)
 *
 * Besides flat `Program` images the assembler can emit a relocatable
 * `ObjectFile` (see isa/object.h): label references that survive in the
 * encoding (`.word label`, `la`/`li`, `lui`+%hi, I/S-type %lo offsets)
 * are recorded as relocations so the loader can rebase the image;
 * pc-relative branches need none. See docs/TOOLCHAIN.md.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace vortex::isa {

struct ObjectFile;

/** One named assembly input (file name used in diagnostics + its text). */
struct SourceUnit
{
    std::string name;
    std::string text;
};

/**
 * An assembly diagnostic with a precise source position. The what() text
 * is always formatted `file:line:col: message` (1-based line and column),
 * mirroring compiler diagnostics and sweep::SpecParseError.
 */
class AsmError : public FatalError
{
  public:
    AsmError(const std::string& file, int line, int column,
             const std::string& message)
        : FatalError(file + ":" + std::to_string(line) + ":" +
                     std::to_string(column) + ": " + message),
          file_(file), line_(line), column_(column), message_(message)
    {
    }

    const std::string& file() const { return file_; }
    int line() const { return line_; }
    int column() const { return column_; }
    const std::string& message() const { return message_; }

  private:
    std::string file_;
    int line_;
    int column_;
    std::string message_;
};

/** An assembled flat binary image plus its symbol table. */
struct Program
{
    Addr base = 0;  ///< load address of image[0]
    Addr entry = 0; ///< execution entry point (== base)
    /** One past the last executable byte (.text ends here; .rodata and
     *  .data follow). 0 means unknown — treat the whole image as
     *  executable. The static analyzer uses this to keep escaped data
     *  pointers (e.g. `la` of a table) from being decoded as code. */
    Addr execEnd = 0;
    std::vector<uint8_t> image;
    std::map<std::string, Addr> symbols;

    size_t size() const { return image.size(); }

    /** Address of @p symbol; throws FatalError if undefined. */
    Addr symbol(const std::string& name) const;
};

/**
 * Two-pass assembler. Pass 1 sizes statements and collects labels; pass 2
 * encodes. Errors throw AsmError carrying file:line:col.
 */
class Assembler
{
  public:
    explicit Assembler(Addr base = 0x80000000) : base_(base) {}

    /** Assemble @p source into a Program loaded at the configured base.
     *  @p name is the file name used in diagnostics. */
    Program assemble(const std::string& source,
                     const std::string& name = "<asm>");

    /** Convenience: assemble several sources concatenated in order
     *  (e.g. runtime.s followed by a kernel). */
    Program assembleAll(const std::vector<std::string>& sources);

    /** Assemble several named units into one Program; diagnostics carry
     *  each unit's own name and local line numbers. */
    Program assembleUnits(const std::vector<SourceUnit>& units);

    /**
     * Assemble into a relocatable object (isa/object.h) linked at the
     * configured base. Label references whose encodings cannot be
     * relocated (e.g. a label inside a csr field) are errors here,
     * though assemble() accepts them.
     */
    ObjectFile assembleObject(const std::vector<SourceUnit>& units);

  private:
    Addr base_;
};

} // namespace vortex::isa
