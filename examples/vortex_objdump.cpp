/**
 * @file
 * Developer tool: build one of the shipped kernels exactly as the device
 * loads it (kernels::assembleGuest: runtime + the kernel's units, through
 * the VXOB object) and dump an objdump-style listing of that image —
 * addresses, raw words, disassembly, and symbol labels. Demonstrates the
 * assembler/disassembler pair and the debugging workflow of §4.4.
 *
 * Usage: vortex_objdump [kernel]   (default: vecadd; `list` lists names)
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "core/config.h"
#include "isa/isa.h"
#include "kernels/kernels.h"

using namespace vortex;

int
main(int argc, char** argv)
{
    std::string name = argc > 1 ? argv[1] : "vecadd";
    if (name == "list" || name == "--list") {
        for (const kernels::Guest& k : kernels::allKernels())
            std::printf("%s\n", k.name.c_str());
        return 0;
    }
    const kernels::Guest* kernel = kernels::findKernel(name);
    if (kernel == nullptr) {
        std::fprintf(stderr, "unknown kernel '%s' (try `list`)\n",
                     name.c_str());
        return 1;
    }

    const Addr base = core::ArchConfig{}.startPC;
    isa::Program prog =
        kernels::assembleGuest(base, *kernel).toProgram(base);

    // Invert the symbol table for label printing.
    std::map<Addr, std::string> labels;
    for (const auto& [sym, addr] : prog.symbols)
        labels[addr] = sym;

    std::printf("%s: %zu bytes at 0x%08X, entry 0x%08X, %zu symbols\n\n",
                name.c_str(), prog.size(), prog.base, prog.entry,
                prog.symbols.size());
    for (size_t off = 0; off + 4 <= prog.image.size(); off += 4) {
        Addr addr = prog.base + static_cast<Addr>(off);
        auto lit = labels.find(addr);
        if (lit != labels.end())
            std::printf("\n%08X <%s>:\n", addr, lit->second.c_str());
        uint32_t word;
        std::memcpy(&word, &prog.image[off], 4);
        isa::Instr in = isa::decode(word);
        if (in.valid())
            std::printf("  %08X:  %08X   %s\n", addr, word,
                        isa::disassemble(in).c_str());
        else
            std::printf("  %08X:  %08X   .word\n", addr, word);
    }
    return 0;
}
