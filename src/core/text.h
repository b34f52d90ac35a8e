/**
 * @file
 * Decoded program text: every word of a processor's uploaded executable
 * sections decoded once and read by all of its cores, so the steady-state
 * fetch path skips both the functional RAM read and the decoder (kernels
 * are loops: almost every simulated fetch re-executes a static
 * instruction). One copy per Processor, not per core: the host cost of a
 * core does not include the program.
 *
 * Correctness rests on code not being self-modifying, and that
 * assumption is checked rather than silent: load() marks the pages it
 * decodes (mem::Ram::markCodePage), every store to a marked page bumps the
 * RAM's code-write epoch, and find() serves a PC only while the epoch is
 * the one the text was decoded at (program reloads through writeBlock
 * move it too). A fetch find() does not serve decodes that one
 * word from RAM through decodeAt(), which marks its page as well, so a
 * store that lands on code within a cycle is seen by the next fetch of
 * that cycle. Processor::tick calls refresh() once per cycle, before the
 * cores tick. A same-cycle store from another core is the simulated
 * program's own race on weakly-coherent device memory — unspecified
 * order there, unchanged here.
 */

#pragma once

#include <vector>

#include "common/types.h"
#include "isa/isa.h"
#include "mem/ram.h"

namespace vortex::core {

/** The decoded text of one processor's program, over its RAM. */
class DecodedText
{
  public:
    explicit DecodedText(mem::Ram& ram) : ram_(ram) {}

    /** Mark the pages of [@p base, @p base + @p bytes) as code and decode
     *  every word in it, replacing the previous text (0 bytes: no text). */
    void
    load(Addr base, uint32_t bytes)
    {
        base_ = base & ~Addr{3};
        const uint64_t end = (uint64_t{base} + bytes + 3) & ~uint64_t{3};
        instrs_.resize(bytes == 0 ? 0 : (end - base_) / 4);
        decode();
    }

    /** Re-decode the text when a store to code moved the RAM's
     *  code-write epoch since it was decoded. */
    void
    refresh()
    {
        if (ram_.codeWriteEpoch() != epoch_)
            decode();
    }

    /** The decoded instruction at @p pc, or nullptr when @p pc lies
     *  outside the text (or is not word-aligned) or the text is stale. */
    const isa::Instr*
    find(Addr pc) const
    {
        const Addr word = (pc - base_) >> 2;
        if ((pc & 3) != 0 || word >= instrs_.size() ||
            ram_.codeWriteEpoch() != epoch_)
            return nullptr;
        return &instrs_[word];
    }

    /** Decode the word at @p pc from RAM, marking its page first so a
     *  later store there cannot go unnoticed. */
    isa::Instr
    decodeAt(Addr pc) const
    {
        ram_.markCodePage(pc);
        return isa::decode(ram_.read32(pc));
    }

    /** Words in the text. */
    size_t size() const { return instrs_.size(); }

  private:
    void
    decode()
    {
        if (instrs_.empty())
            return;
        const Addr last = base_ + 4 * static_cast<Addr>(instrs_.size() - 1);
        // Mark before reading, so a store after the read bumps the epoch.
        for (Addr page = base_ >> mem::Ram::kPageBits;
             page <= last >> mem::Ram::kPageBits; ++page)
            ram_.markCodePage(page << mem::Ram::kPageBits);
        epoch_ = ram_.codeWriteEpoch();
        for (size_t i = 0; i < instrs_.size(); ++i)
            instrs_[i] =
                isa::decode(ram_.read32(base_ + 4 * static_cast<Addr>(i)));
    }

    mem::Ram& ram_;
    Addr base_ = 0;
    std::vector<isa::Instr> instrs_; ///< decode(read32(base_ + 4 i))
    uint64_t epoch_ = 0; ///< RAM code-write epoch the text was decoded at
};

} // namespace vortex::core
