/**
 * @file
 * The analysis pass pipeline: interprocedural forward dataflow over the
 * recovered CFG (divergence depth, register definedness, constant
 * propagation) and the per-instruction checks built on it. See
 * analysis.h for the check catalogue.
 */

#include "analysis/analysis.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <sstream>

#include "analysis/cfg.h"

namespace vortex::analysis {

namespace {

using isa::InstrKind;
using isa::RegFile;
using isa::RegRef;

/** Bit index of a register reference: integer regs 0-31, fp 32-63. */
uint32_t
regBit(const RegRef& r)
{
    return (r.file == RegFile::Fp ? 32u : 0u) + r.idx;
}

/** Registers whose reads are never flagged by the use-before-def pass:
 *  x0, the link/stack/thread pointers, and the callee-saved families
 *  whose save/restore idiom legitimately reads the caller's values. */
constexpr uint64_t
calleeSavedMask()
{
    uint64_t intRegs = (1ull << 0) | (1ull << 1) | (1ull << 2) |
                       (1ull << 3) | (1ull << 4) | (1ull << 8) |
                       (1ull << 9);
    for (uint32_t r = 18; r <= 27; ++r)
        intRegs |= 1ull << r;
    uint64_t fpRegs = (1ull << 8) | (1ull << 9);
    for (uint32_t r = 18; r <= 27; ++r)
        fpRegs |= 1ull << r;
    return intRegs | (fpRegs << 32);
}

constexpr uint64_t kExemptReads = calleeSavedMask();

/** Registers defined on entry to an address-taken (ABI) function: the
 *  exempt set plus the argument registers a0-a7 / fa0-fa7. */
constexpr uint64_t
abiSeedMask()
{
    uint64_t m = calleeSavedMask();
    for (uint32_t r = 10; r <= 17; ++r)
        m |= (1ull << r) | (1ull << (32 + r));
    return m;
}

/** Registers defined on entry to a warp entry point (reset clears the
 *  register files, so only x0 carries a meaningful value). */
constexpr uint64_t kWarpSeed = 1ull << 0;

/** Dataflow state at one program point. */
struct State
{
    bool reached = false;  ///< any path reaches this point
    uint64_t may = 0;      ///< registers written on some path
    uint64_t must = 0;     ///< registers written on every path
    uint32_t constKnown = 1; ///< bit r: int reg r holds constVal[r]
    std::array<uint32_t, 32> constVal{};
    int depth = 0;         ///< open split count along this path
    bool depthKnown = true;///< false after a depth-conflicting merge
};

/** Meet @p b into @p a; returns true when @p a changed. Sets
 *  @p depthConflict when two known-but-different depths merge. */
bool
meet(State& a, const State& b, bool& depthConflict)
{
    if (!b.reached)
        return false;
    if (!a.reached) {
        a = b;
        return true;
    }
    bool changed = false;
    uint64_t may = a.may | b.may;
    uint64_t must = a.must & b.must;
    if (may != a.may || must != a.must) {
        a.may = may;
        a.must = must;
        changed = true;
    }
    uint32_t known = a.constKnown & b.constKnown;
    for (uint32_t r = 1; r < 32; ++r)
        if ((known >> r) & 1u)
            if (a.constVal[r] != b.constVal[r])
                known &= ~(1u << r);
    if (known != a.constKnown) {
        a.constKnown = known;
        changed = true;
    }
    if (a.depthKnown) {
        if (!b.depthKnown) {
            a.depthKnown = false;
            changed = true;
        } else if (a.depth != b.depth) {
            depthConflict = true;
            a.depthKnown = false;
            changed = true;
        }
    }
    return changed;
}

/** What a call does to the caller, and what the capacity/barrier
 *  checks need to know about the callee's transitive behaviour. */
struct FnSummary
{
    uint64_t mayWrite = 0;        ///< regs the function may write
    uint64_t mustDef = ~0ull;     ///< regs defined on every return path
    bool hasBar = false;          ///< executes `bar`, transitively
    bool hasIndirectCall = false; ///< contains a `jalr rd!=x0`
    int maxDepth = 0;             ///< deepest split nesting, transitive
    bool returns = false;         ///< has at least one return path

    bool
    operator==(const FnSummary& o) const
    {
        return mayWrite == o.mayWrite && mustDef == o.mustDef &&
               hasBar == o.hasBar &&
               hasIndirectCall == o.hasIndirectCall &&
               maxDepth == o.maxDepth && returns == o.returns;
    }
};

/** Constant-fold one integer ALU op; returns false when not folded. */
bool
foldConst(const isa::Instr& in, const State& s, uint32_t& out)
{
    auto known = [&](uint32_t r) {
        return r == 0 || ((s.constKnown >> r) & 1u);
    };
    auto val = [&](uint32_t r) -> uint32_t {
        return r == 0 ? 0 : s.constVal[r];
    };
    uint32_t imm = static_cast<uint32_t>(in.imm);
    switch (in.kind) {
      case InstrKind::LUI:
        out = imm;
        return true;
      case InstrKind::ADDI:
        if (!known(in.rs1))
            return false;
        out = val(in.rs1) + imm;
        return true;
      case InstrKind::ORI:
        if (!known(in.rs1))
            return false;
        out = val(in.rs1) | imm;
        return true;
      case InstrKind::ANDI:
        if (!known(in.rs1))
            return false;
        out = val(in.rs1) & imm;
        return true;
      case InstrKind::XORI:
        if (!known(in.rs1))
            return false;
        out = val(in.rs1) ^ imm;
        return true;
      case InstrKind::SLLI:
        if (!known(in.rs1))
            return false;
        out = val(in.rs1) << (imm & 31u);
        return true;
      case InstrKind::SRLI:
        if (!known(in.rs1))
            return false;
        out = val(in.rs1) >> (imm & 31u);
        return true;
      case InstrKind::ADD:
        if (!known(in.rs1) || !known(in.rs2))
            return false;
        out = val(in.rs1) + val(in.rs2);
        return true;
      case InstrKind::SUB:
        if (!known(in.rs1) || !known(in.rs2))
            return false;
        out = val(in.rs1) - val(in.rs2);
        return true;
      case InstrKind::OR:
        if (!known(in.rs1) || !known(in.rs2))
            return false;
        out = val(in.rs1) | val(in.rs2);
        return true;
      case InstrKind::AND:
        if (!known(in.rs1) || !known(in.rs2))
            return false;
        out = val(in.rs1) & val(in.rs2);
        return true;
      case InstrKind::XOR:
        if (!known(in.rs1) || !known(in.rs2))
            return false;
        out = val(in.rs1) ^ val(in.rs2);
        return true;
      default:
        return false;
    }
}

std::string
hexAddr(Addr pc)
{
    std::ostringstream os;
    os << "0x" << std::hex << pc;
    return os.str();
}

/** The whole-program analysis engine. */
class Engine
{
  public:
    Engine(const isa::Program& program, const AnalyzerOptions& opts)
        : image_(program), opts_(opts)
    {
    }

    Report
    run()
    {
        addEntry(image_.program().entry, EntryKind::WarpEntry);

        // Interprocedural fixpoint: function summaries grow/refine and
        // entry states accumulate call-site meets until nothing moves.
        // Each quantity is monotone, so this terminates; the iteration
        // cap is a safety net for pathological inputs.
        for (int iter = 0; iter < 64; ++iter) {
            bool changed = false;
            for (Addr entry : sortedEntries()) {
                ensureBuilt(entry);
                changed |= analyzeFunction(entry, /*diagnose=*/false);
            }
            if (!changed)
                break;
        }

        for (Addr entry : sortedEntries())
            analyzeFunction(entry, /*diagnose=*/true);
        reportCoverage();

        std::sort(diags_.begin(), diags_.end());
        diags_.erase(std::unique(diags_.begin(), diags_.end()),
                     diags_.end());

        Report report;
        report.diagnostics = std::move(diags_);
        report.functionCount = fns_.size();
        size_t instrs = 0;
        for (const auto& [addr, fn] : fns_)
            instrs += fn.blockOf.size();
        report.instructionCount = instrs;
        report.exercisedChecks.assign(exercised_.begin(),
                                      exercised_.end());
        return report;
    }

  private:
    struct EntryInfo
    {
        std::set<EntryKind> kinds;
        State state; ///< meet of seeds and call-site states
    };

    const CodeImage image_;
    AnalyzerOptions opts_;
    std::map<Addr, Function> fns_;
    std::map<Addr, FnSummary> summaries_;
    std::map<Addr, EntryInfo> entries_;
    std::set<Addr> escaped_;
    bool anyEscapedHasBar_ = false;
    std::vector<Diagnostic> diags_;
    std::set<std::string> exercised_; ///< see Report::exercisedChecks

    /** Record that a check's decision point was evaluated (whether or
     *  not it fired). */
    void
    touch(const char* check)
    {
        exercised_.insert(check);
    }

    std::vector<Addr>
    sortedEntries() const
    {
        std::vector<Addr> out;
        for (const auto& [addr, info] : entries_)
            out.push_back(addr);
        return out;
    }

    void
    addEntry(Addr addr, EntryKind kind)
    {
        EntryInfo& info = entries_[addr];
        if (!info.kinds.insert(kind).second)
            return;
        State seed;
        seed.reached = true;
        switch (kind) {
          case EntryKind::WarpEntry:
            seed.may = seed.must = kWarpSeed;
            break;
          case EntryKind::AddressTaken:
            seed.may = seed.must = abiSeedMask();
            break;
          case EntryKind::Called:
            return; // call sites supply the state
        }
        bool conflict = false;
        meet(info.state, seed, conflict);
    }

    void
    ensureBuilt(Addr entry)
    {
        if (fns_.count(entry))
            return;
        touch("structure.target");
        if (!image_.validPc(entry)) {
            diags_.push_back({Severity::Error, entry, "structure.target",
                              "entry point " + hexAddr(entry) +
                                  " lies outside the code segment"});
            fns_[entry] = Function{};
            return;
        }
        EntryKind kind = *entries_[entry].kinds.begin();
        fns_[entry] = buildFunction(image_, entry, kind, diags_);
    }

    const FnSummary&
    summaryOf(Addr callee)
    {
        return summaries_[callee]; // default: optimistic
    }

    /**
     * One dataflow round over @p entry's function. With diagnose off,
     * updates entry states of callees and this function's summary and
     * returns whether anything changed; with diagnose on, walks the
     * converged states once more and emits diagnostics.
     */
    bool
    analyzeFunction(Addr entry, bool diagnose)
    {
        auto fnIt = fns_.find(entry);
        if (fnIt == fns_.end() || fnIt->second.blocks.empty())
            return false;
        const Function& fn = fnIt->second;

        std::map<Addr, State> in;
        std::set<Addr> depthConflicts;
        in[fn.entry] = entries_[entry].state;
        in[fn.entry].reached = true;

        std::set<Addr> work{fn.entry};
        // Local fixpoint over the block graph.
        while (!work.empty()) {
            Addr at = *work.begin();
            work.erase(work.begin());
            auto blockIt = fn.blocks.find(at);
            if (blockIt == fn.blocks.end())
                continue;
            const BasicBlock& bb = blockIt->second;
            State st = in[at];
            if (!st.reached)
                continue;
            transferBlock(fn, bb, st, /*diagnose=*/false, nullptr);
            for (Addr succ : bb.succs) {
                bool conflict = false;
                State& dst = in[succ];
                if (meet(dst, st, conflict))
                    work.insert(succ);
                if (conflict)
                    depthConflicts.insert(succ);
            }
        }

        if (diagnose) {
            for (const auto& [addr, bb] : fn.blocks) {
                State st = in[addr];
                if (!st.reached)
                    continue;
                if (depthConflicts.count(addr))
                    diags_.push_back(
                        {Severity::Error, addr, "ipdom.balance",
                         "control-flow paths reach this point at "
                         "different split/join nesting depths"});
                transferBlock(fn, bb, st, /*diagnose=*/true, nullptr);
            }
            maybeReportCapacity(entry);
            return false;
        }

        // Summary + callee entry-state updates.
        FnSummary next;
        next.mustDef = ~0ull;
        bool changed = false;
        for (const auto& [addr, bb] : fn.blocks) {
            State st = in[addr];
            if (!st.reached)
                continue;
            changed |= transferBlock(fn, bb, st, false, &next);
        }
        if (!next.returns)
            next.mustDef = ~0ull; // no return path: callers never resume
        FnSummary& cur = summaries_[entry];
        if (!(cur == next)) {
            cur = next;
            changed = true;
        }
        return changed;
    }

    /**
     * Run @p st through @p bb. In summary mode (@p sum != nullptr)
     * accumulates the function summary and discovers new entries /
     * call-site states; in diagnose mode emits diagnostics. @return
     * whether summary-mode discovery changed global state.
     */
    bool
    transferBlock(const Function& fn, const BasicBlock& bb, State& st,
                  bool diagnose, FnSummary* sum)
    {
        bool changed = false;
        for (size_t i = 0; i < bb.instrs.size(); ++i) {
            const CfgInstr& ci = bb.instrs[i];
            const isa::Instr& in = ci.in;
            bool last = i + 1 == bb.instrs.size();

            if (diagnose)
                checkUses(ci, st);

            // Per-kind checks and effects that need the pre-def state.
            changed |= visitInstr(fn, bb, ci, last, st, diagnose, sum);

            // Definitions.
            RegRef d = in.dst();
            if (d.valid() && d.isWrite()) {
                uint64_t bit = 1ull << regBit(d);
                st.may |= bit;
                st.must |= bit;
                if (sum)
                    sum->mayWrite |= bit;
                if (d.file == RegFile::Int) {
                    uint32_t folded = 0;
                    if (in.kind == InstrKind::AUIPC) {
                        st.constKnown |= 1u << d.idx;
                        st.constVal[d.idx] =
                            ci.pc + static_cast<uint32_t>(in.imm);
                    } else if (foldConst(in, st, folded)) {
                        st.constKnown |= 1u << d.idx;
                        st.constVal[d.idx] = folded;
                    } else {
                        st.constKnown &= ~(1u << d.idx);
                    }
                }
            }
        }
        return changed;
    }

    /** Read-before-def diagnostics for every source operand. */
    void
    checkUses(const CfgInstr& ci, const State& st)
    {
        for (const RegRef& r :
             {ci.in.src1(), ci.in.src2(), ci.in.src3()}) {
            if (!r.valid() || (r.file == RegFile::Int && r.idx == 0))
                continue;
            uint64_t bit = 1ull << regBit(r);
            if (bit & kExemptReads)
                continue;
            touch("reg.undef");
            touch("reg.maybe-undef");
            const char* name = r.file == RegFile::Fp
                                   ? isa::fpRegName(r.idx)
                                   : isa::intRegName(r.idx);
            if (!(st.may & bit))
                diags_.push_back(
                    {Severity::Error, ci.pc, "reg.undef",
                     std::string("register ") + name +
                         " is read but never written on any path to "
                         "this instruction"});
            else if (!(st.must & bit))
                diags_.push_back(
                    {Severity::Warning, ci.pc, "reg.maybe-undef",
                     std::string("register ") + name +
                         " may be read before it is written (defined "
                         "on some paths only)"});
        }
    }

    /** Constant value of integer register @p r at @p st, if known. */
    bool
    constOf(const State& st, uint32_t r, uint32_t& v) const
    {
        if (r == 0) {
            v = 0;
            return true;
        }
        if ((st.constKnown >> r) & 1u) {
            v = st.constVal[r];
            return true;
        }
        return false;
    }

    /** True when @p addr starts a plausible code entry (in-segment,
     *  aligned, first word decodes). */
    bool
    plausibleEntry(uint32_t addr) const
    {
        return image_.validPc(addr) && image_.decode(addr).valid();
    }

    /** Record an escaped function-pointer constant. */
    bool
    noteEscape(uint32_t addr)
    {
        if (!plausibleEntry(addr) || escaped_.count(addr))
            return false;
        escaped_.insert(addr);
        addEntry(addr, EntryKind::AddressTaken);
        return true;
    }

    /** Apply a call's effect on the caller state. */
    void
    applyCall(State& st, const FnSummary& callee, uint32_t linkReg)
    {
        st.may |= callee.mayWrite;
        st.must |= callee.mustDef == ~0ull ? 0 : callee.mustDef;
        if (linkReg != 0) {
            uint64_t bit = 1ull << linkReg;
            st.may |= bit;
            st.must |= bit;
        }
        uint32_t clobbered =
            static_cast<uint32_t>(callee.mayWrite & 0xFFFFFFFFull);
        st.constKnown &= ~clobbered | 1u;
        if (linkReg != 0 && linkReg < 32)
            st.constKnown &= ~(1u << linkReg);
    }

    /** Effective transitive barrier behaviour of a summary. */
    bool
    effectiveHasBar(const FnSummary& s) const
    {
        return s.hasBar || (s.hasIndirectCall && anyEscapedHasBar_);
    }

    bool
    visitInstr(const Function& fn, const BasicBlock& bb,
               const CfgInstr& ci, bool last, State& st, bool diagnose,
               FnSummary* sum)
    {
        (void)fn;
        bool changed = false;
        const isa::Instr& in = ci.in;
        uint32_t width = isa::instrInfo(in.kind).width;
        if (width != 0)
            changed |= visitMemAccess(ci, st, width, diagnose, sum);

        switch (in.kind) {
          case InstrKind::VX_SPLIT:
            if (st.depthKnown) {
                if (diagnose)
                    touch("ipdom.balance");
                ++st.depth;
                if (sum)
                    sum->maxDepth = std::max(sum->maxDepth, st.depth);
            }
            break;

          case InstrKind::VX_JOIN:
            if (st.depthKnown) {
                if (diagnose)
                    touch("ipdom.balance");
                if (st.depth == 0) {
                    if (diagnose)
                        diags_.push_back(
                            {Severity::Error, ci.pc, "ipdom.balance",
                             "join without a matching split on this "
                             "path (IPDOM stack underflow)"});
                } else {
                    --st.depth;
                }
            }
            break;

          case InstrKind::VX_BAR: {
            if (sum)
                sum->hasBar = true;
            if (diagnose && st.depthKnown)
                touch("barrier.divergence");
            if (diagnose && st.depthKnown && st.depth > 0)
                diags_.push_back(
                    {Severity::Error, ci.pc, "barrier.divergence",
                     "bar executed under divergent control flow (" +
                         std::to_string(st.depth) +
                         " open split(s)): the wavefront re-arrives "
                         "per replayed path and deadlocks"});
            uint32_t id = 0, count = 0;
            if (diagnose && constOf(st, in.rs1, id) &&
                constOf(st, in.rs2, count)) {
                touch("barrier.count");
                bool global = (id & 0x80000000u) != 0;
                uint32_t budget = global
                                      ? opts_.numWarps * opts_.numCores
                                      : opts_.numWarps;
                if (count > budget)
                    diags_.push_back(
                        {Severity::Error, ci.pc, "barrier.count",
                         std::string(global ? "global" : "local") +
                             " barrier expects " +
                             std::to_string(count) +
                             " wavefront arrivals but the machine has "
                             "only " +
                             std::to_string(budget) +
                             ": the barrier can never fire"});
            }
            break;
          }

          case InstrKind::VX_TMC: {
            uint32_t n = 0;
            if (diagnose && constOf(st, in.rs1, n))
                touch("tmc.budget");
            if (diagnose && constOf(st, in.rs1, n) &&
                n > opts_.numThreads && n != 0)
                diags_.push_back(
                    {Severity::Error, ci.pc, "tmc.budget",
                     "tmc enables " + std::to_string(n) +
                         " threads but the wavefront has only " +
                         std::to_string(opts_.numThreads)});
            break;
          }

          case InstrKind::VX_WSPAWN: {
            uint32_t n = 0, target = 0;
            if (diagnose) {
                touch("wspawn.target");
                if (constOf(st, in.rs1, n))
                    touch("wspawn.budget");
            }
            if (diagnose && constOf(st, in.rs1, n) &&
                n > opts_.numWarps)
                diags_.push_back(
                    {Severity::Error, ci.pc, "wspawn.budget",
                     "wspawn activates " + std::to_string(n) +
                         " wavefronts but the core has only " +
                         std::to_string(opts_.numWarps)});
            if (constOf(st, in.rs2, target)) {
                if (!plausibleEntry(target)) {
                    if (diagnose)
                        diags_.push_back(
                            {Severity::Error, ci.pc, "wspawn.target",
                             "wspawn target " + hexAddr(target) +
                                 " is not a valid code address"});
                } else if (sum && !entries_.count(target)) {
                    addEntry(target, EntryKind::WarpEntry);
                    changed = true;
                }
            } else if (diagnose) {
                diags_.push_back(
                    {Severity::Warning, ci.pc, "wspawn.target",
                     "wspawn target is not statically resolvable; "
                     "spawned code is not analyzed from here"});
            }
            break;
          }

          default:
            break;
        }

        if (!last)
            return changed;

        // Terminator effects.
        switch (bb.term) {
          case TermKind::Call: {
            changed |= visitEscapes(ci, st, sum);
            const FnSummary& callee = summaryOf(bb.callee);
            if (sum) {
                if (!entries_.count(bb.callee)) {
                    addEntry(bb.callee, EntryKind::Called);
                    changed = true;
                }
                // The callee starts after the jal wrote the link reg.
                State atCall = st;
                if (in.rd != 0) {
                    uint64_t link = 1ull << in.rd;
                    atCall.may |= link;
                    atCall.must |= link;
                }
                atCall.depth = 0;
                atCall.depthKnown = true;
                bool conflict = false;
                changed |=
                    meet(entries_[bb.callee].state, atCall, conflict);
                sum->mayWrite |= callee.mayWrite;
                sum->hasBar |= callee.hasBar;
                sum->hasIndirectCall |= callee.hasIndirectCall;
                if (st.depthKnown)
                    sum->maxDepth = std::max(
                        sum->maxDepth, st.depth + callee.maxDepth);
            }
            if (diagnose && st.depthKnown && st.depth > 0)
                touch("barrier.divergence");
            if (diagnose && st.depthKnown && st.depth > 0 &&
                effectiveHasBar(callee))
                diags_.push_back(
                    {Severity::Error, ci.pc, "barrier.divergence",
                     "call to " + image_.symbolFor(bb.callee) +
                         " inside a split region reaches a barrier "
                         "under divergent control flow"});
            applyCall(st, callee, in.rd);
            break;
          }
          case TermKind::IndirectCall: {
            changed |= visitEscapes(ci, st, sum);
            if (sum) {
                sum->hasIndirectCall = true;
                sum->mayWrite = ~0ull;
            }
            if (diagnose && st.depthKnown && st.depth > 0)
                touch("barrier.divergence");
            if (diagnose && st.depthKnown && st.depth > 0 &&
                anyEscapedHasBar_)
                diags_.push_back(
                    {Severity::Error, ci.pc, "barrier.divergence",
                     "indirect call inside a split region may reach a "
                     "barrier under divergent control flow"});
            FnSummary unknown;
            unknown.mayWrite = ~0ull;
            unknown.mustDef = 0;
            applyCall(st, unknown, in.rd);
            break;
          }
          case TermKind::Return:
            if (diagnose && st.depthKnown)
                touch("ipdom.balance");
            if (diagnose && st.depthKnown && st.depth != 0)
                diags_.push_back(
                    {Severity::Error, ci.pc, "ipdom.balance",
                     "function returns with " +
                         std::to_string(st.depth) +
                         " unclosed split(s)"});
            if (sum) {
                sum->returns = true;
                sum->mustDef &= st.must;
            }
            break;
          case TermKind::Halt:
            if (diagnose && st.depthKnown && st.depth > 0)
                diags_.push_back(
                    {Severity::Warning, ci.pc, "ipdom.balance",
                     "wavefront halts with " +
                         std::to_string(st.depth) +
                         " open split(s); suspended threads never "
                         "resume"});
            break;
          case TermKind::Fall:
          case TermKind::Jump:
          case TermKind::Branch:
          case TermKind::Broken:
            break;
        }
        return changed;
    }

    /** Escaped-function-pointer discovery at a call site: a constant
     *  code address sitting in an argument register becomes a
     *  potential indirect-call target / task function. */
    bool
    visitEscapes(const CfgInstr& ci, const State& st, FnSummary* sum)
    {
        (void)ci;
        if (!sum)
            return false;
        bool changed = false;
        for (uint32_t r = 10; r <= 17; ++r) {
            uint32_t v = 0;
            if (constOf(st, r, v))
                changed |= noteEscape(v);
        }
        return changed;
    }

    bool
    visitMemAccess(const CfgInstr& ci, const State& st, uint32_t width,
                   bool diagnose, FnSummary* sum)
    {
        const isa::Instr& in = ci.in;
        bool store = in.isStore();
        uint32_t base = 0;
        if (store && sum) {
            // A constant code pointer stored to memory escapes (the
            // runtime publishes task functions through scratchpad).
            uint32_t v = 0;
            uint32_t valueReg = in.rs2;
            if (in.kind != InstrKind::FSW &&
                constOf(st, valueReg, v) && noteEscape(v))
                return true;
        }
        if (!diagnose || !constOf(st, in.rs1, base))
            return false;
        uint32_t addr = base + static_cast<uint32_t>(in.imm);
        if (width > 1)
            touch("mem.align");
        if (width > 1 && (addr % width) != 0)
            diags_.push_back(
                {Severity::Error, ci.pc, "mem.align",
                 std::string(store ? "store" : "load") + " of " +
                     std::to_string(width) + " bytes at " +
                     hexAddr(addr) + " is misaligned"});
        if (opts_.memMap.regions.empty())
            return false;
        touch("mem.bounds");
        const MemRegion* region = opts_.memMap.find(addr, width);
        if (store && region)
            touch("mem.code-write");
        if (!region) {
            diags_.push_back(
                {Severity::Error, ci.pc, "mem.bounds",
                 std::string(store ? "store" : "load") + " at " +
                     hexAddr(addr) +
                     " falls outside every mapped memory region"});
        } else if (store && !region->writable) {
            diags_.push_back(
                {Severity::Warning, ci.pc, "mem.code-write",
                 "store into the read-only '" + region->name +
                     "' region at " + hexAddr(addr)});
        }
        return false;
    }

    /** IPDOM capacity check for warp entries (2 stack entries per
     *  nested split, see core/emulator.cpp). */
    void
    maybeReportCapacity(Addr entry)
    {
        const EntryInfo& info = entries_[entry];
        if (!info.kinds.count(EntryKind::WarpEntry))
            return;
        touch("ipdom.depth");
        const FnSummary& s = summaries_[entry];
        uint32_t entriesNeeded = 2u * static_cast<uint32_t>(s.maxDepth);
        if (entriesNeeded > opts_.ipdomCapacity)
            diags_.push_back(
                {Severity::Warning, entry, "ipdom.depth",
                 "divergence may nest " + std::to_string(s.maxDepth) +
                     " levels deep (" + std::to_string(entriesNeeded) +
                     " IPDOM entries) but the stack holds only " +
                     std::to_string(opts_.ipdomCapacity)});
    }

    /** Aggregate note about bytes no entry reaches (embedded data or
     *  dead code) — informational, never gating. */
    void
    reportCoverage()
    {
        touch("structure.unreachable");
        std::set<Addr> covered;
        for (const auto& [addr, fn] : fns_)
            for (const auto& [pc, blockStart] : fn.blockOf)
                covered.insert(pc);
        size_t bytes = 0;
        Addr first = 0;
        bool haveFirst = false;
        for (Addr pc = image_.base(); pc + 4 <= image_.execEnd();
             pc += 4) {
            if (covered.count(pc))
                continue;
            bytes += 4;
            if (!haveFirst) {
                first = pc;
                haveFirst = true;
            }
        }
        bytes += (image_.execEnd() - image_.base()) & 3u;
        if (bytes != 0)
            diags_.push_back(
                {Severity::Info, first, "structure.unreachable",
                 std::to_string(bytes) +
                     " byte(s) of the code segment are not reachable "
                     "from any entry (embedded data or dead code)"});
    }
};

} // namespace

Report
analyze(const isa::Program& program, const AnalyzerOptions& opts)
{
    Engine engine(program, opts);
    return engine.run();
}

} // namespace vortex::analysis
