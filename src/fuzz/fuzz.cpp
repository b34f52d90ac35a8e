/**
 * @file
 * Seeded guest-program generator and serial-vs-parallel differential
 * oracle (see fuzz.h). The generator builds structurally well-formed
 * programs by construction: every split has a matching join on all
 * paths, loops have uniform bounded trip counts, wspawn/bar stay inside
 * the runtime's spawn_tasks, and every memory access is masked into the
 * harness-provided scratch buffer. Task bodies never execute `bar` —
 * spawn_tasks calls them under divergence (inside split/join), where a
 * barrier would deadlock.
 *
 * Data-race freedom (the precondition of the backends' bit-identity
 * contract, see fuzz.h): loads are masked into the read-only lower half
 * of the scratch buffer, and every store goes through a5, which the
 * task prologue points at this task's own slot — upper half, one word
 * per (spawn round, task id) pair.
 */

#include "fuzz/fuzz.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/analysis.h"
#include "common/log.h"
#include "common/rng.h"
#include "runtime/device.h"

namespace vortex::fuzz {

namespace {

/** Scratch integer value pool the generator reads and writes. a0 (task
 *  id) and a1 (kargs pointer) are read-only inputs; t6 is the loop
 *  counter, a6 the scratch base, a7 the address/predicate temp, and a5
 *  the task's private store-slot address. */
const char* const kPool[] = {"t0", "t1", "t2", "t3", "t4",
                             "t5", "a2", "a3", "a4"};
constexpr uint32_t kPoolSize = 9;

const char* const kFpu[] = {"ft0", "ft1", "ft2"};
constexpr uint32_t kFpuSize = 3;

/** Words in the shared read-only `fuzz_table` rodata blob. */
constexpr uint32_t kTableWords = 16;

/** Emits one task function's worth of random-but-well-formed assembly. */
class TaskGen
{
  public:
    TaskGen(Xorshift& rng, const GenOptions& opts, std::ostringstream& out,
            uint32_t taskIndex, uint32_t fnCount)
        : r_(rng), opts_(opts), out_(out), task_(taskIndex),
          fnCount_(fnCount), loadMask_(opts.scratchWords / 2 - 1),
          idMask_(opts.scratchWords / 4 - 1),
          slotBase_((opts.scratchWords / 2 +
                     taskIndex * (opts.scratchWords / 4)) *
                    4)
    {
    }

    void
    emit(const std::string& name)
    {
        out_ << name << ":\n";
        prologue();
        ops(opts_.maxBodyOps, /*depth=*/0, /*allowLoop=*/true);
        epilogue();
    }

  private:
    const char*
    pool()
    {
        return kPool[r_.nextBounded(kPoolSize)];
    }

    const char*
    fpu()
    {
        return kFpu[r_.nextBounded(kFpuSize)];
    }

    int
    smallImm()
    {
        return static_cast<int>(r_.nextBounded(128)) - 64;
    }

    std::string
    label()
    {
        return ".Lf" + std::to_string(task_) + "_" +
               std::to_string(label_++);
    }

    /** a7 = scratch + 4 * (reg & loadMask): always inside the read-only
     *  lower half, whatever value the register soup produced. */
    void
    address(const char* reg)
    {
        out_ << "    andi a7, " << reg << ", " << loadMask_ << "\n";
        out_ << "    slli a7, a7, 2\n";
        out_ << "    add a7, a7, a6\n";
    }

    /** Give every pool register (and the FP pool) a task-id-derived
     *  value up front so no path reads an undefined register, and point
     *  a5 at this task's private store slot in the upper half. The
     *  frame saves ra (clobbered by leaf-function calls) and s1 (the
     *  callee-saved inner-loop counter) so every task honours the
     *  spawn_tasks ABI regardless of which shapes its body drew. */
    void
    prologue()
    {
        out_ << "    addi sp, sp, -16\n";
        out_ << "    sw ra, 12(sp)\n";
        out_ << "    sw s1, 8(sp)\n";
        out_ << "    lw a6, 4(a1)\n"; // scratch base from the mailbox
        out_ << "    andi a5, a0, " << idMask_ << "\n";
        out_ << "    slli a5, a5, 2\n";
        out_ << "    add a5, a5, a6\n";
        out_ << "    addi a5, a5, " << slotBase_ << "\n";
        for (uint32_t i = 0; i < kPoolSize; ++i) {
            switch (r_.nextBounded(4)) {
            case 0:
                out_ << "    addi " << kPool[i] << ", a0, " << smallImm()
                     << "\n";
                break;
            case 1:
                out_ << "    slli " << kPool[i] << ", a0, "
                     << 1 + r_.nextBounded(4) << "\n";
                break;
            case 2:
                out_ << "    xori " << kPool[i] << ", a0, " << smallImm()
                     << "\n";
                break;
            default:
                out_ << "    sub " << kPool[i] << ", zero, a0\n";
                break;
            }
        }
        for (uint32_t i = 0; i < kFpuSize; ++i)
            out_ << "    fmv.w.x " << kFpu[i] << ", " << pool() << "\n";
    }

    /** Store one pool register to this task's own scratch slot, so every
     *  task leaves a deterministic footprint even if the random body
     *  emitted no stores. */
    void
    epilogue()
    {
        out_ << "    sw " << pool() << ", 0(a5)\n";
        out_ << "    lw s1, 8(sp)\n";
        out_ << "    lw ra, 12(sp)\n";
        out_ << "    addi sp, sp, 16\n";
        out_ << "    ret\n";
    }

    void
    aluOp()
    {
        // Division by zero and overflow are fully defined in RV32M
        // (quotient -1 / dividend), so div/rem on register soup is as
        // deterministic as add.
        static const char* const kOps[] = {
            "add",  "sub",    "xor",   "or",   "and",  "mul",
            "slt",  "sltu",   "sll",   "srl",  "sra",  "mulh",
            "mulhu", "mulhsu", "div",  "divu", "rem",  "remu"};
        out_ << "    " << kOps[r_.nextBounded(18)] << " " << pool() << ", "
             << pool() << ", " << pool() << "\n";
    }

    void
    aluImmOp()
    {
        if (r_.nextBounded(2)) {
            static const char* const kOps[] = {"addi", "xori", "ori",
                                               "andi"};
            out_ << "    " << kOps[r_.nextBounded(4)] << " " << pool()
                 << ", " << pool() << ", " << smallImm() << "\n";
        } else {
            static const char* const kOps[] = {"slli", "srli", "srai"};
            out_ << "    " << kOps[r_.nextBounded(3)] << " " << pool()
                 << ", " << pool() << ", " << 1 + r_.nextBounded(8)
                 << "\n";
        }
    }

    void
    fpOp()
    {
        switch (r_.nextBounded(10)) {
        case 0:
            out_ << "    fadd.s " << fpu() << ", " << fpu() << ", "
                 << fpu() << "\n";
            break;
        case 1:
            out_ << "    fsub.s " << fpu() << ", " << fpu() << ", "
                 << fpu() << "\n";
            break;
        case 2:
            out_ << "    fmul.s " << fpu() << ", " << fpu() << ", "
                 << fpu() << "\n";
            break;
        case 3:
            out_ << "    fmadd.s " << fpu() << ", " << fpu() << ", "
                 << fpu() << ", " << fpu() << "\n";
            break;
        case 4:
            out_ << "    fdiv.s " << fpu() << ", " << fpu() << ", "
                 << fpu() << "\n";
            break;
        case 5:
            out_ << "    fsqrt.s " << fpu() << ", " << fpu() << "\n";
            break;
        case 6:
            out_ << "    " << (r_.nextBounded(2) ? "fmin.s" : "fmax.s")
                 << " " << fpu() << ", " << fpu() << ", " << fpu()
                 << "\n";
            break;
        case 7:
            out_ << "    " << (r_.nextBounded(2) ? "feq.s" : "flt.s")
                 << " " << pool() << ", " << fpu() << ", " << fpu()
                 << "\n";
            break;
        case 8:
            out_ << "    fsgnjx.s " << fpu() << ", " << fpu() << ", "
                 << fpu() << "\n";
            break;
        default:
            out_ << "    fmv.w.x " << fpu() << ", " << pool() << "\n";
            break;
        }
    }

    void
    loadOp()
    {
        if (r_.nextBounded(4) == 0) {
            // The task's own slot: only this task ever writes it.
            out_ << "    lw " << pool() << ", 0(a5)\n";
            return;
        }
        address(pool());
        switch (r_.nextBounded(8)) {
        case 0:
            out_ << "    flw " << fpu() << ", 0(a7)\n";
            break;
        case 1:
            out_ << "    lb " << pool() << ", "
                 << r_.nextBounded(4) << "(a7)\n";
            break;
        case 2:
            out_ << "    lbu " << pool() << ", "
                 << r_.nextBounded(4) << "(a7)\n";
            break;
        case 3:
            out_ << "    lh " << pool() << ", "
                 << 2 * r_.nextBounded(2) << "(a7)\n";
            break;
        case 4:
            out_ << "    lhu " << pool() << ", "
                 << 2 * r_.nextBounded(2) << "(a7)\n";
            break;
        default:
            out_ << "    lw " << pool() << ", 0(a7)\n";
            break;
        }
    }

    /** Stores go only to the private slot — any address derived from
     *  the value pool could collide with a sibling task's store. */
    void
    storeOp()
    {
        switch (r_.nextBounded(6)) {
        case 0:
            out_ << "    fsw " << fpu() << ", 0(a5)\n";
            break;
        case 1:
            out_ << "    sb " << pool() << ", "
                 << r_.nextBounded(4) << "(a5)\n";
            break;
        case 2:
            out_ << "    sh " << pool() << ", "
                 << 2 * r_.nextBounded(2) << "(a5)\n";
            break;
        default:
            out_ << "    sw " << pool() << ", 0(a5)\n";
            break;
        }
    }

    /** Load from the shared read-only rodata table. Half the draws use
     *  a fixed offset whose address constant-folds (`la` is auipc+addi),
     *  so the static analyzer's mem.align/mem.bounds checks fire on the
     *  resolved address; the other half index dynamically through the
     *  usual register soup (masked into the table). */
    void
    rodataOp()
    {
        out_ << "    la a7, fuzz_table\n";
        if (r_.nextBounded(2)) {
            out_ << "    lw " << pool() << ", "
                 << 4 * r_.nextBounded(kTableWords) << "(a7)\n";
        } else {
            // Mask to a word offset inside the table (bits 2..5 only).
            const char* idx = pool();
            out_ << "    andi " << idx << ", " << idx << ", "
                 << (kTableWords - 1) * 4 << "\n";
            out_ << "    add a7, a7, " << idx << "\n";
            out_ << "    lw " << pool() << ", 0(a7)\n";
        }
    }

    /** Call one of the program's shared leaf helpers: two pool values
     *  in, one result out. Calls may sit inside split regions — the
     *  helpers are barrier-free, which is exactly the case the
     *  analyzer's call-site divergence check must accept. */
    void
    callOp()
    {
        out_ << "    mv a0, " << pool() << "\n";
        out_ << "    mv a1, " << pool() << "\n";
        out_ << "    call fuzz_fn" << r_.nextBounded(fnCount_) << "\n";
        out_ << "    mv " << pool() << ", a0\n";
    }

    /** Balanced divergence: split on a data-dependent predicate, run the
     *  then-block (and optionally an else-block), join. The predicate
     *  lives in a7, which is dead again right after the branch. */
    void
    splitBlock(uint32_t budget, int depth)
    {
        out_ << "    andi a7, " << pool() << ", 1\n";
        out_ << "    vx_split a7\n";
        if (r_.nextBounded(2)) { // one-sided
            std::string join = label();
            out_ << "    beqz a7, " << join << "\n";
            ops(budget, depth + 1, false);
            out_ << join << ":\n";
        } else { // two-sided
            std::string els = label();
            std::string end = label();
            uint32_t thenOps = 1 + r_.nextBounded(budget);
            out_ << "    beqz a7, " << els << "\n";
            ops(thenOps, depth + 1, false);
            out_ << "    j " << end << "\n";
            out_ << els << ":\n";
            ops(budget, depth + 1, false);
            out_ << end << ":\n";
        }
        out_ << "    vx_join\n";
    }

    /** One bounded loop with a uniform trip count in t6, optionally
     *  wrapping a nested inner loop counted in s1 (callee-saved, so the
     *  task frame preserves it for the runtime). At most one outer loop
     *  per task (t6/s1 are the only counter registers) and only at top
     *  level; trip counts are compile-time constants, so the backward
     *  branches are uniform across the wavefront. */
    void
    loopBlock(uint32_t budget, int depth)
    {
        std::string head = label();
        out_ << "    li t6, " << 2 + r_.nextBounded(3) << "\n";
        out_ << head << ":\n";
        if (budget >= 4 && r_.nextBounded(2)) {
            uint32_t innerBudget = 1 + r_.nextBounded(budget - 3);
            ops(budget - innerBudget - 1, depth + 1, false);
            std::string inner = label();
            out_ << "    li s1, " << 2 + r_.nextBounded(2) << "\n";
            out_ << inner << ":\n";
            ops(innerBudget, depth + 1, false);
            out_ << "    addi s1, s1, -1\n";
            out_ << "    bnez s1, " << inner << "\n";
        } else {
            ops(budget, depth + 1, false);
        }
        out_ << "    addi t6, t6, -1\n";
        out_ << "    bnez t6, " << head << "\n";
    }

    /** Emit @p count random operations at @p depth (split nesting). */
    void
    ops(uint32_t count, int depth, bool allowLoop)
    {
        while (count > 0) {
            uint32_t kind = r_.nextBounded(14);
            if (kind >= 12 && count >= 4 && depth < 2) {
                uint32_t inner = 1 + r_.nextBounded(count - 2);
                if (kind == 13 && allowLoop && depth == 0 &&
                    !loopEmitted_) {
                    loopEmitted_ = true;
                    loopBlock(inner, depth);
                } else {
                    splitBlock(inner, depth);
                }
                count -= inner + 1;
                continue;
            }
            switch (kind % 7) {
            case 0:
            case 1: aluOp(); break;
            case 2: aluImmOp(); break;
            case 3: fpOp(); break;
            case 4: rodataOp(); break;
            case 5:
                if (fnCount_ > 0)
                    callOp();
                else
                    aluOp();
                break;
            default: r_.nextBounded(2) ? loadOp() : storeOp(); break;
            }
            --count;
        }
    }

    Xorshift& r_;
    const GenOptions& opts_;
    std::ostringstream& out_;
    uint32_t task_;
    uint32_t fnCount_;
    uint32_t loadMask_;
    uint32_t idMask_;
    uint32_t slotBase_;
    int label_ = 0;
    bool loopEmitted_ = false;
};

/** One barrier-free leaf helper: a0/a1 in, a0 out, t0-t2 scratch. The
 *  body is a short random ALU chain seeded from the arguments so no
 *  path reads an undefined register. */
void
emitLeafFn(Xorshift& r, std::ostringstream& out, uint32_t idx)
{
    out << "fuzz_fn" << idx << ":\n";
    out << "    add t0, a0, a1\n";
    out << "    xor t1, a0, t0\n";
    static const char* const kOps[] = {"add", "sub", "xor", "or",
                                       "and", "mul"};
    static const char* const kRegs[] = {"t0", "t1", "t2", "a0", "a1"};
    out << "    " << kOps[r.nextBounded(6)] << " t2, t0, t1\n";
    uint32_t n = 1 + r.nextBounded(4);
    for (uint32_t i = 0; i < n; ++i)
        out << "    " << kOps[r.nextBounded(6)] << " "
            << kRegs[r.nextBounded(3)] << ", " << kRegs[r.nextBounded(5)]
            << ", " << kRegs[r.nextBounded(5)] << "\n";
    out << "    add a0, t0, t1\n";
    out << "    ret\n";
}

} // namespace

GeneratedKernel
generateKernel(uint64_t seed, const GenOptions& opts)
{
    Xorshift r(seed);
    GeneratedKernel k;
    k.scratchWords = opts.scratchWords;
    // Unique private slot per task id: ids beyond scratchWords/4 would
    // alias a sibling's slot and reintroduce a store-store race.
    uint32_t maxTasks = std::min(opts.maxTasks, opts.scratchWords / 4);
    k.numTasks = 1 + r.nextBounded(maxTasks);
    uint32_t rounds = 1 + r.nextBounded(2);
    uint32_t fnCount = r.nextBounded(3);

    std::ostringstream out;
    out << "# fuzz seed " << seed << ": " << k.numTasks << " task(s), "
        << rounds << " spawn round(s), " << fnCount << " leaf fn(s)\n";
    out << "main:\n";
    out << "    addi sp, sp, -16\n";
    out << "    sw ra, 12(sp)\n";
    out << "    sw s0, 8(sp)\n";
    out << "    mv s0, a0\n";
    for (uint32_t i = 0; i < rounds; ++i) {
        out << "    lw a0, 0(s0)\n";
        out << "    la a1, fuzz_task" << i << "\n";
        out << "    mv a2, s0\n";
        out << "    call spawn_tasks\n";
    }
    out << "    lw s0, 8(sp)\n";
    out << "    lw ra, 12(sp)\n";
    out << "    addi sp, sp, 16\n";
    out << "    ret\n\n";
    for (uint32_t i = 0; i < rounds; ++i) {
        TaskGen(r, opts, out, i, fnCount)
            .emit("fuzz_task" + std::to_string(i));
        out << "\n";
    }
    for (uint32_t i = 0; i < fnCount; ++i) {
        emitLeafFn(r, out, i);
        out << "\n";
    }
    // The shared read-only table the rodata load shapes index into.
    out << ".rodata\n";
    out << ".align 2\n";
    out << "fuzz_table:\n";
    for (uint32_t i = 0; i < kTableWords; ++i)
        out << "    .word 0x" << std::hex
            << static_cast<uint32_t>(r.next()) << std::dec << "\n";
    k.source = out.str();
    return k;
}

core::ArchConfig
fuzzConfig()
{
    core::ArchConfig c;
    c.numCores = 2;
    c.numWarps = 2;
    c.numThreads = 4;
    return c;
}

namespace {

struct RunOutcome
{
    uint64_t cycles = 0;
    uint64_t threadInstrs = 0;
    std::vector<uint32_t> scratch;
};

} // namespace

FuzzResult
runDifferential(uint64_t seed, const core::ArchConfig& base,
                const GenOptions& opts)
{
    FuzzResult res;
    GeneratedKernel k = generateKernel(seed, opts);
    res.source = k.source;
    const std::string unit = "<fuzz:" + std::to_string(seed) + ">";

    auto runOne = [&](bool parallel, RunOutcome* out) -> bool {
        const char* backend = parallel ? "parallel" : "serial";
        core::ArchConfig cfg = base;
        cfg.parallelTick = parallel;
        cfg.tickThreads = parallel ? 2 : 0;
        try {
            runtime::Device dev(cfg);
            dev.uploadKernel(kernels::Guest{unit, {{unit, k.source}}});
            analysis::Report rep = dev.verify();
            if (!rep.clean()) {
                std::ostringstream os;
                os << "analyzer flagged the generated program ("
                   << rep.errors() << " error(s), " << rep.warnings()
                   << " warning(s)):\n";
                rep.print(os, &dev.program());
                res.detail = os.str();
                return false;
            }
            Addr scratch = dev.memAlloc(k.scratchWords * 4);
            std::vector<uint32_t> init(k.scratchWords);
            Xorshift mem(seed ^ 0xA3EC59D17B4F0E25ull);
            for (uint32_t& w : init)
                w = static_cast<uint32_t>(mem.next());
            dev.copyToDev(scratch, init.data(), init.size() * 4);
            const uint32_t args[2] = {k.numTasks,
                                      static_cast<uint32_t>(scratch)};
            dev.setKernelArg(args, sizeof(args));
            dev.start();
            if (!dev.readyWait(50000000ull)) {
                res.detail = std::string("timeout on the ") + backend +
                             " backend (50M cycles)";
                return false;
            }
            out->cycles = dev.cycles();
            out->threadInstrs = dev.processor().threadInstrs();
            out->scratch.resize(k.scratchWords);
            dev.copyFromDev(out->scratch.data(), scratch,
                            k.scratchWords * 4);
            return true;
        } catch (const FatalError& e) {
            res.detail = std::string("fatal error on the ") + backend +
                         " backend: " + e.what();
            return false;
        }
    };

    RunOutcome serial, par;
    if (!runOne(false, &serial) || !runOne(true, &par))
        return res;

    res.cycles = serial.cycles;
    res.threadInstrs = serial.threadInstrs;
    std::ostringstream os;
    if (serial.cycles != par.cycles)
        os << "cycles diverge: serial " << serial.cycles << " vs parallel "
           << par.cycles << "\n";
    if (serial.threadInstrs != par.threadInstrs)
        os << "thread instrs diverge: serial " << serial.threadInstrs
           << " vs parallel " << par.threadInstrs << "\n";
    for (uint32_t i = 0; i < k.scratchWords; ++i) {
        if (serial.scratch[i] != par.scratch[i]) {
            os << "scratch[" << i << "] diverges: serial 0x" << std::hex
               << serial.scratch[i] << " vs parallel 0x" << par.scratch[i]
               << std::dec << "\n";
            break; // first mismatch is enough to pin the failure
        }
    }
    res.detail = os.str();
    res.ok = res.detail.empty();
    return res;
}

} // namespace vortex::fuzz
