/**
 * @file
 * The Vortex native runtime (paper §5.3) in RISC-V assembly: crt0 with
 * per-thread stack setup, the core-local control block in scratchpad
 * memory, and spawn_tasks — the pocl_spawn equivalent that distributes
 * task ids across every hardware thread of every core using wspawn, tmc,
 * split/join, and a local barrier.
 *
 * Register conventions inside the runtime:
 *  - t6 is the link register for the leaf helpers (__set_sp, __smem_base)
 *    so they can run before a stack exists;
 *  - s10 preserves the caller's ra across spawn_tasks (the stack pointer is
 *    re-derived when the thread mask widens, so ra cannot live on the
 *    stack there);
 *  - task functions receive (a0 = task id, a1 = user argument) and may
 *    clobber t- and a-registers; s-registers they use must be saved.
 */

#include "kernels/kernels.h"

namespace vortex::kernels {

namespace {

constexpr const char* kRuntimeUnit = "<runtime>";

/** Run @p assemble over the runtime + kernel units, blaming a missing
 *  `main` on the kernel. */
template <typename Assemble>
auto
withRuntime(const std::string& name, const std::string& source,
            Assemble assemble)
{
    try {
        return assemble(std::vector<isa::SourceUnit>{
            {kRuntimeUnit, runtimeSource()}, {name, source}});
    } catch (const isa::AsmError& e) {
        if (e.file() != kRuntimeUnit ||
            e.message() != "undefined symbol 'main'")
            throw;
        throw isa::AsmError(name, 1, 1,
                            "undefined symbol 'main': the native runtime "
                            "calls it, so the kernel must define it");
    }
}

} // namespace

isa::Program
assembleWithRuntime(isa::Assembler& as, const std::string& name,
                    const std::string& source)
{
    return withRuntime(name, source, [&](const auto& units) {
        return as.assembleUnits(units);
    });
}

isa::ObjectFile
assembleObjectWithRuntime(isa::Assembler& as, const std::string& name,
                          const std::string& source)
{
    return withRuntime(name, source, [&](const auto& units) {
        return as.assembleObject(units);
    });
}

const char*
runtimeSource()
{
    return R"(
# ---------------------------------------------------------------- runtime.s
.equ CSR_TID,   0xCC0
.equ CSR_WID,   0xCC1
.equ CSR_CID,   0xCC2
.equ CSR_NT,    0xFC0
.equ CSR_NW,    0xFC1
.equ CSR_NC,    0xFC2
.equ ARG_ADDR,  0x10000
.equ STACK_BASE, 0xFEFF0000
.equ STACK_LOG2, 12
.equ SMEM_BASE, 0xFF000000
.equ SMEM_STRIDE_LOG2, 16

# Entry point: every core starts wavefront 0 / thread 0 here.
_start:
    jal t6, __set_sp
    li a0, ARG_ADDR
    call main
    li t0, 0
    vx_tmc t0                 # retire this wavefront

# __set_sp: per-thread stack pointer from the SIMT identification CSRs.
# sp = STACK_BASE - ((((cid*NW)+wid)*NT)+tid) << STACK_LOG2
# Leaf helper: link in t6, clobbers t0/t1.
__set_sp:
    csrr t0, CSR_CID
    csrr t1, CSR_NW
    mul t0, t0, t1
    csrr t1, CSR_WID
    add t0, t0, t1
    csrr t1, CSR_NT
    mul t0, t0, t1
    csrr t1, CSR_TID
    add t0, t0, t1
    slli t0, t0, STACK_LOG2
    li sp, STACK_BASE
    sub sp, sp, t0
    jr t6

# __smem_base: t2 = this core's scratchpad window.
# Leaf helper: link in t6, clobbers t0.
__smem_base:
    csrr t0, CSR_CID
    slli t0, t0, SMEM_STRIDE_LOG2
    li t2, SMEM_BASE
    add t2, t2, t0
    jr t6

# spawn_tasks(a0 = num_tasks, a1 = func, a2 = arg)
# Runs func(id, arg) for id = 0..num_tasks-1 distributed over all hardware
# threads of all cores (this core contributes its slice). Returns with a
# single active thread, after all wavefronts of this core synchronized.
spawn_tasks:
    mv s10, ra
    # Publish the control block to the core-local scratchpad so spawned
    # wavefronts (which start with cleared registers) can pick it up.
    jal t6, __smem_base
    sw a0, 0(t2)
    sw a1, 4(t2)
    sw a2, 8(t2)
    # Activate all wavefronts of this core at __spawn_entry.
    csrr t0, CSR_NW
    la t1, __spawn_entry
    vx_wspawn t0, t1
    # Wavefront 0 joins the work with all threads enabled. Only the newly
    # woken threads get a fresh stack pointer — thread 0 must keep its
    # current frame (main's frame lives on its stack).
    csrr t0, CSR_NT
    vx_tmc t0
    csrr t0, CSR_TID
    snez t0, t0
    vx_split t0
    beqz t0, .Lst_spdone
    jal t6, __set_sp
.Lst_spdone:
    vx_join
    jal t6, __smem_base
    lw a0, 0(t2)
    lw a1, 4(t2)
    lw a2, 8(t2)
    call __spawn_work
    # Synchronize every wavefront of this core.
    li t0, 0
    csrr t1, CSR_NW
    vx_bar t0, t1
    # Back to a single thread for the sequential epilogue.
    li t0, 1
    vx_tmc t0
    mv ra, s10
    ret

# Spawned wavefronts start here with thread 0 active and cleared registers.
__spawn_entry:
    csrr t0, CSR_NT
    vx_tmc t0
    jal t6, __set_sp
    jal t6, __smem_base
    lw a0, 0(t2)
    lw a1, 4(t2)
    lw a2, 8(t2)
    call __spawn_work
    li t0, 0
    csrr t1, CSR_NW
    vx_bar t0, t1
    li t0, 0
    vx_tmc t0                 # spawned wavefront retires

# __spawn_work(a0 = num_tasks, a1 = func, a2 = arg)
# Grid-stride loop over global thread ids; the tail is handled with
# split/join so partially-active iterations stay SIMT-safe.
__spawn_work:
    addi sp, sp, -32
    sw ra, 28(sp)
    sw s3, 24(sp)
    sw s4, 20(sp)
    sw s5, 16(sp)
    sw s6, 12(sp)
    sw s7, 8(sp)
    mv s7, a0                 # num_tasks
    mv s5, a1                 # func
    mv s6, a2                 # arg
    # s3 = global thread id
    csrr t0, CSR_CID
    csrr t1, CSR_NW
    mul t0, t0, t1
    csrr t1, CSR_WID
    add t0, t0, t1
    csrr t1, CSR_NT
    mul t0, t0, t1
    csrr t1, CSR_TID
    add s3, t0, t1
    # s4 = total hardware threads = NC * NW * NT
    csrr t0, CSR_NC
    csrr t1, CSR_NW
    mul t0, t0, t1
    csrr t1, CSR_NT
    mul s4, t0, t1
.Lsw_loop:
    # Lane 0 holds the smallest id of this wavefront, so a uniform branch
    # on it is a safe loop exit.
    bge s3, s7, .Lsw_done
    slt t0, s3, s7
    vx_split t0
    beqz t0, .Lsw_skip
    mv a0, s3
    mv a1, s6
    jalr s5
.Lsw_skip:
    vx_join
    add s3, s3, s4
    j .Lsw_loop
.Lsw_done:
    lw ra, 28(sp)
    lw s3, 24(sp)
    lw s4, 20(sp)
    lw s5, 16(sp)
    lw s6, 12(sp)
    lw s7, 8(sp)
    addi sp, sp, 32
    ret

# global_barrier: synchronize wavefront 0 of every core (used by iterative
# kernels between phases). Clobbers t0/t1.
global_barrier:
    li t0, 1
    slli t0, t0, 31           # global-scope bit
    ori t0, t0, 1             # barrier id 1
    csrr t1, CSR_NC           # one wavefront arrives per core
    vx_bar t0, t1
    ret
# --------------------------------------------------------------------------
)";
}

} // namespace vortex::kernels
