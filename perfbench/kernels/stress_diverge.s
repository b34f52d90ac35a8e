# stress_diverge: divergence-ladder stress shape. Each of 64 tasks
# walks a ladder of vx_split/vx_join regions keyed on its id bits —
# one nested pair (bit 0 guarding bit 1) and one sequential region
# (bit 2) — accumulating a result with a closed form the guest can
# recompute branchlessly:
#   r(id) = (id&4) + (id&1 ? 1 + (id&2) : 0)
# Exercises the IPDOM stack at depth 2 under the task mask.
#
# Harness-free workload: no C++ twin and no host-side verification.
# The guest verifies every result and reports through the self-check
# mailbox (docs/TOOLCHAIN.md):
#   PASS 0x50415353 / FAIL 0x4641494C -> 0x10FF8, detail -> 0x10FFC.
# Run via `[workload] program = "examples/kernels/stress_diverge.s"`
# with `check = "selfcheck"`.

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    sw s0, 8(sp)
    mv s0, a0                 # kernel-arg page (zeroed at start)
    li a0, 64
    la a1, sdiv_task
    mv a2, s0
    call spawn_tasks
    call global_barrier
    # self-check (core 0): results[id] == (id&4) + (id&1 ? 1+(id&2) : 0)
    csrr t0, 0xCC2
    bnez t0, .Lsd_exit
    li t1, 0x10000000
    li t2, 0                  # id
    li t3, 64
.Lsd_vloop:
    lw t4, 0(t1)
    # branchless expected value
    andi t5, t2, 1
    sub t6, zero, t5          # all-ones when bit 0 set
    andi a2, t2, 2
    and a2, a2, t6
    add t5, t5, a2            # (id&1 ? 1 + (id&2) : 0)
    andi a3, t2, 4
    add t5, t5, a3
    bne t4, t5, .Lsd_fail
    addi t1, t1, 4
    addi t2, t2, 1
    blt t2, t3, .Lsd_vloop
    li t4, 0x50415353         # "PASS"
    li t5, 0x10FF8
    sw t4, 0(t5)
    j .Lsd_exit
.Lsd_fail:
    li t4, 0x4641494C         # "FAIL"
    li t5, 0x10FF8
    sw t4, 0(t5)
    sw t2, 4(t5)              # detail: first bad id
.Lsd_exit:
    lw ra, 12(sp)
    lw s0, 8(sp)
    addi sp, sp, 16
    ret

sdiv_task:                    # a0 = id, a1 = args
    li t0, 0                  # r
    andi t1, a0, 1
    vx_split t1
    beqz t1, .Lsd_b0
    addi t0, t0, 1
    andi t2, a0, 2
    vx_split t2               # nested: only bit-0 threads get here
    beqz t2, .Lsd_b1
    addi t0, t0, 2
.Lsd_b1:
    vx_join
.Lsd_b0:
    vx_join
    andi t3, a0, 4
    vx_split t3
    beqz t3, .Lsd_b2
    addi t0, t0, 4
.Lsd_b2:
    vx_join
    li t4, 0x10000000
    slli t5, a0, 2
    add t4, t4, t5
    sw t0, 0(t4)              # results[id]
    ret
