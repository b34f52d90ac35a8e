# stress_barrier: barrier-heavy stress shape. 32 rounds, each of which
# publishes the round number, global-barriers, spawns 16 accumulate
# tasks (counter[i] += round, task-unique writes), and global-barriers
# again — 64 barrier crossings total. Every counter must end at
# sum(1..32) = 528, which a single dropped round or a publish/read
# race would break.
#
# Harness-free workload: no C++ twin and no host-side verification.
# The guest verifies the counters and reports through the self-check
# mailbox (docs/TOOLCHAIN.md):
#   PASS 0x50415353 / FAIL 0x4641494C -> 0x10FF8, detail -> 0x10FFC.
# Run via `[workload] program = "examples/kernels/stress_barrier.s"`
# with `check = "selfcheck"`.

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    sw s0, 8(sp)
    sw s1, 4(sp)
    mv s0, a0                 # kernel-arg page (zeroed at start)
    # init: counter[i] = 0
    li a0, 16
    la a1, sbar_init
    mv a2, s0
    call spawn_tasks
    li s1, 1                  # round
.Lsb_round:
    sw s1, 8(s0)              # publish round (same value everywhere)
    call global_barrier       # prior round done, publish visible
    li a0, 16
    la a1, sbar_task
    mv a2, s0
    call spawn_tasks
    call global_barrier       # round done before the next publish
    addi s1, s1, 1
    li t0, 32
    bge t0, s1, .Lsb_round
    # self-check (core 0): counter[i] == 528 for all i
    csrr t0, 0xCC2
    bnez t0, .Lsb_exit
    li t1, 0x10000000
    li t2, 0                  # i
    li t3, 16
    li t6, 528
.Lsb_vloop:
    lw t4, 0(t1)
    bne t4, t6, .Lsb_fail
    addi t1, t1, 4
    addi t2, t2, 1
    blt t2, t3, .Lsb_vloop
    li t4, 0x50415353         # "PASS"
    li t5, 0x10FF8
    sw t4, 0(t5)
    j .Lsb_exit
.Lsb_fail:
    li t4, 0x4641494C         # "FAIL"
    li t5, 0x10FF8
    sw t4, 0(t5)
    sw t2, 4(t5)              # detail: first bad counter index
.Lsb_exit:
    lw ra, 12(sp)
    lw s0, 8(sp)
    lw s1, 4(sp)
    addi sp, sp, 16
    ret

sbar_init:                    # a0 = i, a1 = args
    li t0, 0x10000000
    slli t1, a0, 2
    add t0, t0, t1
    sw zero, 0(t0)
    ret

sbar_task:                    # a0 = i, a1 = args
    lw t0, 8(a1)              # round
    li t1, 0x10000000
    slli t2, a0, 2
    add t1, t1, t2
    lw t3, 0(t1)
    add t3, t3, t0
    sw t3, 0(t1)
    ret
