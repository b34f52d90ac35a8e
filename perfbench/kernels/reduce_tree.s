# reduce_tree: tree reduction of 256 int32 values. The init phase
# writes data[i] = 3*i + 1; each level halves the active range with
# data[i] += data[i+s] (one task per destination, task-unique writes),
# with global barriers between levels. The final sum lands in data[0].
#
# Harness-free workload: no C++ twin and no host-side verification.
# The guest checks data[0] against the closed form
# sum(3*i+1, i=0..255) = 98176 and reports through the self-check
# mailbox (docs/TOOLCHAIN.md):
#   PASS 0x50415353 / FAIL 0x4641494C -> 0x10FF8, detail -> 0x10FFC.
# Run via `[workload] program = "examples/kernels/reduce_tree.s"` with
# `check = "selfcheck"`.

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    sw s0, 8(sp)
    sw s1, 4(sp)
    mv s0, a0                 # kernel-arg page (zeroed at start)
    # init: data[i] = 3*i + 1
    li a0, 256
    la a1, reduce_init
    mv a2, s0
    call spawn_tasks
    li s1, 128                # s: active-range half-width
.Lrt_level:
    sw s1, 8(s0)              # publish s (same value from every core)
    call global_barrier       # prior level done, publish visible
    mv a0, s1                 # one task per destination
    la a1, reduce_task
    mv a2, s0
    call spawn_tasks
    call global_barrier       # level done before the next publish
    srli s1, s1, 1
    bnez s1, .Lrt_level
    # self-check (core 0): data[0] must hold the closed-form sum
    csrr t0, 0xCC2
    bnez t0, .Lrt_exit
    li t1, 0x10000000
    lw t2, 0(t1)
    li t3, 98176
    li t5, 0x10FF8
    bne t2, t3, .Lrt_fail
    li t4, 0x50415353         # "PASS"
    sw t4, 0(t5)
    j .Lrt_exit
.Lrt_fail:
    li t4, 0x4641494C         # "FAIL"
    sw t4, 0(t5)
    sw t2, 4(t5)              # detail: the bad sum
.Lrt_exit:
    lw ra, 12(sp)
    lw s0, 8(sp)
    lw s1, 4(sp)
    addi sp, sp, 16
    ret

reduce_init:                  # a0 = i, a1 = args
    slli t0, a0, 1
    add t0, t0, a0            # 3*i
    addi t0, t0, 1
    li t1, 0x10000000
    slli t2, a0, 2
    add t1, t1, t2
    sw t0, 0(t1)
    ret

reduce_task:                  # a0 = i, a1 = args
    lw t0, 8(a1)              # s
    li t1, 0x10000000
    slli t2, a0, 2
    add t2, t2, t1            # &data[i]
    add t3, a0, t0
    slli t3, t3, 2
    add t3, t3, t1            # &data[i+s]
    lw t4, 0(t2)
    lw t5, 0(t3)
    add t4, t4, t5
    sw t4, 0(t2)
    ret
