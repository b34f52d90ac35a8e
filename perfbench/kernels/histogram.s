# histogram: 16-bin histogram of 256 values with the shared-memory
# approximation pattern: phase 1 writes values[i] = (i*7+3) mod 16 and
# zeroes the partial tables, phase 2 has 16 tasks each accumulate a
# private 16-bin partial over a contiguous chunk (data-dependent store
# addresses, no divergence), phase 3 merges one bin per task. Every
# residue appears exactly 16 times, so all bins must equal 16.
#
# Harness-free workload: no C++ twin and no host-side verification.
# The guest verifies all 16 bins and reports through the self-check
# mailbox (docs/TOOLCHAIN.md):
#   PASS 0x50415353 / FAIL 0x4641494C -> 0x10FF8, detail -> 0x10FFC.
# Run via `[workload] program = "examples/kernels/histogram.s"` with
# `check = "selfcheck"`.
#
# Heap layout: values @ 0x10000000 (256 words), partials @ 0x10000400
# (16 tasks x 16 bins), hist @ 0x10000800 (16 words).

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    sw s0, 8(sp)
    mv s0, a0                 # kernel-arg page (zeroed at start)
    # phase 1: values[i] = (i*7+3) mod 16; partials[i] = 0
    li a0, 256
    la a1, hist_init
    mv a2, s0
    call spawn_tasks
    call global_barrier
    # phase 2: per-task private partial histograms
    li a0, 16
    la a1, hist_partial
    mv a2, s0
    call spawn_tasks
    call global_barrier
    # phase 3: merge one bin per task
    li a0, 16
    la a1, hist_merge
    mv a2, s0
    call spawn_tasks
    call global_barrier
    # self-check (core 0): every bin holds exactly 16
    csrr t0, 0xCC2
    bnez t0, .Lhi_exit
    li t1, 0x10000800         # hist
    li t2, 0                  # bin
    li t3, 16
.Lhi_vloop:
    lw t4, 0(t1)
    bne t4, t3, .Lhi_fail
    addi t1, t1, 4
    addi t2, t2, 1
    blt t2, t3, .Lhi_vloop
    li t4, 0x50415353         # "PASS"
    li t5, 0x10FF8
    sw t4, 0(t5)
    j .Lhi_exit
.Lhi_fail:
    li t4, 0x4641494C         # "FAIL"
    li t5, 0x10FF8
    sw t4, 0(t5)
    sw t2, 4(t5)              # detail: first bad bin
.Lhi_exit:
    lw ra, 12(sp)
    lw s0, 8(sp)
    addi sp, sp, 16
    ret

hist_init:                    # a0 = i, a1 = args
    li t0, 7
    mul t0, a0, t0
    addi t0, t0, 3
    andi t0, t0, 15
    li t1, 0x10000000
    slli t2, a0, 2
    add t3, t1, t2
    sw t0, 0(t3)              # values[i]
    li t1, 0x10000400
    add t3, t1, t2
    sw zero, 0(t3)            # partials[i] = 0
    ret

hist_partial:                 # a0 = chunk index t, a1 = args
    slli t0, a0, 6            # t*16 words = t*64 bytes
    li t1, 0x10000000
    add t1, t1, t0            # &values[t*16]
    li t2, 0x10000400
    add t2, t2, t0            # &partials[t*16]
    li t3, 0                  # n
    li t4, 16
.Lhp_loop:
    lw t5, 0(t1)              # v = values[t*16+n]
    slli t5, t5, 2
    add t5, t5, t2            # &partials[t*16+v]
    lw t6, 0(t5)
    addi t6, t6, 1
    sw t6, 0(t5)
    addi t1, t1, 4
    addi t3, t3, 1
    blt t3, t4, .Lhp_loop
    ret

hist_merge:                   # a0 = bin b, a1 = args
    li t0, 0x10000400
    slli t1, a0, 2
    add t0, t0, t1            # &partials[0*16+b]
    li t2, 0                  # sum
    li t3, 0                  # t
    li t4, 16
.Lhm_loop:
    lw t5, 0(t0)
    add t2, t2, t5
    addi t0, t0, 64           # next task's partial row
    addi t3, t3, 1
    blt t3, t4, .Lhm_loop
    li t0, 0x10000800
    add t0, t0, t1
    sw t2, 0(t0)              # hist[b]
    ret
