# stress_bank: bank-conflict stress shape. 64 tasks each write a
# 16-element column of a 16x64 matrix in column-major strided order —
# task i stores to data[j*64 + i] for j = 0..15, so every wavefront
# issues maximally-conflicting same-cycle accesses with a 256-byte
# stride. Writes stay task-unique: cell (j, i) holds i*16 + j.
#
# Harness-free workload: no C++ twin and no host-side verification.
# The guest verifies every cell and reports through the self-check
# mailbox (docs/TOOLCHAIN.md):
#   PASS 0x50415353 / FAIL 0x4641494C -> 0x10FF8, detail -> 0x10FFC.
# Run via `[workload] program = "examples/kernels/stress_bank.s"`
# with `check = "selfcheck"`.

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    sw s0, 8(sp)
    mv s0, a0                 # kernel-arg page (zeroed at start)
    li a0, 64
    la a1, sbank_task
    mv a2, s0
    call spawn_tasks
    call global_barrier
    # self-check (core 0): data[j*64+i] == i*16 + j
    csrr t0, 0xCC2
    bnez t0, .Lsk_exit
    li t1, 0x10000000
    li t2, 0                  # j (row)
    li t3, 16
    li a4, 64
.Lsk_jloop:
    li a2, 0                  # i (column)
.Lsk_iloop:
    lw t4, 0(t1)
    slli t5, a2, 4
    add t5, t5, t2            # expected i*16 + j
    bne t4, t5, .Lsk_fail
    addi t1, t1, 4
    addi a2, a2, 1
    blt a2, a4, .Lsk_iloop
    addi t2, t2, 1
    blt t2, t3, .Lsk_jloop
    li t4, 0x50415353         # "PASS"
    li t5, 0x10FF8
    sw t4, 0(t5)
    j .Lsk_exit
.Lsk_fail:
    li t4, 0x4641494C         # "FAIL"
    li t5, 0x10FF8
    sw t4, 0(t5)
    # detail: linear index of the first bad cell
    slli t6, t2, 6
    add t6, t6, a2
    sw t6, 4(t5)
.Lsk_exit:
    lw ra, 12(sp)
    lw s0, 8(sp)
    addi sp, sp, 16
    ret

sbank_task:                   # a0 = column i, a1 = args
    li t0, 0x10000000
    slli t1, a0, 2
    add t0, t0, t1            # &data[0*64 + i]
    slli t2, a0, 4            # i*16
    li t3, 0                  # j
    li t4, 16
.Lsb_loop:
    add t5, t2, t3            # i*16 + j
    sw t5, 0(t0)
    addi t0, t0, 256          # next row (64 words)
    addi t3, t3, 1
    blt t3, t4, .Lsb_loop
    ret
