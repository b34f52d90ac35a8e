# bitonic: sorting network over 64 int32 keys in the device heap. The
# init phase scatters the permutation (i*37+11) mod 64; each (k, j)
# stage runs one compare-exchange task per pair with a branchless
# min/max + direction select (no divergence), with global barriers
# keeping the stages in lockstep across cores.
#
# Harness-free workload: no C++ twin and no host-side verification.
# The guest checks its own result (sorted output must equal 0..63) and
# reports through the self-check mailbox (docs/TOOLCHAIN.md):
#   PASS 0x50415353 / FAIL 0x4641494C -> 0x10FF8, detail -> 0x10FFC.
# Run via `[workload] program = "examples/kernels/bitonic.s"` with
# `check = "selfcheck"`.

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    sw s0, 8(sp)
    sw s1, 4(sp)
    sw s2, 0(sp)
    mv s0, a0                 # kernel-arg page (zeroed at start)
    # init: data[i] = (i*37 + 11) mod 64, a permutation of 0..63
    li a0, 64
    la a1, bitonic_init
    mv a2, s0
    call spawn_tasks
    li s1, 2                  # k: size of the merged runs
.Lbi_kloop:
    srli s2, s1, 1            # j: compare-exchange distance
.Lbi_jloop:
    sw s1, 8(s0)              # publish k (same value from every core)
    sw s2, 12(s0)             # publish j
    call global_barrier       # prior stage done, publish visible
    li a0, 32                 # one task per pair
    la a1, bitonic_task
    mv a2, s0
    call spawn_tasks
    call global_barrier       # stage done before the next publish
    srli s2, s2, 1
    bnez s2, .Lbi_jloop
    slli s1, s1, 1
    li t0, 64
    bge t0, s1, .Lbi_kloop
    # self-check (core 0): sorted ascending means data[i] == i
    csrr t0, 0xCC2
    bnez t0, .Lbi_exit
    li t1, 0x10000000         # data
    li t2, 0                  # i
    li t3, 64
.Lbi_vloop:
    lw t4, 0(t1)
    bne t4, t2, .Lbi_fail
    addi t1, t1, 4
    addi t2, t2, 1
    blt t2, t3, .Lbi_vloop
    li t4, 0x50415353         # "PASS"
    li t5, 0x10FF8
    sw t4, 0(t5)
    j .Lbi_exit
.Lbi_fail:
    li t4, 0x4641494C         # "FAIL"
    li t5, 0x10FF8
    sw t4, 0(t5)
    sw t2, 4(t5)              # detail: first out-of-place index
.Lbi_exit:
    lw ra, 12(sp)
    lw s0, 8(sp)
    lw s1, 4(sp)
    lw s2, 0(sp)
    addi sp, sp, 16
    ret

bitonic_init:                 # a0 = i, a1 = args
    li t0, 37
    mul t0, a0, t0
    addi t0, t0, 11
    andi t0, t0, 63
    li t1, 0x10000000
    slli t2, a0, 2
    add t1, t1, t2
    sw t0, 0(t1)
    ret

bitonic_task:                 # a0 = pair index p, a1 = args
    lw t0, 8(a1)              # k
    lw t1, 12(a1)             # j
    # i = ((p & ~(j-1)) << 1) | (p & (j-1)); partner = i | j
    addi t2, t1, -1
    and t3, a0, t2            # low bits
    xor t4, a0, t3            # high bits
    slli t4, t4, 1
    or t4, t4, t3             # i
    or t5, t4, t1             # partner
    li t6, 0x10000000
    slli a2, t4, 2
    add a2, a2, t6            # &data[i]
    slli a3, t5, 2
    add a3, a3, t6            # &data[partner]
    lw a4, 0(a2)
    lw a5, 0(a3)
    # branchless min/max
    slt a6, a5, a4
    sub a6, zero, a6          # all-ones when out of order
    xor a7, a4, a5
    and a7, a7, a6
    xor t2, a4, a7            # min
    xor t3, a5, a7            # max
    # descending run when (i & k) != 0: swap the two outputs
    and t0, t4, t0
    sltu t0, zero, t0
    sub t0, zero, t0          # all-ones when descending
    xor t1, t2, t3
    and t1, t1, t0
    xor t2, t2, t1            # value for data[i]
    xor t3, t3, t1            # value for data[partner]
    sw t2, 0(a2)
    sw t3, 0(a3)
    ret
