# bfs: level-synchronous frontier BFS over a CSR graph. Nested split/join
# handles the three divergence levels (frontier membership, edge bound,
# unvisited neighbor). Cores synchronize per level with global barriers.
#
# Checked-in twin of the built-in kernel (src/kernels/rodinia.cpp,
# kernels::bfs). Loaded through the assemble -> object -> load
# pipeline via `[workload] program = "examples/kernels/bfs.s"`;
# tests/test_toolchain.cpp pins it bit-identical (cycles, instrs,
# output) to the registry original. Runs against the native runtime
# (crt0 + spawn_tasks); argument layout is runtime/kargs.h BfsArgs.

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    sw s0, 8(sp)
    sw s1, 4(sp)
    sw s2, 0(sp)
    mv s0, a0
    li s1, 0                  # current level
.Lbf_level:
    sw s1, 24(s0)             # publish curLevel (same from every core)
    csrr t0, 0xCC2
    bnez t0, .Lbf_noreset
    lw t1, 20(s0)
    sw zero, 0(t1)            # core 0 clears the changed flag
.Lbf_noreset:
    call global_barrier
    lw a0, 0(s0)
    la a1, bfs_step
    mv a2, s0
    call spawn_tasks
    call global_barrier
    lw t1, 20(s0)
    lw t1, 0(t1)
    mv s2, t1
    # Every core must sample `changed` before core 0 clears it for the
    # next level — a third barrier closes that race.
    call global_barrier
    mv t1, s2
    addi s1, s1, 1
    bnez t1, .Lbf_level
    lw ra, 12(sp)
    lw s0, 8(sp)
    lw s1, 4(sp)
    lw s2, 0(sp)
    addi sp, sp, 16
    ret

bfs_step:                     # a0 = node id, a1 = args
    lw t0, 16(a1)             # levels
    slli t1, a0, 2
    add t1, t1, t0
    lw t2, 0(t1)              # levels[i]
    lw t3, 24(a1)             # curLevel
    xor t4, t2, t3
    seqz t4, t4               # on the frontier?
    vx_split t4
    beqz t4, .Lbf_nowork
    lw t5, 8(a1)              # rowPtr
    slli t6, a0, 2
    add t5, t5, t6
    lw a3, 0(t5)              # edge start
    lw a4, 4(t5)              # edge end
    lw a5, 12(a1)             # colIdx
    lw a6, 4(a1)              # maxDegree (uniform edge-loop bound)
    li a7, 0
.Lbf_edges:
    bge a7, a6, .Lbf_nowork
    add t5, a3, a7
    slt t6, t5, a4            # edge within this node's range?
    vx_split t6
    beqz t6, .Lbf_eskip
    slli t5, t5, 2
    add t5, t5, a5
    lw t5, 0(t5)              # neighbor j
    slli t5, t5, 2
    add t5, t5, t0            # &levels[j]
    lw t6, 0(t5)
    addi t6, t6, 1
    seqz t6, t6               # unvisited (level == -1)?
    vx_split t6
    beqz t6, .Lbf_nskip
    lw t6, 24(a1)
    addi t6, t6, 1
    sw t6, 0(t5)              # levels[j] = curLevel + 1
    lw t5, 20(a1)
    li t6, 1
    sw t6, 0(t5)              # changed = 1
.Lbf_nskip:
    vx_join
.Lbf_eskip:
    vx_join
    addi a7, a7, 1
    j .Lbf_edges
.Lbf_nowork:
    vx_join
    ret
