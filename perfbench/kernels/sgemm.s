# sgemm: C = A*B, n x n row-major float; one task per output cell.
#
# Checked-in twin of the built-in kernel (src/kernels/rodinia.cpp,
# kernels::sgemm). Loaded through the assemble -> object -> load
# pipeline via `[workload] program = "examples/kernels/sgemm.s"`;
# tests/test_toolchain.cpp pins it bit-identical (cycles, instrs,
# output) to the registry original. Runs against the native runtime
# (crt0 + spawn_tasks); argument layout is runtime/kargs.h SgemmArgs.

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    mv a2, a0
    lw t0, 0(a2)              # n
    mul a0, t0, t0            # n^2 tasks
    la a1, sgemm_task
    call spawn_tasks
    lw ra, 12(sp)
    addi sp, sp, 16
    ret

sgemm_task:                   # a0 = cell index, a1 = args
    lw t0, 0(a1)              # n
    lw t1, 4(a1)              # A
    lw t2, 8(a1)              # B
    lw t3, 12(a1)             # C
    divu t4, a0, t0           # row
    remu t5, a0, t0           # col
    mul t6, t4, t0
    slli t6, t6, 2
    add t1, t1, t6            # &A[row][0]
    slli t6, t5, 2
    add t2, t2, t6            # &B[0][col]
    slli a4, t0, 2            # B row stride in bytes
    fmv.w.x ft0, zero         # acc
    mv a5, t0
.Lsg_loop:
    flw ft1, 0(t1)
    flw ft2, 0(t2)
    fmadd.s ft0, ft1, ft2, ft0
    addi t1, t1, 4
    add t2, t2, a4
    addi a5, a5, -1
    bnez a5, .Lsg_loop
    slli t6, a0, 2
    add t3, t3, t6
    fsw ft0, 0(t3)
    ret
