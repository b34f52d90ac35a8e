# vecadd: c[i] = a[i] + b[i] (int32). Compute-bound group.
#
# Checked-in twin of the built-in kernel (src/kernels/rodinia.cpp,
# kernels::vecadd). Loaded through the assemble -> object -> load
# pipeline via `[workload] program = "examples/kernels/vecadd.s"`;
# tests/test_toolchain.cpp pins it bit-identical (cycles, instrs,
# output) to the registry original. Runs against the native runtime
# (crt0 + spawn_tasks); argument layout is runtime/kargs.h VecAddArgs.

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    mv a2, a0
    lw a0, 0(a2)              # n tasks
    la a1, vecadd_task
    call spawn_tasks
    lw ra, 12(sp)
    addi sp, sp, 16
    ret

vecadd_task:                  # a0 = i, a1 = args
    lw t1, 4(a1)              # a
    lw t2, 8(a1)              # b
    lw t3, 12(a1)             # c
    slli t4, a0, 2
    add t1, t1, t4
    add t2, t2, t4
    add t3, t3, t4
    lw t5, 0(t1)
    lw t6, 0(t2)
    add t5, t5, t6
    sw t5, 0(t3)
    ret
