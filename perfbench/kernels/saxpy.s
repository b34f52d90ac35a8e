# saxpy: y[i] = a*x[i] + y[i] (float). Memory-bound group.
#
# Checked-in twin of the built-in kernel (src/kernels/rodinia.cpp,
# kernels::saxpy). Loaded through the assemble -> object -> load
# pipeline via `[workload] program = "examples/kernels/saxpy.s"`;
# tests/test_toolchain.cpp pins it bit-identical (cycles, instrs,
# output) to the registry original. Runs against the native runtime
# (crt0 + spawn_tasks); argument layout is runtime/kargs.h SaxpyArgs.

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    mv a2, a0
    lw a0, 0(a2)
    la a1, saxpy_task
    call spawn_tasks
    lw ra, 12(sp)
    addi sp, sp, 16
    ret

saxpy_task:                   # a0 = i, a1 = args
    flw ft0, 4(a1)            # a
    lw t1, 8(a1)              # x
    lw t2, 12(a1)             # y
    slli t3, a0, 2
    add t1, t1, t3
    add t2, t2, t3
    flw ft1, 0(t1)
    flw ft2, 0(t2)
    fmadd.s ft2, ft0, ft1, ft2
    fsw ft2, 0(t2)
    ret
