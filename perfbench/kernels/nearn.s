# nearn: dist[i] = sqrt((lat_i-lat)^2 + (lng_i-lng)^2); the host scans for
# the minimum, as in Rodinia NN. The fsqrt makes this long-latency bound.
#
# Checked-in twin of the built-in kernel (src/kernels/rodinia.cpp,
# kernels::nearn). Loaded through the assemble -> object -> load
# pipeline via `[workload] program = "examples/kernels/nearn.s"`;
# tests/test_toolchain.cpp pins it bit-identical (cycles, instrs,
# output) to the registry original. Runs against the native runtime
# (crt0 + spawn_tasks); argument layout is runtime/kargs.h NearnArgs.

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    mv a2, a0
    lw a0, 0(a2)
    la a1, nearn_task
    call spawn_tasks
    lw ra, 12(sp)
    addi sp, sp, 16
    ret

nearn_task:                   # a0 = i, a1 = args
    lw t1, 12(a1)             # points
    lw t2, 16(a1)             # dist
    slli t3, a0, 3
    add t1, t1, t3
    flw ft0, 0(t1)            # lat_i
    flw ft1, 4(t1)            # lng_i
    flw ft2, 4(a1)            # lat
    flw ft3, 8(a1)            # lng
    fsub.s ft0, ft0, ft2
    fsub.s ft1, ft1, ft3
    fmul.s ft0, ft0, ft0
    fmadd.s ft0, ft1, ft1, ft0
    fsqrt.s ft0, ft0
    slli t3, a0, 2
    add t2, t2, t3
    fsw ft0, 0(t2)
    ret
