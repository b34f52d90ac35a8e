# gaussian: elimination to upper-triangular form. Each step k runs the
# Rodinia Fan1 (multipliers) and Fan2 (row updates) kernels, with global
# barriers keeping the cores in lockstep between phases.
#
# Checked-in twin of the built-in kernel (src/kernels/rodinia.cpp,
# kernels::gaussian). Loaded through the assemble -> object -> load
# pipeline via `[workload] program = "examples/kernels/gaussian.s"`;
# tests/test_toolchain.cpp pins it bit-identical (cycles, instrs,
# output) to the registry original. Runs against the native runtime
# (crt0 + spawn_tasks); argument layout is runtime/kargs.h GaussianArgs.

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    sw s0, 8(sp)
    sw s1, 4(sp)
    mv s0, a0
    li s1, 0                  # k
.Lga_kloop:
    lw t0, 0(s0)              # n
    addi t0, t0, -1
    bge s1, t0, .Lga_done
    sw s1, 16(s0)             # publish k (same value from every core)
    call global_barrier
    # Fan1: m[i] = A[i][k] / A[k][k] for i in (k, n)
    lw t0, 0(s0)
    sub a0, t0, s1
    addi a0, a0, -1
    la a1, gaussian_fan1
    mv a2, s0
    call spawn_tasks
    call global_barrier
    # Fan2: A[i][j] -= m[i]*A[k][j] for i in (k, n), all j
    lw t0, 0(s0)
    sub t1, t0, s1
    addi t1, t1, -1
    mul a0, t1, t0
    la a1, gaussian_fan2
    mv a2, s0
    call spawn_tasks
    call global_barrier
    addi s1, s1, 1
    j .Lga_kloop
.Lga_done:
    lw ra, 12(sp)
    lw s0, 8(sp)
    lw s1, 4(sp)
    addi sp, sp, 16
    ret

gaussian_fan1:                # a0 = idx, row i = k+1+idx
    lw t0, 0(a1)              # n
    lw t1, 4(a1)              # A
    lw t2, 12(a1)             # m
    lw t3, 16(a1)             # k
    addi t4, t3, 1
    add t4, t4, a0            # i
    mul t5, t4, t0
    add t5, t5, t3
    slli t5, t5, 2
    add t5, t5, t1
    flw ft0, 0(t5)            # A[i][k]
    mul t5, t3, t0
    add t5, t5, t3
    slli t5, t5, 2
    add t5, t5, t1
    flw ft1, 0(t5)            # A[k][k]
    fdiv.s ft0, ft0, ft1
    slli t5, t4, 2
    add t5, t5, t2
    fsw ft0, 0(t5)
    ret

gaussian_fan2:                # a0 = t; i = k+1+t/n, j = t%n
    lw t0, 0(a1)
    lw t1, 4(a1)
    lw t2, 12(a1)
    lw t3, 16(a1)
    divu t4, a0, t0
    remu t5, a0, t0           # j
    addi t4, t4, 1
    add t4, t4, t3            # i
    slli t6, t4, 2
    add t6, t6, t2
    flw ft0, 0(t6)            # m[i]
    mul t6, t3, t0
    add t6, t6, t5
    slli t6, t6, 2
    add t6, t6, t1
    flw ft1, 0(t6)            # A[k][j]
    mul t6, t4, t0
    add t6, t6, t5
    slli t6, t6, 2
    add t6, t6, t1
    flw ft2, 0(t6)            # A[i][j]
    fnmsub.s ft2, ft0, ft1, ft2
    fsw ft2, 0(t6)
    ret
