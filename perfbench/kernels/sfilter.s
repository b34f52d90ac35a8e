# sfilter: 3x3 binomial blur (1 2 1; 2 4 2; 1 2 1)/16 on a float image,
# edge-clamped with branchless index arithmetic; one task per pixel.
#
# Checked-in twin of the built-in kernel (src/kernels/rodinia.cpp,
# kernels::sfilter). Loaded through the assemble -> object -> load
# pipeline via `[workload] program = "examples/kernels/sfilter.s"`;
# tests/test_toolchain.cpp pins it bit-identical (cycles, instrs,
# output) to the registry original. Runs against the native runtime
# (crt0 + spawn_tasks); argument layout is runtime/kargs.h SfilterArgs.

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    mv a2, a0
    lw t0, 0(a2)
    lw t1, 4(a2)
    mul a0, t0, t1            # width*height tasks
    la a1, sfilter_task
    call spawn_tasks
    lw ra, 12(sp)
    addi sp, sp, 16
    ret

sfilter_task:                 # a0 = pixel index, a1 = args
    lw t0, 0(a1)              # w
    lw t1, 4(a1)              # h
    lw t2, 8(a1)              # src
    lw t3, 12(a1)             # dst
    remu t4, a0, t0           # x
    divu t5, a0, t0           # y
    # xm = max(x-1, 0)
    addi t6, t4, -1
    srai a2, t6, 31
    xori a2, a2, -1
    and t6, t6, a2
    # xp = min(x+1, w-1)
    addi a3, t4, 1
    addi a4, t0, -1
    slt a5, a3, t0
    addi a5, a5, -1           # 0 in-range, -1 past the edge
    sub a6, a4, a3
    and a6, a6, a5
    add a3, a3, a6
    # ym = max(y-1, 0)
    addi a7, t5, -1
    srai a5, a7, 31
    xori a5, a5, -1
    and a7, a7, a5
    # yp = min(y+1, h-1)
    addi a2, t5, 1
    addi a5, t1, -1
    slt a4, a2, t1
    addi a4, a4, -1
    sub a5, a5, a2
    and a5, a5, a4
    add a2, a2, a5
    # row base pointers (bytes)
    mul a4, a7, t0
    slli a4, a4, 2
    add a4, a4, t2            # row ym
    mul a5, t5, t0
    slli a5, a5, 2
    add a5, a5, t2            # row y
    mul a6, a2, t0
    slli a6, a6, 2
    add a6, a6, t2            # row yp
    # column byte offsets
    slli t6, t6, 2            # xm
    slli t4, t4, 2            # x
    slli a3, a3, 2            # xp
    # 9 taps
    add t1, a4, t6
    flw ft0, 0(t1)
    add t1, a4, t4
    flw ft1, 0(t1)
    add t1, a4, a3
    flw ft2, 0(t1)
    add t1, a5, t6
    flw ft3, 0(t1)
    add t1, a5, t4
    flw ft4, 0(t1)
    add t1, a5, a3
    flw ft5, 0(t1)
    add t1, a6, t6
    flw ft6, 0(t1)
    add t1, a6, t4
    flw ft7, 0(t1)
    add t1, a6, a3
    flw fa0, 0(t1)
    # corners + 2*edges + 4*center, then /16
    fadd.s ft0, ft0, ft2
    fadd.s ft0, ft0, ft6
    fadd.s ft0, ft0, fa0
    fadd.s ft1, ft1, ft3
    fadd.s ft1, ft1, ft5
    fadd.s ft1, ft1, ft7
    la t1, .Lsf_two
    flw fa1, 0(t1)
    fmadd.s ft0, ft1, fa1, ft0
    la t1, .Lsf_four
    flw fa1, 0(t1)
    fmadd.s ft0, ft4, fa1, ft0
    la t1, .Lsf_sixteenth
    flw fa1, 0(t1)
    fmul.s ft0, ft0, fa1
    slli t1, a0, 2
    add t1, t1, t3
    fsw ft0, 0(t1)
    ret
.align 2
.Lsf_two: .float 2.0
.Lsf_four: .float 4.0
.Lsf_sixteenth: .float 0.0625
