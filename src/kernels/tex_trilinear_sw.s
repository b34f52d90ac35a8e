# tex_trilinear_sw: software trilinear sampling, after tex_main.s and
# tex_sw_bilinear.s.

# Software trilinear: two software bilinear samples on adjacent mip levels
# (contiguous chain) blended by the LOD fraction. Intermediate state lives
# on the per-thread stack: task functions must not clobber s3-s7/s10
# (runtime registers).
tex_task:                     # a0 = pixel index, a1 = args
    addi sp, sp, -32
    sw ra, 28(sp)
    sw a0, 24(sp)
    jal t6, __uv
    fsw fa0, 20(sp)           # u
    fsw fa1, 16(sp)           # v
    # lod0 and 8-bit fraction
    flw ft4, 40(a1)
    fcvt.wu.s t2, ft4
    sw t2, 4(sp)              # lod0
    fcvt.s.wu ft5, t2
    fsub.s ft5, ft4, ft5
    la t1, .Lt3_256
    flw ft6, 0(t1)
    fmul.s ft5, ft5, ft6
    fcvt.wu.s t3, ft5
    andi t3, t3, 255
    sw t3, 12(sp)             # frac8
    # walk the contiguous mip chain down to level lod0
    lw a3, 16(a1)             # width log2
    lw a4, 20(a1)             # height log2
    lw a2, 12(a1)             # chain base
    lw t2, 4(sp)
.Lt3_seek0:
    beqz t2, .Lt3_have0
    add t0, a3, a4
    li t1, 1
    sll t1, t1, t0
    slli t1, t1, 2
    add a2, a2, t1
    addi a3, a3, -1
    addi a4, a4, -1
    addi t2, t2, -1
    j .Lt3_seek0
.Lt3_have0:
    # __sw_bilinear preserves a2/a3/a4 (reads only)
    jal t6, __sw_bilinear
    sw a0, 8(sp)              # color a
    add t0, a3, a4
    li t1, 1
    sll t1, t1, t0
    slli t1, t1, 2
    add a2, a2, t1
    addi a3, a3, -1
    addi a4, a4, -1
    flw fa0, 20(sp)
    flw fa1, 16(sp)
    jal t6, __sw_bilinear     # a0 = color b
    mv t4, a0
    lw t5, 8(sp)              # color a
    lw t3, 12(sp)             # frac8
    # blend per channel
    li a3, 0
    li a4, 0
.Lt3_chan:
    srl t0, t5, a4
    andi t0, t0, 255
    srl t1, t4, a4
    andi t1, t1, 255
    sub t1, t1, t0
    mul t1, t1, t3
    srai t1, t1, 8
    add t0, t0, t1
    sll t0, t0, a4
    or a3, a3, t0
    addi a4, a4, 8
    slti t0, a4, 32
    bnez t0, .Lt3_chan
    lw a0, 24(sp)
    lw t5, 8(a1)
    slli t0, a0, 2
    add t5, t5, t0
    sw a3, 0(t5)
    lw ra, 28(sp)
    addi sp, sp, 32
    ret
.align 2
.Lt3_256: .float 256.0
