# tex_point_sw: software point sampling, after tex_main.s.

# Software point sampling: one wrapped texel load per pixel ("a simple
# copy operation" for RGBA8, §6.4).
tex_task:                     # a0 = pixel index, a1 = args
    addi sp, sp, -16
    sw ra, 12(sp)
    sw a0, 8(sp)
    jal t6, __uv
    lw a3, 16(a1)             # width log2
    lw a4, 20(a1)             # height log2
    lw a2, 12(a1)             # texture base
    # x = (int)(u*W) & (W-1)
    li t0, 1
    sll t0, t0, a3
    fcvt.s.wu ft0, t0
    fmul.s ft0, fa0, ft0
    fcvt.wu.s t1, ft0
    addi t0, t0, -1
    and t1, t1, t0
    # y = (int)(v*H) & (H-1)
    li t0, 1
    sll t0, t0, a4
    fcvt.s.wu ft0, t0
    fmul.s ft0, fa1, ft0
    fcvt.wu.s t2, ft0
    addi t0, t0, -1
    and t2, t2, t0
    sll t2, t2, a3
    add t2, t2, t1
    slli t2, t2, 2
    add t2, t2, a2
    lw t4, 0(t2)
    lw a0, 8(sp)
    lw t5, 8(a1)
    slli t0, a0, 2
    add t5, t5, t0
    sw t4, 0(t5)
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
