# tex_point_hw: hardware point sampling with the `tex` instruction,
# after the texture state set up by tex_main.s. tex_bilinear_hw runs
# this same unit: the filter mode is texture state (CSR), not an
# instruction field.

tex_task:                     # a0 = pixel index, a1 = args
    addi sp, sp, -16
    sw ra, 12(sp)
    sw a0, 8(sp)
    jal t6, __uv
    fmv.w.x ft4, zero         # lod 0
    vx_tex t4, fa0, fa1, ft4
    lw a0, 8(sp)
    lw t5, 8(a1)              # dst
    slli t0, a0, 2
    add t5, t5, t0
    sw t4, 0(t5)
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
