# tex_bilinear_sw: software bilinear sampling, after tex_main.s and
# tex_sw_bilinear.s.

tex_task:                     # a0 = pixel index, a1 = args
    addi sp, sp, -16
    sw ra, 12(sp)
    sw a0, 8(sp)
    jal t6, __uv
    lw a2, 12(a1)             # mip 0 base
    lw a3, 16(a1)
    lw a4, 20(a1)
    jal t6, __sw_bilinear
    mv t4, a0
    lw a0, 8(sp)
    lw t5, 8(a1)
    slli t0, a0, 2
    add t5, t5, t0
    sw t4, 0(t5)
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
