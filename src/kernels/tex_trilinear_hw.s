# tex_trilinear_hw: hardware trilinear sampling, after tex_main.s.

# Trilinear pseudo-instruction (paper Algorithm 1): two bilinear `tex`
# lookups on adjacent mip levels, blended by the fractional LOD in software.
tex_task:                     # a0 = pixel index, a1 = args
    addi sp, sp, -16
    sw ra, 12(sp)
    sw a0, 8(sp)
    jal t6, __uv
    flw ft4, 40(a1)           # lod (float)
    fcvt.wu.s t0, ft4         # floor(lod)  (lod >= 0)
    fcvt.s.wu ft5, t0
    fsub.s ft5, ft4, ft5      # frac
    la t1, .Ltt_256
    flw ft6, 0(t1)
    fmul.s ft5, ft5, ft6
    fcvt.wu.s a2, ft5
    andi a2, a2, 255          # frac8
    fcvt.s.wu ft6, t0
    vx_tex t4, fa0, fa1, ft6  # a = tex(u, v, lod)
    addi t0, t0, 1
    fcvt.s.wu ft6, t0
    vx_tex t5, fa0, fa1, ft6  # b = tex(u, v, lod+1)
    # color = a + (b-a)*frac8/256, per channel
    li a3, 0                  # result
    li a4, 0                  # shift
.Ltt_chan:
    srl t0, t4, a4
    andi t0, t0, 255
    srl t1, t5, a4
    andi t1, t1, 255
    sub t1, t1, t0
    mul t1, t1, a2
    srai t1, t1, 8
    add t0, t0, t1
    sll t0, t0, a4
    or a3, a3, t0
    addi a4, a4, 8
    slti t0, a4, 32
    bnez t0, .Ltt_chan
    lw a0, 8(sp)
    lw t5, 8(a1)
    slli t0, a0, 2
    add t5, t5, t0
    sw a3, 0(t5)
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
.align 2
.Ltt_256: .float 256.0
