# Software bilinear sampler over an RGBA8 power-of-two REPEAT texture,
# shared by tex_bilinear_sw.s and tex_trilinear_sw.s.
#  In: fa0 = u, fa1 = v, a2 = mip base address, a3 = width log2,
#      a4 = height log2. Out: a0 = packed RGBA8. Link register: t6.
#  Clobbers t0-t5, a5-a7, ft0-ft3.

__sw_bilinear:
    # scaled u: su = u*W - 0.5 + W  (bias keeps it positive for truncation)
    li t0, 1
    sll t0, t0, a3            # W
    fcvt.s.wu ft0, t0
    fmul.s ft1, fa0, ft0
    la t1, .Lsb_half
    flw ft2, 0(t1)
    fsub.s ft1, ft1, ft2
    fadd.s ft1, ft1, ft0      # su + W
    fcvt.wu.s t2, ft1         # floor (positive)
    # fx = 8-bit fraction
    fcvt.s.wu ft3, t2
    fsub.s ft1, ft1, ft3
    la t1, .Lsb_256
    flw ft3, 0(t1)
    fmul.s ft1, ft1, ft3
    fcvt.wu.s t3, ft1
    andi t3, t3, 255          # fx
    # x0/x1 wrapped
    addi t1, t0, -1           # W-1 mask
    and a5, t2, t1            # x0
    addi t2, t2, 1
    and a6, t2, t1            # x1
    # scaled v
    li t0, 1
    sll t0, t0, a4            # H
    fcvt.s.wu ft0, t0
    fmul.s ft1, fa1, ft0
    la t1, .Lsb_half
    flw ft2, 0(t1)
    fsub.s ft1, ft1, ft2
    fadd.s ft1, ft1, ft0
    fcvt.wu.s t2, ft1
    fcvt.s.wu ft3, t2
    fsub.s ft1, ft1, ft3
    la t1, .Lsb_256
    flw ft3, 0(t1)
    fmul.s ft1, ft1, ft3
    fcvt.wu.s t4, ft1
    andi t4, t4, 255          # fy
    addi t1, t0, -1
    and a7, t2, t1            # y0
    addi t2, t2, 1
    and t5, t2, t1            # y1
    # fetch 4 texels: addr = base + ((y<<wlog2) + x) * 4
    sll t0, a7, a3
    add t0, t0, a5
    slli t0, t0, 2
    add t0, t0, a2
    lw t0, 0(t0)              # c00
    sll t1, a7, a3
    add t1, t1, a6
    slli t1, t1, 2
    add t1, t1, a2
    lw t1, 0(t1)              # c10
    sll t2, t5, a3
    add t2, t2, a5
    slli t2, t2, 2
    add t2, t2, a2
    lw t2, 0(t2)              # c01
    sll a5, t5, a3
    add a5, a5, a6
    slli a5, a5, 2
    add a5, a5, a2
    lw a5, 0(a5)              # c11
    # horizontal lerps with fx, then vertical with fy, channel by channel.
    # a0 accumulates the packed result; a6/a7/t5 are scratch.
    li a0, 0
    li a7, 0                  # channel shift
.Lsb_chan:
    srl t5, t0, a7
    andi t5, t5, 255          # c00.ch
    srl a6, t1, a7
    andi a6, a6, 255          # c10.ch
    sub a6, a6, t5
    mul a6, a6, t3
    srai a6, a6, 8
    add t5, t5, a6            # top = c00 + ((c10-c00)*fx >> 8)
    srl a6, t2, a7
    andi a6, a6, 255          # c01.ch
    mv tp, a6                 # tp (x4) is free scratch in this runtime
    srl a6, a5, a7
    andi a6, a6, 255          # c11.ch
    sub a6, a6, tp
    mul a6, a6, t3
    srai a6, a6, 8
    add a6, a6, tp            # bot
    sub a6, a6, t5
    mul a6, a6, t4
    srai a6, a6, 8
    add t5, t5, a6            # ch = top + ((bot-top)*fy >> 8)
    sll t5, t5, a7
    or a0, a0, t5
    addi a7, a7, 8
    slti t5, a7, 32
    bnez t5, .Lsb_chan
    jr t6
.align 2
.Lsb_half: .float 0.5
.Lsb_256: .float 256.0
