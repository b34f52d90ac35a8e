# Texture benchmarks (paper §6.4, Figure 20), shared prologue of every
# texture guest: main() configures texture stage 0 from the argument
# block (Fig. 13) and spawns one task per destination pixel; __uv gives
# the task its texel-center coordinates. A texture guest is this unit,
# then tex_sw_bilinear.s for the software bilinear variants, then the
# variant's tex_task. Argument layout: runtime/kargs.h TexKernelArgs.

.equ TEX_ADDR,   0x7C0
.equ TEX_MIPOFF, 0x7C1
.equ TEX_WIDTH,  0x7C2
.equ TEX_HEIGHT, 0x7C3
.equ TEX_FORMAT, 0x7C4
.equ TEX_WRAP,   0x7C5
.equ TEX_FILTER, 0x7C6
.equ TEX_LODS,   0x7C7

main:
    addi sp, sp, -16
    sw ra, 12(sp)
    # configure texture unit (paper Fig. 13 lines 3-9)
    lw t0, 12(a0)
    csrw TEX_ADDR, t0
    csrw TEX_MIPOFF, zero
    lw t0, 16(a0)
    csrw TEX_WIDTH, t0
    lw t0, 20(a0)
    csrw TEX_HEIGHT, t0
    lw t0, 24(a0)
    csrw TEX_FORMAT, t0
    lw t0, 32(a0)
    csrw TEX_WRAP, t0
    lw t0, 28(a0)
    csrw TEX_FILTER, t0
    lw t0, 36(a0)
    csrw TEX_LODS, t0
    # launch rendering tasks (Fig. 13 line 19)
    mv a2, a0
    lw t0, 0(a2)
    lw t1, 4(a2)
    mul a0, t0, t1
    la a1, tex_task
    call spawn_tasks
    lw ra, 12(sp)
    addi sp, sp, 16
    ret

# __uv: compute normalized texel center coordinates for pixel a0.
# In:  a0 = pixel index, a1 = args.  Out: fa0 = u, fa1 = v, t1 = x, t2 = y.
# Clobbers t0, t3, ft6, ft7.
__uv:
    lw t0, 0(a1)              # dstW
    remu t1, a0, t0           # x
    divu t2, a0, t0           # y
    la t3, .Luv_half
    flw ft6, 0(t3)
    fcvt.s.wu fa0, t1
    fadd.s fa0, fa0, ft6
    flw ft7, 44(a1)           # deltaX = 1/dstW
    fmul.s fa0, fa0, ft7      # u = (x+0.5)/dstW
    fcvt.s.wu fa1, t2
    fadd.s fa1, fa1, ft6
    flw ft7, 48(a1)           # deltaY
    fmul.s fa1, fa1, ft7      # v
    jr t6
.align 2
.Luv_half: .float 0.5
