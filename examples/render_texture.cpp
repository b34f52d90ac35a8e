/**
 * @file
 * Texture example: the device side of the paper's §5.5 graphics flow. The
 * bilinear texture kernel (hardware `tex` instruction) renders a checker
 * texture on the simulated GPU into device memory, and the result is
 * written to `render_texture.ppm`.
 */

#include <cstdio>

#include "runtime/device.h"
#include "runtime/kargs.h"
#include "kernels/kernels.h"

using namespace vortex;

namespace {

/** Build a checkerboard RGBA8 texture into @p ram at @p base. */
void
makeChecker(mem::Ram& ram, Addr base, uint32_t size_log2)
{
    uint32_t size = 1u << size_log2;
    for (uint32_t y = 0; y < size; ++y) {
        for (uint32_t x = 0; x < size; ++x) {
            bool on = ((x >> 3) ^ (y >> 3)) & 1;
            tex::Color c = on ? tex::Color{230, 60, 40, 255}
                              : tex::Color{245, 240, 220, 255};
            ram.write32(base + (y * size + x) * 4, c.pack());
        }
    }
}

/** Write the @p size x @p size RGBA8 image at @p base as a binary PPM. */
bool
writePpm(const mem::Ram& ram, Addr base, uint32_t size, const char* path)
{
    std::FILE* f = std::fopen(path, "wb");
    if (!f)
        return false;
    std::fprintf(f, "P6\n%u %u\n255\n", size, size);
    for (uint32_t i = 0; i < size * size; ++i) {
        tex::Color c = tex::Color::unpackRgba8(ram.read32(base + i * 4));
        uint8_t rgb[3] = {c.r, c.g, c.b};
        std::fwrite(rgb, 1, 3, f);
    }
    return std::fclose(f) == 0;
}

} // namespace

int
main()
{
    core::ArchConfig cfg;
    cfg.numCores = 2;
    runtime::Device dev(cfg);
    const uint32_t tex_log2 = 6;
    const uint32_t gpu_size = 64;
    Addr dsrc = dev.memAlloc(gpu_size * gpu_size * 4);
    Addr ddst = dev.memAlloc(gpu_size * gpu_size * 4);
    makeChecker(dev.ram(), dsrc, tex_log2);

    dev.uploadKernel(kernels::kernel("tex_bilinear_hw"));
    runtime::TexKernelArgs targs{};
    targs.dstWidth = gpu_size;
    targs.dstHeight = gpu_size;
    targs.dst = ddst;
    targs.srcAddr = dsrc;
    targs.srcWidthLog2 = tex_log2;
    targs.srcHeightLog2 = tex_log2;
    targs.format = static_cast<uint32_t>(tex::Format::RGBA8);
    targs.filter = static_cast<uint32_t>(tex::Filter::Bilinear);
    targs.wrap = static_cast<uint32_t>(tex::Wrap::Repeat) |
                 (static_cast<uint32_t>(tex::Wrap::Repeat) << 2);
    targs.lods = 1;
    targs.deltaX = 1.0f / gpu_size;
    targs.deltaY = 1.0f / gpu_size;
    dev.setKernelArg(targs);
    dev.runKernel();

    const char* path = "render_texture.ppm";
    if (!writePpm(dev.ram(), ddst, gpu_size, path)) {
        std::fprintf(stderr, "cannot write '%s'\n", path);
        return 1;
    }
    std::printf("wrote %s (%ux%u, device `tex` pass, %llu cycles, "
                "IPC %.3f)\n",
                path, gpu_size, gpu_size,
                static_cast<unsigned long long>(dev.cycles()), dev.ipc());
    return 0;
}
