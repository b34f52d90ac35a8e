/**
 * @file
 * Functional texture sampler shared by the hardware texture-unit model and
 * the host reference check of the texture workloads (code reuse guarantees
 * the cycle model and the reference produce bit-identical texels).
 *
 * The filtering math mirrors the hardware datapath: texel coordinates are
 * converted to fixed point with an 8-bit blend fraction and the bilinear
 * interpolation is an integer lerp per channel. Point sampling runs through
 * the bilinear path with blend values of zero, exactly as the paper's
 * sampler does (§4.2.2).
 */

#pragma once

#include <cstdint>

#include "common/small_vec.h"
#include "common/types.h"
#include "mem/ram.h"
#include "tex/format.h"

namespace vortex::tex {

/** CSR-backed per-stage texture state (paper Fig. 13 lines 3-9). */
struct SamplerState
{
    Addr addr = 0;        ///< base address of mip level 0
    Addr mipOff = 0;      ///< extra byte offset applied to `addr`
    uint32_t widthLog2 = 0;
    uint32_t heightLog2 = 0;
    Format format = Format::RGBA8;
    Wrap wrapU = Wrap::Clamp;
    Wrap wrapV = Wrap::Clamp;
    Filter filter = Filter::Point;
    uint32_t numLods = 1; ///< mip levels present (contiguous chain)

    uint32_t width(uint32_t lod = 0) const
    {
        uint32_t w = 1u << widthLog2;
        return (w >> lod) ? (w >> lod) : 1u;
    }
    uint32_t height(uint32_t lod = 0) const
    {
        uint32_t h = 1u << heightLog2;
        return (h >> lod) ? (h >> lod) : 1u;
    }

    /** Byte offset of mip level @p lod within the contiguous chain. */
    Addr mipByteOffset(uint32_t lod) const;

    /** Byte address of texel (x, y) of level @p lod. */
    Addr texelAddr(uint32_t lod, uint32_t x, uint32_t y) const;
};

/** Result of one sample: the color and the texel addresses it touched
 *  (the addresses drive the cycle model's memory traffic). At most eight,
 *  the two bilinear quads of a trilinear sample, so they stay inline. */
struct SampleResult
{
    Color color;
    SmallVec<Addr, 8> texelAddrs;
};

/** Apply a wrap mode to integer texel coordinate @p x for extent @p size. */
int32_t applyWrap(Wrap wrap, int32_t x, uint32_t size);

/** Read and unpack one texel. */
Color fetchTexel(const mem::Ram& ram, const SamplerState& st, uint32_t lod,
                 int32_t x, int32_t y);

/**
 * Sample with the state's filter at normalized (u, v) and integer mip level
 * @p lod (clamped to the available chain).
 */
SampleResult sample(const mem::Ram& ram, const SamplerState& st, float u,
                    float v, uint32_t lod);

/** Point sample regardless of the state's filter. */
SampleResult samplePoint(const mem::Ram& ram, const SamplerState& st,
                         float u, float v, uint32_t lod);

/** Bilinear sample regardless of the state's filter. */
SampleResult sampleBilinear(const mem::Ram& ram, const SamplerState& st,
                            float u, float v, uint32_t lod);

/**
 * Trilinear filtering as the pseudo-instruction of Algorithm 1: two bilinear
 * lookups on adjacent mip levels blended by the fractional LOD.
 */
SampleResult sampleTrilinear(const mem::Ram& ram, const SamplerState& st,
                             float u, float v, float lod);

/** The hardware's integer lerp: a + (b - a) * frac/256, per channel. */
Color lerpColor(const Color& a, const Color& b, uint32_t frac8);

} // namespace vortex::tex
