/**
 * @file
 * Functional texture sampler implementation.
 */

#include "tex/sampler.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace vortex::tex {

Addr
SamplerState::mipByteOffset(uint32_t lod) const
{
    Addr off = 0;
    uint32_t tsz = texelSize(format);
    for (uint32_t l = 0; l < lod; ++l)
        off += width(l) * height(l) * tsz;
    return off;
}

Addr
SamplerState::texelAddr(uint32_t lod, uint32_t x, uint32_t y) const
{
    uint32_t tsz = texelSize(format);
    return addr + mipOff + mipByteOffset(lod) +
           (y * width(lod) + x) * tsz;
}

int32_t
applyWrap(Wrap wrap, int32_t x, uint32_t size)
{
    const int32_t n = static_cast<int32_t>(size);
    switch (wrap) {
      case Wrap::Clamp:
        return std::clamp(x, 0, n - 1);
      case Wrap::Repeat: {
        int32_t m = x % n;
        return m < 0 ? m + n : m;
      }
      case Wrap::Mirror: {
        int32_t period = 2 * n;
        int32_t m = x % period;
        if (m < 0)
            m += period;
        return m < n ? m : period - 1 - m;
      }
    }
    panic("applyWrap: bad wrap mode");
}

Color
fetchTexel(const mem::Ram& ram, const SamplerState& st, uint32_t lod,
           int32_t x, int32_t y)
{
    uint32_t w = st.width(lod);
    uint32_t h = st.height(lod);
    uint32_t xi = static_cast<uint32_t>(applyWrap(st.wrapU, x, w));
    uint32_t yi = static_cast<uint32_t>(applyWrap(st.wrapV, y, h));
    Addr a = st.texelAddr(lod, xi, yi);
    uint32_t raw;
    switch (texelSize(st.format)) {
      case 1: raw = ram.read8(a); break;
      case 2: raw = ram.read16(a); break;
      default: raw = ram.read32(a); break;
    }
    return unpackTexel(st.format, raw);
}

Color
lerpColor(const Color& a, const Color& b, uint32_t frac8)
{
    auto lerp = [frac8](uint8_t x, uint8_t y) {
        return static_cast<uint8_t>(
            (static_cast<uint32_t>(x) * (256 - frac8) +
             static_cast<uint32_t>(y) * frac8) >> 8);
    };
    return {lerp(a.r, b.r), lerp(a.g, b.g), lerp(a.b, b.b),
            lerp(a.a, b.a)};
}

namespace {

/** Record the wrapped texel address for the traffic trace. */
void
recordAddr(SampleResult& out, const SamplerState& st, uint32_t lod,
           int32_t x, int32_t y)
{
    uint32_t xi = static_cast<uint32_t>(
        applyWrap(st.wrapU, x, st.width(lod)));
    uint32_t yi = static_cast<uint32_t>(
        applyWrap(st.wrapV, y, st.height(lod)));
    out.texelAddrs.push_back(st.texelAddr(lod, xi, yi));
}

/** Fixed-point coordinate split: integer texel index + 8-bit fraction.
 *  Matches the hardware address generator: scaled = u*size - 0.5. */
void
splitCoord(float u, uint32_t size, int32_t& x0, uint32_t& frac8)
{
    float scaled = u * static_cast<float>(size) - 0.5f;
    float fl = std::floor(scaled);
    x0 = static_cast<int32_t>(fl);
    frac8 = static_cast<uint32_t>((scaled - fl) * 256.0f) & 0xFF;
}

} // namespace

SampleResult
samplePoint(const mem::Ram& ram, const SamplerState& st, float u, float v,
            uint32_t lod)
{
    lod = std::min(lod, st.numLods - 1);
    uint32_t w = st.width(lod);
    uint32_t h = st.height(lod);
    int32_t x = static_cast<int32_t>(
        std::floor(u * static_cast<float>(w)));
    int32_t y = static_cast<int32_t>(
        std::floor(v * static_cast<float>(h)));
    SampleResult out;
    out.color = fetchTexel(ram, st, lod, x, y);
    recordAddr(out, st, lod, x, y);
    return out;
}

SampleResult
sampleBilinear(const mem::Ram& ram, const SamplerState& st, float u, float v,
               uint32_t lod)
{
    lod = std::min(lod, st.numLods - 1);
    uint32_t w = st.width(lod);
    uint32_t h = st.height(lod);
    int32_t x0, y0;
    uint32_t fx, fy;
    splitCoord(u, w, x0, fx);
    splitCoord(v, h, y0, fy);

    Color c00 = fetchTexel(ram, st, lod, x0, y0);
    Color c10 = fetchTexel(ram, st, lod, x0 + 1, y0);
    Color c01 = fetchTexel(ram, st, lod, x0, y0 + 1);
    Color c11 = fetchTexel(ram, st, lod, x0 + 1, y0 + 1);

    Color top = lerpColor(c00, c10, fx);
    Color bot = lerpColor(c01, c11, fx);

    SampleResult out;
    out.color = lerpColor(top, bot, fy);
    recordAddr(out, st, lod, x0, y0);
    recordAddr(out, st, lod, x0 + 1, y0);
    recordAddr(out, st, lod, x0, y0 + 1);
    recordAddr(out, st, lod, x0 + 1, y0 + 1);
    return out;
}

SampleResult
sample(const mem::Ram& ram, const SamplerState& st, float u, float v,
       uint32_t lod)
{
    // Point sampling shares the bilinear back-end with zero blend (§4.2.2);
    // functionally that is exactly a point sample, so dispatch directly.
    if (st.filter == Filter::Point)
        return samplePoint(ram, st, u, v, lod);
    return sampleBilinear(ram, st, u, v, lod);
}

SampleResult
sampleTrilinear(const mem::Ram& ram, const SamplerState& st, float u,
                float v, float lod)
{
    float l = std::max(lod, 0.0f);
    uint32_t l0 = static_cast<uint32_t>(l);
    uint32_t frac8 = static_cast<uint32_t>((l - std::floor(l)) * 256.0f) &
                     0xFF;
    SampleResult a = sampleBilinear(ram, st, u, v, l0);
    SampleResult b = sampleBilinear(ram, st, u, v, l0 + 1);
    SampleResult out;
    out.color = lerpColor(a.color, b.color, frac8);
    out.texelAddrs = std::move(a.texelAddrs);
    out.texelAddrs.append(b.texelAddrs.begin(), b.texelAddrs.end());
    return out;
}

} // namespace vortex::tex
