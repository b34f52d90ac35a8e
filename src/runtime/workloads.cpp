/**
 * @file
 * Verified workload runners.
 */

#include "runtime/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <iomanip>
#include <sstream>
#include <vector>

#include "common/bitmanip.h"
#include "common/fnv.h"
#include "common/log.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "runtime/kargs.h"
#include "tex/sampler.h"

namespace vortex::runtime {

namespace {

RunResult
finish(Device& dev, bool ok, const std::string& error = "")
{
    RunResult r;
    r.ok = ok;
    r.cycles = dev.cycles();
    r.threadInstrs = dev.processor().threadInstrs();
    r.ipc = dev.ipc();
    r.error = error;
    return r;
}

std::string
mismatch(const char* what, size_t index, double expected, double actual)
{
    std::ostringstream os;
    os << what << " mismatch at " << index << ": expected " << expected
       << ", got " << actual;
    return os.str();
}

constexpr uint64_t kMaxCycles = 400000000ull;

} // namespace

RunResult
runVecAdd(Device& dev, uint32_t n, const kernels::Guest& guest)
{
    Xorshift rng(42);
    std::vector<int32_t> a(n), b(n), c(n);
    for (uint32_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(rng.next());
        b[i] = static_cast<int32_t>(rng.next());
    }
    Addr da = dev.memAlloc(n * 4), db = dev.memAlloc(n * 4),
         dc = dev.memAlloc(n * 4);
    dev.copyToDev(da, a.data(), n * 4);
    dev.copyToDev(db, b.data(), n * 4);
    dev.uploadKernel(guest);
    dev.setKernelArg(VecAddArgs{n, da, db, dc});
    dev.runKernel(kMaxCycles);
    dev.copyFromDev(c.data(), dc, n * 4);
    for (uint32_t i = 0; i < n; ++i) {
        // Wrapping add, like the device's 32-bit `add` (and without the
        // signed-overflow UB the naive int sum has under UBSan).
        int32_t want = static_cast<int32_t>(static_cast<uint32_t>(a[i]) +
                                            static_cast<uint32_t>(b[i]));
        if (c[i] != want)
            return finish(dev, false, mismatch("vecadd", i, want, c[i]));
    }
    return finish(dev, true);
}

RunResult
runSaxpy(Device& dev, uint32_t n, const kernels::Guest& guest)
{
    Xorshift rng(43);
    const float alpha = 2.5f;
    std::vector<float> x(n), y(n), out(n);
    for (uint32_t i = 0; i < n; ++i) {
        x[i] = rng.nextFloat() * 10.0f - 5.0f;
        y[i] = rng.nextFloat() * 10.0f - 5.0f;
    }
    Addr dx = dev.memAlloc(n * 4), dy = dev.memAlloc(n * 4);
    dev.copyToDev(dx, x.data(), n * 4);
    dev.copyToDev(dy, y.data(), n * 4);
    dev.uploadKernel(guest);
    dev.setKernelArg(SaxpyArgs{n, alpha, dx, dy});
    dev.runKernel(kMaxCycles);
    dev.copyFromDev(out.data(), dy, n * 4);
    for (uint32_t i = 0; i < n; ++i) {
        float expect = std::fma(alpha, x[i], y[i]);
        if (out[i] != expect)
            return finish(dev, false, mismatch("saxpy", i, expect, out[i]));
    }
    return finish(dev, true);
}

RunResult
runSgemm(Device& dev, uint32_t n, const kernels::Guest& guest)
{
    Xorshift rng(44);
    std::vector<float> a(n * n), b(n * n), c(n * n);
    for (auto& v : a)
        v = rng.nextFloat() - 0.5f;
    for (auto& v : b)
        v = rng.nextFloat() - 0.5f;
    Addr da = dev.memAlloc(n * n * 4), db = dev.memAlloc(n * n * 4),
         dc = dev.memAlloc(n * n * 4);
    dev.copyToDev(da, a.data(), n * n * 4);
    dev.copyToDev(db, b.data(), n * n * 4);
    dev.uploadKernel(guest);
    dev.setKernelArg(SgemmArgs{n, da, db, dc});
    dev.runKernel(kMaxCycles);
    dev.copyFromDev(c.data(), dc, n * n * 4);
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (uint32_t k = 0; k < n; ++k)
                acc = std::fma(a[i * n + k], b[k * n + j], acc);
            if (c[i * n + j] != acc)
                return finish(dev, false,
                              mismatch("sgemm", i * n + j, acc,
                                       c[i * n + j]));
        }
    }
    return finish(dev, true);
}

RunResult
runSfilter(Device& dev, uint32_t width, uint32_t height,
           const kernels::Guest& guest)
{
    Xorshift rng(45);
    std::vector<float> src(width * height), dst(width * height);
    for (auto& v : src)
        v = rng.nextFloat() * 255.0f;
    Addr ds = dev.memAlloc(src.size() * 4), dd = dev.memAlloc(dst.size() * 4);
    dev.copyToDev(ds, src.data(), src.size() * 4);
    dev.uploadKernel(guest);
    dev.setKernelArg(SfilterArgs{width, height, ds, dd});
    dev.runKernel(kMaxCycles);
    dev.copyFromDev(dst.data(), dd, dst.size() * 4);
    auto clampi = [](int v, int lo, int hi) {
        return std::min(std::max(v, lo), hi);
    };
    for (uint32_t y = 0; y < height; ++y) {
        for (uint32_t x = 0; x < width; ++x) {
            auto at = [&](int xx, int yy) {
                xx = clampi(xx, 0, static_cast<int>(width) - 1);
                yy = clampi(yy, 0, static_cast<int>(height) - 1);
                return src[yy * width + xx];
            };
            // Same association order as the kernel.
            float corners = ((at(x - 1, y - 1) + at(x + 1, y - 1)) +
                             at(x - 1, y + 1)) + at(x + 1, y + 1);
            float edges = ((at(x, y - 1) + at(x - 1, y)) + at(x + 1, y)) +
                          at(x, y + 1);
            float sum = std::fma(edges, 2.0f, corners);
            sum = std::fma(at(x, y), 4.0f, sum);
            float expect = sum * 0.0625f;
            float got = dst[y * width + x];
            if (got != expect)
                return finish(dev, false,
                              mismatch("sfilter", y * width + x, expect,
                                       got));
        }
    }
    return finish(dev, true);
}

RunResult
runNearn(Device& dev, uint32_t n, const kernels::Guest& guest)
{
    Xorshift rng(46);
    const float lat = 30.0f, lng = 50.0f;
    std::vector<float> pts(2 * n), dist(n);
    for (auto& v : pts)
        v = rng.nextFloat() * 100.0f;
    Addr dp = dev.memAlloc(pts.size() * 4), dd = dev.memAlloc(n * 4);
    dev.copyToDev(dp, pts.data(), pts.size() * 4);
    dev.uploadKernel(guest);
    dev.setKernelArg(NearnArgs{n, lat, lng, dp, dd});
    dev.runKernel(kMaxCycles);
    dev.copyFromDev(dist.data(), dd, n * 4);
    for (uint32_t i = 0; i < n; ++i) {
        float d0 = pts[2 * i] - lat;
        float d1 = pts[2 * i + 1] - lng;
        float expect = std::sqrt(std::fma(d1, d1, d0 * d0));
        if (dist[i] != expect)
            return finish(dev, false, mismatch("nearn", i, expect, dist[i]));
    }
    return finish(dev, true);
}

RunResult
runGaussian(Device& dev, uint32_t n, const kernels::Guest& guest)
{
    Xorshift rng(47);
    std::vector<float> a(n * n), m(n, 0.0f);
    for (uint32_t i = 0; i < n * n; ++i)
        a[i] = rng.nextFloat() + 0.1f;
    // Diagonal dominance keeps the elimination well conditioned.
    for (uint32_t i = 0; i < n; ++i)
        a[i * n + i] += static_cast<float>(n);
    std::vector<float> ref = a;
    Addr da = dev.memAlloc(a.size() * 4), dm = dev.memAlloc(n * 4);
    dev.copyToDev(da, a.data(), a.size() * 4);
    dev.copyToDev(dm, m.data(), n * 4);
    dev.uploadKernel(guest);
    GaussianArgs args{n, da, 0, dm, 0};
    dev.setKernelArg(args);
    dev.runKernel(kMaxCycles);
    dev.copyFromDev(a.data(), da, a.size() * 4);
    // Host reference with the same fused operations.
    for (uint32_t k = 0; k + 1 < n; ++k) {
        std::vector<float> mult(n, 0.0f);
        for (uint32_t i = k + 1; i < n; ++i)
            mult[i] = ref[i * n + k] / ref[k * n + k];
        for (uint32_t i = k + 1; i < n; ++i) {
            for (uint32_t j = 0; j < n; ++j) {
                ref[i * n + j] =
                    std::fma(-mult[i], ref[k * n + j], ref[i * n + j]);
            }
        }
    }
    for (uint32_t i = 0; i < n * n; ++i) {
        if (a[i] != ref[i])
            return finish(dev, false, mismatch("gaussian", i, ref[i], a[i]));
    }
    return finish(dev, true);
}

RunResult
runBfs(Device& dev, uint32_t num_nodes, uint32_t avg_degree,
       const kernels::Guest& guest)
{
    Xorshift rng(48);
    // Random connected-ish digraph in CSR form: a backbone chain plus
    // random extra edges, degree capped so the kernel's uniform edge loop
    // stays short.
    const uint32_t max_degree = avg_degree * 2;
    std::vector<std::vector<uint32_t>> adj(num_nodes);
    for (uint32_t i = 1; i < num_nodes; ++i)
        adj[i - 1].push_back(i); // backbone
    for (uint32_t i = 0; i < num_nodes; ++i) {
        uint32_t extra = rng.nextBounded(avg_degree);
        for (uint32_t e = 0; e < extra; ++e) {
            if (adj[i].size() >= max_degree)
                break;
            adj[i].push_back(rng.nextBounded(num_nodes));
        }
    }
    std::vector<uint32_t> row_ptr(num_nodes + 1, 0), col_idx;
    for (uint32_t i = 0; i < num_nodes; ++i) {
        row_ptr[i + 1] = row_ptr[i] + static_cast<uint32_t>(adj[i].size());
        col_idx.insert(col_idx.end(), adj[i].begin(), adj[i].end());
    }
    std::vector<int32_t> levels(num_nodes, -1);
    levels[0] = 0;

    Addr drow = dev.memAlloc(row_ptr.size() * 4);
    Addr dcol = dev.memAlloc(std::max<size_t>(col_idx.size(), 1) * 4);
    Addr dlev = dev.memAlloc(levels.size() * 4);
    Addr dchg = dev.memAlloc(4);
    dev.copyToDev(drow, row_ptr.data(), row_ptr.size() * 4);
    if (!col_idx.empty())
        dev.copyToDev(dcol, col_idx.data(), col_idx.size() * 4);
    dev.copyToDev(dlev, levels.data(), levels.size() * 4);

    dev.uploadKernel(guest);
    BfsArgs args{num_nodes, max_degree, drow, dcol, dlev, dchg, 0};
    dev.setKernelArg(args);
    dev.runKernel(kMaxCycles);
    std::vector<int32_t> out(num_nodes);
    dev.copyFromDev(out.data(), dlev, out.size() * 4);

    // Host BFS reference.
    std::vector<int32_t> ref(num_nodes, -1);
    ref[0] = 0;
    std::deque<uint32_t> frontier{0};
    while (!frontier.empty()) {
        uint32_t u = frontier.front();
        frontier.pop_front();
        for (uint32_t e = row_ptr[u]; e < row_ptr[u + 1]; ++e) {
            uint32_t v = col_idx[e];
            if (ref[v] == -1) {
                ref[v] = ref[u] + 1;
                frontier.push_back(v);
            }
        }
    }
    for (uint32_t i = 0; i < num_nodes; ++i) {
        if (out[i] != ref[i])
            return finish(dev, false, mismatch("bfs", i, ref[i], out[i]));
    }
    return finish(dev, true);
}

namespace {

/** A Rodinia harness at its default problem size times `scale`. */
struct RodiniaRunner
{
    const char* name;
    RunResult (*run)(Device& dev, uint32_t scale, const kernels::Guest& g);
};

constexpr RodiniaRunner kRodiniaRunners[] = {
    {"vecadd",
     [](Device& d, uint32_t s, const kernels::Guest& g) {
         return runVecAdd(d, 2048 * s, g);
     }},
    {"saxpy",
     [](Device& d, uint32_t s, const kernels::Guest& g) {
         return runSaxpy(d, 2048 * s, g);
     }},
    {"sgemm",
     [](Device& d, uint32_t s, const kernels::Guest& g) {
         return runSgemm(d, 24 * s, g);
     }},
    {"sfilter",
     [](Device& d, uint32_t s, const kernels::Guest& g) {
         return runSfilter(d, 48 * s, 32 * s, g);
     }},
    {"nearn",
     [](Device& d, uint32_t s, const kernels::Guest& g) {
         return runNearn(d, 1024 * s, g);
     }},
    {"gaussian",
     [](Device& d, uint32_t s, const kernels::Guest& g) {
         return runGaussian(d, 16 * s, g);
     }},
    {"bfs",
     [](Device& d, uint32_t s, const kernels::Guest& g) {
         return runBfs(d, 512 * s, 4, g);
     }},
};

const RodiniaRunner*
findRodinia(const std::string& name)
{
    for (const RodiniaRunner& r : kRodiniaRunners)
        if (name == r.name)
            return &r;
    return nullptr;
}

} // namespace

RunResult
runRodinia(Device& dev, const std::string& name, uint32_t scale,
           const kernels::Guest& guest)
{
    if (const RodiniaRunner* r = findRodinia(name))
        return r->run(dev, scale, guest);
    fatal("unknown Rodinia kernel '", name, "'");
}

RunResult
runRodinia(Device& dev, const std::string& name, uint32_t scale)
{
    return runRodinia(dev, name, scale, kernels::kernel(name));
}

bool
isRodiniaKernel(const std::string& name)
{
    return findRodinia(name) != nullptr;
}

bool
isComputeBound(const std::string& name)
{
    return name == "sgemm" || name == "vecadd" || name == "sfilter";
}

const char*
texFilterName(TexFilterMode mode)
{
    switch (mode) {
    case TexFilterMode::Point:
        return "point";
    case TexFilterMode::Bilinear:
        return "bilinear";
    case TexFilterMode::Trilinear:
        return "trilinear";
    }
    return "?";
}

std::string
textureKernelName(TexFilterMode mode, bool hardware)
{
    return std::string("tex_") + texFilterName(mode) +
           (hardware ? "_hw" : "_sw");
}

RunResult
runTexture(Device& dev, TexFilterMode mode, bool hardware, uint32_t size)
{
    return runTexture(dev, mode, hardware, size,
                      kernels::kernel(textureKernelName(mode, hardware)));
}

RunResult
runTexture(Device& dev, TexFilterMode mode, bool hardware, uint32_t size,
           const kernels::Guest& guest)
{
    if (!isPow2(size))
        fatal("texture benchmark size must be a power of two");
    Xorshift rng(49);
    const uint32_t log2sz = log2Floor(size);
    const uint32_t lods = mode == TexFilterMode::Trilinear ? 3 : 1;
    const float lod = mode == TexFilterMode::Trilinear ? 0.5f : 0.0f;

    // Build the contiguous RGBA8 mip chain.
    size_t chain_bytes = 0;
    for (uint32_t l = 0; l < lods; ++l)
        chain_bytes += static_cast<size_t>(std::max(1u, size >> l)) *
                       std::max(1u, size >> l) * 4;
    std::vector<uint8_t> chain(chain_bytes);
    for (auto& b : chain)
        b = static_cast<uint8_t>(rng.next());

    Addr dsrc = dev.memAlloc(chain.size(), 64);
    Addr ddst = dev.memAlloc(static_cast<size_t>(size) * size * 4, 64);
    dev.copyToDev(dsrc, chain.data(), chain.size());

    dev.uploadKernel(guest);

    TexKernelArgs args{};
    args.dstWidth = size;
    args.dstHeight = size;
    args.dst = ddst;
    args.srcAddr = dsrc;
    args.srcWidthLog2 = log2sz;
    args.srcHeightLog2 = log2sz;
    args.format = static_cast<uint32_t>(tex::Format::RGBA8);
    args.filter = static_cast<uint32_t>(
        mode == TexFilterMode::Point ? tex::Filter::Point
                                     : tex::Filter::Bilinear);
    args.wrap = static_cast<uint32_t>(tex::Wrap::Repeat) |
                (static_cast<uint32_t>(tex::Wrap::Repeat) << 2);
    args.lods = lods;
    args.lod = lod;
    args.deltaX = 1.0f / static_cast<float>(size);
    args.deltaY = 1.0f / static_cast<float>(size);
    dev.setKernelArg(args);
    dev.runKernel(kMaxCycles);

    // Verify against the host functional sampler.
    tex::SamplerState st;
    st.addr = dsrc;
    st.widthLog2 = log2sz;
    st.heightLog2 = log2sz;
    st.format = tex::Format::RGBA8;
    st.wrapU = st.wrapV = tex::Wrap::Repeat;
    st.filter = mode == TexFilterMode::Point ? tex::Filter::Point
                                             : tex::Filter::Bilinear;
    st.numLods = lods;

    const int tolerance = hardware ? 0 : 2;
    const mem::Ram& ram = dev.processor().ram();
    for (uint32_t y = 0; y < size; ++y) {
        for (uint32_t x = 0; x < size; ++x) {
            float u = (static_cast<float>(x) + 0.5f) * args.deltaX;
            float v = (static_cast<float>(y) + 0.5f) * args.deltaY;
            tex::Color expect;
            switch (mode) {
              case TexFilterMode::Point:
                expect = tex::samplePoint(ram, st, u, v, 0).color;
                break;
              case TexFilterMode::Bilinear:
                expect = tex::sampleBilinear(ram, st, u, v, 0).color;
                break;
              case TexFilterMode::Trilinear:
                expect = tex::sampleTrilinear(ram, st, u, v, lod).color;
                break;
            }
            uint32_t got = ram.read32(ddst + (y * size + x) * 4);
            tex::Color g = tex::Color::unpackRgba8(got);
            auto close = [&](uint8_t a, uint8_t b) {
                return std::abs(int(a) - int(b)) <= tolerance;
            };
            if (!(close(g.r, expect.r) && close(g.g, expect.g) &&
                  close(g.b, expect.b) && close(g.a, expect.a))) {
                return finish(dev, false,
                              mismatch("texture", y * size + x,
                                       expect.pack(), got));
            }
        }
    }
    return finish(dev, true);
}

RunResult
runSelfCheck(Device& dev, const kernels::Guest& guest)
{
    dev.uploadKernel(guest);
    dev.runKernel(kMaxCycles);
    Device::SelfCheck check = dev.readSelfCheck();
    if (check.passed())
        return finish(dev, true);
    std::ostringstream os;
    if (check.failed())
        os << "guest self-check FAILed (detail word 0x" << std::hex
           << check.detail << ")";
    else
        os << "guest never wrote a self-check verdict (status 0x"
           << std::hex << check.status << ")";
    RunResult r = finish(dev, false, os.str());
    // The guest *detected* the problem (or never reached its verdict) —
    // a structured selfcheck_fail outcome, distinct from a silent
    // memcmp mismatch which stays status Ok (docs/ROBUSTNESS.md).
    r.status = RunStatus::SelfcheckFail;
    return r;
}

RunResult
runMemcmp(Device& dev, const kernels::Guest& guest, Addr addr, uint32_t len,
          uint64_t expectedFnv)
{
    if (static_cast<uint64_t>(addr) + len > (uint64_t{1} << 32))
        fatal("memcmp window of ", len, " bytes at 0x", std::hex, addr,
              " runs past the end of the address space");
    dev.uploadKernel(guest);
    dev.runKernel(kMaxCycles);
    // One RAM page at a time, so the window costs O(page) of host memory
    // whatever its length.
    std::vector<uint8_t> chunk(std::min<uint32_t>(len, mem::Ram::kPageSize));
    Fnv1a64 fnv;
    for (uint32_t done = 0; done < len;) {
        const uint32_t n =
            std::min<uint32_t>(len - done, static_cast<uint32_t>(chunk.size()));
        dev.copyFromDev(chunk.data(), addr + done, n);
        fnv.bytes(chunk.data(), n);
        done += n;
    }
    const uint64_t h = fnv.value();
    if (h == expectedFnv)
        return finish(dev, true);
    std::ostringstream os;
    os << "memcmp check: FNV-1a of " << std::dec << len
       << " bytes at 0x" << std::hex << addr << " is "
       << std::setfill('0') << std::setw(16) << h << ", expected "
       << std::setw(16) << expectedFnv;
    return finish(dev, false, os.str());
}

} // namespace vortex::runtime
