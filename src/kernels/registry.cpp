/**
 * @file
 * Name-indexed registry of every shipped kernel (see kernels.h). The
 * Rodinia kernels are the checked-in examples/kernels/NAME.s files,
 * embedded at build time (common/embedded.h).
 */

#include "kernels/kernels.h"

#include "common/embedded.h"

namespace vortex::kernels {

namespace {

const char*
rodinia(std::string_view name)
{
    return embedded::find(embedded::kernelFiles(), name);
}

} // namespace

const char* vecadd() { return rodinia("vecadd"); }
const char* saxpy() { return rodinia("saxpy"); }
const char* sgemm() { return rodinia("sgemm"); }
const char* sfilter() { return rodinia("sfilter"); }
const char* nearn() { return rodinia("nearn"); }
const char* gaussian() { return rodinia("gaussian"); }
const char* bfs() { return rodinia("bfs"); }

const std::vector<NamedKernel>&
allKernels()
{
    static const std::vector<NamedKernel> kKernels = {
        {"vecadd", vecadd},
        {"saxpy", saxpy},
        {"sgemm", sgemm},
        {"sfilter", sfilter},
        {"nearn", nearn},
        {"gaussian", gaussian},
        {"bfs", bfs},
        {"tex_point_hw", texPointHw},
        {"tex_bilinear_hw", texBilinearHw},
        {"tex_trilinear_hw", texTrilinearHw},
        {"tex_point_sw", texPointSw},
        {"tex_bilinear_sw", texBilinearSw},
        {"tex_trilinear_sw", texTrilinearSw},
    };
    return kKernels;
}

const char*
kernelSource(const std::string& name)
{
    for (const NamedKernel& k : allKernels())
        if (name == k.name)
            return k.source();
    return nullptr;
}

} // namespace vortex::kernels
