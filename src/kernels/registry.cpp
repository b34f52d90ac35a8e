/**
 * @file
 * Name-indexed registry of every shipped kernel (see kernels.h), read
 * from the embedded `.s` files (common/embedded.h), and the guest build
 * every load and every static check goes through.
 */

#include "kernels/kernels.h"

#include <utility>

#include "common/embedded.h"
#include "common/log.h"

namespace vortex::kernels {

namespace {

/** The embedded file @p stem as a unit named "STEM.s". */
isa::SourceUnit
unit(std::string_view stem)
{
    const char* text = embedded::find(embedded::kernelFiles(), stem);
    if (text == nullptr)
        fatal("no embedded kernel file '", stem, ".s'");
    return {std::string(stem) + ".s", text};
}

} // namespace

const char*
runtimeSource()
{
    return embedded::find(embedded::kernelFiles(), "runtime");
}

isa::ObjectFile
assembleGuest(Addr base, const Guest& guest)
{
    std::vector<isa::SourceUnit> units = {unit("runtime")};
    units.insert(units.end(), guest.units.begin(), guest.units.end());
    isa::ObjectFile obj;
    try {
        obj = isa::Assembler(base).assembleObject(units);
    } catch (const isa::AsmError& e) {
        if (e.file() != units.front().name ||
            e.message() != "undefined symbol 'main'" || guest.units.empty())
            throw;
        throw isa::AsmError(guest.units.front().name, 1, 1,
                            "undefined symbol 'main': the native runtime "
                            "calls it, so the kernel must define it");
    }
    std::vector<uint8_t> bytes = isa::writeObject(obj);
    return isa::readObject(bytes.data(), bytes.size(), guest.name);
}

const std::vector<Guest>&
allKernels()
{
    static const std::vector<Guest> kKernels = [] {
        // Registry name, then the files its guest assembles in order.
        const std::pair<const char*, std::vector<const char*>> table[] = {
            {"vecadd", {"vecadd"}},
            {"saxpy", {"saxpy"}},
            {"sgemm", {"sgemm"}},
            {"sfilter", {"sfilter"}},
            {"nearn", {"nearn"}},
            {"gaussian", {"gaussian"}},
            {"bfs", {"bfs"}},
            {"tex_point_hw", {"tex_main", "tex_point_hw"}},
            {"tex_bilinear_hw", {"tex_main", "tex_point_hw"}},
            {"tex_trilinear_hw", {"tex_main", "tex_trilinear_hw"}},
            {"tex_point_sw", {"tex_main", "tex_point_sw"}},
            {"tex_bilinear_sw",
             {"tex_main", "tex_sw_bilinear", "tex_bilinear_sw"}},
            {"tex_trilinear_sw",
             {"tex_main", "tex_sw_bilinear", "tex_trilinear_sw"}},
        };
        std::vector<Guest> kernels;
        for (const auto& [name, files] : table) {
            Guest g{name, {}};
            for (const char* f : files)
                g.units.push_back(unit(f));
            kernels.push_back(std::move(g));
        }
        return kernels;
    }();
    return kKernels;
}

const Guest*
findKernel(const std::string& name)
{
    for (const Guest& g : allKernels())
        if (g.name == name)
            return &g;
    return nullptr;
}

const Guest&
kernel(const std::string& name)
{
    if (const Guest* g = findKernel(name))
        return *g;
    fatal("unknown kernel '", name, "'");
}

const char*
kernelSource(const std::string& name)
{
    const Guest* g = findKernel(name);
    return g && g->units.size() == 1 ? g->units.front().text.c_str()
                                     : nullptr;
}

} // namespace vortex::kernels
