/**
 * @file
 * The checked-in example files compiled into the library. The seven
 * Rodinia kernels (examples/kernels/NAME.s) back kernels::kernelSource,
 * and every campaign spec (examples/specs/NAME.toml) backs a `--preset`
 * (sweep/presets.h). Those files are the only source: src/CMakeLists.txt
 * embeds their text in a generated source in the build tree, so the
 * tools run without the source tree. Nothing is parsed until a caller
 * asks for it.
 */

#pragma once

#include <span>
#include <string_view>

namespace vortex::embedded {

/** One embedded file: its stem and its full text. */
struct File
{
    std::string_view name; ///< file name without extension, e.g. "fig18"
    const char* text;      ///< NUL-terminated file content
};

/** examples/kernels/{vecadd,saxpy,sgemm,sfilter,nearn,gaussian,bfs}.s,
 *  in that order. */
std::span<const File> kernelFiles();

/** Every examples/specs/NAME.toml, sorted by NAME. */
std::span<const File> specFiles();

/** Text of the file called @p name among @p files; nullptr if absent. */
inline const char*
find(std::span<const File> files, std::string_view name)
{
    for (const File& f : files)
        if (f.name == name)
            return f.text;
    return nullptr;
}

} // namespace vortex::embedded
