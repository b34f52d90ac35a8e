/**
 * @file
 * A copy of a StatGroup's (key, value) rows, for tests that compare a
 * group with itself later or with another run's: StatGroup::all() is a
 * view of the live group, so comparing two views of one group would
 * compare the group with itself.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace vortex {

using StatRows = std::vector<std::pair<std::string, uint64_t>>;

/** The rows of @p group, keys and values copied, in registration order. */
inline StatRows
statRows(const StatGroup& group)
{
    const auto view = group.all();
    return StatRows(view.begin(), view.end());
}

} // namespace vortex
