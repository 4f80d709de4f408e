/**
 * @file
 * The comma-separated list grammar shared by the page-size, trace-event
 * and endpoint-list options: items split on ',', empty items skipped.
 */

#pragma once

#include <string_view>
#include <vector>

namespace hpe {

/**
 * The non-empty items of the comma-separated @p list, in order: "a,,b,"
 * yields {"a", "b"}, and "" or "," yields none.  The views point into
 * @p list.
 */
inline std::vector<std::string_view>
splitCommaList(std::string_view list)
{
    std::vector<std::string_view> items;
    while (!list.empty()) {
        const std::size_t comma = list.find(',');
        if (comma != 0)
            items.push_back(list.substr(0, comma));
        if (comma == std::string_view::npos)
            break;
        list.remove_prefix(comma + 1);
    }
    return items;
}

} // namespace hpe
