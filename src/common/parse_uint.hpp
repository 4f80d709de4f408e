/**
 * @file
 * Strict parsing of unsigned integers from option values, environment
 * variables and request fields: decimal digits only, so a minus sign, a
 * space, a prefix or a value too large for the field it is parsed into is
 * an error instead of wrapping or being truncated.
 */

#pragma once

#include <charconv>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/format.hpp"
#include "common/log.hpp"

namespace hpe {

/**
 * Parse @p text as a T.  On failure return nullopt and set @p error to
 * a message that names the value as @p what ("option --jobs",
 * "HPE_JOBS", "field 'prefetch'").
 */
template <typename T>
std::optional<T>
parseUint(std::string_view text, std::string_view what, std::string &error)
{
    static_assert(std::is_unsigned_v<T>);
    T v = 0;
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec == std::errc::result_out_of_range) {
        error = strformat("{} must be at most {}, got '{}'", what,
                          std::numeric_limits<T>::max(), text);
        return std::nullopt;
    }
    if (ec != std::errc() || end != last) {
        error = strformat("{} must be a non-negative integer, got '{}'", what,
                          text);
        return std::nullopt;
    }
    return v;
}

/** parseUint(), with fatal() on failure. */
template <typename T>
T
parseUintOrDie(std::string_view text, std::string_view what)
{
    std::string error;
    const std::optional<T> v = parseUint<T>(text, what, error);
    if (!v)
        fatal("{}", error);
    return *v;
}

} // namespace hpe
