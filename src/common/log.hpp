/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments); exits with code 1.
 * panic()  — an internal invariant was violated (a simulator bug); aborts.
 * warn()   — something works but not as well as it should.
 * inform() — plain status output.
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "common/format.hpp"

namespace hpe {

namespace detail {

[[noreturn]] inline void
die(const char *kind, std::string_view msg, bool abort_process,
    int exit_code = 1)
{
    std::fprintf(stderr, "%s: %.*s\n", kind, static_cast<int>(msg.size()), msg.data());
    if (abort_process)
        std::abort();
    std::exit(exit_code);
}

} // namespace detail

/** Exit code of usageFatal(): distinguishes "you asked for something that
 *  does not exist" (a fixable command line) from fatal()'s generic
 *  configuration error, so scripts can tell the two apart. */
inline constexpr int kUsageExitCode = 2;

/** Report an unrecoverable user/configuration error and exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(std::string_view fmt, Args &&...args)
{
    detail::die("fatal", strformat(fmt, std::forward<Args>(args)...), false);
}

/**
 * Report an unknown-name / bad-usage error and exit(kUsageExitCode).
 * Used by the hpe::api name registry so `hpe_sim run --policy nope`
 * fails with a distinct code and a clean message (never an assert).
 */
template <typename... Args>
[[noreturn]] void
usageFatal(std::string_view fmt, Args &&...args)
{
    detail::die("error", strformat(fmt, std::forward<Args>(args)...), false,
                kUsageExitCode);
}

/** Report a violated internal invariant (simulator bug) and abort(). */
template <typename... Args>
[[noreturn]] void
panic(std::string_view fmt, Args &&...args)
{
    detail::die("panic", strformat(fmt, std::forward<Args>(args)...), true);
}

/** Print a warning that does not stop the simulation. */
template <typename... Args>
void
warn(std::string_view fmt, Args &&...args)
{
    auto msg = strformat(fmt, std::forward<Args>(args)...);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

/**
 * Print an informational status message.  Goes to stderr, like every
 * other log channel: stdout belongs to machine-readable command output
 * (CSV, JSONL), which must stay byte-pure even when a status line fires
 * mid-run from a worker thread.
 */
template <typename... Args>
void
inform(std::string_view fmt, Args &&...args)
{
    auto msg = strformat(fmt, std::forward<Args>(args)...);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

namespace detail {

/**
 * HPE_ASSERT's failure path.  The condition's text is an argument, not
 * part of the format string, so a braced initializer in it
 * (`std::uint32_t{1}`) prints as written; and one plain function serves
 * every call site, where a panic() template would be instantiated per
 * condition length.
 */
[[noreturn]] inline void
assertFailed(const char *cond, const char *file, int line, const std::string &msg)
{
    panic("assertion `{}` failed at {}:{}: {}", cond, file, line, msg);
}

} // namespace detail

/** panic() unless @p cond holds; used for internal invariants. */
#define HPE_ASSERT(cond, ...)                                                  \
    do {                                                                       \
        if (!(cond)) [[unlikely]]                                              \
            ::hpe::detail::assertFailed(#cond, __FILE__, __LINE__,             \
                                        ::hpe::strformat(__VA_ARGS__));        \
    } while (0)

} // namespace hpe
