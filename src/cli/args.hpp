/**
 * @file
 * Minimal command-line argument parser for the hpe_sim tool: one
 * positional subcommand followed by --key value / --key=value options
 * and bare --flags.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hpp"
#include "common/parse_uint.hpp"

namespace hpe::cli {

/** Parsed command line: subcommand + options. */
class Args
{
  public:
    /** Parse argv; fatal() on malformed options. */
    static Args
    parse(int argc, const char *const *argv)
    {
        Args args;
        int i = 1;
        if (i < argc && argv[i][0] != '-')
            args.command_ = argv[i++];
        for (; i < argc; ++i) {
            std::string tok = argv[i];
            if (tok.rfind("--", 0) != 0)
                fatal("unexpected argument '{}' (options start with --)", tok);
            tok = tok.substr(2);
            const auto eq = tok.find('=');
            if (eq != std::string::npos) {
                args.options_[tok.substr(0, eq)] = tok.substr(eq + 1);
            } else if (i + 1 < argc &&
                       (argv[i + 1][0] != '-' || argv[i + 1][1] == '\0')) {
                // A lone "-" is a valid value: it names stdout for
                // output-file options.
                args.options_[tok] = argv[++i];
            } else {
                args.options_[tok] = ""; // bare flag
            }
        }
        return args;
    }

    const std::string &command() const { return command_; }

    bool has(const std::string &key) const { return options_.contains(key); }

    /** String option with default. */
    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = options_.find(key);
        return it == options_.end() ? fallback : it->second;
    }

    /** Numeric options with defaults; fatal() on garbage. */
    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = options_.find(key);
        if (it == options_.end())
            return fallback;
        char *end = nullptr;
        const double v = std::strtod(it->second.c_str(), &end);
        if (end == it->second.c_str() || *end != '\0')
            fatal("option --{} expects a number, got '{}'", key, it->second);
        return v;
    }

    /**
     * Unsigned option of type T with default: decimal digits only, so a
     * minus sign or a value too large for T is fatal() rather than
     * wrapped or truncated (see parseUint()).
     */
    template <typename T = std::uint64_t>
    T
    getUint(const std::string &key, std::type_identity_t<T> fallback) const
    {
        auto it = options_.find(key);
        if (it == options_.end())
            return fallback;
        return parseUintOrDie<T>(it->second, strformat("option --{}", key));
    }

    /** Reject unknown options (catches typos). */
    void
    allowOnly(const std::vector<std::string> &known) const
    {
        for (const auto &[key, value] : options_) {
            bool ok = false;
            for (const std::string &k : known)
                ok = ok || k == key;
            if (!ok)
                fatal("unknown option --{}", key);
        }
    }

  private:
    std::string command_;
    std::map<std::string, std::string> options_;
};

} // namespace hpe::cli
