/**
 * @file
 * Strict numeric flag values for the command-line tools (takosim,
 * takotracegen, takobench). A malformed number is a usage error that
 * names the flag (exit 2), never a silent 0, a truncated value or a
 * crash further on: empty, signed, non-numeric, trailing-junk and
 * out-of-range values are all rejected.
 */

#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace tako::cli
{

/** Numeric flag values of one command-line tool; @p tool prefixes its
 *  error messages. */
struct Flags
{
    const char *tool;

    /** @p key's value as an unsigned integer of type @p T no greater
     *  than @p max (decimal, 0x hex or 0 octal), or exit 2 naming the
     *  flag. */
    template <typename T = std::uint64_t>
    T
    num(const std::string &key, const std::string &v,
        std::uint64_t max = std::numeric_limits<T>::max()) const
    {
        char *end = nullptr;
        errno = 0;
        const std::uint64_t n = std::strtoull(v.c_str(), &end, 0);
        if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])) ||
            *end != '\0' || errno == ERANGE || n > max) {
            std::fprintf(stderr, "%s: %s expects an unsigned integer",
                         tool, key.c_str());
            if (max != UINT64_MAX)
                std::fprintf(stderr, " no greater than %llu",
                             (unsigned long long)max);
            std::fprintf(stderr, ", got '%s'\n", v.c_str());
            std::exit(2);
        }
        return static_cast<T>(n);
    }

    /** @p key's value as a fraction in [0, 1], or exit 2 naming the
     *  flag. */
    double
    frac(const std::string &key, const std::string &v) const
    {
        char *end = nullptr;
        const double f = std::strtod(v.c_str(), &end);
        if (v.empty() ||
            !(std::isdigit(static_cast<unsigned char>(v[0])) ||
              v[0] == '.') ||
            *end != '\0' || f > 1.0) {
            std::fprintf(stderr,
                         "%s: %s expects a fraction in [0, 1], got '%s'\n",
                         tool, key.c_str(), v.c_str());
            std::exit(2);
        }
        return f;
    }
};

} // namespace tako::cli
