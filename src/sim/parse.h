// Checked readers for the numbers in command lines, spec strings and
// traces. Each reads a whole token or fails with a reason: integers must
// fit their type, doubles must be finite, unsigned types take no sign, and
// durations must fit a Duration. Each returns why the token cannot be
// read, or "" after storing the value.
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <type_traits>

#include "sim/time.h"

namespace homa {

template <typename T>
std::string number(const std::string& text, T& out) {
    T v{};
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end) {
        if constexpr (std::is_floating_point_v<T>) return "expected a number";
        return std::is_unsigned_v<T>
                   ? "expected a non-negative integer in range"
                   : "expected an integer in range";
    }
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v)) return "expected a finite number";
    }
    out = v;
    return "";
}

/// `count` `unit`s as a Duration, unless that is out of a Duration's range.
inline std::string duration(double count, Duration unit, Duration& out) {
    const double ps = count * static_cast<double>(unit);
    if (!(std::fabs(ps) < 9e18)) return "duration out of range";
    out = static_cast<Duration>(ps);
    return "";
}

/// A duration given as a (possibly fractional) count of `unit`s.
inline std::string duration(const std::string& text, Duration unit,
                            Duration& out) {
    double count = 0;
    const std::string why = number(text, count);
    return why.empty() ? duration(count, unit, out) : why;
}

}  // namespace homa
