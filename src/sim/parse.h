// Checked readers for the numbers in command lines, spec strings and
// traces, and the one reader of the spec grammars' `k=v` lists. Each
// number reader reads a whole token or fails with a reason: integers must
// fit their type, doubles must be finite, unsigned types and counts take
// no sign, and durations must fit a Duration. Each returns why the token
// cannot be read, or "" after storing the value.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

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

/// A count: a whole decimal integer in [0, max], with no sign.
template <typename T>
std::string count(const std::string& text, T& out,
                  T max = std::numeric_limits<T>::max()) {
    using U = std::make_unsigned_t<T>;
    U v = 0;
    if (!number(text, v).empty() || v > static_cast<U>(max)) {
        return "expected a count in [0, " + std::to_string(max) + "]";
    }
    out = static_cast<T>(v);
    return "";
}

/// `count` `unit`s as a Duration, rounded to the nearest picosecond (so
/// "1.009us" is 1,009,000 ps although 1.009 has no exact double), unless
/// that is out of a Duration's range.
inline std::string duration(double count, Duration unit, Duration& out) {
    const double ps = count * static_cast<double>(unit);
    if (!(std::fabs(ps) < 9e18)) return "duration out of range";
    out = std::llround(ps);
    return "";
}

/// A duration given as a (possibly fractional) count of `unit`s.
inline std::string duration(const std::string& text, Duration unit,
                            Duration& out) {
    double count = 0;
    const std::string why = number(text, count);
    return why.empty() ? duration(count, unit, out) : why;
}

/// `text` cut at every `sep`, empty fields kept: "a,,b" gives {"a", "",
/// "b"} and "" gives {""}, so a stray separator reaches the caller.
inline std::vector<std::string> split(const std::string& text, char sep) {
    std::vector<std::string> out;
    size_t pos = 0;
    for (size_t at; (at = text.find(sep, pos)) != std::string::npos;
         pos = at + 1) {
        out.push_back(text.substr(pos, at - pos));
    }
    out.push_back(text.substr(pos));
    return out;
}

/// One key of a spec grammar. `read` parses the key's value into the
/// grammar's config and returns why it cannot, or "".
template <typename Config>
struct SpecKey {
    const char* name;
    std::string (*read)(Config&, const std::string& value);
};

/// The `name`s of a table's rows, joined with ", ".
template <typename Row, size_t N>
std::string joinNames(const Row (&rows)[N]) {
    std::string out;
    for (const Row& row : rows) {
        out += (out.empty() ? "" : ", ") + std::string(row.name);
    }
    return out;
}

/// The keys a spec gave, in the order given.
struct GivenKeys {
    std::vector<std::string> keys;
    bool has(const char* key) const {
        return std::find(keys.begin(), keys.end(), key) != keys.end();
    }
};

/// Reads `body`, a ','-separated list of `k=v` pairs, into `cfg` through
/// the grammar's key table. Every pair must be `k=v`, and every key must
/// be in the table and appear at most once. Returns why the body cannot be
/// read, naming the grammar, the key and the value, or "" once every pair
/// is read; `given`, if set, then holds the keys given. `cfg` may be half
/// written on failure, so callers read into a copy.
template <typename Config, size_t N>
std::string readSpec(const std::string& grammar, const std::string& body,
                     const SpecKey<Config> (&keys)[N], Config& cfg,
                     GivenKeys* given = nullptr) {
    if (body.empty()) return "empty " + grammar + " spec";
    GivenKeys seen;
    for (const std::string& pair : split(body, ',')) {
        const size_t eq = pair.find('=');
        if (eq == std::string::npos) {
            return grammar + " spec: expected k=v, got '" + pair + "'";
        }
        const std::string key = pair.substr(0, eq);
        const auto row = std::find_if(
            std::begin(keys), std::end(keys),
            [&key](const SpecKey<Config>& k) { return key == k.name; });
        if (row == std::end(keys)) {
            return "unknown " + grammar + " key '" + key + "' in '" + pair +
                   "' (known: " + joinNames(keys) + ")";
        }
        if (seen.has(row->name)) {
            return "repeated " + grammar + " key '" + key + "' in '" + pair +
                   "' (each key may appear once)";
        }
        const std::string value = pair.substr(eq + 1);
        const std::string why = row->read(cfg, value);
        if (!why.empty()) {
            return grammar + " key " + key + ": " + why + ", got '" + value +
                   "'";
        }
        seen.keys.push_back(key);
    }
    if (given != nullptr) *given = std::move(seen);
    return "";
}

}  // namespace homa
