#include "driver/sweep_shard.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "driver/json.h"
#include "sim/parse.h"

namespace homa {

namespace {

using json::Json;
using json::Parser;

constexpr const char* kShardFormat = "homa-sweep-shard-v1";
constexpr const char* kManifestFormat = "homa-sweep-manifest-v1";

std::string jsonEscape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

/// printf-append for *short* fields (numbers, names). Anything of
/// unbounded length (labels, fingerprints) must be appended directly —
/// this truncates at the buffer size.
void appendf(std::string& s, const char* fmt, ...) {
    char buf[512];
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    s += buf;
}

bool fail(std::string& err, std::string why) {
    err = std::move(why);
    return false;
}

/// Non-negative integer field that may exceed 2^53? Seeds are uint64 and
/// a double cannot hold them exactly, so seeds are serialized as decimal
/// *strings* ("seed": "1234..."); indices and counts stay JSON numbers.
bool parseU64String(const Json& obj, const char* key, uint64_t& out) {
    return number(obj.str(key), out).empty();
}

}  // namespace

std::string sweepFingerprint(const std::vector<ShardPoint>& points) {
    uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis
    auto eat = [&h](const std::string& s) {
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ull;  // FNV prime
        }
    };
    char buf[32];
    for (const ShardPoint& p : points) {
        std::snprintf(buf, sizeof(buf), "%llu=",
                      static_cast<unsigned long long>(p.index));
        eat(buf);
        eat(p.fingerprint);
        eat("\n");
    }
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string writeShardFile(const ShardFile& f,
                           const std::string& extraRawFields) {
    std::string s;
    s += "{\n";
    appendf(s, "  \"format\": \"%s\",\n", kShardFormat);
    s += "  \"sweep\": \"" + jsonEscape(f.sweep) + "\",\n";
    appendf(s, "  \"shard_index\": %d,\n", f.shard.index);
    appendf(s, "  \"shard_count\": %d,\n", f.shard.count);
    appendf(s, "  \"total_points\": %llu,\n",
            static_cast<unsigned long long>(f.totalPoints));
    appendf(s, "  \"base_seed\": \"%llu\",\n",
            static_cast<unsigned long long>(f.baseSeed));
    appendf(s, "  \"derive_seeds\": %s,\n", f.deriveSeeds ? "true" : "false");
    appendf(s, "  \"threads\": %d,\n", f.threads);
    appendf(s, "  \"wall_seconds\": %.6f,\n", f.wallSeconds);
    appendf(s, "  \"serial_wall_seconds\": %.6f,\n", f.serialWallSeconds);
    appendf(s, "  \"identical_across_thread_counts\": %s,\n",
            f.identical ? "true" : "false");
    appendf(s, "  \"sweep_fingerprint\": \"%s\",\n",
            sweepFingerprint(f.points).c_str());
    s += extraRawFields;
    s += "  \"points_detail\": [";
    for (size_t k = 0; k < f.points.size(); k++) {
        const ShardPoint& p = f.points[k];
        s += k == 0 ? "\n" : ",\n";
        appendf(s, "    {\"index\": %llu, \"seed\": \"%llu\", ",
                static_cast<unsigned long long>(p.index),
                static_cast<unsigned long long>(p.seed));
        s += "\"label\": \"" + jsonEscape(p.label) + "\", ";
        s += "\"fingerprint\": \"" + jsonEscape(p.fingerprint) + "\"}";
    }
    s += f.points.empty() ? "]\n" : "\n  ]\n";
    s += "}\n";
    return s;
}

bool parseShardFile(const std::string& json, ShardFile& out,
                    std::string& err) {
    Json doc;
    if (!Parser(json).parse(doc) || doc.kind != Json::Object) {
        return fail(err, "not valid JSON");
    }
    if (doc.str("format") != kShardFormat) {
        return fail(err, "missing or unknown \"format\" (want " +
                             std::string(kShardFormat) + ")");
    }
    ShardFile f;
    f.sweep = doc.str("sweep");
    if (f.sweep.empty()) return fail(err, "missing \"sweep\" name");
    f.shard.index = static_cast<int>(doc.num("shard_index", -1));
    f.shard.count = static_cast<int>(doc.num("shard_count", -1));
    if (const char* why = validateShardSpec(f.shard)) return fail(err, why);
    const double total = doc.num("total_points", 0);
    if (total < 0 || total > static_cast<double>(kMaxSweepPoints)) {
        return fail(err, "total_points out of range (max " +
                             std::to_string(kMaxSweepPoints) + ")");
    }
    f.totalPoints = static_cast<uint64_t>(total);
    if (!parseU64String(doc, "base_seed", f.baseSeed)) {
        return fail(err, "missing or malformed \"base_seed\"");
    }
    f.deriveSeeds = doc.boolean_("derive_seeds", false);
    f.threads = static_cast<int>(doc.num("threads", 1));
    f.wallSeconds = doc.num("wall_seconds", 0);
    f.serialWallSeconds = doc.num("serial_wall_seconds", 0);
    f.identical = doc.boolean_("identical_across_thread_counts", true);

    const Json* points = doc.get("points_detail");
    if (points == nullptr || points->kind != Json::Array) {
        return fail(err, "missing \"points_detail\" array");
    }
    uint64_t prev = 0;
    for (const Json& item : points->items) {
        if (item.kind != Json::Object) {
            return fail(err, "points_detail entry is not an object");
        }
        ShardPoint p;
        const Json* idx = item.get("index");
        if (idx == nullptr || idx->kind != Json::Number || idx->number < 0) {
            return fail(err, "point missing numeric \"index\"");
        }
        p.index = static_cast<uint64_t>(idx->number);
        if (!parseU64String(item, "seed", p.seed)) {
            return fail(err, "point missing \"seed\"");
        }
        p.label = item.str("label");
        p.fingerprint = item.str("fingerprint");
        if (p.fingerprint.empty()) {
            return fail(err, "point missing \"fingerprint\"");
        }
        if (p.index >= f.totalPoints) {
            return fail(err, "point index beyond total_points");
        }
        if (!shardOwns(f.shard, p.index)) {
            return fail(err, "point " + std::to_string(p.index) +
                                 " not owned by shard " +
                                 std::to_string(f.shard.index) + "/" +
                                 std::to_string(f.shard.count));
        }
        if (!f.points.empty() && p.index <= prev) {
            return fail(err, "point indices not strictly ascending");
        }
        prev = p.index;
        f.points.push_back(std::move(p));
    }
    const std::string fp = doc.str("sweep_fingerprint");
    if (!fp.empty() && fp != sweepFingerprint(f.points)) {
        return fail(err, "sweep_fingerprint does not match points_detail "
                         "(file corrupted or hand-edited)");
    }
    out = std::move(f);
    return true;
}

std::string benchCompatExtras(const ShardFile& f) {
    if (f.serialWallSeconds <= 0) return "";
    const double speedup =
        f.wallSeconds > 0 ? f.serialWallSeconds / f.wallSeconds : 0;
    std::string s;
    s += "  \"bench\": \"" + jsonEscape(f.sweep) + "\",\n";
    appendf(s, "  \"points\": %zu,\n", f.points.size());
    appendf(s, "  \"wall_seconds_1_thread\": %.6f,\n", f.serialWallSeconds);
    appendf(s, "  \"wall_seconds_parallel\": %.6f,\n", f.wallSeconds);
    appendf(s, "  \"speedup\": %.3f,\n", speedup);
    appendf(s, "  \"results_identical_across_thread_counts\": %s,\n",
            f.identical ? "true" : "false");
    return s;
}

ShardFile shardFileFromOutcome(const std::string& sweepName,
                               const SweepOptions& opts,
                               const ShardSpec& shard,
                               const ShardOutcome& outcome,
                               const std::vector<std::string>& labels) {
    ShardFile f;
    f.sweep = sweepName;
    f.shard = shard;
    f.totalPoints = outcome.totalPoints;
    f.baseSeed = opts.baseSeed;
    f.deriveSeeds = opts.deriveSeeds;
    f.threads = outcome.threadsUsed;
    f.wallSeconds = outcome.wallSeconds;
    f.points.reserve(outcome.indices.size());
    for (size_t k = 0; k < outcome.indices.size(); k++) {
        ShardPoint p;
        p.index = outcome.indices[k];
        p.seed = outcome.seeds[k];
        if (p.index < labels.size()) p.label = labels[p.index];
        p.fingerprint = resultFingerprint(outcome.results[k]);
        f.points.push_back(std::move(p));
    }
    return f;
}

bool mergeShardFiles(const std::vector<ShardFile>& shards, ShardFile& out,
                     std::string& err) {
    if (shards.empty()) return fail(err, "no shard files to merge");
    // Re-validate headers before sizing anything off them: parseShardFile
    // enforces these for files, but in-memory callers build ShardFile
    // structs directly.
    for (const ShardFile& f : shards) {
        if (const char* why = validateShardSpec(f.shard)) {
            return fail(err, why);
        }
        if (f.totalPoints > kMaxSweepPoints) {
            return fail(err, "total_points out of range (max " +
                                 std::to_string(kMaxSweepPoints) + ")");
        }
    }
    const ShardFile& first = shards[0];
    ShardFile merged;
    merged.sweep = first.sweep;
    merged.shard = {0, 1};
    merged.totalPoints = first.totalPoints;
    merged.baseSeed = first.baseSeed;
    merged.deriveSeeds = first.deriveSeeds;
    merged.threads = 0;
    merged.serialWallSeconds = 0;
    merged.identical = true;

    std::vector<bool> shardSeen(static_cast<size_t>(first.shard.count),
                                false);
    std::vector<const ShardPoint*> slots(merged.totalPoints, nullptr);
    for (const ShardFile& f : shards) {
        if (f.sweep != merged.sweep) {
            return fail(err, "sweep name mismatch: \"" + f.sweep +
                                 "\" vs \"" + merged.sweep + "\"");
        }
        if (f.totalPoints != merged.totalPoints) {
            return fail(err, "total_points mismatch across shards");
        }
        if (f.baseSeed != merged.baseSeed ||
            f.deriveSeeds != merged.deriveSeeds) {
            return fail(err, "seed rule (base_seed/derive_seeds) mismatch "
                             "across shards");
        }
        if (f.shard.count != first.shard.count) {
            return fail(err, "shard_count mismatch: " +
                                 std::to_string(f.shard.count) + " vs " +
                                 std::to_string(first.shard.count));
        }
        if (shardSeen[static_cast<size_t>(f.shard.index)]) {
            return fail(err, "overlapping shards: shard " +
                                 std::to_string(f.shard.index) +
                                 " appears more than once");
        }
        shardSeen[static_cast<size_t>(f.shard.index)] = true;
        for (const ShardPoint& p : f.points) {
            // parseShardFile enforces ownership and range; guard again
            // for in-memory callers.
            if (p.index >= merged.totalPoints) {
                return fail(err, "point index beyond total_points");
            }
            if (slots[p.index] != nullptr) {
                return fail(err, "overlapping shards: point " +
                                     std::to_string(p.index) +
                                     " provided twice");
            }
            slots[p.index] = &p;
        }
        merged.threads += f.threads;
        merged.wallSeconds = std::max(merged.wallSeconds, f.wallSeconds);
        merged.serialWallSeconds += f.serialWallSeconds;
        merged.identical = merged.identical && f.identical;
    }
    for (int k = 0; k < first.shard.count; k++) {
        if (!shardSeen[static_cast<size_t>(k)]) {
            return fail(err, "incomplete merge: shard " + std::to_string(k) +
                                 "/" + std::to_string(first.shard.count) +
                                 " missing");
        }
    }
    merged.points.reserve(merged.totalPoints);
    for (uint64_t i = 0; i < merged.totalPoints; i++) {
        if (slots[i] == nullptr) {
            return fail(err, "incomplete merge: point " + std::to_string(i) +
                                 " missing");
        }
        merged.points.push_back(*slots[i]);
    }
    out = std::move(merged);
    return true;
}

std::string writeShardManifest(const ShardManifest& m) {
    std::string s;
    s += "{\n";
    appendf(s, "  \"format\": \"%s\",\n", kManifestFormat);
    s += "  \"sweep\": \"" + jsonEscape(m.sweep) + "\",\n";
    appendf(s, "  \"total_points\": %llu,\n",
            static_cast<unsigned long long>(m.totalPoints));
    appendf(s, "  \"shard_count\": %d,\n", m.shardCount);
    appendf(s, "  \"base_seed\": \"%llu\",\n",
            static_cast<unsigned long long>(m.baseSeed));
    appendf(s, "  \"derive_seeds\": %s,\n", m.deriveSeeds ? "true" : "false");
    s += "  \"shards\": [";
    for (int k = 0; k < m.shardCount; k++) {
        s += k == 0 ? "\n" : ",\n";
        appendf(s, "    {\"index\": %d, \"args\": \"--shard=%d/%d\", "
                   "\"points\": [", k, k, m.shardCount);
        const std::vector<uint64_t> owned =
            shardPointIndices({k, m.shardCount}, m.totalPoints);
        for (size_t j = 0; j < owned.size(); j++) {
            appendf(s, "%s%llu", j == 0 ? "" : ", ",
                    static_cast<unsigned long long>(owned[j]));
        }
        s += "]}";
    }
    s += m.shardCount == 0 ? "]\n" : "\n  ]\n";
    s += "}\n";
    return s;
}

bool parseShardManifest(const std::string& json, ShardManifest& out,
                        std::string& err) {
    Json doc;
    if (!Parser(json).parse(doc) || doc.kind != Json::Object) {
        return fail(err, "not valid JSON");
    }
    if (doc.str("format") != kManifestFormat) {
        return fail(err, "missing or unknown \"format\" (want " +
                             std::string(kManifestFormat) + ")");
    }
    ShardManifest m;
    m.sweep = doc.str("sweep");
    if (m.sweep.empty()) return fail(err, "missing \"sweep\" name");
    const double total = doc.num("total_points", 0);
    if (total < 0 || total > static_cast<double>(kMaxSweepPoints)) {
        return fail(err, "total_points out of range (max " +
                             std::to_string(kMaxSweepPoints) + ")");
    }
    m.totalPoints = static_cast<uint64_t>(total);
    m.shardCount = static_cast<int>(doc.num("shard_count", 0));
    if (m.shardCount < 1 || m.shardCount > 1'000'000) {
        return fail(err, "shard_count out of range [1, 1000000]");
    }
    if (!parseU64String(doc, "base_seed", m.baseSeed)) {
        return fail(err, "missing or malformed \"base_seed\"");
    }
    m.deriveSeeds = doc.boolean_("derive_seeds", false);

    // The shards array is derivable from the header; when present it
    // must agree with the positional assignment rule.
    const Json* shards = doc.get("shards");
    if (shards != nullptr) {
        if (shards->kind != Json::Array ||
            shards->items.size() != static_cast<size_t>(m.shardCount)) {
            return fail(err, "shards array size != shard_count");
        }
        for (int k = 0; k < m.shardCount; k++) {
            const Json& entry = shards->items[static_cast<size_t>(k)];
            if (static_cast<int>(entry.num("index", -1)) != k) {
                return fail(err, "shards array not in index order");
            }
            const Json* pts = entry.get("points");
            if (pts == nullptr || pts->kind != Json::Array) {
                return fail(err, "shard entry missing points list");
            }
            const std::vector<uint64_t> owned =
                shardPointIndices({k, m.shardCount}, m.totalPoints);
            if (pts->items.size() != owned.size()) {
                return fail(err, "shard " + std::to_string(k) +
                                     " points list inconsistent with the "
                                     "positional assignment");
            }
            for (size_t j = 0; j < owned.size(); j++) {
                if (pts->items[j].kind != Json::Number ||
                    static_cast<uint64_t>(pts->items[j].number) != owned[j]) {
                    return fail(err, "shard " + std::to_string(k) +
                                         " points list inconsistent with "
                                         "the positional assignment");
                }
            }
        }
    }
    out = std::move(m);
    return true;
}

bool sweepsIdentical(const ShardFile& merged, const ShardFile& reference,
                     std::string& err) {
    if (merged.totalPoints != reference.totalPoints ||
        merged.points.size() != reference.points.size()) {
        return fail(err,
                    "grid mismatch: " + std::to_string(merged.points.size()) +
                        "/" + std::to_string(merged.totalPoints) +
                        " points vs " + std::to_string(reference.points.size()) +
                        "/" + std::to_string(reference.totalPoints));
    }
    std::string lines;
    int divergent = 0;
    constexpr int kMaxReported = 8;
    for (size_t k = 0; k < merged.points.size(); k++) {
        const ShardPoint& a = merged.points[k];
        const ShardPoint& b = reference.points[k];
        if (a.index == b.index && a.seed == b.seed &&
            a.fingerprint == b.fingerprint) {
            continue;
        }
        if (++divergent <= kMaxReported) {
            const std::string& label = a.label.empty() ? b.label : a.label;
            if (!lines.empty()) lines += '\n';
            lines += "point " + std::to_string(a.index) + " (" + label +
                     ") diverges from the reference run";
        }
    }
    if (divergent > 0) {
        if (divergent > kMaxReported) {
            lines += "\n... and " + std::to_string(divergent - kMaxReported) +
                     " more";
        }
        return fail(err, std::move(lines));
    }
    // Defense in depth: with every (index, fingerprint) pair equal the
    // hashes cannot differ.
    if (sweepFingerprint(merged.points) != sweepFingerprint(reference.points)) {
        return fail(err, "sweep fingerprints differ");
    }
    return true;
}

bool readTextFile(const std::string& path, std::string& out) {
    std::ifstream in(path);
    if (!in) return false;
    std::stringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

bool writeTextFile(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    if (!out) return false;
    out << text;
    return static_cast<bool>(out);
}

bool shardMatchesManifest(const ShardManifest& m, const ShardFile& f,
                          std::string& err) {
    if (f.sweep != m.sweep) {
        return fail(err, "shard sweep \"" + f.sweep +
                             "\" does not match manifest \"" + m.sweep + "\"");
    }
    if (f.totalPoints != m.totalPoints) {
        return fail(err, "shard total_points does not match manifest");
    }
    if (f.shard.count != m.shardCount) {
        return fail(err, "shard count does not match manifest");
    }
    if (f.baseSeed != m.baseSeed || f.deriveSeeds != m.deriveSeeds) {
        return fail(err, "shard seed rule does not match manifest");
    }
    return true;
}

}  // namespace homa
