// Tiny JSON reader: just enough of RFC 8259 for the files this repo
// writes and reads (sweep shard and manifest files, BENCH_*.json
// artifacts): objects, arrays, strings (with \uXXXX decoding, no
// surrogate pairs), numbers, booleans, null.
//
// Header-only and standard library only, so the bench tools
// (bench_compare, bench_trajectory) include it by relative path and still
// build with a bare g++, without the homa library.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace homa::json {

struct Json {
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool boolean = false;
    double number = 0;
    std::string text;
    std::vector<Json> items;
    std::map<std::string, Json> fields;

    const Json* get(const std::string& key) const {
        const auto it = fields.find(key);
        return it == fields.end() ? nullptr : &it->second;
    }
    double num(const std::string& key, double fallback = 0) const {
        const Json* v = get(key);
        return v != nullptr && v->kind == Number ? v->number : fallback;
    }
    std::string str(const std::string& key) const {
        const Json* v = get(key);
        return v != nullptr && v->kind == String ? v->text : std::string();
    }
    bool boolean_(const std::string& key, bool fallback) const {
        const Json* v = get(key);
        return v != nullptr && v->kind == Bool ? v->boolean : fallback;
    }
};

class Parser {
public:
    explicit Parser(const std::string& text) : s_(text) {}

    bool parse(Json& out) {
        skipSpace();
        if (!value(out)) return false;
        skipSpace();
        return pos_ == s_.size();
    }

private:
    void skipSpace() {
        while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(
                                       s_[pos_])) != 0) {
            pos_++;
        }
    }
    bool literal(const char* word) {
        const size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0) return false;
        pos_ += n;
        return true;
    }
    bool value(Json& out) {
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
            case '{': return object(out);
            case '[': return array(out);
            case '"': out.kind = Json::String; return string(out.text);
            case 't': out.kind = Json::Bool; out.boolean = true;
                      return literal("true");
            case 'f': out.kind = Json::Bool; out.boolean = false;
                      return literal("false");
            case 'n': out.kind = Json::Null; return literal("null");
            default: return number(out);
        }
    }
    bool object(Json& out) {
        out.kind = Json::Object;
        pos_++;  // '{'
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == '}') { pos_++; return true; }
        for (;;) {
            skipSpace();
            std::string key;
            if (!string(key)) return false;
            skipSpace();
            if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
            skipSpace();
            Json v;
            if (!value(v)) return false;
            out.fields.emplace(std::move(key), std::move(v));
            skipSpace();
            if (pos_ >= s_.size()) return false;
            if (s_[pos_] == ',') { pos_++; continue; }
            if (s_[pos_] == '}') { pos_++; return true; }
            return false;
        }
    }
    bool array(Json& out) {
        out.kind = Json::Array;
        pos_++;  // '['
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == ']') { pos_++; return true; }
        for (;;) {
            skipSpace();
            Json v;
            if (!value(v)) return false;
            out.items.push_back(std::move(v));
            skipSpace();
            if (pos_ >= s_.size()) return false;
            if (s_[pos_] == ',') { pos_++; continue; }
            if (s_[pos_] == ']') { pos_++; return true; }
            return false;
        }
    }
    bool string(std::string& out) {
        if (pos_ >= s_.size() || s_[pos_] != '"') return false;
        pos_++;
        out.clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\' && pos_ < s_.size()) {
                const char esc = s_[pos_++];
                switch (esc) {
                    case 'n': c = '\n'; break;
                    case 't': c = '\t'; break;
                    case 'r': c = '\r'; break;
                    case 'b': c = '\b'; break;
                    case 'f': c = '\f'; break;
                    case 'u': {
                        // Decode \uXXXX (the writer emits these for
                        // control characters); UTF-8-encode the code
                        // point. No surrogate-pair handling — the
                        // writer never emits any.
                        if (pos_ + 4 > s_.size()) return false;
                        unsigned cp = 0;
                        for (int k = 0; k < 4; k++) {
                            const char h = s_[pos_ + k];
                            cp <<= 4;
                            if (h >= '0' && h <= '9') cp |= h - '0';
                            else if (h >= 'a' && h <= 'f') cp |= h - 'a' + 10;
                            else if (h >= 'A' && h <= 'F') cp |= h - 'A' + 10;
                            else return false;
                        }
                        pos_ += 4;
                        if (cp < 0x80) {
                            out += static_cast<char>(cp);
                        } else if (cp < 0x800) {
                            out += static_cast<char>(0xC0 | (cp >> 6));
                            out += static_cast<char>(0x80 | (cp & 0x3F));
                        } else {
                            out += static_cast<char>(0xE0 | (cp >> 12));
                            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                            out += static_cast<char>(0x80 | (cp & 0x3F));
                        }
                        continue;
                    }
                    default: c = esc; break;  // '"', '\\', '/'
                }
            }
            out += c;
        }
        if (pos_ >= s_.size()) return false;
        pos_++;  // closing quote
        return true;
    }
    bool number(Json& out) {
        char* end = nullptr;
        out.kind = Json::Number;
        out.number = std::strtod(s_.c_str() + pos_, &end);
        if (end == s_.c_str() + pos_) return false;
        pos_ = static_cast<size_t>(end - s_.c_str());
        return true;
    }

    const std::string& s_;
    size_t pos_ = 0;
};

inline bool loadJson(const std::string& path, Json& out) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    if (!Parser(text).parse(out)) {
        std::fprintf(stderr, "%s is not valid JSON\n", path.c_str());
        return false;
    }
    return true;
}

}  // namespace homa::json
