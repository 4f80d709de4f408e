/**
 * @file
 * Minimal JSON value type, parser, and writer for the hpe::api request /
 * response schema and the hpe_serve wire protocol.
 *
 * Deliberately small rather than general:
 *
 *  - objects keep their members in sorted key order (std::map), so
 *    dump() of a given value is *canonical* — the fingerprint of an
 *    ExperimentRequest hashes exactly these bytes;
 *  - numbers are stored as int64/uint64/double sidecars so 64-bit seeds
 *    and digests round-trip exactly (a double mantissa would corrupt
 *    seeds above 2^53);
 *  - parse() accepts strict JSON (RFC 8259 subset: no comments, no
 *    trailing commas) and reports the byte offset of the first error.
 *
 * Nothing here allocates on the simulation hot path; JSON exists only at
 * the request/response boundary.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace hpe::api::json {

class Value;

/** Object member map; std::map keeps dump() output canonically sorted. */
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

/** One JSON value (null / bool / number / string / array / object). */
class Value
{
  public:
    enum class Kind { Null, Bool, Uint, Int, Double, String, Array, Object };

    Value() : kind_(Kind::Null) {}
    Value(std::nullptr_t) : kind_(Kind::Null) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(std::uint64_t v) : kind_(Kind::Uint), uint_(v) {}
    Value(std::int64_t v) : kind_(Kind::Int), int_(v) {}
    Value(int v) : kind_(Kind::Int), int_(v) {}
    Value(unsigned v) : kind_(Kind::Uint), uint_(v) {}
    Value(double v) : kind_(Kind::Double), double_(v) {}
    Value(const char *s) : kind_(Kind::String), string_(s) {}
    Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
    Value(Array a) : kind_(Kind::Array), array_(std::move(a)) {}
    Value(Object o) : kind_(Kind::Object), object_(std::move(o)) {}

    Kind kind() const { return kind_; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool
    isNumber() const
    {
        return kind_ == Kind::Uint || kind_ == Kind::Int
               || kind_ == Kind::Double;
    }

    /** @{ Typed accessors; the caller checked the kind (or uses the
     *  lookup helpers below, which check for it). */
    bool asBool() const { return bool_; }
    const std::string &asString() const { return string_; }
    const Array &asArray() const { return array_; }
    const Object &asObject() const { return object_; }
    Object &asObject() { return object_; }

    std::int64_t
    asInt() const
    {
        if (kind_ == Kind::Int)
            return int_;
        if (kind_ == Kind::Uint)
            return static_cast<std::int64_t>(uint_);
        return static_cast<std::int64_t>(double_);
    }

    std::uint64_t
    asUint() const
    {
        if (kind_ == Kind::Uint)
            return uint_;
        if (kind_ == Kind::Int && int_ >= 0)
            return static_cast<std::uint64_t>(int_);
        return static_cast<std::uint64_t>(double_);
    }

    double
    asDouble() const
    {
        if (kind_ == Kind::Double)
            return double_;
        if (kind_ == Kind::Uint)
            return static_cast<double>(uint_);
        return static_cast<double>(int_);
    }
    /** @} */

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *
    find(const std::string &key) const
    {
        if (kind_ != Kind::Object)
            return nullptr;
        auto it = object_.find(key);
        return it == object_.end() ? nullptr : &it->second;
    }

    /** Serialize compactly (no whitespace, sorted object keys). */
    std::string dump() const;

  private:
    Kind kind_;
    bool bool_ = false;
    std::uint64_t uint_ = 0;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

/** Parse failure: what went wrong and where. */
struct ParseError
{
    std::string message;
    std::size_t offset = 0;
};

/** Parse strict JSON; on failure returns nullopt and fills @p err. */
std::optional<Value> parse(const std::string &text, ParseError *err = nullptr);

} // namespace hpe::api::json
