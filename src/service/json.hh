/**
 * @file
 * Minimal JSON value for the vtsimd wire protocol (one request or
 * reply per NDJSON line, src/service/protocol.*).
 *
 * Scope is deliberately small: parse and serialize the six JSON value
 * kinds with a recursion-depth cap, report malformed input by throwing
 * JsonError (a std::runtime_error — NOT FatalError: a bad request from
 * a client must never look like a simulator failure, the daemon turns
 * it into an error reply and keeps serving). Numbers are stored as
 * int64 when the literal is integral and round-trippable, double
 * otherwise — job ids and cycle counts survive exactly.
 */

#ifndef VTSIM_SERVICE_JSON_HH
#define VTSIM_SERVICE_JSON_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace vtsim::service {

/** Malformed JSON text or a type-mismatched access. */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &what)
        : std::runtime_error(what)
    {}
};

class Json
{
  public:
    enum class Type { Null, Bool, Int, Double, String, Array, Object };

    using Array = std::vector<Json>;
    /** std::map: deterministic key order when dumping. */
    using Object = std::map<std::string, Json>;

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(std::int64_t i) : type_(Type::Int), int_(i) {}
    Json(std::uint64_t u) : type_(Type::Int), int_(std::int64_t(u)) {}
    Json(int i) : type_(Type::Int), int_(i) {}
    Json(unsigned u) : type_(Type::Int), int_(std::int64_t(u)) {}
    Json(double d) : type_(Type::Double), double_(d) {}
    Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
    Json(const char *s) : type_(Type::String), string_(s) {}
    Json(Array a) : type_(Type::Array), array_(std::move(a)) {}
    Json(Object o) : type_(Type::Object), object_(std::move(o)) {}

    /** Parse exactly one JSON document; trailing non-space throws. */
    static Json parse(std::string_view text);

    Type type() const { return type_; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isInt() const { return type_ == Type::Int; }
    bool isNumber() const
    { return type_ == Type::Int || type_ == Type::Double; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; throw JsonError on kind mismatch. */
    bool asBool() const;
    std::int64_t asInt() const;
    double asDouble() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Object member, or nullptr when absent (or not an object). */
    const Json *find(const std::string &key) const;

    /** Serialize on one line (NDJSON-safe: no raw newlines). */
    std::string dump() const;

  private:
    void dumpTo(std::string &out) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

} // namespace vtsim::service

#endif // VTSIM_SERVICE_JSON_HH
