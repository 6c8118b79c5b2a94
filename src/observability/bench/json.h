/**
 * @file
 * Minimal JSON value, parser and writer for the benchmarking
 * subsystem. The repository's other JSON is write-only (trace,
 * metrics and verifier exports, which share escape()); the bench
 * trajectory needs to *read* its own artifacts back — `hydride-bench`
 * merges per-binary reports and the regression gate compares a run
 * against a committed baseline — so round-tripping lives here,
 * stdlib-only, instead of growing a third-party dependency. It has no
 * dependencies and is built into hydride_observability.
 *
 * Supported: objects, arrays, strings (with \uXXXX escapes decoded
 * to UTF-8), doubles, bools, null. Numbers parse as double, which is
 * exact for every integer the bench schema emits (counts and
 * iteration totals fit in 2^53).
 */
#ifndef HYDRIDE_OBSERVABILITY_BENCH_JSON_H
#define HYDRIDE_OBSERVABILITY_BENCH_JSON_H

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hydride {
namespace bjson {

class Value;
using ValuePtr = std::shared_ptr<Value>;

/** One JSON value; a tagged union over the seven JSON kinds. */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<ValuePtr> items;
    // Parallel vectors keep object keys in insertion order (stable
    // diffs for committed BENCH_*.json artifacts).
    std::vector<std::string> keys;
    std::vector<ValuePtr> values;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member by key; nullptr when absent or not an object. */
    const Value *get(const std::string &key) const;

    /** Typed accessors with defaults (never throw). */
    double numberOr(double fallback) const;
    std::string stringOr(const std::string &fallback) const;
    bool boolOr(bool fallback) const;

    /** Convenience: member lookup + typed access in one step. */
    double getNumber(const std::string &key, double fallback) const;
    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    bool getBool(const std::string &key, bool fallback) const;

    // -- Builders ------------------------------------------------------------
    static ValuePtr makeNull();
    static ValuePtr makeBool(bool b);
    static ValuePtr makeNumber(double n);
    static ValuePtr makeString(std::string s);
    static ValuePtr makeArray();
    static ValuePtr makeObject();

    /** Append/overwrite an object member (insertion order kept). */
    void set(const std::string &key, ValuePtr value);
    /** Append an array element. */
    void push(ValuePtr value);
};

/**
 * Parse `text` into a Value. Returns nullptr and fills `error`
 * (message with byte offset) on malformed input. Trailing
 * whitespace is allowed; trailing garbage is an error.
 */
ValuePtr parse(const std::string &text, std::string &error);

/** Serialize compactly (no whitespace). */
std::string write(const Value &value);

/** Serialize with two-space indentation (committed artifacts stay
 *  diffable line-by-line). */
std::string writePretty(const Value &value);

/** JSON string escaping: quotes, backslashes and every control
 *  character below 0x20. The one escaper every JSON writer uses. */
std::string escape(const std::string &text);

/** Format a finite double the way the bench schema expects
 *  (shortest %.9g form; NaN/Inf clamp to 0 — JSON has no spelling
 *  for them). */
std::string formatNumber(double value);

} // namespace bjson
} // namespace hydride

#endif // HYDRIDE_OBSERVABILITY_BENCH_JSON_H
