/**
 * @file
 * The one JSON reader (RFC 8259): sweep-spec files, the fabric service's
 * NDJSON request and event lines, and the fuzz coverage baseline all
 * parse through json::parse(). The document tree (json::Node) is also
 * what the TOML-subset spec parser produces, so the spec builder walks
 * one shape for both syntaxes.
 *
 * The reader lexes every RFC 8259 value. It decodes `\uXXXX` escapes in
 * the range jsonEscape (sweep/report.h) emits, `\u0000`-`\u007f`, and
 * rejects higher code points. Nesting is bounded by kMaxNestingDepth, so
 * a hostile document fails with a diagnostic instead of exhausting the
 * stack. Every error is a ParseError carrying `file:line:col`.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace vortex {

/** Malformed text input. what() carries the full diagnostic;
 *  file/line/column locate the first offending character (column 0 when
 *  the error spans a whole construct, e.g. a missing required key). */
class ParseError : public std::runtime_error
{
  public:
    /** Build the diagnostic "file:line:col: message" (line/col omitted
     *  when 0). */
    ParseError(std::string file, size_t line, size_t column,
               const std::string& message);

    /** The file name (or pseudo-name) the text came from. */
    const std::string& file() const { return file_; }
    /** 1-based line of the error; 0 when the position is unknown. */
    size_t line() const { return line_; }
    /** 1-based column of the error; 0 when the position is unknown. */
    size_t column() const { return column_; }

  private:
    std::string file_; ///< input name used in the diagnostic
    size_t line_;      ///< 1-based error line (0 = unknown)
    size_t column_;    ///< 1-based error column (0 = unknown)
};

/** The JSON reader and the document tree it shares with the TOML spec
 *  parser. */
namespace json {

/** Deepest nesting a document may have: json::parse() refuses objects
 *  and arrays nested deeper, the TOML spec parser dotted keys with more
 *  components. The spec schema nests 7 levels (root, axes, axis, points,
 *  point, set, a dotted field group); NDJSON lines and the coverage
 *  baseline nest 2. */
constexpr size_t kMaxNestingDepth = 64;

/** One `key: value` member of a table, with the key's position. */
struct Member
{
    std::string key;       ///< member name
    size_t line = 0;       ///< 1-based line of the key
    size_t col = 0;        ///< 1-based column of the key
    size_t valueIndex = 0; ///< index of the value node in Node::children
};

/** One value of a parsed document. Tables keep member order, and every
 *  node remembers where it began so consumers can point diagnostics at
 *  the source. */
struct Node
{
    /** The value's type. Float and Null come only from JSON. */
    enum class Kind : uint8_t
    {
        String,  ///< text in str
        Integer, ///< a number without fraction or exponent, in integer
        Float,   ///< a number with a fraction or exponent, as text in str
        Boolean, ///< true or false, in boolean
        Null,    ///< JSON null
        Table,   ///< ordered members (a JSON object, a TOML table)
        Array,   ///< elements in children
    };

    Kind kind = Kind::Table; ///< which of the value fields below is set
    size_t line = 0;         ///< 1-based line where the value begins
    size_t col = 0;          ///< 1-based column where the value begins

    std::string str;      ///< Kind::String text; Kind::Float source text
    int64_t integer = 0;  ///< Kind::Integer value
    bool boolean = false; ///< Kind::Boolean value

    std::vector<Member> members; ///< Kind::Table members, in order
    std::vector<Node> children;  ///< table member values / array elements

    /** "string", "integer", "float", "boolean", "null", "table" or
     *  "array" (the word diagnostics use). */
    const char* kindName() const;

    /** The value of member @p key of this table; nullptr if absent. */
    Node* find(const std::string& key);
    /** The value of member @p key of this table; nullptr if absent. */
    const Node* find(const std::string& key) const;

    /** The string value of member @p key; nullptr if it is absent or not
     *  a string. */
    const std::string* findString(const std::string& key) const;
};

/**
 * Parse JSON @p text, whose top-level value must be an object.
 * @param file name used in diagnostics
 * @throws ParseError on any syntax error, a `\u` escape above `\u007f`,
 *         nesting deeper than kMaxNestingDepth, or a duplicate key.
 */
Node parse(const std::string& text, const std::string& file);

} // namespace json

} // namespace vortex
