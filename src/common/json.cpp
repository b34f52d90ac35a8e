/**
 * @file
 * The JSON reader (json.h): a recursive-descent parser over RFC 8259
 * with positioned diagnostics and a fixed nesting bound.
 */

#include "common/json.h"

#include <cctype>
#include <utility>

namespace vortex {

ParseError::ParseError(std::string file, size_t line, size_t column,
                       const std::string& message)
    : std::runtime_error(
          line == 0 ? file + ": " + message
                    : file + ":" + std::to_string(line) + ":" +
                          std::to_string(column) + ": " + message),
      file_(std::move(file)), line_(line), column_(column)
{
}

namespace json {

namespace {

[[noreturn]] void
fail(const std::string& file, size_t line, size_t col,
     const std::string& message)
{
    throw ParseError(file, line, col, message);
}

bool
isDigit(char c)
{
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

class JsonParser
{
  public:
    JsonParser(const std::string& text, const std::string& file)
        : text_(text), file_(file)
    {
    }

    Node
    parse()
    {
        skipWs();
        Node root = parseValue(0);
        skipWs();
        if (pos_ < text_.size())
            fail(file_, line_, col_, "trailing content after document");
        if (root.kind != Node::Kind::Table)
            fail(file_, root.line, root.col,
                 "top-level JSON value must be an object");
        return root;
    }

  private:
    /** Parse the value at the cursor; @p depth containers enclose it. */
    Node
    parseValue(size_t depth)
    {
        if (pos_ >= text_.size())
            fail(file_, line_, col_, "unexpected end of input");
        Node n;
        n.line = line_;
        n.col = col_;
        char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (depth == kMaxNestingDepth)
                fail(file_, line_, col_,
                     "document nests deeper than " +
                         std::to_string(kMaxNestingDepth) + " levels");
            // A table's members and an array's elements share the list
            // syntax; only a member has a `"key":` before its value.
            bool table = c == '{';
            char close = table ? '}' : ']';
            n.kind = table ? Node::Kind::Table : Node::Kind::Array;
            advance();
            skipWs();
            if (peek() == close) {
                advance();
                return n;
            }
            while (true) {
                skipWs();
                if (table)
                    parseKey(n);
                n.children.push_back(parseValue(depth + 1));
                skipWs();
                if (peek() != ',')
                    break;
                advance();
            }
            expect(close);
        } else if (c == '"') {
            n.kind = Node::Kind::String;
            n.str = parseString();
        } else if (c == 't' || c == 'f') {
            n.kind = Node::Kind::Boolean;
            const char* word = c == 't' ? "true" : "false";
            size_t len = c == 't' ? 4 : 5;
            if (text_.compare(pos_, len, word) != 0)
                fail(file_, line_, col_, "unrecognized literal");
            n.boolean = c == 't';
            for (size_t k = 0; k < len; ++k)
                advance();
        } else if (c == '-' || isDigit(c)) {
            parseNumber(n);
        } else if (text_.compare(pos_, 4, "null") == 0) {
            n.kind = Node::Kind::Null;
            for (size_t k = 0; k < 4; ++k)
                advance();
        } else {
            fail(file_, line_, col_, "unrecognized value");
        }
        return n;
    }

    /** Parse `"key":` at the cursor and add it as the next member of
     *  @p table, whose value the caller parses next. */
    void
    parseKey(Node& table)
    {
        size_t kl = line_, kc = col_;
        if (peek() != '"')
            fail(file_, line_, col_, "expected a \"key\" string");
        std::string key = parseString();
        skipWs();
        expect(':');
        skipWs();
        if (table.find(key))
            fail(file_, kl, kc, "key '" + key + "' set twice");
        table.members.push_back(
            Member{key, kl, kc, table.children.size()});
    }

    /** `-? digits (. digits)? ([eE] [+-]? digits)?`: an Integer node,
     *  or a Float node holding the source text when a fraction or an
     *  exponent is present. */
    void
    parseNumber(Node& n)
    {
        size_t start = pos_;
        if (peek() == '-')
            advance();
        bool ok = skipDigits();
        bool isFloat = false;
        if (peek() == '.') {
            isFloat = true;
            advance();
            ok = skipDigits() && ok;
        }
        if (peek() == 'e' || peek() == 'E') {
            isFloat = true;
            advance();
            if (peek() == '+' || peek() == '-')
                advance();
            ok = skipDigits() && ok;
        }
        if (!ok)
            fail(file_, n.line, n.col, "malformed number");
        std::string lexeme = text_.substr(start, pos_ - start);
        if (isFloat) {
            n.kind = Node::Kind::Float;
            n.str = std::move(lexeme);
            return;
        }
        n.kind = Node::Kind::Integer;
        try {
            n.integer = std::stoll(lexeme);
        } catch (const std::exception&) {
            fail(file_, n.line, n.col, "integer out of range");
        }
    }

    /** Advance over a run of digits; false when there is none. */
    bool
    skipDigits()
    {
        size_t start = pos_;
        while (pos_ < text_.size() && isDigit(text_[pos_]))
            advance();
        return pos_ > start;
    }

    std::string
    parseString()
    {
        advance(); // opening quote
        std::string out;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                advance();
                return out;
            }
            if (c == '\\') {
                advance();
                if (pos_ >= text_.size())
                    break;
                char e = text_[pos_];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': out += parseUnicodeEscape(); continue;
                default:
                    fail(file_, line_, col_,
                         std::string("unsupported escape '\\") + e + "'");
                }
                advance();
                continue;
            }
            if (c == '\n')
                fail(file_, line_, col_, "unterminated string");
            out += c;
            advance();
        }
        fail(file_, line_, col_, "unterminated string");
    }

    /** Decode `uXXXX` at the cursor (the backslash already consumed). */
    char
    parseUnicodeEscape()
    {
        size_t ul = line_, uc = col_;
        std::string hex = text_.substr(pos_ + 1, 4);
        if (hex.size() != 4 ||
            hex.find_first_not_of("0123456789abcdefABCDEF") !=
                std::string::npos)
            fail(file_, ul, uc,
                 "malformed escape '\\u' (expected four hex digits)");
        unsigned long code = std::stoul(hex, nullptr, 16);
        if (code > 0x7f)
            fail(file_, ul, uc,
                 "unsupported escape '\\u" + hex +
                     "' (only \\u0000-\\u007f are decoded)");
        for (int k = 0; k < 5; ++k)
            advance();
        return static_cast<char>(code);
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(file_, line_, col_,
                 std::string("expected '") + c + "'");
        advance();
    }

    void
    advance()
    {
        if (pos_ < text_.size() && text_[pos_] == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
        ++pos_;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            advance();
    }

    const std::string& text_;
    const std::string& file_;
    size_t pos_ = 0;
    size_t line_ = 1;
    size_t col_ = 1;
};

} // namespace

const char*
Node::kindName() const
{
    switch (kind) {
    case Kind::String: return "string";
    case Kind::Integer: return "integer";
    case Kind::Float: return "float";
    case Kind::Boolean: return "boolean";
    case Kind::Null: return "null";
    case Kind::Table: return "table";
    case Kind::Array: return "array";
    }
    return "?";
}

Node*
Node::find(const std::string& key)
{
    for (const Member& m : members)
        if (m.key == key)
            return &children[m.valueIndex];
    return nullptr;
}

const Node*
Node::find(const std::string& key) const
{
    return const_cast<Node*>(this)->find(key);
}

const std::string*
Node::findString(const std::string& key) const
{
    const Node* v = find(key);
    return v && v->kind == Kind::String ? &v->str : nullptr;
}

Node
parse(const std::string& text, const std::string& file)
{
    return JsonParser(text, file).parse();
}

} // namespace json

} // namespace vortex
