/**
 * @file
 * Two-pass assembler implementation.
 *
 * Pass 0 parses lines into statements, peeling labels and consuming the
 * directives that emit nothing (.equ/.section/.globl/...). Pass 1 lays the
 * three sections out in .text/.rodata/.data order into one flat image and
 * binds labels. Pass 2 encodes, and — for object output — records a
 * relocation for every label reference that survives in the encoding as an
 * absolute address (see isa/object.h; pc-relative branches need none).
 *
 * Every diagnostic throws AsmError carrying the unit name plus 1-based
 * line and column of the offending token.
 */

#include "isa/assembler.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <optional>
#include <set>
#include <sstream>

#include "common/bitmanip.h"
#include "common/log.h"
#include "isa/isa.h"
#include "isa/object.h"

namespace vortex::isa {

Addr
Program::symbol(const std::string& name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        fatal("undefined symbol '", name, "'");
    return it->second;
}

namespace {

//
// Lexical helpers
//

std::string
trim(const std::string& s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

std::string
lower(std::string s)
{
    for (char& c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** Strip comments: #, //, and ; (outside of string literals). Only ever
 *  truncates, so byte positions in the result match the input line. */
std::string
stripComment(const std::string& line)
{
    bool in_str = false;
    for (size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (c == '"' && (i == 0 || line[i - 1] != '\\'))
            in_str = !in_str;
        if (in_str)
            continue;
        if (c == '#' || c == ';')
            return line.substr(0, i);
        if (c == '/' && i + 1 < line.size() && line[i + 1] == '/')
            return line.substr(0, i);
    }
    return line;
}

//
// Register name parsing
//

std::optional<RegId>
parseIntReg(const std::string& name)
{
    static const std::map<std::string, RegId> abi = [] {
        std::map<std::string, RegId> m;
        for (RegId i = 0; i < 32; ++i) {
            m[std::string(1, 'x').append(std::to_string(i))] = i;
            m[intRegName(i)] = i;
        }
        m["fp"] = 8; // frame-pointer alias for s0
        return m;
    }();
    auto it = abi.find(lower(name));
    if (it == abi.end())
        return std::nullopt;
    return it->second;
}

std::optional<RegId>
parseFpReg(const std::string& name)
{
    static const std::map<std::string, RegId> abi = [] {
        std::map<std::string, RegId> m;
        for (RegId i = 0; i < 32; ++i) {
            m[std::string(1, 'f').append(std::to_string(i))] = i;
            m[fpRegName(i)] = i;
        }
        return m;
    }();
    auto it = abi.find(lower(name));
    if (it == abi.end())
        return std::nullopt;
    return it->second;
}

//
// Statement representation
//

enum class StmtType { Instruction, Directive };

/** A source position: unit index + 1-based line and column. */
struct Loc
{
    int unit = 0;
    int line = 0;
    int col = 1;
};

enum : uint8_t { kText = 0, kRodata = 1, kData = 2, kNumSections = 3 };

const char* const kSectionNames[kNumSections] = {".text", ".rodata",
                                                 ".data"};

struct Stmt
{
    StmtType type;
    std::string head;              ///< lower-cased mnemonic or directive
    std::vector<std::string> args; ///< raw operand strings
    std::vector<int> argCols;      ///< 1-based column of each operand
    uint8_t section = kText;
    Loc loc;         ///< position of the mnemonic/directive token
    Addr addr = 0;   ///< assigned in pass 1
    size_t size = 0; ///< byte size, assigned in pass 1
};

/** What kind of encoding field a label-bearing expression lands in —
 *  decides which relocation (if any) can represent it. */
enum class RelCtx
{
    Word, ///< .word data — Abs32
    ImmI, ///< I-type immediate (addi/loads/jalr) — Lo12I via %lo
    ImmS, ///< S-type immediate (stores) — Lo12S via %lo
    Lui,  ///< lui operand — Hi20 via %hi
    LaLi, ///< la / 8-byte li — Hi20 + Lo12I pair
    None, ///< field that cannot carry a relocation (csr, shifts, ...)
};

/** Side channel from evalExpr: enough structure to classify the
 *  expression for relocation purposes. */
struct ExprInfo
{
    enum class Part : uint8_t { None, Hi, Lo };
    int labelWeight = 0; ///< net signed count of label terms
    Part part = Part::None;
    int64_t value = 0; ///< full value before %hi/%lo extraction
};

//
// The assembler engine
//

class Engine
{
  public:
    explicit Engine(Addr base) : base_(base) {}

    void
    run(const std::vector<SourceUnit>& units)
    {
        for (const SourceUnit& u : units) {
            unitNames_.push_back(u.name);
            parseUnit(static_cast<int>(unitNames_.size()) - 1, u.text);
        }
        layout();
        emit();
    }

    Program
    takeProgram()
    {
        Program p;
        p.base = base_;
        p.entry = base_;
        p.execEnd = sectionStart_[kText] + sectionSize_[kText];
        p.image = std::move(image_);
        p.symbols = std::move(symbols_);
        return p;
    }

    /** Build the relocatable object; label uses that no relocation can
     *  express are errors here (but fine for direct assembly). */
    ObjectFile
    takeObject()
    {
        for (const PendingReloc& r : relocs_)
            if (!r.supported)
                err(r.loc, "not relocatable: " + r.note);
        ObjectFile obj;
        obj.linkBase = base_;
        obj.entry = base_;
        obj.image = std::move(image_);
        for (int s = 0; s < kNumSections; ++s) {
            if (s != kText && sectionSize_[s] == 0)
                continue;
            obj.sections.push_back(
                {kSectionNames[s],
                 static_cast<uint32_t>(sectionStart_[s] - base_),
                 static_cast<uint32_t>(sectionSize_[s]),
                 /*exec=*/s == kText, /*writable=*/s == kData});
        }
        for (const auto& [name, addr] : symbols_)
            obj.symbols.push_back({name,
                                   static_cast<uint32_t>(addr - base_),
                                   globals_.count(name) > 0});
        std::stable_sort(relocs_.begin(), relocs_.end(),
                         [](const PendingReloc& a, const PendingReloc& b) {
                             return a.addr < b.addr;
                         });
        for (const PendingReloc& r : relocs_)
            obj.relocs.push_back(
                {static_cast<uint32_t>(r.addr - base_), r.kind, r.target});
        return obj;
    }

  private:
    [[noreturn]] void
    err(const Loc& loc, const std::string& msg) const
    {
        const std::string& file =
            loc.unit >= 0 &&
                    loc.unit < static_cast<int>(unitNames_.size())
                ? unitNames_[loc.unit]
                : "<asm>";
        throw AsmError(file, loc.line, loc.col, msg);
    }

    [[noreturn]] void
    err(const Stmt& st, const std::string& msg) const
    {
        err(st.loc, msg);
    }

    Loc
    argLoc(const Stmt& st, size_t i) const
    {
        Loc loc = st.loc;
        if (i < st.argCols.size())
            loc.col = st.argCols[i];
        return loc;
    }

    [[noreturn]] void
    errArg(const Stmt& st, size_t i, const std::string& msg) const
    {
        err(argLoc(st, i), msg);
    }

    //
    // Pass 0: parse lines into statements; record .equ constants eagerly so
    // pass-1 sizing of `li` can see them, and handle the section/symbol
    // directives that emit nothing.
    //

    void
    parseUnit(int unit, const std::string& source)
    {
        std::istringstream is(source);
        std::string raw;
        int lineno = 0;
        while (std::getline(is, raw)) {
            ++lineno;
            parseLine(unit, lineno, raw);
        }
    }

    void
    parseLine(int unit, int lineno, const std::string& raw)
    {
        std::string line = stripComment(raw);
        size_t pos = line.find_first_not_of(" \t\r\n");
        // Peel leading labels ("name:"), possibly several.
        while (pos != std::string::npos) {
            size_t colon = line.find(':', pos);
            if (colon == std::string::npos)
                break;
            std::string name =
                colon > pos ? line.substr(pos, colon - pos) : "";
            while (!name.empty() &&
                   std::isspace(static_cast<unsigned char>(name.back())))
                name.pop_back();
            if (name.empty() ||
                name.find_first_of(" \t(\"") != std::string::npos)
                break;
            labelsAt_.push_back({name, section_, sectCount_[section_],
                                 {unit, lineno,
                                  static_cast<int>(pos) + 1}});
            pos = line.find_first_not_of(" \t\r\n", colon + 1);
        }
        if (pos == std::string::npos)
            return;

        Stmt st;
        size_t hend = line.find_first_of(" \t", pos);
        size_t hstop = hend == std::string::npos ? line.size() : hend;
        st.head = lower(line.substr(pos, hstop - pos));
        st.loc = {unit, lineno, static_cast<int>(pos) + 1};
        splitOperands(line, hstop, st.args, st.argCols);
        st.type = st.head[0] == '.' ? StmtType::Directive
                                    : StmtType::Instruction;
        if (st.type == StmtType::Directive && parseMetaDirective(st))
            return; // consumed; emits nothing
        st.section = section_;
        ++sectCount_[section_];
        stmts_.push_back(std::move(st));
    }

    /** Operands of @p s from byte offset @p from, split on top-level
     *  commas; records each operand's 1-based column. */
    void
    splitOperands(const std::string& s, size_t from,
                  std::vector<std::string>& args,
                  std::vector<int>& cols) const
    {
        int depth = 0;
        bool in_str = false;
        size_t start = from;
        auto flush = [&](size_t end, bool final) {
            size_t b = s.find_first_not_of(" \t\r\n", start);
            if (b == std::string::npos || b >= end) {
                if (!final) { // empty middle operand, kept as ""
                    args.emplace_back();
                    cols.push_back(static_cast<int>(start) + 1);
                }
                return;
            }
            size_t e = s.find_last_not_of(" \t\r\n", end - 1);
            args.push_back(s.substr(b, e - b + 1));
            cols.push_back(static_cast<int>(b) + 1);
        };
        for (size_t i = from; i < s.size(); ++i) {
            char c = s[i];
            if (c == '"')
                in_str = !in_str;
            if (!in_str) {
                if (c == '(') {
                    ++depth;
                } else if (c == ')') {
                    --depth;
                } else if (c == ',' && depth == 0) {
                    flush(i, false);
                    start = i + 1;
                }
            }
        }
        flush(s.size(), true);
    }

    /** Handle directives consumed at parse time. @return true if done. */
    bool
    parseMetaDirective(const Stmt& st)
    {
        const std::string& d = st.head;
        if (d == ".equ") {
            if (st.args.size() != 2)
                err(st, ".equ needs <name>, <value>");
            equs_[st.args[0]] = evalConst(st.args[1], argLoc(st, 1));
            return true;
        }
        if (d == ".text" || d == ".rodata" || d == ".data") {
            section_ = sectionByName(d, st.loc);
            return true;
        }
        if (d == ".section") {
            if (st.args.empty())
                err(st, ".section needs a name");
            section_ = sectionByName(st.args[0], argLoc(st, 0));
            return true;
        }
        if (d == ".globl" || d == ".global") {
            if (st.args.size() != 1)
                err(st, d + " needs one symbol name");
            globals_.insert(st.args[0]);
            return true;
        }
        if (d == ".option" || d == ".type" || d == ".size" || d == ".file")
            return true; // accepted and ignored
        return false;
    }

    uint8_t
    sectionByName(const std::string& name, const Loc& loc) const
    {
        for (uint8_t s = 0; s < kNumSections; ++s)
            if (name == kSectionNames[s])
                return s;
        err(loc, "unknown section '" + name +
                     "' (supported: .text, .rodata, .data)");
    }

    //
    // Expression evaluation. `allowSymbols` controls whether labels may be
    // referenced (pass 2) or only literals / .equ constants (pass 1).
    //

    std::optional<int64_t>
    tryParseLiteral(const std::string& tok) const
    {
        std::string t = trim(tok);
        if (t.empty())
            return std::nullopt;
        bool neg = false;
        size_t i = 0;
        if (t[0] == '-' || t[0] == '+') {
            neg = t[0] == '-';
            i = 1;
        }
        if (i >= t.size())
            return std::nullopt;
        int base = 10;
        if (t.size() > i + 1 && t[i] == '0' &&
            (t[i + 1] == 'x' || t[i + 1] == 'X')) {
            base = 16;
            i += 2;
        } else if (t.size() > i + 1 && t[i] == '0' &&
                   (t[i + 1] == 'b' || t[i + 1] == 'B')) {
            base = 2;
            i += 2;
        }
        if (i >= t.size())
            return std::nullopt;
        int64_t v = 0;
        for (; i < t.size(); ++i) {
            char c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(t[i])));
            int d;
            if (c >= '0' && c <= '9')
                d = c - '0';
            else if (c >= 'a' && c <= 'f')
                d = 10 + (c - 'a');
            else
                return std::nullopt;
            if (d >= base)
                return std::nullopt;
            v = v * base + d;
        }
        return neg ? -v : v;
    }

    /** Evaluate a +/- chain of literals, .equ constants, and labels. */
    int64_t
    evalExpr(const std::string& expr, const Loc& loc, bool allow_labels,
             ExprInfo* info = nullptr) const
    {
        std::string e = trim(expr);
        if (e.empty())
            err(loc, "empty expression");
        // %hi / %lo
        if (e.size() > 4 && e[0] == '%') {
            std::string fn = lower(e.substr(1, 2));
            size_t open = e.find('(');
            size_t close = e.rfind(')');
            if (open == std::string::npos || close == std::string::npos ||
                close < open)
                err(loc, "malformed %hi/%lo expression: " + e);
            int64_t v = evalExpr(e.substr(open + 1, close - open - 1), loc,
                                 allow_labels, info);
            uint32_t u = static_cast<uint32_t>(v);
            if (fn == "hi") {
                if (info)
                    info->part = ExprInfo::Part::Hi;
                return static_cast<int64_t>((u + 0x800u) >> 12);
            }
            if (fn == "lo") {
                if (info)
                    info->part = ExprInfo::Part::Lo;
                return sext(u & 0xFFFu, 12);
            }
            err(loc, "unknown % function: " + e);
        }
        // Split on top-level + / - (not the leading sign).
        int64_t acc = 0;
        int sign = 1;
        size_t start = 0;
        bool have_term = false;
        auto flushTerm = [&](size_t endpos) {
            std::string term = trim(e.substr(start, endpos - start));
            if (term.empty())
                err(loc, "malformed expression: " + e);
            acc += sign * evalTerm(term, loc, allow_labels, sign, info);
            have_term = true;
        };
        for (size_t i = 0; i < e.size(); ++i) {
            char c = e[i];
            if ((c == '+' || c == '-') && i != start) {
                flushTerm(i);
                sign = c == '-' ? -1 : 1;
                start = i + 1;
            }
        }
        flushTerm(e.size());
        if (!have_term)
            err(loc, "malformed expression: " + e);
        if (info && info->part == ExprInfo::Part::None)
            info->value = acc;
        return acc;
    }

    int64_t
    evalTerm(const std::string& term, const Loc& loc, bool allow_labels,
             int sign, ExprInfo* info) const
    {
        if (auto lit = tryParseLiteral(term))
            return *lit;
        if (auto it = equs_.find(term); it != equs_.end())
            return it->second;
        if (allow_labels) {
            if (auto it = symbols_.find(term); it != symbols_.end()) {
                if (info)
                    info->labelWeight += sign;
                return static_cast<int64_t>(it->second);
            }
            err(loc, "undefined symbol '" + term + "'");
        }
        err(loc, "expression must be constant here: '" + term + "'");
    }

    int64_t
    evalConst(const std::string& expr, const Loc& loc) const
    {
        return evalExpr(expr, loc, false);
    }

    /** Can this expression be evaluated without labels? */
    bool
    isConstExpr(const std::string& expr) const
    {
        try {
            evalExpr(expr, Loc{}, false);
            return true;
        } catch (const FatalError&) {
            return false;
        }
    }

    //
    // Pass 1: lay out sections in .text/.rodata/.data order, bind labels.
    //

    size_t
    stmtSize(const Stmt& st, Addr lc) const
    {
        if (st.type == StmtType::Instruction)
            return instrSize(st);
        const std::string& d = st.head;
        if (d == ".word" || d == ".float")
            return alignUp(lc, 4) - lc + 4 * st.args.size();
        if (d == ".half")
            return alignUp(lc, 2) - lc + 2 * st.args.size();
        if (d == ".byte")
            return st.args.size();
        if (d == ".space" || d == ".zero") {
            if (st.args.size() != 1)
                err(st, d + " needs a size");
            return static_cast<size_t>(evalConst(st.args[0],
                                                 argLoc(st, 0)));
        }
        if (d == ".align") { // power-of-two alignment, gas RISC-V style
            if (st.args.size() != 1)
                err(st, ".align needs an argument");
            uint64_t a = 1ull << evalConst(st.args[0], argLoc(st, 0));
            return alignUp(lc, a) - lc;
        }
        if (d == ".balign") {
            if (st.args.size() != 1)
                err(st, ".balign needs an argument");
            uint64_t a = static_cast<uint64_t>(
                evalConst(st.args[0], argLoc(st, 0)));
            return alignUp(lc, a) - lc;
        }
        if (d == ".ascii" || d == ".asciz") {
            if (st.args.size() != 1)
                err(st, d + " needs one string");
            return decodeString(st.args[0], argLoc(st, 0)).size() +
                   (d == ".asciz" ? 1 : 0);
        }
        err(st, "unknown directive '" + d + "'");
    }

    size_t
    instrSize(const Stmt& st) const
    {
        const std::string& m = st.head;
        if (m == "la")
            return 8;
        if (m == "li") {
            if (st.args.size() != 2)
                err(st, "li needs <rd>, <imm>");
            if (isConstExpr(st.args[1])) {
                int64_t v = evalConst(st.args[1], argLoc(st, 1));
                if (v >= -2048 && v <= 2047)
                    return 4;
            }
            return 8;
        }
        return 4;
    }

    void
    layout()
    {
        // Per-section label queues, preserving parse order.
        std::vector<size_t> labelIdx[kNumSections];
        for (size_t i = 0; i < labelsAt_.size(); ++i)
            labelIdx[labelsAt_[i].section].push_back(i);

        Addr lc = base_;
        for (uint8_t s = 0; s < kNumSections; ++s) {
            if (s != kText)
                lc = static_cast<Addr>(alignUp(lc, 4));
            sectionStart_[s] = lc;
            size_t nl = 0;
            int index = 0;
            auto bindUpTo = [&](int idx) {
                while (nl < labelIdx[s].size() &&
                       labelsAt_[labelIdx[s][nl]].indexInSection <= idx) {
                    defineLabel(labelsAt_[labelIdx[s][nl]], lc);
                    ++nl;
                }
            };
            for (Stmt& st : stmts_) {
                if (st.section != s)
                    continue;
                bindUpTo(index);
                st.addr = lc;
                st.size = stmtSize(st, lc);
                lc += static_cast<Addr>(st.size);
                ++index;
            }
            bindUpTo(sectCount_[s]); // labels at the end of the section
            sectionSize_[s] = lc - sectionStart_[s];
        }
        imageSize_ = lc - base_;
    }

    struct LabelRef
    {
        std::string name;
        uint8_t section;
        int indexInSection; ///< index of the next stmt in its section
        Loc loc;
    };

    void
    defineLabel(const LabelRef& l, Addr addr)
    {
        if (symbols_.count(l.name))
            err(l.loc, "duplicate label '" + l.name + "'");
        symbols_[l.name] = addr;
    }

    //
    // Relocation collection (object output only; direct assembly ignores
    // the recorded entries).
    //

    struct PendingReloc
    {
        Addr addr = 0;
        RelocKind kind = RelocKind::Abs32;
        uint32_t target = 0;
        bool supported = false;
        Loc loc;
        std::string note; ///< for the "not relocatable" diagnostic
    };

    /** Record the relocation (if any) for an expression evaluated into
     *  the field class @p ctx at address @p at. */
    void
    noteReloc(Addr at, const ExprInfo& info, RelCtx ctx, const Stmt& st,
              size_t argIdx)
    {
        if (info.labelWeight == 0)
            return; // constant or label-difference: rebase-invariant
        Loc loc = argLoc(st, argIdx);
        auto unsupported = [&](const std::string& note) {
            relocs_.push_back({at, RelocKind::Abs32, 0, false, loc, note});
        };
        if (info.labelWeight != 1) {
            unsupported("expression with net label weight " +
                        std::to_string(info.labelWeight));
            return;
        }
        uint32_t target = static_cast<uint32_t>(info.value);
        using Part = ExprInfo::Part;
        switch (ctx) {
          case RelCtx::Word:
            if (info.part == Part::None)
                relocs_.push_back(
                    {at, RelocKind::Abs32, target, true, loc, ""});
            else
                unsupported("%hi/%lo of a label in .word");
            return;
          case RelCtx::ImmI:
            if (info.part == Part::Lo)
                relocs_.push_back(
                    {at, RelocKind::Lo12I, target, true, loc, ""});
            else
                unsupported("raw label in an I-type immediate "
                            "(use %lo(...) or la)");
            return;
          case RelCtx::ImmS:
            if (info.part == Part::Lo)
                relocs_.push_back(
                    {at, RelocKind::Lo12S, target, true, loc, ""});
            else
                unsupported("raw label in a store offset (use %lo(...))");
            return;
          case RelCtx::Lui:
            if (info.part == Part::Hi)
                relocs_.push_back(
                    {at, RelocKind::Hi20, target, true, loc, ""});
            else
                unsupported("raw label in lui (use %hi(...))");
            return;
          case RelCtx::LaLi:
            if (info.part == Part::None) {
                relocs_.push_back(
                    {at, RelocKind::Hi20, target, true, loc, ""});
                relocs_.push_back(
                    {at + 4, RelocKind::Lo12I, target, true, loc, ""});
            } else {
                unsupported("%hi/%lo of a label in li/la");
            }
            return;
          case RelCtx::None:
            unsupported("label in a field that cannot be relocated");
            return;
        }
    }

    //
    // Pass 2: emit bytes.
    //

    void
    emit()
    {
        image_.assign(imageSize_, 0);
        for (const Stmt& st : stmts_) {
            if (st.type == StmtType::Directive)
                emitDirective(st);
            else
                emitInstruction(st);
        }
    }

    void
    poke8(Addr addr, uint8_t v)
    {
        image_.at(addr - base_) = v;
    }

    /** Store the low @p bytes bytes of @p v little-endian at @p addr. */
    void
    poke(Addr addr, uint32_t v, uint32_t bytes = 4)
    {
        for (uint32_t b = 0; b < bytes; ++b)
            poke8(addr + b, static_cast<uint8_t>(v >> (8 * b)));
    }

    void
    emitDirective(const Stmt& st)
    {
        const std::string& d = st.head;
        Addr lc = st.addr;
        if (d == ".word" || d == ".half" || d == ".byte") {
            // Each value must fit the field as signed or as unsigned.
            const uint32_t size = d == ".word" ? 4 : d == ".half" ? 2 : 1;
            const int64_t half = int64_t{1} << (8 * size - 1);
            const std::string what = d.substr(1) + " value";
            lc = static_cast<Addr>(alignUp(lc, size));
            for (size_t i = 0; i < st.args.size(); ++i) {
                ExprInfo info;
                int64_t v = evalExpr(st.args[i], argLoc(st, i), true, &info);
                uint32_t u = static_cast<uint32_t>(
                    checkRange(st, i, v, -half, 2 * half - 1, what.c_str()));
                poke(lc, u, size);
                noteReloc(lc, info, size == 4 ? RelCtx::Word : RelCtx::None,
                          st, i);
                lc += size;
            }
        } else if (d == ".float") {
            lc = static_cast<Addr>(alignUp(lc, 4));
            for (size_t i = 0; i < st.args.size(); ++i) {
                float f = 0.0f;
                size_t used = 0;
                try {
                    f = std::stof(st.args[i], &used);
                } catch (const std::exception&) {
                    errArg(st, i,
                           "bad float literal '" + st.args[i] + "'");
                }
                if (used != st.args[i].size())
                    errArg(st, i,
                           "bad float literal '" + st.args[i] + "'");
                uint32_t u;
                std::memcpy(&u, &f, 4);
                poke(lc, u);
                lc += 4;
            }
        } else if (d == ".ascii" || d == ".asciz") {
            std::string bytes = decodeString(st.args[0], argLoc(st, 0));
            if (d == ".asciz")
                bytes.push_back('\0');
            for (char c : bytes)
                poke8(lc++, static_cast<uint8_t>(c));
        }
        // .space/.zero/.align/.balign already zero-filled; no-ops emit none.
    }

    std::string
    decodeString(const std::string& arg, const Loc& loc) const
    {
        std::string t = trim(arg);
        if (t.size() < 2 || t.front() != '"' || t.back() != '"')
            err(loc, "expected a quoted string");
        std::string out;
        for (size_t i = 1; i + 1 < t.size(); ++i) {
            char c = t[i];
            if (c == '\\' && i + 2 < t.size()) {
                char n = t[++i];
                switch (n) {
                  case 'n': out.push_back('\n'); break;
                  case 't': out.push_back('\t'); break;
                  case '0': out.push_back('\0'); break;
                  case '\\': out.push_back('\\'); break;
                  case '"': out.push_back('"'); break;
                  default: out.push_back(n); break;
                }
            } else {
                out.push_back(c);
            }
        }
        return out;
    }

    //
    // Instruction emission
    //

    RegId
    xreg(const Stmt& st, size_t i) const
    {
        if (i >= st.args.size())
            err(st, "missing operand");
        auto r = parseIntReg(st.args[i]);
        if (!r)
            errArg(st, i, "expected integer register, got '" +
                              st.args[i] + "'");
        return *r;
    }

    RegId
    freg(const Stmt& st, size_t i) const
    {
        if (i >= st.args.size())
            err(st, "missing operand");
        auto r = parseFpReg(st.args[i]);
        if (!r)
            errArg(st, i,
                   "expected FP register, got '" + st.args[i] + "'");
        return *r;
    }

    /** Immediate operand @p i: evaluated, its relocation (if any) noted
     *  for field class @p ctx, and checked against [@p lo, @p hi]. */
    int32_t
    imm(const Stmt& st, size_t i, int64_t lo, int64_t hi, const char* what,
        RelCtx ctx = RelCtx::None)
    {
        if (i >= st.args.size())
            err(st, "missing immediate");
        ExprInfo info;
        int64_t v = evalExpr(st.args[i], argLoc(st, i), true, &info);
        noteReloc(st.addr, info, ctx, st, i);
        return checkRange(st, i, v, lo, hi, what);
    }

    /** @p v must fit [@p lo, @p hi] or the operand is diagnosed. */
    int32_t
    checkRange(const Stmt& st, size_t i, int64_t v, int64_t lo, int64_t hi,
               const char* what) const
    {
        if (v < lo || v > hi)
            errArg(st, i, std::string(what) + " " + std::to_string(v) +
                              " out of range [" + std::to_string(lo) +
                              ", " + std::to_string(hi) + "]");
        return static_cast<int32_t>(v);
    }

    /** Branch target: label or literal => pc-relative offset, range
     *  checked for the B-format (+-4 KiB). */
    int32_t
    btarget(const Stmt& st, size_t i, Addr pc) const
    {
        int64_t abs = evalExpr(st.args[i], argLoc(st, i), true);
        int64_t off = abs - static_cast<int64_t>(pc);
        if (off < -4096 || off > 4094 || (off & 1))
            errArg(st, i, "branch target out of range (offset " +
                              std::to_string(off) + ", limit +-4 KiB)");
        return static_cast<int32_t>(off);
    }

    /** Jump target for jal/j/call/tail: range checked for J (+-1 MiB). */
    int32_t
    jtarget(const Stmt& st, size_t i, Addr pc) const
    {
        int64_t abs = evalExpr(st.args[i], argLoc(st, i), true);
        int64_t off = abs - static_cast<int64_t>(pc);
        if (off < -1048576 || off > 1048574 || (off & 1))
            errArg(st, i, "jump target out of range (offset " +
                              std::to_string(off) + ", limit +-1 MiB)");
        return static_cast<int32_t>(off);
    }

    /** Parse "imm(reg)" or "(reg)" or "imm" address syntax. */
    std::pair<int32_t, RegId>
    memOperand(const Stmt& st, size_t i, RelCtx ctx)
    {
        if (i >= st.args.size())
            err(st, "missing memory operand");
        const std::string& a = st.args[i];
        size_t open = a.rfind('(');
        if (open == std::string::npos)
            errArg(st, i, "expected imm(reg) operand, got '" + a + "'");
        size_t close = a.rfind(')');
        if (close == std::string::npos || close < open)
            errArg(st, i, "unbalanced parens in '" + a + "'");
        std::string off = trim(a.substr(0, open));
        std::string reg = trim(a.substr(open + 1, close - open - 1));
        auto r = parseIntReg(reg);
        if (!r)
            errArg(st, i, "bad base register '" + reg + "'");
        int32_t o = 0;
        if (!off.empty()) {
            ExprInfo info;
            int64_t v = evalExpr(off, argLoc(st, i), true, &info);
            noteReloc(st.addr, info, ctx, st, i);
            o = checkRange(st, i, v, -2048, 2047, "memory offset");
        }
        return {o, *r};
    }

    void
    emitWord(Addr addr, const Instr& in)
    {
        poke(addr, encode(in));
    }

    Instr
    mk(InstrKind k) const
    {
        Instr in;
        in.kind = k;
        return in;
    }

    void
    expect(const Stmt& st, size_t n) const
    {
        if (st.args.size() != n)
            err(st, st.head + ": expected " + std::to_string(n) +
                        " operands, got " + std::to_string(st.args.size()));
    }

    void emitInstruction(const Stmt& st);

    Addr base_;
    std::vector<std::string> unitNames_;
    std::vector<Stmt> stmts_;
    std::vector<LabelRef> labelsAt_;
    std::map<std::string, Addr> symbols_;
    std::map<std::string, int64_t> equs_;
    std::set<std::string> globals_;
    std::vector<PendingReloc> relocs_;
    std::vector<uint8_t> image_;
    uint8_t section_ = kText; ///< current section during parse
    int sectCount_[kNumSections] = {0, 0, 0};
    Addr sectionStart_[kNumSections] = {0, 0, 0};
    size_t sectionSize_[kNumSections] = {0, 0, 0};
    size_t imageSize_ = 0;
};

/** Number of comma-separated operands in a row's operand string. */
size_t
operandCount(const char* ops)
{
    return *ops ? 1 + std::count(ops, ops + std::strlen(ops), ',') : 0;
}

void
Engine::emitInstruction(const Stmt& st)
{
    const std::string& m = st.head;
    const Addr pc = st.addr;

    // li/la size themselves in pass 1 (one or two words) and carry a
    // Hi20+Lo12I relocation pair, so they are not table rows.
    if (m == "li" || m == "la") {
        expect(st, 2);
        RegId rd = xreg(st, 0);
        ExprInfo info;
        int64_t value = evalExpr(st.args[1], argLoc(st, 1), true, &info);
        uint32_t u = static_cast<uint32_t>(
            checkRange(st, 1, value, INT32_MIN, UINT32_MAX,
                       (m + " value").c_str()));
        if (st.size == 4) {
            Instr in = mk(InstrKind::ADDI);
            in.rd = rd;
            in.rs1 = 0;
            in.imm = static_cast<int32_t>(value);
            emitWord(pc, in);
        } else {
            noteReloc(pc, info, RelCtx::LaLi, st, 1);
            uint32_t hi = (u + 0x800u) & 0xFFFFF000u;
            int32_t lo = sext(u & 0xFFFu, 12);
            Instr lui = mk(InstrKind::LUI);
            lui.rd = rd;
            lui.imm = static_cast<int32_t>(hi);
            emitWord(pc, lui);
            Instr addi = mk(InstrKind::ADDI);
            addi.rd = rd;
            addi.rs1 = rd;
            addi.imm = lo;
            emitWord(pc + 4, addi);
        }
        return;
    }

    // Rows sharing a mnemonic (jal, jalr) differ in operand count; a
    // count no row takes is reported against the longest form.
    const InstrInfo* row = nullptr;
    bool known = false;
    size_t longest = 0;
    for (const InstrInfo& r : instrTable().subspan(1)) {
        if (m != r.mnemonic)
            continue;
        known = true;
        size_t n = operandCount(r.operands);
        if (n == st.args.size()) {
            row = &r;
            break;
        }
        longest = std::max(longest, n);
    }
    if (!known)
        err(st, "unknown mnemonic '" + m + "'");
    if (!row)
        expect(st, longest); // throws: the count matched no row

    Instr in = mk(row->kind);
    size_t i = 0;
    for (const char* c = row->operands; *c; ++c) {
        switch (*c) {
          case ',': ++i; break;
          case 'd': in.rd = xreg(st, i); break;
          case 'D': in.rd = freg(st, i); break;
          case 's': in.rs1 = xreg(st, i); break;
          case 'S': in.rs1 = freg(st, i); break;
          case 't': in.rs2 = xreg(st, i); break;
          case 'T': in.rs2 = freg(st, i); break;
          case 'R': in.rs3 = freg(st, i); break;
          case 'U': in.rs1 = in.rs2 = freg(st, i); break;
          case 'j':
            in.imm = imm(st, i, -2048, 2047, "immediate", RelCtx::ImmI);
            break;
          case '>': in.imm = imm(st, i, 0, 31, "shift amount"); break;
          case 'E': in.csr = imm(st, i, 0, 4095, "CSR address"); break;
          case 'Z': in.imm = imm(st, i, 0, 31, "CSR immediate"); break;
          case 'u': {
            // lui takes %hi(label) as Hi20; auipc's is pc-relative.
            RelCtx ctx =
                row->kind == InstrKind::LUI ? RelCtx::Lui : RelCtx::None;
            uint32_t hi = imm(st, i, 0, 0xFFFFF, "upper immediate", ctx);
            in.imm = static_cast<int32_t>(hi << 12);
            break;
          }
          case 'p': in.imm = btarget(st, i, pc); break;
          case 'a': in.imm = jtarget(st, i, pc); break;
          case 'o': case 'q': {
            auto [o, r] = memOperand(st, i,
                                     *c == 'o' ? RelCtx::ImmI : RelCtx::ImmS);
            in.imm = o;
            in.rs1 = r;
            c += 3; // the "(s)" memOperand parsed
            break;
          }
          default: break;
        }
    }
    poke(pc, encode(*row, in));
}

} // namespace

Program
Assembler::assemble(const std::string& source, const std::string& name)
{
    Engine engine(base_);
    engine.run({{name, source}});
    return engine.takeProgram();
}

Program
Assembler::assembleUnits(const std::vector<SourceUnit>& units)
{
    Engine engine(base_);
    engine.run(units);
    return engine.takeProgram();
}

ObjectFile
Assembler::assembleObject(const std::vector<SourceUnit>& units)
{
    Engine engine(base_);
    engine.run(units);
    return engine.takeObject();
}

} // namespace vortex::isa
