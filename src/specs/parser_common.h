/**
 * @file
 * The one pseudocode front end. A recursive-descent parser core (the
 * lexer, the instruction signature, statement lists, integer lets,
 * loop scoping, the typed-expression grammar with bottom-up bitwidth
 * inference, atoms and calls) serves every vendor dialect. A dialect
 * is a `Dialect` table: its keywords and punctuation, its intrinsic
 * functions, and hooks for the forms that really differ (its type
 * syntax, its loop and `dst` statements, its accessors). The core
 * never asks which dialect it serves; it reads the table.
 *
 * The public entry point is parseWithDialect() in specs/spec_db.h.
 */
#ifndef HYDRIDE_SPECS_PARSER_COMMON_H
#define HYDRIDE_SPECS_PARSER_COMMON_H

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "hir/expr.h"
#include "hir/semantics.h"
#include "specs/isa.h"

namespace hydride {

/** Token categories produced by the shared lexer. */
enum class TokKind {
    Ident,   ///< Identifiers and keywords.
    Number,  ///< Decimal integer literal.
    Punct,   ///< Operators and punctuation (possibly multi-char).
    End,     ///< End of input.
};

/** One lexed token with source location for diagnostics. */
struct Token
{
    TokKind kind;
    std::string text;
    int64_t number = 0;
    int line = 1;
};

/** Tokenize pseudocode. Comment syntax: `//` to end of line. A
 *  literal that does not fit in int64_t is a ParseError citing
 *  `source_name`. */
std::vector<Token> lexPseudocode(const std::string &text,
                                 const std::string &source_name = "");

/** `digits` as a non-negative decimal; false (without throwing) when
 *  it is empty, holds a non-digit or overflows int64_t. */
bool parseDecimal(std::string_view digits, int64_t &value);

/**
 * A typed expression produced by the parser: either an Int expression
 * or a BV expression with a statically known concrete width (the
 * parser runs the bitwidth type inference the paper's Hydride IR
 * generator performs).
 */
struct TypedExpr
{
    ExprPtr expr;
    bool is_bv = false;
    int width = 0; ///< Valid when is_bv.
};

/**
 * Symbol table used while parsing one instruction body: bitvector
 * arguments (with widths), integer immediates, loop variables and
 * integer lets.
 */
struct ParseScope
{
    struct BVSym
    {
        int index;
        int width;
    };
    std::map<std::string, BVSym> bv_args;
    std::map<std::string, bool> int_vars; ///< Loop vars, lets, immediates.

    bool isBV(const std::string &name) const
    {
        return bv_args.count(name) != 0;
    }
    bool isInt(const std::string &name) const
    {
        return int_vars.count(name) != 0;
    }
};

class PseudocodeParser;

/** A dialect function the intrinsic table cannot express as one op. */
using SpecialFn = TypedExpr (*)(PseudocodeParser &,
                                std::vector<TypedExpr> &args,
                                const std::string &name);

/** One intrinsic function: surface name -> the op it denotes. */
struct Intrinsic
{
    const char *name;
    std::variant<BVCastOp, BVBinOp, BVUnOp, SpecialFn> op;
};

/**
 * Everything a vendor dialect contributes: immutable data plus hooks.
 * Instances are constant-initialized statics, shared by the parsers
 * running on parallelFor workers.
 */
struct Dialect
{
    const char *isa;        ///< SpecFunction::isa; diagnostics prefix.
    const char *define;     ///< Keyword opening an instruction.
    const char *arrow;      ///< Between the arguments and the result type.
    const char *latency;    ///< Keyword before the latency.
    const char *body_open;  ///< Token opening the body ("" for none).
    const char *body_close; ///< Token closing the body.
    const char *assign;     ///< Assignment operator.
    const char *stmt_end;   ///< Statement terminator ("" for none).
    std::span<const Intrinsic> intrinsics;

    /** A type in a signature; returns its width in bits. */
    int64_t (*type)(PseudocodeParser &);
    /** The dialect's loop and `dst` statements; nullptr when the next
     *  statement is none of them (the core then parses a let). */
    StmtPtr (*stmt)(PseudocodeParser &);
    /** One postfix on a bitvector `base` (nullptr hook: none); false
     *  when the next token starts none. */
    bool (*postfix)(PseudocodeParser &, TypedExpr &base);
    /** An accessor atom tried before identifiers (nullptr: none). */
    bool (*atom)(PseudocodeParser &, TypedExpr &out);
};

/** The built-in dialects (src/specs/<isa>_parser.cpp). */
extern const Dialect kX86Dialect;
extern const Dialect kHvxDialect;
extern const Dialect kArmDialect;

/**
 * Parses one instruction of one dialect. The token cursor, the
 * typed-combination helpers and the statement helpers are public so
 * that dialect hooks can use them.
 */
class PseudocodeParser
{
  public:
    PseudocodeParser(const Dialect &dialect, const InstDef &inst);

    SpecFunction parse();

    // ---- Token cursor -------------------------------------------------
    const Token &peek(int ahead = 0) const;
    Token take();
    /** Consume a token matching `text`, else fail with a diagnostic. */
    Token expect(const std::string &text);
    std::string expectIdent();
    /** A number, or `-` and a number. */
    int64_t expectNumber();
    /** True (and consumes) if the next token is `text`. */
    bool accept(const std::string &text);
    bool lookingAt(const std::string &text) const;
    /** Raise a ParseError citing the instruction and the line of the
     *  last consumed token: checks run after the tokens they judge. */
    [[noreturn]] void fail(const std::string &message) const;

    // ---- Expressions --------------------------------------------------
    TypedExpr parseExpr() { return parseTernary(); }
    /**
     * Parse one expression and tag every resulting node with the
     * source line of its first token (vendor pseudocode is one
     * statement per line, so statement granularity is exact), so
     * verifier diagnostics can point at the offending pseudocode line.
     */
    TypedExpr parseLocatedExpr();

    void requireInt(const TypedExpr &expr, const std::string &what);
    /** A width that must fold to a constant in [1, kMaxWidth]. */
    int constOf(const ExprPtr &expr, const std::string &what);
    int sliceWidth(const ExprPtr &hi, const ExprPtr &lo);
    TypedExpr coerceLiteral(TypedExpr value, int width);
    TypedExpr combineBV(BVBinOp op, TypedExpr lhs, TypedExpr rhs);
    TypedExpr makeCompare(const std::string &op, TypedExpr lhs,
                          TypedExpr rhs, bool unsigned_cmp = false);
    /** `width` bits of `base` from bit `low`. */
    static TypedExpr bits(const ExprPtr &base, const ExprPtr &low,
                          int width);
    /** Fail unless a call to `name` got `count` arguments. */
    void arity(const std::vector<TypedExpr> &args, size_t count,
               const std::string &name);
    /** `name(w)`: a w-bit constant of `value`. */
    TypedExpr fill(std::vector<TypedExpr> &args, const std::string &name,
                   int64_t value);
    /** Postfix `[hi:lo]` or single-bit `[i]` on `base`. */
    static bool slicePostfix(PseudocodeParser &parser, TypedExpr &base);

    // ---- Statements ---------------------------------------------------
    /** `[hi:lo]` after `dst`: the low bit and the width. */
    std::pair<ExprPtr, int> dstSlice();
    /** `<assign> value <stmt_end>` into `width` bits of dst at `low`;
     *  `unit` names the width in the mismatch diagnostic. */
    StmtPtr assignDst(const ExprPtr &low, int width, const std::string &unit);
    /** `<assign> expr <stmt_end>`. */
    TypedExpr assignedValue();
    /** The body of a loop over `var` up to `end`, in `var`'s scope.
     *  `keyword` names the bounds in diagnostics. */
    StmtPtr loop(const std::string &var, const TypedExpr &lo,
                 const TypedExpr &hi, const std::string &keyword,
                 const std::string &end);

  private:
    /** `width`, failing unless it is in [1, kMaxWidth]. */
    int checkedWidth(int64_t width, const std::string &what) const;
    std::vector<StmtPtr> parseStmts(const std::string &end);
    StmtPtr parseStmt();

    TypedExpr parseTernary();
    /** Level 0 `|`, 1 `^`, 2 `&`; level 3 is parseCmp(). */
    TypedExpr parseBitwise(size_t level);
    TypedExpr parseCmp();
    TypedExpr parseShift();
    TypedExpr parseAdd();
    TypedExpr parseMul();
    TypedExpr parseUnary();
    TypedExpr parsePrimary();
    TypedExpr parseAtom();
    TypedExpr parseCall(const std::string &name);

    TypedExpr callCast(BVCastOp op, std::vector<TypedExpr> &args,
                       const std::string &name);
    TypedExpr callBin(BVBinOp op, std::vector<TypedExpr> &args,
                      const std::string &name);
    TypedExpr callUn(BVUnOp op, std::vector<TypedExpr> &args,
                     const std::string &name);

    const Dialect &dialect_;
    std::string source_name_;
    std::vector<Token> tokens_;
    size_t pos_ = 0;
    int last_line_; ///< Line of the last consumed token.
    ParseScope scope_;
    SpecFunction fn_;
};

} // namespace hydride

#endif // HYDRIDE_SPECS_PARSER_COMMON_H
