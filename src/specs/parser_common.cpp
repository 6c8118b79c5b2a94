#include "specs/parser_common.h"

#include "hir/bitvector.h"
#include "observability/metrics.h"
#include "support/error.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace hydride {

namespace {

/** Count and raise one pseudocode diagnostic. Malformed pseudocode is
 *  recoverable library input: SpecDB skips the instruction instead of
 *  the library exiting the process. */
[[noreturn]] void
parseFail(const std::string &source, int line, const std::string &message)
{
    metrics::counter("specs.parser.diagnostics").add();
    throw ParseError(source, line, message);
}

} // namespace

bool
parseDecimal(std::string_view digits, int64_t &value)
{
    // from_chars would also take a leading '-'.
    if (digits.empty() || !std::isdigit(static_cast<unsigned char>(digits[0])))
        return false;
    const char *end = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), end, value);
    return ec == std::errc() && ptr == end;
}

std::vector<Token>
lexPseudocode(const std::string &text, const std::string &source_name)
{
    std::vector<Token> tokens;
    int line = 1;
    size_t i = 0;
    const size_t n = text.size();
    while (i < n) {
        const char c = text[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            while (i < n && text[i] != '\n')
                ++i;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            size_t start = i;
            while (i < n && std::isdigit(static_cast<unsigned char>(text[i])))
                ++i;
            Token tok;
            tok.kind = TokKind::Number;
            tok.text = text.substr(start, i - start);
            if (!parseDecimal(tok.text, tok.number))
                parseFail(source_name, line,
                          "integer literal `" + tok.text + "` out of range");
            tok.line = line;
            tokens.push_back(std::move(tok));
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            size_t start = i;
            while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) ||
                             text[i] == '_')) {
                ++i;
            }
            Token tok;
            tok.kind = TokKind::Ident;
            tok.text = text.substr(start, i - start);
            tok.line = line;
            tokens.push_back(std::move(tok));
            continue;
        }
        // Multi-character punctuation, longest-match first.
        static const char *kMulti[] = {"<<", ">>>", ">>", ":=", "==", "!=",
                                       "<=", ">=", "->", "=>", "&&", "||",
                                       "+:"};
        std::string punct(1, c);
        for (const char *m : kMulti) {
            const size_t len = std::string(m).size();
            if (text.compare(i, len, m) == 0 &&
                punct.size() < len) {
                punct = m;
            }
        }
        Token tok;
        tok.kind = TokKind::Punct;
        tok.text = punct;
        tok.line = line;
        tokens.push_back(std::move(tok));
        i += punct.size();
    }
    Token end;
    end.kind = TokKind::End;
    end.line = line;
    tokens.push_back(std::move(end));
    return tokens;
}

// ---- Token cursor -----------------------------------------------------------

PseudocodeParser::PseudocodeParser(const Dialect &dialect,
                                   const InstDef &inst)
    : dialect_(dialect), source_name_(std::string(dialect.isa) + ":" +
                                      inst.name),
      tokens_(lexPseudocode(inst.pseudocode, source_name_)),
      last_line_(tokens_.front().line)
{
}

const Token &
PseudocodeParser::peek(int ahead) const
{
    const size_t index = std::min(pos_ + static_cast<size_t>(ahead),
                                  tokens_.size() - 1);
    return tokens_[index];
}

Token
PseudocodeParser::take()
{
    Token tok = tokens_[pos_];
    last_line_ = tok.line;
    if (pos_ + 1 < tokens_.size())
        ++pos_;
    return tok;
}

Token
PseudocodeParser::expect(const std::string &text)
{
    if (peek().text != text)
        parseFail(source_name_, peek().line,
                  "expected `" + text + "` but found `" + peek().text + "`");
    return take();
}

std::string
PseudocodeParser::expectIdent()
{
    if (peek().kind != TokKind::Ident)
        parseFail(source_name_, peek().line,
                  "expected identifier, found `" + peek().text + "`");
    return take().text;
}

int64_t
PseudocodeParser::expectNumber()
{
    if (peek().kind == TokKind::Number)
        return take().number;
    // Allow negative literals where a number is required.
    if (peek().text == "-" && peek(1).kind == TokKind::Number) {
        take();
        return -take().number;
    }
    parseFail(source_name_, peek().line,
              "expected number, found `" + peek().text + "`");
}

bool
PseudocodeParser::accept(const std::string &text)
{
    if (peek().text == text) {
        take();
        return true;
    }
    return false;
}

bool
PseudocodeParser::lookingAt(const std::string &text) const
{
    return peek().text == text;
}

void
PseudocodeParser::fail(const std::string &message) const
{
    parseFail(source_name_, last_line_, message);
}

// ---- Signature and statements -----------------------------------------------

SpecFunction
PseudocodeParser::parse()
{
    expect(dialect_.define);
    fn_.isa = dialect_.isa;
    fn_.name = expectIdent();
    expect("(");
    if (!lookingAt(")")) {
        do {
            const std::string arg_name = expectIdent();
            expect(":");
            if (accept("imm")) {
                fn_.int_args.push_back(arg_name);
                scope_.int_vars[arg_name] = true;
            } else {
                const int width = checkedWidth(dialect_.type(*this), "width");
                scope_.bv_args[arg_name] = {
                    static_cast<int>(fn_.bv_args.size()), width};
                fn_.bv_args.push_back({arg_name, intConst(width)});
            }
        } while (accept(","));
    }
    expect(")");
    expect(dialect_.arrow);
    fn_.out_width = checkedWidth(dialect_.type(*this), "width");
    expect(dialect_.latency);
    fn_.latency = static_cast<int>(expectNumber());
    if (*dialect_.body_open)
        expect(dialect_.body_open);
    fn_.body = parseStmts(dialect_.body_close);
    expect(dialect_.body_close);
    return std::move(fn_);
}

int
PseudocodeParser::checkedWidth(int64_t width, const std::string &what) const
{
    if (width < 1 || width > BitVector::kMaxWidth)
        fail(what + " " + std::to_string(width) + " is outside [1, " +
             std::to_string(BitVector::kMaxWidth) + "]");
    return static_cast<int>(width);
}

std::vector<StmtPtr>
PseudocodeParser::parseStmts(const std::string &end)
{
    std::vector<StmtPtr> stmts;
    while (!lookingAt(end))
        stmts.push_back(parseStmt());
    return stmts;
}

StmtPtr
PseudocodeParser::parseStmt()
{
    if (StmtPtr stmt = dialect_.stmt(*this))
        return stmt;
    // Integer let: ident <assign> int-expr
    const std::string var = expectIdent();
    TypedExpr value = assignedValue();
    requireInt(value, "let binding");
    scope_.int_vars[var] = true;
    return stmtLetInt(var, value.expr);
}

TypedExpr
PseudocodeParser::assignedValue()
{
    expect(dialect_.assign);
    TypedExpr value = parseLocatedExpr();
    if (*dialect_.stmt_end)
        expect(dialect_.stmt_end);
    return value;
}

std::pair<ExprPtr, int>
PseudocodeParser::dstSlice()
{
    expect("[");
    TypedExpr hi = parseLocatedExpr();
    expect(":");
    TypedExpr lo = parseLocatedExpr();
    expect("]");
    requireInt(hi, "slice high index");
    requireInt(lo, "slice low index");
    return {lo.expr, sliceWidth(hi.expr, lo.expr)};
}

StmtPtr
PseudocodeParser::assignDst(const ExprPtr &low, int width,
                            const std::string &unit)
{
    TypedExpr value = assignedValue();
    if (!value.is_bv)
        value = coerceLiteral(value, width);
    if (value.width != width)
        fail(unit + " width mismatch in assignment to dst");
    return stmtSliceAssign(low, intConst(width), value.expr);
}

StmtPtr
PseudocodeParser::loop(const std::string &var, const TypedExpr &lo,
                       const TypedExpr &hi, const std::string &keyword,
                       const std::string &end)
{
    requireInt(lo, keyword + " lower bound");
    requireInt(hi, keyword + " upper bound");
    scope_.int_vars[var] = true;
    std::vector<StmtPtr> body = parseStmts(end);
    expect(end);
    scope_.int_vars.erase(var);
    return stmtFor(var, lo.expr, hi.expr, std::move(body));
}

// ---- Expressions ------------------------------------------------------------

TypedExpr
PseudocodeParser::parseLocatedExpr()
{
    const int line = peek().line;
    TypedExpr out = parseExpr();
    if (out.expr)
        tagSourceLoc(out.expr, SourceLoc{source_name_, line});
    return out;
}

TypedExpr
PseudocodeParser::parseTernary()
{
    TypedExpr cond = parseBitwise(0);
    if (!accept("?"))
        return cond;
    TypedExpr then_e = parseTernary();
    expect(":");
    TypedExpr else_e = parseTernary();
    if (!cond.is_bv || cond.width != 1)
        fail("ternary condition must be a 1-bit value");
    if (then_e.is_bv && !else_e.is_bv)
        else_e = coerceLiteral(else_e, then_e.width);
    if (!then_e.is_bv && else_e.is_bv)
        then_e = coerceLiteral(then_e, else_e.width);
    if (!then_e.is_bv || then_e.width != else_e.width)
        fail("ternary branches must have matching widths");
    return {select(cond.expr, then_e.expr, else_e.expr), true, then_e.width};
}

TypedExpr
PseudocodeParser::parseBitwise(size_t level)
{
    // `|` binds loosest, then `^`, then `&`, then the comparisons.
    static constexpr std::pair<const char *, BVBinOp> kLevels[] = {
        {"|", BVBinOp::Or}, {"^", BVBinOp::Xor}, {"&", BVBinOp::And}};
    if (level == std::size(kLevels))
        return parseCmp();
    const auto &[token, op] = kLevels[level];
    TypedExpr lhs = parseBitwise(level + 1);
    while (accept(token))
        lhs = combineBV(op, lhs, parseBitwise(level + 1));
    return lhs;
}

TypedExpr
PseudocodeParser::parseCmp()
{
    TypedExpr lhs = parseShift();
    static const char *kOps[] = {"==", "!=", "<", "<=", ">", ">="};
    for (const char *op : kOps)
        if (accept(op))
            return makeCompare(op, lhs, parseShift());
    return lhs;
}

TypedExpr
PseudocodeParser::parseShift()
{
    TypedExpr lhs = parseAdd();
    while (true) {
        BVBinOp op;
        if (accept("<<"))
            op = BVBinOp::Shl;
        else if (accept(">>>"))
            op = BVBinOp::LShr;
        else if (accept(">>"))
            op = BVBinOp::AShr;
        else
            break;
        TypedExpr rhs = parseAdd();
        if (!lhs.is_bv)
            fail("shift of a non-bitvector");
        // An integer shift amount becomes a constant of operand width.
        lhs = combineBV(op, lhs, rhs);
    }
    return lhs;
}

TypedExpr
PseudocodeParser::parseAdd()
{
    TypedExpr lhs = parseMul();
    while (lookingAt("+") || lookingAt("-")) {
        const bool is_add = take().text == "+";
        TypedExpr rhs = parseMul();
        if (lhs.is_bv || rhs.is_bv) {
            lhs = combineBV(is_add ? BVBinOp::Add : BVBinOp::Sub, lhs, rhs);
        } else {
            lhs.expr = intBin(is_add ? IntBinOp::Add : IntBinOp::Sub,
                              lhs.expr, rhs.expr);
        }
    }
    return lhs;
}

TypedExpr
PseudocodeParser::parseMul()
{
    TypedExpr lhs = parseUnary();
    while (lookingAt("*") || lookingAt("/") || lookingAt("%")) {
        const std::string op = take().text;
        TypedExpr rhs = parseUnary();
        if (op == "*" && (lhs.is_bv || rhs.is_bv)) {
            lhs = combineBV(BVBinOp::Mul, lhs, rhs);
        } else {
            requireInt(lhs, "integer arithmetic");
            requireInt(rhs, "integer arithmetic");
            const IntBinOp int_op = op == "*"   ? IntBinOp::Mul
                                    : op == "/" ? IntBinOp::Div
                                                : IntBinOp::Mod;
            lhs.expr = intBin(int_op, lhs.expr, rhs.expr);
        }
    }
    return lhs;
}

TypedExpr
PseudocodeParser::parseUnary()
{
    if (accept("~")) {
        TypedExpr operand = parseUnary();
        if (!operand.is_bv)
            fail("~ applies to bitvectors");
        operand.expr = bvUn(BVUnOp::Not, operand.expr);
        return operand;
    }
    if (lookingAt("-") && peek(1).kind != TokKind::Number) {
        take();
        TypedExpr operand = parseUnary();
        if (operand.is_bv)
            operand.expr = bvUn(BVUnOp::Neg, operand.expr);
        else
            operand.expr = subI(intConst(0), operand.expr);
        return operand;
    }
    return parsePrimary();
}

void
PseudocodeParser::requireInt(const TypedExpr &expr, const std::string &what)
{
    if (expr.is_bv)
        fail(what + " must be an integer expression");
}

int
PseudocodeParser::constOf(const ExprPtr &expr, const std::string &what)
{
    ExprPtr folded = simplify(expr);
    if (folded->kind != ExprKind::IntConst)
        fail(what + " must fold to a constant");
    return checkedWidth(folded->value, what);
}

int
PseudocodeParser::sliceWidth(const ExprPtr &hi, const ExprPtr &lo)
{
    return constOf(addI(subI(hi, lo), intConst(1)), "slice width");
}

TypedExpr
PseudocodeParser::coerceLiteral(TypedExpr value, int width)
{
    if (value.is_bv)
        return value;
    return {bvConst(intConst(width), value.expr), true, width};
}

TypedExpr
PseudocodeParser::combineBV(BVBinOp op, TypedExpr lhs, TypedExpr rhs)
{
    if (lhs.is_bv && !rhs.is_bv)
        rhs = coerceLiteral(rhs, lhs.width);
    if (!lhs.is_bv && rhs.is_bv)
        lhs = coerceLiteral(lhs, rhs.width);
    if (!lhs.is_bv || !rhs.is_bv)
        fail("bitvector operator applied to integers");
    if (lhs.width != rhs.width)
        fail("bitvector operand width mismatch");
    return {bvBin(op, lhs.expr, rhs.expr), true, lhs.width};
}

TypedExpr
PseudocodeParser::makeCompare(const std::string &op, TypedExpr lhs,
                              TypedExpr rhs, bool unsigned_cmp)
{
    // Integer comparisons are wrapped into 32-bit constants so the
    // comparison lives in the bitvector domain (Hydride IR has no
    // boolean integer type).
    const int width = lhs.is_bv ? lhs.width : rhs.is_bv ? rhs.width : 32;
    lhs = coerceLiteral(lhs, width);
    rhs = coerceLiteral(rhs, width);
    if (lhs.width != rhs.width)
        fail("comparison width mismatch");
    if (op == ">" || op == ">=")
        std::swap(lhs, rhs);
    const BVCmpOp cmp = op == "==" ? BVCmpOp::Eq
                        : op == "!=" ? BVCmpOp::Ne
                        : op == "<" || op == ">"
                            ? (unsigned_cmp ? BVCmpOp::Ult : BVCmpOp::Slt)
                            : (unsigned_cmp ? BVCmpOp::Ule : BVCmpOp::Sle);
    return {bvCmp(cmp, lhs.expr, rhs.expr), true, 1};
}

TypedExpr
PseudocodeParser::parsePrimary()
{
    TypedExpr base = parseAtom();
    while (base.is_bv && dialect_.postfix && dialect_.postfix(*this, base)) {
    }
    return base;
}

TypedExpr
PseudocodeParser::parseAtom()
{
    TypedExpr out;
    if (peek().kind == TokKind::Number) {
        out.expr = intConst(take().number);
        return out;
    }
    if (accept("-")) {
        out.expr = intConst(-expectNumber());
        return out;
    }
    if (accept("(")) {
        TypedExpr inner = parseExpr();
        expect(")");
        return inner;
    }
    if (dialect_.atom && dialect_.atom(*this, out))
        return out;
    const std::string name = expectIdent();
    if (scope_.isBV(name)) {
        const auto &sym = scope_.bv_args.at(name);
        return {argBV(sym.index), true, sym.width};
    }
    if (scope_.isInt(name)) {
        out.expr = namedVar(name);
        return out;
    }
    if (lookingAt("("))
        return parseCall(name);
    fail("unknown identifier `" + name + "`");
}

TypedExpr
PseudocodeParser::parseCall(const std::string &name)
{
    const auto &table = dialect_.intrinsics;
    const auto fn =
        std::find_if(table.begin(), table.end(),
                     [&](const Intrinsic &f) { return name == f.name; });
    if (fn == table.end())
        fail("unknown function `" + name + "`");
    expect("(");
    std::vector<TypedExpr> args;
    if (!lookingAt(")")) {
        do {
            args.push_back(parseExpr());
        } while (accept(","));
    }
    expect(")");
    if (const auto *op = std::get_if<BVCastOp>(&fn->op))
        return callCast(*op, args, name);
    if (const auto *op = std::get_if<BVBinOp>(&fn->op))
        return callBin(*op, args, name);
    if (const auto *op = std::get_if<BVUnOp>(&fn->op))
        return callUn(*op, args, name);
    return std::get<SpecialFn>(fn->op)(*this, args, name);
}

bool
PseudocodeParser::slicePostfix(PseudocodeParser &parser, TypedExpr &base)
{
    if (!parser.accept("["))
        return false;
    TypedExpr hi = parser.parseExpr();
    parser.requireInt(hi, "slice index");
    if (parser.accept(":")) {
        TypedExpr lo = parser.parseExpr();
        parser.requireInt(lo, "slice low index");
        parser.expect("]");
        base = bits(base.expr, lo.expr, parser.sliceWidth(hi.expr, lo.expr));
    } else {
        parser.expect("]");
        base = bits(base.expr, hi.expr, 1);
    }
    return true;
}

TypedExpr
PseudocodeParser::bits(const ExprPtr &base, const ExprPtr &low, int width)
{
    return {extract(base, low, intConst(width)), true, width};
}

void
PseudocodeParser::arity(const std::vector<TypedExpr> &args, size_t count,
                        const std::string &name)
{
    if (args.size() != count)
        fail(name + " expects " + std::to_string(count) +
             (count == 1 ? " argument" : " arguments"));
}

TypedExpr
PseudocodeParser::fill(std::vector<TypedExpr> &args, const std::string &name,
                       int64_t value)
{
    arity(args, 1, name);
    requireInt(args[0], name + " width");
    const int width = constOf(args[0].expr, name + " width");
    return {bvConst(intConst(width), intConst(value)), true, width};
}

TypedExpr
PseudocodeParser::callCast(BVCastOp op, std::vector<TypedExpr> &args,
                           const std::string &name)
{
    arity(args, 2, name);
    if (!args[0].is_bv)
        fail(name + " operand must be a bitvector");
    requireInt(args[1], name + " width");
    const int width = constOf(args[1].expr, name + " width");
    return {bvCast(op, args[0].expr, intConst(width)), true, width};
}

TypedExpr
PseudocodeParser::callBin(BVBinOp op, std::vector<TypedExpr> &args,
                          const std::string &name)
{
    arity(args, 2, name);
    return combineBV(op, args[0], args[1]);
}

TypedExpr
PseudocodeParser::callUn(BVUnOp op, std::vector<TypedExpr> &args,
                         const std::string &name)
{
    arity(args, 1, name);
    if (!args[0].is_bv)
        fail(name + " operand must be a bitvector");
    TypedExpr out = args[0];
    out.expr = bvUn(op, out.expr);
    return out;
}

} // namespace hydride
