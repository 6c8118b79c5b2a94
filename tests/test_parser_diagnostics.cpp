/**
 * @file
 * Negative-path tests for the pseudocode parsers: malformed vendor
 * specs must raise a structured ParseError naming the instruction and
 * line (spec bugs are recoverable library input — SpecDB skips the
 * offender; the paper §5 fuzz-and-fix workflow depends on actionable
 * messages), and the bitwidth type inference must reject ill-typed
 * expressions.
 */
#include <gtest/gtest.h>

#include "observability/metrics.h"
#include "specs/spec_db.h"
#include "support/error.h"

namespace hydride {
namespace {

/** Run a parse expected to fail; returns the ParseError message. */
template <typename Fn>
std::string
parseErrorOf(Fn fn)
{
    try {
        fn();
    } catch (const ParseError &error) {
        return error.what();
    }
    ADD_FAILURE() << "expected a ParseError";
    return "";
}

TEST(ParserDiagnostics, X86WidthMismatchThrows)
{
    InstDef bad;
    bad.name = "bad_widths";
    bad.pseudocode =
        "DEFINE bad_widths(a: bit[128], b: bit[128]) -> bit[128] LAT 1\n"
        "FOR j := 0 to 7\n"
        "i := j*16\n"
        "dst[i+15:i] := a[i+15:i] + b[i+7:i]\n" // 16 vs 8 bits
        "ENDFOR\nENDDEF\n";
    const std::string what =
        parseErrorOf([&] { parseWithDialect("x86", bad); });
    EXPECT_NE(what.find("width mismatch"), std::string::npos) << what;
}

TEST(ParserDiagnostics, X86UnknownFunctionThrows)
{
    InstDef bad;
    bad.name = "bad_fn";
    bad.pseudocode =
        "DEFINE bad_fn(a: bit[32]) -> bit[32] LAT 1\n"
        "dst[31:0] := Frobnicate(a[31:0], 16)\n"
        "ENDDEF\n";
    const std::string what =
        parseErrorOf([&] { parseWithDialect("x86", bad); });
    EXPECT_NE(what.find("unknown function"), std::string::npos) << what;
}

TEST(ParserDiagnostics, X86UnknownIdentifierNamesTheLine)
{
    InstDef bad;
    bad.name = "bad_ident";
    bad.pseudocode =
        "DEFINE bad_ident(a: bit[32]) -> bit[32] LAT 1\n"
        "dst[31:0] := q[31:0]\n"
        "ENDDEF\n";
    try {
        parseWithDialect("x86", bad);
        FAIL() << "expected a ParseError";
    } catch (const ParseError &error) {
        // The structured fields carry the SourceLoc downstream
        // consumers (SpecDB warnings, verifier diagnostics) cite.
        EXPECT_NE(error.source().find("bad_ident"), std::string::npos);
        EXPECT_EQ(error.line(), 2);
        EXPECT_NE(error.message().find("unknown identifier"),
                  std::string::npos);
        EXPECT_NE(std::string(error.what()).find("bad_ident:2"),
                  std::string::npos);
    }
}

TEST(ParserDiagnostics, X86SymbolicSliceWidthThrows)
{
    InstDef bad;
    bad.name = "bad_slice";
    bad.pseudocode =
        "DEFINE bad_slice(a: bit[64], n: imm) -> bit[64] LAT 1\n"
        "dst[n:0] := a[n:0]\n" // width depends on an immediate
        "ENDDEF\n";
    const std::string what =
        parseErrorOf([&] { parseWithDialect("x86", bad); });
    EXPECT_NE(what.find("fold to a constant"), std::string::npos) << what;
}

TEST(ParserDiagnostics, HvxBadAccessorThrows)
{
    InstDef bad;
    bad.name = "bad_lane";
    bad.pseudocode =
        "INST bad_lane(Vu: v512) -> v512 LAT 1 {\n"
        "for (i = 0; i < 64; i++) {\n"
        "dst.q[i] = Vu.q[i];\n" // no such lane type
        "}\n}\n";
    const std::string what =
        parseErrorOf([&] { parseWithDialect("hvx", bad); });
    EXPECT_NE(what.find("lane accessor"), std::string::npos) << what;
}

TEST(ParserDiagnostics, HvxLoopVariableMismatchThrows)
{
    InstDef bad;
    bad.name = "bad_loop";
    bad.pseudocode =
        "INST bad_loop(Vu: v512) -> v512 LAT 1 {\n"
        "for (i = 0; j < 64; i++) {\n"
        "dst.b[i] = Vu.b[i];\n"
        "}\n}\n";
    const std::string what =
        parseErrorOf([&] { parseWithDialect("hvx", bad); });
    EXPECT_NE(what.find("loop variable"), std::string::npos) << what;
}

TEST(ParserDiagnostics, ArmTernaryConditionMustBeOneBit)
{
    InstDef bad;
    bad.name = "bad_cond";
    bad.pseudocode =
        "INSTRUCTION bad_cond (a: bits(64), b: bits(64)) => bits(64) "
        "LATENCY 1\n"
        "for e = 0 to 3 do\n"
        "Elem[dst, e, 16] = Elem[a, e, 16] ? Elem[a, e, 16] : "
        "Elem[b, e, 16];\n"
        "endfor\nENDINSTRUCTION\n";
    const std::string what =
        parseErrorOf([&] { parseWithDialect("arm", bad); });
    EXPECT_NE(what.find("1-bit"), std::string::npos) << what;
}

TEST(ParserDiagnostics, ArmMalformedHeaderThrows)
{
    InstDef bad;
    bad.name = "bad_header";
    bad.pseudocode = "INSTRUCTION bad_header (a: bits(64) => bits(64)\n";
    const std::string what =
        parseErrorOf([&] { parseWithDialect("arm", bad); });
    EXPECT_NE(what.find("parse error"), std::string::npos) << what;
}

/** One instruction `f` written in one dialect. */
struct DialectText
{
    const char *isa;
    const char *pseudocode;
};

/** Parse `text` as instruction `f`; returns the ParseError it must
 *  raise (any other exception fails the test). */
ParseError
parseErrorIn(const DialectText &text)
{
    InstDef bad;
    bad.name = "f";
    bad.pseudocode = text.pseudocode;
    try {
        parseWithDialect(text.isa, bad);
    } catch (const ParseError &error) {
        EXPECT_EQ(error.source(), std::string(text.isa) + ":f");
        return error;
    }
    ADD_FAILURE() << text.isa << " accepted:\n" << text.pseudocode;
    return ParseError("", 0, "");
}

/** The error paths every dialect shares, one row per dialect. */
TEST(ParserDiagnostics, SharedErrorPathsInEveryDialect)
{
    struct Case
    {
        const char *what;
        int line;
        DialectText texts[3];
    };
    const Case cases[] = {
        {"unknown identifier `q`",
         2,
         {{"x86", "DEFINE f(a: bit[32]) -> bit[32] LAT 1\n"
                  "dst[31:0] := q[31:0]\nENDDEF\n"},
          {"hvx", "INST f(Vu: v32) -> v32 LAT 1 {\ndst[31:0] = q;\n}\n"},
          {"arm", "INSTRUCTION f (a: bits(32)) => bits(32) LATENCY 1\n"
                  "dst = q;\nENDINSTRUCTION\n"}}},
        {"unknown function `",
         2,
         {{"x86", "DEFINE f(a: bit[32]) -> bit[32] LAT 1\n"
                  "dst[31:0] := Frobnicate(a, 16)\nENDDEF\n"},
          {"hvx", "INST f(Vu: v32) -> v32 LAT 1 {\n"
                  "dst[31:0] = frobnicate(Vu, 16);\n}\n"},
          {"arm", "INSTRUCTION f (a: bits(32)) => bits(32) LATENCY 1\n"
                  "dst = Frobnicate(a, 16);\nENDINSTRUCTION\n"}}},
        // The width check runs after the statement's last token and
        // cites that token's line.
        {"width mismatch in assignment to dst",
         2,
         {{"x86", "DEFINE f(a: bit[32]) -> bit[32] LAT 1\n"
                  "dst[31:0] := a[15:0]\nENDDEF\n"},
          {"hvx", "INST f(Vu: v32) -> v32 LAT 1 {\n"
                  "dst.h[0] = Vu.b[0];\n}\n"},
          {"arm", "INSTRUCTION f (a: bits(32)) => bits(32) LATENCY 1\n"
                  "Elem[dst, 0, 16] = Elem[a, 0, 8];\nENDINSTRUCTION\n"}}},
        {"expected `)`",
         1,
         {{"x86", "DEFINE f(a: bit[32] -> bit[32]\n"},
          {"hvx", "INST f(Vu: v32 -> v32\n"},
          {"arm", "INSTRUCTION f (a: bits(32) => bits(32)\n"}}},
    };
    for (const Case &c : cases) {
        for (const DialectText &text : c.texts) {
            SCOPED_TRACE(std::string(text.isa) + ": " + c.what);
            const ParseError error = parseErrorIn(text);
            EXPECT_EQ(error.line(), c.line);
            EXPECT_NE(error.message().find(c.what), std::string::npos)
                << error.what();
        }
    }
}

/** Malformed numbers and types raise ParseError, never a standard
 *  library exception, so SpecDB skips the instruction instead of
 *  aborting the whole manual load. */
TEST(ParserDiagnostics, MalformedNumbersRaiseParseError)
{
    const DialectText texts[] = {
        {"hvx", "INST f(Vu: vx) -> v32 LAT 1 {\n}\n"},
        {"hvx", "INST f(Vu: v99999999999999999999999) -> v32 LAT 1 {\n}\n"},
        {"hvx", "INST f(Vu: v12abc) -> v32 LAT 1 {\n}\n"},
        {"hvx", "INST f(Vu: v) -> v32 LAT 1 {\n}\n"},
        {"x86", "DEFINE f(a: bit[32]) -> bit[32] LAT 99999999999999999999999\n"
                "ENDDEF\n"},
        {"arm", "INSTRUCTION f (a: bits(32)) => bits(32) LATENCY 1\n"
                "dst = a + 12345678901234567890123;\nENDINSTRUCTION\n"},
    };
    for (const DialectText &text : texts) {
        SCOPED_TRACE(text.pseudocode);
        parseErrorIn(text);
    }
}

/** A signature width outside [1, kMaxWidth] fails at the signature
 *  line, not later in canonicalization. */
TEST(ParserDiagnostics, SignatureWidthsAreRangeChecked)
{
    const DialectText texts[] = {
        {"x86", "DEFINE f(a: bit[0]) -> bit[32] LAT 1\nENDDEF\n"},
        {"x86", "DEFINE f(a: bit[-8]) -> bit[32] LAT 1\nENDDEF\n"},
        {"x86", "DEFINE f(a: bit[32]) -> bit[4097] LAT 1\nENDDEF\n"},
        {"x86", "DEFINE f(a: bit[4294967328]) -> bit[32] LAT 1\nENDDEF\n"},
        {"hvx", "INST f(Vu: v0) -> v32 LAT 1 {\n}\n"},
        {"hvx", "INST f(Vu: v99999999999) -> v32 LAT 1 {\n}\n"},
        {"arm", "INSTRUCTION f (a: bits(32)) => bits(0) LATENCY 1\n"
                "ENDINSTRUCTION\n"},
    };
    for (const DialectText &text : texts) {
        SCOPED_TRACE(text.pseudocode);
        const ParseError error = parseErrorIn(text);
        EXPECT_EQ(error.line(), 1);
        EXPECT_NE(error.message().find("outside [1, 4096]"),
                  std::string::npos)
            << error.what();
    }
}

/** A width inside an expression (a cast target, a constant's width)
 *  outside [1, kMaxWidth] fails at its line; it is neither narrowed
 *  to a different width nor left for canonicalization to reject. */
TEST(ParserDiagnostics, ExpressionWidthsAreRangeChecked)
{
    const char *bodies[] = {
        "dst[31:0] := Truncate(SignExtend(a, 4294967328), 32)\n",
        "dst[31:0] := SignExtend(a, 0)\n",
        "dst[31:0] := SignExtend(a, 5000)\n",
        "dst[31:0] := ZEROS(0)\n",
    };
    for (const char *body : bodies) {
        SCOPED_TRACE(body);
        const std::string text =
            std::string("DEFINE f(a: bit[32]) -> bit[32] LAT 1\n") + body +
            "ENDDEF\n";
        const ParseError error = parseErrorIn({"x86", text.c_str()});
        EXPECT_EQ(error.line(), 2);
        EXPECT_NE(error.message().find("outside [1, 4096]"),
                  std::string::npos)
            << error.what();
    }
}

TEST(ParserDiagnostics, ParseFailuresBumpTheDiagnosticCounter)
{
    metrics::setEnabled(true);
    metrics::Counter &diags = metrics::counter("specs.parser.diagnostics");
    const uint64_t before = diags.value();
    InstDef bad;
    bad.name = "bad_header";
    bad.pseudocode = "INSTRUCTION bad_header (a: bits(64) => bits(64)\n";
    EXPECT_THROW(parseWithDialect("arm", bad), ParseError);
    EXPECT_GT(diags.value(), before);
}

} // namespace
} // namespace hydride
