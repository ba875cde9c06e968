//===- tests/lexer_test.cpp - Lexer tests ---------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include <gtest/gtest.h>

using namespace safetsa;

namespace {

std::vector<Token> lex(const std::string &Src, bool ExpectErrors = false) {
  DiagnosticEngine Diags;
  Lexer L(Src, Diags);
  std::vector<Token> Tokens = L.lexAll();
  EXPECT_EQ(Diags.hasErrors(), ExpectErrors) << Diags.render(nullptr);
  return Tokens;
}

/// The unescaped body of string literal \p T, decoded the way the parser
/// does it.
std::string stringValue(const Token &T, const std::string &Src) {
  std::string Body(static_cast<size_t>(T.IntValue), '\0');
  unescapeStringLiteral(T.text(Src), Body.data());
  return Body;
}

std::vector<TokenKind> kindsOf(const std::string &Src) {
  std::vector<TokenKind> Kinds;
  for (const Token &T : lex(Src))
    Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(Lexer, EmptyInput) {
  auto Tokens = lex("");
  ASSERT_EQ(Tokens.size(), 1u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Eof);
}

TEST(Lexer, Keywords) {
  auto Kinds = kindsOf("class extends static final void int boolean double "
                       "char if else while do for return break continue new "
                       "this null true false instanceof try catch");
  std::vector<TokenKind> Expected = {
      TokenKind::KwClass,    TokenKind::KwExtends, TokenKind::KwStatic,
      TokenKind::KwFinal,    TokenKind::KwVoid,    TokenKind::KwInt,
      TokenKind::KwBoolean,  TokenKind::KwDouble,  TokenKind::KwChar,
      TokenKind::KwIf,       TokenKind::KwElse,    TokenKind::KwWhile,
      TokenKind::KwDo,       TokenKind::KwFor,     TokenKind::KwReturn,
      TokenKind::KwBreak,    TokenKind::KwContinue, TokenKind::KwNew,
      TokenKind::KwThis,     TokenKind::KwNull,    TokenKind::KwTrue,
      TokenKind::KwFalse,    TokenKind::KwInstanceof, TokenKind::KwTry,
      TokenKind::KwCatch,    TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, KeywordNearMissesAreIdentifiers) {
  // Every keyword length, one character short, one long, one changed, and
  // case-changed: the length switch must not accept a prefix or a
  // neighbour of the same length.
  auto Tokens = lex("i iff d dox tr tryx tri in intx fo forr ne neww "
                    "voi voidd chax els elsee thi thiss nul nulll tru truee "
                    "clas classs fina finall whil whilee brea breakk fals "
                    "falsee catc catchh stati staticc doubl doublee retur "
                    "returnn extend extendss boolea booleann continu "
                    "continuee instanceo instanceoff Instanceof If TRY Catch");
  ASSERT_GT(Tokens.size(), 1u);
  for (size_t I = 0; I + 1 < Tokens.size(); ++I)
    EXPECT_EQ(Tokens[I].Kind, TokenKind::Identifier) << "token " << I;
  EXPECT_EQ(Tokens.back().Kind, TokenKind::Eof);
}

TEST(Lexer, IdentifiersAreNotKeywords) {
  std::string Src = "classy _if For intx";
  auto Tokens = lex(Src);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[0].text(Src), "classy");
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Identifier);
}

TEST(Lexer, IntLiterals) {
  auto Tokens = lex("0 42 2147483647 0x1f 0xFF");
  EXPECT_EQ(Tokens[0].IntValue, 0);
  EXPECT_EQ(Tokens[1].IntValue, 42);
  EXPECT_EQ(Tokens[2].IntValue, 2147483647);
  EXPECT_EQ(Tokens[3].IntValue, 31);
  EXPECT_EQ(Tokens[4].IntValue, 255);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(Tokens[I].Kind, TokenKind::IntLiteral);
}

TEST(Lexer, IntLiteralOverflowRejected) {
  lex("2147483649", /*ExpectErrors=*/true);
}

TEST(Lexer, MinIntMagnitudeAccepted) {
  // 2147483648 is allowed so that -2147483648 parses (Java-style rule).
  auto Tokens = lex("2147483648");
  EXPECT_EQ(Tokens[0].IntValue, 2147483648LL);
}

TEST(Lexer, DecimalLiteralsBeyond64BitsRejected) {
  // Literals that wrap an int64_t or overflow a uint64_t are still too
  // large for an int, not negative or -1.
  lex("9300000000000000000", /*ExpectErrors=*/true);
  lex("9223372036854775808", /*ExpectErrors=*/true);
  lex("18446744073709551615", /*ExpectErrors=*/true);
  lex("99999999999999999999", /*ExpectErrors=*/true);
  lex("00000000000000000000000000002147483649", /*ExpectErrors=*/true);
}

TEST(Lexer, HexLiteralsAboveThirtyTwoBitsRejected) {
  lex("0x100000000", /*ExpectErrors=*/true);
  lex("0xfffffffff", /*ExpectErrors=*/true);
  lex("0xFFFFFFFFFFFFFFFFFFFF", /*ExpectErrors=*/true);
}

TEST(Lexer, HexLiteralsKeepTheirBitPatterns) {
  // Java's rule: any 32-bit hex pattern is an int literal; the upper half
  // of the range names the negative ints.
  auto Tokens = lex("0x80000000 0xFFFFFFFF 0x000000000000ff");
  EXPECT_EQ(Tokens[0].IntValue, 0x80000000LL);
  EXPECT_EQ(Tokens[1].IntValue, 0xFFFFFFFFLL);
  EXPECT_EQ(Tokens[2].IntValue, 255);
}

TEST(Lexer, DoubleLiterals) {
  auto Tokens = lex("1.5 0.25 2e3 1.5e-2 7E+1");
  EXPECT_DOUBLE_EQ(Tokens[0].DoubleValue, 1.5);
  EXPECT_DOUBLE_EQ(Tokens[1].DoubleValue, 0.25);
  EXPECT_DOUBLE_EQ(Tokens[2].DoubleValue, 2000.0);
  EXPECT_DOUBLE_EQ(Tokens[3].DoubleValue, 0.015);
  EXPECT_DOUBLE_EQ(Tokens[4].DoubleValue, 70.0);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(Tokens[I].Kind, TokenKind::DoubleLiteral);
}

TEST(Lexer, DotWithoutDigitsIsMemberAccess) {
  auto Kinds = kindsOf("a.length");
  std::vector<TokenKind> Expected = {TokenKind::Identifier, TokenKind::Dot,
                                     TokenKind::Identifier, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, TrailingEIsIdentifier) {
  // `2e` is the number 2 followed by identifier e, not a malformed float.
  auto Tokens = lex("2e");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Identifier);
}

TEST(Lexer, CharLiterals) {
  auto Tokens = lex(R"('a' ' ' '\n' '\t' '\\' '\'' '\0')");
  EXPECT_EQ(Tokens[0].IntValue, 'a');
  EXPECT_EQ(Tokens[1].IntValue, ' ');
  EXPECT_EQ(Tokens[2].IntValue, '\n');
  EXPECT_EQ(Tokens[3].IntValue, '\t');
  EXPECT_EQ(Tokens[4].IntValue, '\\');
  EXPECT_EQ(Tokens[5].IntValue, '\'');
  EXPECT_EQ(Tokens[6].IntValue, 0);
}

TEST(Lexer, StringLiterals) {
  std::string Src = R"("hello" "" "a\"b" "line\n")";
  auto Tokens = lex(Src);
  EXPECT_EQ(stringValue(Tokens[0], Src), "hello");
  EXPECT_EQ(stringValue(Tokens[1], Src), "");
  EXPECT_EQ(stringValue(Tokens[2], Src), "a\"b");
  EXPECT_EQ(stringValue(Tokens[3], Src), "line\n");
}

TEST(Lexer, UnterminatedString) {
  lex("\"abc", /*ExpectErrors=*/true);
}

TEST(Lexer, UnterminatedChar) {
  lex("'a", /*ExpectErrors=*/true);
}

TEST(Lexer, EmptyChar) {
  lex("''", /*ExpectErrors=*/true);
}

TEST(Lexer, BadEscape) {
  lex(R"('\q')", /*ExpectErrors=*/true);
}

TEST(Lexer, Operators) {
  auto Kinds = kindsOf("+ - * / % ! ~ < > <= >= == != && || & | ^ << >> "
                       "++ -- += -= *= /= %= =");
  std::vector<TokenKind> Expected = {
      TokenKind::Plus,        TokenKind::Minus,
      TokenKind::Star,        TokenKind::Slash,
      TokenKind::Percent,     TokenKind::Not,
      TokenKind::Tilde,       TokenKind::Less,
      TokenKind::Greater,     TokenKind::LessEqual,
      TokenKind::GreaterEqual, TokenKind::EqualEqual,
      TokenKind::NotEqual,    TokenKind::AmpAmp,
      TokenKind::PipePipe,    TokenKind::Amp,
      TokenKind::Pipe,        TokenKind::Caret,
      TokenKind::Shl,         TokenKind::Shr,
      TokenKind::PlusPlus,    TokenKind::MinusMinus,
      TokenKind::PlusAssign,  TokenKind::MinusAssign,
      TokenKind::StarAssign,  TokenKind::SlashAssign,
      TokenKind::PercentAssign, TokenKind::Assign,
      TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, MaximalMunch) {
  // `a+++b` lexes as a ++ + b, like Java.
  auto Kinds = kindsOf("a+++b");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::PlusPlus, TokenKind::Plus,
                                     TokenKind::Identifier, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, LineComments) {
  auto Kinds = kindsOf("a // rest of line ignored ++ \nb");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, BlockComments) {
  auto Kinds = kindsOf("a /* multi \n line * comment */ b");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, UnterminatedBlockComment) {
  lex("a /* never ends", /*ExpectErrors=*/true);
}

TEST(Lexer, InvalidCharacter) {
  auto Tokens = lex("a @ b", /*ExpectErrors=*/true);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Unknown);
}

TEST(Lexer, TokenLocations) {
  auto Tokens = lex("ab  cd\nef");
  EXPECT_EQ(Tokens[0].Loc.Offset, 0u);
  EXPECT_EQ(Tokens[1].Loc.Offset, 4u);
  EXPECT_EQ(Tokens[2].Loc.Offset, 7u);
}

} // namespace
