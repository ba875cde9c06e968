//===- tests/parser_test.cpp - Parser tests -------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace safetsa;

namespace {

Program parse(const std::string &Src, bool ExpectErrors = false) {
  DiagnosticEngine Diags;
  Lexer L(Src, Diags);
  Parser P(Src, L.lexAll(), Diags);
  Program Prog = P.parseProgram();
  EXPECT_EQ(Diags.hasErrors(), ExpectErrors) << Diags.render(nullptr);
  return Prog;
}

/// Parses `int f() { return <Expr>; }` and dumps the expression, so
/// precedence is visible in the fully-parenthesized dump.
std::string exprDump(const std::string &Expr) {
  Program P =
      parse("class C { int f() { return " + Expr + "; } }");
  const auto &Body = P.Classes.at(0)->Methods.at(0)->Body->Stmts;
  const auto &Ret = static_cast<const ReturnStmt &>(*Body.at(0));
  std::string S = dumpExpr(*Ret.Value);
  if (!S.empty() && S.back() == '\n')
    S.pop_back();
  return S;
}

TEST(Parser, TreeOutlivesSourceAndTokens) {
  // Names and string bodies view the Program's own copy of the source, so
  // the tree survives its source buffer and the parser's token vector.
  Program P;
  {
    std::string Src = "class Keep extends Base { int n; "
                      "void set(int v) { n = v; name(\"a\\tb\", \"cd\"); } }";
    DiagnosticEngine Diags;
    Lexer L(Src, Diags);
    Parser Parse(Src, L.lexAll(), Diags);
    P = Parse.parseProgram();
    EXPECT_FALSE(Diags.hasErrors()) << Diags.render(nullptr);
    std::fill(Src.begin(), Src.end(), '#');
  }
  ASSERT_EQ(P.Classes.size(), 1u);
  EXPECT_EQ(P.Classes[0]->Name, "Keep");
  EXPECT_EQ(P.Classes[0]->SuperName, "Base");
  EXPECT_EQ(P.Classes[0]->Fields.at(0).Name, "n");
  EXPECT_EQ(P.Classes[0]->Methods.at(0)->Params.at(0).Name, "v");
  EXPECT_EQ(dumpAST(P), "class Keep extends Base\n"
                        "  field int n\n"
                        "  method void set(int v)\n"
                        "    block\n"
                        "      expr (n = v)\n"
                        "      expr (name(\"a\tb\", \"cd\"))\n");
}

TEST(Parser, EmptyClass) {
  Program P = parse("class Empty {}");
  ASSERT_EQ(P.Classes.size(), 1u);
  EXPECT_EQ(P.Classes[0]->Name, "Empty");
  EXPECT_TRUE(P.Classes[0]->SuperName.empty());
}

TEST(Parser, ClassWithExtends) {
  Program P = parse("class A {} class B extends A {}");
  ASSERT_EQ(P.Classes.size(), 2u);
  EXPECT_EQ(P.Classes[1]->SuperName, "A");
}

TEST(Parser, Fields) {
  Program P = parse("class C { int a; static double b; final boolean c; "
                    "static final int d = 4; char[] e; }");
  const auto &C = *P.Classes[0];
  ASSERT_EQ(C.Fields.size(), 5u);
  EXPECT_FALSE(C.Fields[0].IsStatic);
  EXPECT_TRUE(C.Fields[1].IsStatic);
  EXPECT_TRUE(C.Fields[2].IsFinal);
  EXPECT_TRUE(C.Fields[3].IsStatic);
  EXPECT_TRUE(C.Fields[3].IsFinal);
  EXPECT_NE(C.Fields[3].Init, nullptr);
  EXPECT_EQ(C.Fields[4].DeclType.ArrayDims, 1u);
}

TEST(Parser, MethodsAndParams) {
  Program P = parse("class C { void f() {} int g(int a, double[] b) "
                    "{ return a; } static char h() { return 'x'; } }");
  const auto &C = *P.Classes[0];
  ASSERT_EQ(C.Methods.size(), 3u);
  EXPECT_EQ(C.Methods[0]->Params.size(), 0u);
  EXPECT_EQ(C.Methods[1]->Params.size(), 2u);
  EXPECT_EQ(C.Methods[1]->Params[1].DeclType.ArrayDims, 1u);
  EXPECT_TRUE(C.Methods[2]->IsStatic);
}

TEST(Parser, Constructor) {
  Program P = parse("class C { C(int x) {} void C2() {} }");
  const auto &C = *P.Classes[0];
  EXPECT_TRUE(C.Methods[0]->IsConstructor);
  EXPECT_FALSE(C.Methods[1]->IsConstructor);
}

TEST(Parser, StaticConstructorRejected) {
  parse("class C { static C() {} }", /*ExpectErrors=*/true);
}

//===----------------------------------------------------------------------===//
// Precedence and associativity
//===----------------------------------------------------------------------===//

TEST(Parser, MulBindsTighterThanAdd) {
  EXPECT_EQ(exprDump("1 + 2 * 3"), "(1 + (2 * 3))");
}

TEST(Parser, LeftAssociativity) {
  EXPECT_EQ(exprDump("1 - 2 - 3"), "((1 - 2) - 3)");
  EXPECT_EQ(exprDump("8 / 4 / 2"), "((8 / 4) / 2)");
}

TEST(Parser, ComparisonVsShift) {
  EXPECT_EQ(exprDump("1 << 2 < 3"), "((1 << 2) < 3)");
}

TEST(Parser, BitwisePrecedenceChain) {
  EXPECT_EQ(exprDump("a | b ^ c & d"), "(a | (b ^ (c & d)))");
}

TEST(Parser, LogicalPrecedence) {
  EXPECT_EQ(exprDump("a || b && c"), "(a || (b && c))");
  EXPECT_EQ(exprDump("a == b && c != d"), "((a == b) && (c != d))");
}

TEST(Parser, EqualityVsRelational) {
  EXPECT_EQ(exprDump("a < b == c > d"), "((a < b) == (c > d))");
}

TEST(Parser, UnaryBinding) {
  EXPECT_EQ(exprDump("-a * b"), "((- a) * b)");
  EXPECT_EQ(exprDump("!a && b"), "((! a) && b)");
  EXPECT_EQ(exprDump("- -a"), "(- (- a))");
}

TEST(Parser, AssignmentIsRightAssociative) {
  EXPECT_EQ(exprDump("a = b = c"), "(a = (b = c))");
}

TEST(Parser, CompoundAssignment) {
  EXPECT_EQ(exprDump("a += b * 2"), "(a += (b * 2))");
}

TEST(Parser, PostfixChains) {
  EXPECT_EQ(exprDump("a.b.c"), "((a.b).c)");
  EXPECT_EQ(exprDump("a[1][2]"), "((a[1])[2])");
  EXPECT_EQ(exprDump("a.f(1).g(2)"), "((a.f(1)).g(2))");
  EXPECT_EQ(exprDump("a[i].f()"), "((a[i]).f())");
}

TEST(Parser, IncDecForms) {
  EXPECT_EQ(exprDump("a++"), "(post++ a)");
  EXPECT_EQ(exprDump("--a"), "(--pre a)");
  EXPECT_EQ(exprDump("a[i]++"), "(post++ (a[i]))");
}

TEST(Parser, InstanceofPrecedence) {
  EXPECT_EQ(exprDump("a instanceof T == true"),
            "((a instanceof T) == true)");
}

//===----------------------------------------------------------------------===//
// Cast ambiguity
//===----------------------------------------------------------------------===//

TEST(Parser, PrimitiveCast) {
  EXPECT_EQ(exprDump("(int) x"), "((int) x)");
  EXPECT_EQ(exprDump("(double) (x + 1)"), "((double) (x + 1))");
}

TEST(Parser, ClassCastVsParens) {
  // (T) y with identifier following => cast.
  EXPECT_EQ(exprDump("(T) y"), "((T) y)");
  // (a) + b: parenthesized expression, not a cast.
  EXPECT_EQ(exprDump("(a) + b"), "(a + b)");
  // (a) (no following operand) is just parens.
  EXPECT_EQ(exprDump("(a)"), "a");
}

TEST(Parser, ArrayCastIsUnambiguous) {
  EXPECT_EQ(exprDump("(int[]) x"), "((int[]) x)");
  EXPECT_EQ(exprDump("(T[]) x"), "((T[]) x)");
}

TEST(Parser, CastOfCall) {
  EXPECT_EQ(exprDump("(T) f()"), "((T) (f()))");
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

const Stmt &firstStmt(const Program &P) {
  return *P.Classes.at(0)->Methods.at(0)->Body->Stmts.at(0);
}

TEST(Parser, LocalDeclVsExpression) {
  // `T x;` is a declaration, `t.x;` an expression.
  Program P1 = parse("class C { void f() { T x; } }");
  EXPECT_EQ(firstStmt(P1).Kind, StmtKind::VarDecl);
  Program P2 = parse("class C { void f() { t.x(); } }");
  EXPECT_EQ(firstStmt(P2).Kind, StmtKind::Expr);
  Program P3 = parse("class C { void f() { T[] x; } }");
  EXPECT_EQ(firstStmt(P3).Kind, StmtKind::VarDecl);
  Program P4 = parse("class C { void f() { t[0] = 1; } }");
  EXPECT_EQ(firstStmt(P4).Kind, StmtKind::Expr);
}

TEST(Parser, IfElseChain) {
  Program P = parse(
      "class C { void f(int x) { if (x > 0) x = 1; else if (x < 0) "
      "x = 2; else x = 3; } }");
  const auto &If = static_cast<const IfStmt &>(firstStmt(P));
  ASSERT_NE(If.Else, nullptr);
  EXPECT_EQ(If.Else->Kind, StmtKind::If);
}

TEST(Parser, DanglingElseBindsToInner) {
  Program P = parse(
      "class C { void f(int x) { if (x > 0) if (x > 1) x = 1; else x = 2; "
      "} }");
  const auto &Outer = static_cast<const IfStmt &>(firstStmt(P));
  EXPECT_EQ(Outer.Else, nullptr);
  const auto &Inner = static_cast<const IfStmt &>(*Outer.Then);
  EXPECT_NE(Inner.Else, nullptr);
}

TEST(Parser, ForVariants) {
  parse("class C { void f() { for (;;) break; } }");
  parse("class C { void f() { for (int i = 0; i < 9; i++) {} } }");
  parse("class C { void f() { int i; for (i = 0; i < 9; i = i + 1) {} } }");
  parse("class C { void f() { for (int i = 0; ; i++) break; } }");
}

TEST(Parser, DoWhile) {
  Program P = parse("class C { void f() { do { } while (true); } }");
  EXPECT_EQ(firstStmt(P).Kind, StmtKind::DoWhile);
}

TEST(Parser, NewForms) {
  EXPECT_EQ(exprDump("new T()"), "(new T())");
  EXPECT_EQ(exprDump("new T(1, x)"), "(new T(1, x))");
  EXPECT_EQ(exprDump("new int[5]"), "(new int[5])");
  EXPECT_EQ(exprDump("new int[n][]"), "(new int[][n])");
  EXPECT_EQ(exprDump("new T[n]"), "(new T[n])");
}

//===----------------------------------------------------------------------===//
// Error recovery
//===----------------------------------------------------------------------===//

TEST(Parser, MissingSemicolonRecovers) {
  parse("class C { void f() { int x = 1 int y = 2; } }",
        /*ExpectErrors=*/true);
}

TEST(Parser, BadTopLevel) {
  parse("int x;", /*ExpectErrors=*/true);
}

TEST(Parser, MissingClassName) {
  parse("class { }", /*ExpectErrors=*/true);
}

TEST(Parser, AssignToNonLValueRejected) {
  parse("class C { void f() { 1 = 2; } }", /*ExpectErrors=*/true);
  parse("class C { void f(int a, int b) { a + b = 2; } }",
        /*ExpectErrors=*/true);
}

TEST(Parser, RecoveryProducesMultipleErrors) {
  DiagnosticEngine Diags;
  std::string Src = "class C { void f() { @ } void g() { # } }";
  Lexer L(Src, Diags);
  Parser P(Src, L.lexAll(), Diags);
  P.parseProgram();
  EXPECT_GE(Diags.getNumErrors(), 2u);
}

} // namespace
