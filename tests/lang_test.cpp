//===- tests/lang_test.cpp - MJ language semantics matrix -----*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Feature-by-feature execution tests. Every case runs on BOTH back ends
/// (SafeTSA evaluator and bytecode interpreter) via a parameterized
/// fixture, so each expectation doubles as a differential check.
///
//===----------------------------------------------------------------------===//

#include "bytecode/BCCompiler.h"
#include "bytecode/BCInterp.h"
#include "driver/Compiler.h"
#include "exec/TSAInterp.h"
#include "tsa/Verifier.h"

#include <gtest/gtest.h>

using namespace safetsa;

namespace {

enum class Backend { TSA, Bytecode };

class LangTest : public ::testing::TestWithParam<Backend> {
protected:
  /// Compiles and runs `Src` on the parameterized backend; returns output.
  std::string run(const std::string &Src) {
    auto P = compileMJ("lang.mj", Src);
    EXPECT_TRUE(P->ok()) << P->renderDiagnostics();
    if (!P->ok())
      return "<compile error>";
    Runtime RT(*P->Table);
    ExecResult R;
    if (GetParam() == Backend::TSA) {
      TSAVerifier V(*P->TSA);
      EXPECT_TRUE(V.verify());
      TSAInterpreter I(*P->TSA, RT);
      R = I.runMain();
    } else {
      BCCompiler BCC(P->Types, *P->Table);
      auto BC = BCC.compile(P->AST);
      BCInterpreter I(*BC, RT, P->Types);
      R = I.runMain();
    }
    EXPECT_EQ(R.Err, RuntimeError::None) << runtimeErrorName(R.Err);
    return RT.getOutput();
  }

  /// Shorthand: body of static main, printing ints separated by spaces.
  std::string runMain(const std::string &Body,
                      const std::string &Extra = "") {
    return run("class Main { static void main() { " + Body + " } " +
               Extra + " }");
  }
};

//===----------------------------------------------------------------------===//
// Arithmetic
//===----------------------------------------------------------------------===//

TEST_P(LangTest, IntegerArithmetic) {
  EXPECT_EQ(runMain("IO.printInt(7 + 3 * 4 - 10 / 3 % 2);"), "18");
}

TEST_P(LangTest, IntegerOverflowWraps) {
  EXPECT_EQ(runMain("IO.printInt(2147483647 + 1);"), "-2147483648");
  EXPECT_EQ(runMain("IO.printInt(-2147483648 - 1);"), "2147483647");
  EXPECT_EQ(runMain("IO.printInt(100000 * 100000);"), "1410065408");
}

TEST_P(LangTest, IntegerDivisionTruncatesTowardZero) {
  EXPECT_EQ(runMain("IO.printInt(-7 / 2);"), "-3");
  EXPECT_EQ(runMain("IO.printInt(-7 % 2);"), "-1");
  EXPECT_EQ(runMain("IO.printInt(7 / -2);"), "-3");
}

TEST_P(LangTest, MinIntEdgeCases) {
  EXPECT_EQ(runMain("IO.printInt(-2147483648 / -1);"), "-2147483648");
  EXPECT_EQ(runMain("IO.printInt(-2147483648 % -1);"), "0");
  EXPECT_EQ(runMain("IO.printInt(-(-2147483648));"), "-2147483648");
}

TEST_P(LangTest, BitwiseOps) {
  EXPECT_EQ(runMain("IO.printInt(0xF0 & 0x3C);"), "48");
  EXPECT_EQ(runMain("IO.printInt(0xF0 | 0x0F);"), "255");
  EXPECT_EQ(runMain("IO.printInt(0xFF ^ 0x0F);"), "240");
  EXPECT_EQ(runMain("IO.printInt(~5);"), "-6");
  EXPECT_EQ(runMain("IO.printInt(1 << 10);"), "1024");
  EXPECT_EQ(runMain("IO.printInt(-16 >> 2);"), "-4");
}

TEST_P(LangTest, ShiftCountsMask31) {
  EXPECT_EQ(runMain("IO.printInt(1 << 33);"), "2");
  EXPECT_EQ(runMain("IO.printInt(256 >> 33);"), "128");
}

TEST_P(LangTest, DoubleArithmetic) {
  EXPECT_EQ(runMain("IO.printDouble(0.5 + 0.25);"), "0.75");
  EXPECT_EQ(runMain("IO.printDouble(1.0 / 4.0);"), "0.25");
  EXPECT_EQ(runMain("IO.printDouble(-2.5 * 2.0);"), "-5");
}

TEST_P(LangTest, MixedArithmeticPromotes) {
  EXPECT_EQ(runMain("IO.printDouble(1 / 2 + 0.5);"), "0.5");
  EXPECT_EQ(runMain("IO.printDouble(1 / 2.0);"), "0.5");
}

TEST_P(LangTest, NumericCasts) {
  EXPECT_EQ(runMain("IO.printInt((int) 3.99);"), "3");
  EXPECT_EQ(runMain("IO.printInt((int) -3.99);"), "-3");
  EXPECT_EQ(runMain("IO.printDouble((double) 7 / 2);"), "3.5");
  EXPECT_EQ(runMain("IO.printInt((char) 321);"), "65");
  EXPECT_EQ(runMain("IO.printChar((char) 66);"), "B");
}

TEST_P(LangTest, CharArithmetic) {
  EXPECT_EQ(runMain("IO.printInt('z' - 'a');"), "25");
  EXPECT_EQ(runMain("char c = 'a'; c++; IO.printChar(c);"), "b");
  EXPECT_EQ(runMain("IO.printBool('a' < 'b');"), "true");
}

//===----------------------------------------------------------------------===//
// Booleans and comparisons
//===----------------------------------------------------------------------===//

TEST_P(LangTest, Comparisons) {
  EXPECT_EQ(runMain("IO.printBool(3 < 4); IO.printBool(4 <= 4); "
                    "IO.printBool(5 > 4); IO.printBool(3 >= 4); "
                    "IO.printBool(3 == 3); IO.printBool(3 != 3);"),
            "truetruetruefalsetruefalse");
}

TEST_P(LangTest, DoubleComparisons) {
  EXPECT_EQ(runMain("IO.printBool(0.1 < 0.2); IO.printBool(1.5 == 1.5); "
                    "IO.printBool(2.0 >= 3.0);"),
            "truetruefalse");
}

TEST_P(LangTest, NaNComparesFalseEveryWay) {
  EXPECT_EQ(runMain("double z = 0.0; double nan = z / z; "
                    "IO.printBool(nan < 1.0); IO.printBool(nan <= 1.0); "
                    "IO.printBool(nan > 1.0); IO.printBool(nan >= 1.0); "
                    "IO.printBool(nan == nan); IO.printBool(nan != nan);"),
            "falsefalsefalsefalsefalsetrue");
}

TEST_P(LangTest, BooleanOps) {
  EXPECT_EQ(runMain("IO.printBool(!true); IO.printBool(true == false); "
                    "IO.printBool(true != false);"),
            "falsefalsetrue");
}

TEST_P(LangTest, ShortCircuitSkipsSideEffects) {
  std::string Extra = "static int calls; "
                      "static boolean note() { calls++; return true; }";
  EXPECT_EQ(runMain("boolean x = false && note(); "
                    "boolean y = true || note(); "
                    "IO.printInt(calls);",
                    Extra),
            "0");
  EXPECT_EQ(runMain("boolean x = true && note(); "
                    "boolean y = false || note(); "
                    "IO.printInt(calls);",
                    Extra),
            "2");
}

TEST_P(LangTest, ShortCircuitNesting) {
  EXPECT_EQ(runMain("int a = 5; "
                    "IO.printBool(a > 0 && a < 10 || a == 42);"),
            "true");
}

//===----------------------------------------------------------------------===//
// Control flow
//===----------------------------------------------------------------------===//

TEST_P(LangTest, WhileLoop) {
  EXPECT_EQ(runMain("int i = 0; int s = 0; while (i < 5) { s += i; i++; } "
                    "IO.printInt(s);"),
            "10");
}

TEST_P(LangTest, DoWhileRunsAtLeastOnce) {
  EXPECT_EQ(runMain("int i = 10; int n = 0; do { n++; i++; } "
                    "while (i < 5); IO.printInt(n);"),
            "1");
  EXPECT_EQ(runMain("int i = 0; int n = 0; do { n++; i++; } "
                    "while (i < 3); IO.printInt(n);"),
            "3");
}

TEST_P(LangTest, ForWithBreakContinue) {
  EXPECT_EQ(runMain("int s = 0; for (int i = 0; i < 10; i++) { "
                    "if (i == 7) break; if (i % 2 == 0) continue; s += i; } "
                    "IO.printInt(s);"),
            "9"); // 1 + 3 + 5
}

TEST_P(LangTest, ContinueRunsForUpdate) {
  // A for-loop whose body always continues must still terminate.
  EXPECT_EQ(runMain("int n = 0; for (int i = 0; i < 4; i++) { n++; "
                    "continue; } IO.printInt(n);"),
            "4");
}

TEST_P(LangTest, ContinueInDoWhileRechecksCondition) {
  EXPECT_EQ(runMain("int i = 0; int n = 0; do { i++; if (i == 2) continue; "
                    "n = n + i; } while (i < 4); IO.printInt(n);"),
            "8"); // 1 + 3 + 4
}

TEST_P(LangTest, NestedLoopsWithBreak) {
  EXPECT_EQ(runMain("int hits = 0; for (int i = 0; i < 4; i++) { "
                    "for (int j = 0; j < 4; j++) { if (j > i) break; "
                    "hits++; } } IO.printInt(hits);"),
            "10");
}

TEST_P(LangTest, InfiniteLoopWithBreak) {
  EXPECT_EQ(runMain("int i = 0; while (true) { i++; if (i == 5) break; } "
                    "IO.printInt(i);"),
            "5");
}

TEST_P(LangTest, EmptyForClauses) {
  EXPECT_EQ(runMain("int i = 0; for (;;) { if (i >= 3) break; i++; } "
                    "IO.printInt(i);"),
            "3");
}

TEST_P(LangTest, LoopCarriedShortCircuitCondition) {
  // Short-circuit in a loop condition exercises the CST loop-header seq.
  EXPECT_EQ(runMain("int[] a = new int[4]; a[3] = 9; int i = 0; "
                    "while (i < a.length && a[i] == 0) i++; "
                    "IO.printInt(i);"),
            "3");
}

//===----------------------------------------------------------------------===//
// Assignment forms
//===----------------------------------------------------------------------===//

TEST_P(LangTest, AssignmentIsAnExpression) {
  EXPECT_EQ(runMain("int a; int b; a = b = 5; IO.printInt(a + b);"), "10");
}

TEST_P(LangTest, CompoundAssignments) {
  EXPECT_EQ(runMain("int a = 10; a += 5; a -= 3; a *= 2; a /= 4; a %= 4; "
                    "IO.printInt(a);"),
            "2");
}

TEST_P(LangTest, CompoundOnArrayEvaluatesIndexOnce) {
  std::string Extra = "static int calls; "
                      "static int idx() { calls++; return 2; }";
  EXPECT_EQ(runMain("int[] a = new int[4]; a[2] = 5; a[idx()] += 10; "
                    "IO.printInt(a[2]); IO.printChar(' '); "
                    "IO.printInt(calls);",
                    Extra),
            "15 1");
}

TEST_P(LangTest, PrePostIncrement) {
  EXPECT_EQ(runMain("int i = 5; IO.printInt(i++); IO.printInt(i); "
                    "IO.printInt(++i); IO.printInt(--i); "
                    "IO.printInt(i--); IO.printInt(i);"),
            "567665");
}

TEST_P(LangTest, IncrementOnFieldsAndArrays) {
  std::string Extra = "int f;";
  EXPECT_EQ(run("class C { int f; } class Main { static void main() { "
                "C c = new C(); c.f++; c.f++; IO.printInt(c.f++); "
                "IO.printInt(c.f); int[] a = new int[2]; a[1]++; "
                "IO.printInt(++a[1]); } }"),
            "232");
}

TEST_P(LangTest, DoubleIncrement) {
  EXPECT_EQ(runMain("double d = 1.5; d++; IO.printDouble(d);"), "2.5");
}

//===----------------------------------------------------------------------===//
// Objects
//===----------------------------------------------------------------------===//

TEST_P(LangTest, FieldsDefaultToZero) {
  EXPECT_EQ(run("class C { int i; double d; boolean b; char c; C next; } "
                "class Main { static void main() { C x = new C(); "
                "IO.printInt(x.i); IO.printDouble(x.d); IO.printBool(x.b); "
                "IO.printBool(x.next == null); } }"),
            "00falsetrue");
}

TEST_P(LangTest, FieldInitializersRunRootFirst) {
  EXPECT_EQ(run("class A { int a = 5; int b = a + 1; } "
                "class B extends A { int c = b * 2; } "
                "class Main { static void main() { B x = new B(); "
                "IO.printInt(x.a); IO.printInt(x.b); IO.printInt(x.c); } }"),
            "5612");
}

TEST_P(LangTest, ConstructorOverloads) {
  EXPECT_EQ(run("class P { int x; int y; "
                "P() { x = 1; y = 2; } "
                "P(int a) { x = a; y = a; } "
                "P(int a, int b) { x = a; y = b; } } "
                "class Main { static void main() { "
                "IO.printInt(new P().x + new P(7).y + new P(3, 4).y); } }"),
            "12");
}

TEST_P(LangTest, ChainedCallsResolveTheirOwnCallees) {
  // Each call in a chain resolves among its own class's methods, even
  // when the base's callee would also accept the outer call's arguments.
  EXPECT_EQ(run("class A { int v; A next(int k) { v = v + k; return this; } "
                "int get(double d) { return v; } } "
                "class B { int w; B(int x) { w = x; } int get(double d) { "
                "return w; } } "
                "class Main { static void main() { A a = new A(); "
                "IO.printInt(a.next(1).get(2)); IO.printChar(' '); "
                "IO.printInt(new A().next(5).next(6).get(0)); "
                "IO.printChar(' '); IO.printInt(new B(a.next(2).v).get(3)); "
                "} }"),
            "1 11 3");
}

TEST_P(LangTest, VirtualDispatchUsesDynamicType) {
  EXPECT_EQ(run("class A { int f() { return 1; } "
                "int twice() { return f() * 2; } } "
                "class B extends A { int f() { return 10; } } "
                "class Main { static void main() { A a = new B(); "
                "IO.printInt(a.twice()); } }"),
            "20"); // Dispatch through `this` inside twice() picks B.f.
}

TEST_P(LangTest, ThreeLevelOverride) {
  EXPECT_EQ(run("class A { int f() { return 1; } } "
                "class B extends A { int f() { return 2; } } "
                "class C extends B { int f() { return 3; } } "
                "class Main { static void main() { A[] xs = new A[3]; "
                "xs[0] = new A(); xs[1] = new B(); xs[2] = new C(); "
                "int s = 0; for (int i = 0; i < 3; i++) s = s * 10 + "
                "xs[i].f(); IO.printInt(s); } }"),
            "123");
}

TEST_P(LangTest, InheritedMethodSeesSubclassFields) {
  EXPECT_EQ(run("class A { int v; int get() { return v; } } "
                "class B extends A { void setUp() { v = 42; } } "
                "class Main { static void main() { B b = new B(); "
                "b.setUp(); IO.printInt(b.get()); } }"),
            "42");
}

TEST_P(LangTest, InstanceofAndCasts) {
  EXPECT_EQ(run("class A {} class B extends A {} class C extends A {} "
                "class Main { static void main() { A x = new B(); "
                "IO.printBool(x instanceof B); "
                "IO.printBool(x instanceof C); "
                "IO.printBool(x instanceof A); "
                "IO.printBool(null instanceof A); "
                "B b = (B) x; IO.printBool(b == x); } }"),
            "truefalsetruefalsetrue");
}

TEST_P(LangTest, ReferenceEquality) {
  EXPECT_EQ(run("class A {} class Main { static void main() { "
                "A x = new A(); A y = new A(); A z = x; "
                "IO.printBool(x == y); IO.printBool(x == z); "
                "IO.printBool(x != null); IO.printBool(null == null); } }"),
            "falsetruetruetrue");
}

TEST_P(LangTest, StaticFieldsAreShared) {
  EXPECT_EQ(run("class Counter { static int n; "
                "static void bump() { n++; } } "
                "class Main { static void main() { Counter.bump(); "
                "Counter.bump(); Counter.bump(); "
                "IO.printInt(Counter.n); } }"),
            "3");
}

TEST_P(LangTest, StaticInitializers) {
  EXPECT_EQ(run("class K { static int a = 42; static double d = 2.5; "
                "static boolean b = true; static char c = 'x'; } "
                "class Main { static void main() { IO.printInt(K.a); "
                "IO.printDouble(K.d); IO.printBool(K.b); "
                "IO.printChar(K.c); } }"),
            "422.5truex");
  // Folded initializers take Java's values: assignment conversions,
  // casts, comparisons and short-circuit operators all fold as the
  // program would compute them, and int division wraps.
  EXPECT_EQ(run("class K { static double d = 1; static int c = 'a'; "
                "static int x = (int) 2.7; static int k = -5; } "
                "class Main { static void main() { IO.printDouble(K.d * 0.5); "
                "IO.printInt(K.c); IO.printInt(K.x + 1); IO.printInt(K.k); } }"),
            "0.5973-5");
  EXPECT_EQ(run("class K { static boolean p = 3 < 2; "
                "static boolean q = true && false; "
                "static boolean r = 2.5 > 1.0; } "
                "class Main { static void main() { IO.printBool(K.p); "
                "IO.printBool(K.q); IO.printBool(K.r); } }"),
            "falsefalsetrue");
  EXPECT_EQ(run("class K { static int z = -2147483648 / -1; "
                "static int w = -2147483648 % -1; } "
                "class Main { static void main() { IO.printInt(K.z); "
                "IO.printChar(' '); IO.printInt(K.w); } }"),
            "-2147483648 0");
  // An initializer that divides by zero has no value: a compile error.
  auto P = compileMJ("lang.mj", "class K { static int z = 1 / 0; } "
                                "class Main { static void main() { "
                                "IO.printInt(K.z); } }");
  EXPECT_FALSE(P->ok());
  EXPECT_NE(P->renderDiagnostics().find("divides by zero"), std::string::npos)
      << P->renderDiagnostics();
}

TEST_P(LangTest, RecursionWorks) {
  EXPECT_EQ(run("class Main { static int fib(int n) { if (n < 2) return "
                "n; return fib(n - 1) + fib(n - 2); } "
                "static void main() { IO.printInt(fib(15)); } }"),
            "610");
}

TEST_P(LangTest, MutualRecursion) {
  EXPECT_EQ(run("class Main { "
                "static boolean even(int n) { if (n == 0) return true; "
                "return odd(n - 1); } "
                "static boolean odd(int n) { if (n == 0) return false; "
                "return even(n - 1); } "
                "static void main() { IO.printBool(even(10)); "
                "IO.printBool(odd(7)); } }"),
            "truetrue");
}

//===----------------------------------------------------------------------===//
// Arrays and strings
//===----------------------------------------------------------------------===//

TEST_P(LangTest, ArraysOfAllElementTypes) {
  EXPECT_EQ(runMain("int[] a = new int[2]; double[] d = new double[2]; "
                    "boolean[] b = new boolean[2]; char[] c = new char[2]; "
                    "a[0] = 7; d[1] = 1.5; b[0] = true; c[1] = 'q'; "
                    "IO.printInt(a[0] + a[1]); IO.printDouble(d[1]); "
                    "IO.printBool(b[0]); IO.printChar(c[1]);"),
            "71.5trueq");
}

TEST_P(LangTest, ArraysOfReferences) {
  EXPECT_EQ(run("class P { int v; P(int x) { v = x; } } "
                "class Main { static void main() { P[] ps = new P[3]; "
                "IO.printBool(ps[0] == null); ps[1] = new P(9); "
                "IO.printInt(ps[1].v); } }"),
            "true9");
}

TEST_P(LangTest, JaggedArrays) {
  EXPECT_EQ(runMain("int[][] m = new int[3][]; "
                    "for (int i = 0; i < 3; i++) m[i] = new int[i + 1]; "
                    "m[2][2] = 5; IO.printInt(m[0].length + m[1].length + "
                    "m[2].length + m[2][2]);"),
            "11");
}

TEST_P(LangTest, StringLiteralsAreCharArrays) {
  EXPECT_EQ(runMain("char[] s = \"abc\"; IO.printInt(s.length); "
                    "IO.printChar(s[1]); IO.printStr(s);"),
            "3babc");
}

TEST_P(LangTest, ZeroLengthArray) {
  EXPECT_EQ(runMain("int[] a = new int[0]; IO.printInt(a.length);"), "0");
}

TEST_P(LangTest, ArrayAliasing) {
  EXPECT_EQ(runMain("int[] a = new int[3]; int[] b = a; b[1] = 7; "
                    "IO.printInt(a[1]);"),
            "7");
}

INSTANTIATE_TEST_SUITE_P(BothBackends, LangTest,
                         ::testing::Values(Backend::TSA, Backend::Bytecode),
                         [](const ::testing::TestParamInfo<Backend> &Info) {
                           return Info.param == Backend::TSA ? "SafeTSA"
                                                             : "Bytecode";
                         });

} // namespace
