//===- tests/exec_test.cpp - Runtime semantics & exceptions ---*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime exception semantics: the dynamic checks that SafeTSA makes
/// explicit (null, bounds, casts, arithmetic) must trap with the same
/// exception after the same output on every configuration of the
/// differential matrix — the bytecode baseline included, and after
/// producer-side optimization, which may remove *redundant* checks but
/// never a live one.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "exec/TSAInterp.h"
#include "testgen/DifferentialRunner.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

using namespace safetsa;
using testgen::agreedOutcome;
using testgen::Outcome;

namespace {

TEST(Exec, DivisionByZeroTraps) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int z = 0; "
                          "IO.printInt(1 / z); } }"),
            (Outcome{RuntimeError::DivisionByZero, ""}));
}

TEST(Exec, RemainderByZeroTraps) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int z = 0; "
                          "IO.printInt(1 % z); } }"),
            (Outcome{RuntimeError::DivisionByZero, ""}));
}

TEST(Exec, DoubleDivisionByZeroDoesNotTrap) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { double z = "
                          "0.0; IO.printBool(1.0 / z > 0.0); } }"),
            (Outcome{RuntimeError::None, "true"})); // +inf
}

TEST(Exec, NullFieldAccessTraps) {
  EXPECT_EQ(agreedOutcome("class C { int x; } class Main { static void "
                          "main() { C c = null; IO.printInt(c.x); } }"),
            (Outcome{RuntimeError::NullPointer, ""}));
}

TEST(Exec, NullStoreTraps) {
  EXPECT_EQ(agreedOutcome("class C { int x; } class Main { static void "
                          "main() { C c = null; c.x = 1; } }"),
            (Outcome{RuntimeError::NullPointer, ""}));
}

TEST(Exec, NullCallTraps) {
  EXPECT_EQ(agreedOutcome("class C { void f() {} } class Main { static "
                          "void main() { C c = null; c.f(); } }"),
            (Outcome{RuntimeError::NullPointer, ""}));
}

TEST(Exec, NullArrayTraps) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int[] a = "
                          "null; IO.printInt(a[0]); } }"),
            (Outcome{RuntimeError::NullPointer, ""}));
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int[] a = "
                          "null; IO.printInt(a.length); } }"),
            (Outcome{RuntimeError::NullPointer, ""}));
}

TEST(Exec, BoundsTrapsBothEnds) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int[] a = new "
                          "int[3]; IO.printInt(a[3]); } }"),
            (Outcome{RuntimeError::IndexOutOfBounds, ""}));
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int[] a = new "
                          "int[3]; int i = -1; a[i] = 0; } }"),
            (Outcome{RuntimeError::IndexOutOfBounds, ""}));
}

TEST(Exec, TrapHappensAfterEarlierOutput) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int[] a = new "
                          "int[2]; IO.printInt(a.length); "
                          "IO.printInt(a[5]); } }"),
            (Outcome{RuntimeError::IndexOutOfBounds, "2"}));
}

TEST(Exec, BadDowncastTraps) {
  EXPECT_EQ(agreedOutcome("class A {} class B extends A {} class C extends "
                          "A {} class Main { static void main() { A a = "
                          "new C(); B b = (B) a; } }"),
            (Outcome{RuntimeError::ClassCast, ""}));
}

TEST(Exec, NullCastSucceeds) {
  EXPECT_EQ(agreedOutcome("class A {} class B extends A { } "
                          "class Main { static void main() { A a = null; "
                          "B b = (B) a; IO.printBool(b == null); } }"),
            (Outcome{RuntimeError::None, "true"}));
}

TEST(Exec, NegativeArraySizeTraps) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int n = -2; "
                          "int[] a = new int[n]; } }"),
            (Outcome{RuntimeError::NegativeArraySize, ""}));
}

TEST(Exec, UnboundedRecursionOverflows) {
  EXPECT_EQ(agreedOutcome("class Main { static int f(int n) { return f(n + "
                          "1); } static void main() { IO.printInt(f(0)); } }"),
            (Outcome{RuntimeError::StackOverflow, ""}));
  // Bounded recursion returns the same value on every row.
  EXPECT_EQ(agreedOutcome("class Main { static int fib(int n) { "
                          "if (n < 2) { return n; } "
                          "return fib(n - 1) + fib(n - 2); } "
                          "static void main() { IO.printInt(fib(15)); } }"),
            (Outcome{RuntimeError::None, "610"}));
}

TEST(Exec, FuelBoundsInfiniteLoops) {
  auto P = compileMJ("exec.mj", "class Main { static void main() { "
                                "while (true) { } } }");
  ASSERT_TRUE(P->ok());
  Runtime RT(*P->Table, /*Fuel=*/10'000);
  TSAInterpreter I(*P->TSA, RT);
  EXPECT_EQ(I.runMain().Err, RuntimeError::OutOfFuel);
}

TEST(Exec, CheckOrderNullBeforeBounds) {
  // A null array must trap NullPointer, not bounds, even with a bad index.
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int[] a = "
                          "null; int i = -5; IO.printInt(a[i]); } }"),
            (Outcome{RuntimeError::NullPointer, ""}));
}

TEST(Exec, RedundantCheckRemovalKeepsFirstTrap) {
  // Both accesses are out of bounds; optimization may unify the checks
  // but the program must still trap before the second print.
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int[] a = new "
                          "int[1]; int i = 3; IO.printInt(7); "
                          "IO.printInt(a[i]); IO.printInt(a[i]); } }"),
            (Outcome{RuntimeError::IndexOutOfBounds, "7"}));
}

TEST(Exec, NativeMathMethods) {
  EXPECT_EQ(
      agreedOutcome(
          "class Main { static void main() { "
          "IO.printDouble(Math.sqrt(6.25)); IO.printChar(' '); "
          "IO.printDouble(Math.abs(-2.5)); IO.printChar(' '); "
          "IO.printInt(Math.abs(-7)); IO.printChar(' '); "
          "IO.printInt(Math.min(3, 4) + Math.max(3, 4)); IO.printChar(' '); "
          "IO.printDouble(Math.pow(2.0, 10.0)); IO.printChar(' '); "
          "IO.printDouble(Math.floor(3.7)); } }"),
      (Outcome{RuntimeError::None, "2.5 2.5 7 7 1024 3"}));
}

TEST(Exec, MathOverloadByArgumentType) {
  // Math.abs resolves to the int overload for ints, double for doubles.
  EXPECT_EQ(agreedOutcome("class Main { static void main() { "
                          "IO.printInt(Math.abs(-3)); "
                          "IO.printDouble(Math.abs(-3.5)); } }"),
            (Outcome{RuntimeError::None, "33.5"}));
}

TEST(Exec, ValueRendering) {
  EXPECT_EQ(Value::makeInt(-42).str(), "-42");
  EXPECT_EQ(Value::makeBool(true).str(), "true");
  EXPECT_EQ(Value::makeChar('x').str(), "x");
  EXPECT_EQ(Value::makeNull().str(), "null");
  EXPECT_EQ(Value::makeDouble(2.5).str(), "2.5");

  // Edge values against the stream rendering the program output was
  // defined by: ints as `OS << I`, doubles at precision 15 (%.15g), refs
  // as "ref#" + index.
  auto Streamed = [](const Value &V) {
    std::ostringstream OS;
    switch (V.K) {
    case Value::Kind::Int:
      OS << V.I;
      break;
    case Value::Kind::Double:
      OS.precision(15);
      OS << V.D;
      break;
    case Value::Kind::Bool:
      OS << (V.I ? "true" : "false");
      break;
    case Value::Kind::Char:
      OS << static_cast<char>(V.I);
      break;
    case Value::Kind::Ref:
      if (V.R == 0)
        OS << "null";
      else
        OS << "ref#" << V.R;
      break;
    }
    return OS.str();
  };
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<Value> Table;
  for (int32_t I : {0, 1, -1, 7, -10, 100, 2147483647, -2147483647 - 1,
                    1000000, -999999})
    Table.push_back(Value::makeInt(I));
  for (double D :
       {0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1.0 / 3.0, -2.0 / 3.0, 100.0,
        123456789012345.0, 1234567890123456.0, 12345678901234567.0,
        1e15, 1e16, 1e21, -1e21, 1e-5, 1e-7, 1e300, 1e-300, 3.14159265358979,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(), 4.9406564584124654e-320,
        std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
        Inf, -Inf, NaN, -NaN})
    Table.push_back(Value::makeDouble(D));
  for (char C : {'a', 'Z', '0', ' ', '\n', '\0', '\x7f'})
    Table.push_back(Value::makeChar(C));
  Table.push_back(Value::makeBool(false));
  Table.push_back(Value::makeBool(true));
  Table.push_back(Value::makeNull());
  Table.push_back(Value::makeRef(7));
  Table.push_back(Value::makeRef(4294967295u));
  for (const Value &V : Table)
    EXPECT_EQ(V.str(), Streamed(V))
        << "kind " << static_cast<int>(V.K) << ", int " << V.I;
}

TEST(Exec, HeapCellsAndStatics) {
  TypeContext Types;
  ClassTable Table(Types);
  Runtime RT(Table);
  uint32_t S = RT.internString("hi", Types.getChar());
  EXPECT_EQ(RT.internString("hi", Types.getChar()), S)
      << "string constants are interned";
  EXPECT_EQ(RT.cell(S).Len, 2u);
  // Payloads are untagged; the typed accessor reads by element type.
  EXPECT_EQ(RT.getElt(S, 1).K, Value::Kind::Char);
  EXPECT_EQ(RT.getElt(S, 1).I, 'i');
  uint32_t A = RT.allocArray(Types.getInt(), 4);
  EXPECT_EQ(RT.cell(A).Len, 4u);
  EXPECT_EQ(RT.cell(A).Kind, CellKind::Array);
  EXPECT_EQ(RT.getElt(A, 3).K, Value::Kind::Int);
  EXPECT_EQ(RT.getElt(A, 3).I, 0);
}

} // namespace
