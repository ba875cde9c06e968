//===- tests/trycatch_test.cpp - Exception handling tests -----*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §7 exception translation: try bodies split into linked
/// subblocks, each potential raise point gets an implicit edge to the
/// handler's phi block. Each behavioural case runs through the whole
/// differential matrix — the SafeTSA evaluator unoptimized and
/// optimized, every codec path and tier, and the bytecode interpreter
/// (exception tables) — and the agreed outcome must be the expected one.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "exec/TSAInterp.h"
#include "opt/Optimizer.h"
#include "testgen/DifferentialRunner.h"
#include "tsa/Verifier.h"

#include <gtest/gtest.h>

#include <functional>

using namespace safetsa;
using testgen::agreedOutcome;
using testgen::Outcome;

namespace {

TEST(TryCatch, CatchesDivisionByZero) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int z = 0; "
                          "try { IO.printInt(10 / z); IO.printStr(\"no\"); } "
                          "catch { IO.printStr(\"caught\"); } } }"),
            (Outcome{RuntimeError::None, "caught"}));
}

TEST(TryCatch, CatchesNullDeref) {
  EXPECT_EQ(agreedOutcome("class C { int v; } class Main { static void main() "
                          "{ C c = null; try { IO.printInt(c.v); } catch { "
                          "IO.printStr(\"npe\"); } } }"),
            (Outcome{RuntimeError::None, "npe"}));
}

TEST(TryCatch, CatchesBoundsAndBadCast) {
  EXPECT_EQ(agreedOutcome(
                "class A {} class B extends A {} class C extends A {} "
                "class Main { static void main() { "
                "int[] a = new int[2]; int i = 9; "
                "try { a[i] = 1; } catch { IO.printStr(\"oob \"); } "
                "A x = new C(); "
                "try { B b = (B) x; } catch { IO.printStr(\"cast \"); } "
                "int n = -1; "
                "try { int[] z = new int[n]; } catch { "
                "IO.printStr(\"neg\"); } } }"),
            (Outcome{RuntimeError::None, "oob cast neg"}));
}

TEST(TryCatch, NoExceptionSkipsHandler) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int z = 5; "
                          "try { IO.printInt(10 / z); } "
                          "catch { IO.printStr(\"no\"); } "
                          "IO.printStr(\" done\"); } }"),
            (Outcome{RuntimeError::None, "2 done"}));
}

TEST(TryCatch, VariablesReflectPartialExecution) {
  // x is updated before the raise and must carry its new value into the
  // handler (this is exactly what the catch-entry phis transport).
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int z = 0; "
                          "int x = 1; "
                          "try { x = 2; int bad = 10 / z; x = 3; } "
                          "catch { IO.printInt(x); } } }"),
            (Outcome{RuntimeError::None, "2"}));
}

TEST(TryCatch, DistinctRaiseSitesYieldDistinctStates) {
  // Two raise points with different reaching definitions of x; which one
  // fires depends on runtime data.
  const char *Tmpl =
      "class Main { static void run(int z1, int z2) { int x = 1; "
      "try { x = 10 / z1; x = x + 100; x = x + 10 / z2; } "
      "catch { IO.printInt(x); IO.printStr(\"!\"); return; } "
      "IO.printInt(x); } "
      "static void main() { run(%s); } }";
  auto With = [&](const char *Args) {
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf), Tmpl, Args);
    return agreedOutcome(Buf);
  };
  // First site raises; x still 1. Then the second site; x = 1+100.
  // Then no raise.
  EXPECT_EQ(With("0, 1"), (Outcome{RuntimeError::None, "1!"}));
  EXPECT_EQ(With("10, 0"), (Outcome{RuntimeError::None, "101!"}));
  EXPECT_EQ(With("10, 5"), (Outcome{RuntimeError::None, "103"}));
}

TEST(TryCatch, ExceptionsUnwindOutOfCallees) {
  EXPECT_EQ(agreedOutcome("class Main { "
                          "static int deep(int n) { "
                          "if (n == 0) { int z = 0; return 1 / z; } "
                          "return deep(n - 1); } "
                          "static void main() { "
                          "try { IO.printInt(deep(5)); } "
                          "catch { IO.printStr(\"from callee\"); } } }"),
            (Outcome{RuntimeError::None, "from callee"}));
}

TEST(TryCatch, NestedTryInnermostWins) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int z = 0; "
                          "try { try { IO.printInt(1 / z); } "
                          "catch { IO.printStr(\"inner \"); } "
                          "IO.printInt(2 / z); } "
                          "catch { IO.printStr(\"outer\"); } } }"),
            (Outcome{RuntimeError::None, "inner outer"}));
}

TEST(TryCatch, HandlerExceptionGoesToEnclosingTry) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int z = 0; "
                          "try { try { IO.printInt(1 / z); } "
                          "catch { IO.printStr(\"inner \"); "
                          "IO.printInt(2 / z); } } "
                          "catch { IO.printStr(\"outer\"); } } }"),
            (Outcome{RuntimeError::None, "inner outer"}));
}

TEST(TryCatch, UncaughtHandlerExceptionUnwinds) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int z = 0; "
                          "try { IO.printInt(1 / z); } "
                          "catch { IO.printStr(\"h\"); "
                          "IO.printInt(2 / z); } } }"),
            (Outcome{RuntimeError::DivisionByZero, "h"}));
}

TEST(TryCatch, TryInsideLoopWithBreakAndContinue) {
  // i=0: +100/5; i=1: div0 -> continue; i=2: +100/7; i=3: bounds -> break.
  EXPECT_EQ(agreedOutcome(
                "class Main { static void main() { int hits = 0; "
                "int[] a = new int[3]; a[0] = 5; a[1] = 0; a[2] = 7; "
                "for (int i = 0; i < 6; i++) { "
                "try { int v = 100 / a[i]; hits = hits + v; } "
                "catch { if (i >= 2) break; continue; } } "
                "IO.printInt(hits); } }"),
            (Outcome{RuntimeError::None, "34"}));
}

TEST(TryCatch, LoopInsideTry) {
  // 0+1+2+3, then s += 4 runs before a[4] raises.
  EXPECT_EQ(agreedOutcome("class Main { static void main() { "
                          "int[] a = new int[4]; int s = 0; "
                          "try { for (int i = 0; ; i++) { s = s + i; "
                          "a[i] = s; } } "
                          "catch { IO.printInt(s); } } }"),
            (Outcome{RuntimeError::None, "10"}));
}

TEST(TryCatch, ReturnInsideTryAndHandler) {
  EXPECT_EQ(agreedOutcome("class Main { "
                          "static int f(int z) { "
                          "try { return 10 / z; } catch { return -1; } } "
                          "static void main() { IO.printInt(f(2)); "
                          "IO.printInt(f(0)); } }"),
            (Outcome{RuntimeError::None, "5-1"}));
}

TEST(TryCatch, TryWithoutPossibleRaisesIsElided) {
  // The generator drops the handler for raise-free bodies; the module
  // still verifies and behaves.
  auto P = compileMJ("try.mj",
                     "class Main { static void main() { int x = 1; "
                     "try { x = x + 2; } catch { x = 99; } "
                     "IO.printInt(x); } }");
  ASSERT_TRUE(P->ok());
  TSAVerifier V(*P->TSA);
  EXPECT_TRUE(V.verify());
  // No Try node survives.
  bool HasTry = false;
  std::function<void(const CSTSeq &)> Walk = [&](const CSTSeq &Seq) {
    for (const auto &N : Seq) {
      if (N->K == CSTNode::Kind::Try)
        HasTry = true;
      Walk(N->Then);
      Walk(N->Else);
      Walk(N->Header);
      Walk(N->Body);
    }
  };
  for (const auto &M : P->TSA->Methods)
    Walk(M->Root);
  EXPECT_FALSE(HasTry);
}

TEST(TryCatch, FuelExhaustionIsNotCatchable) {
  auto P = compileMJ("try.mj",
                     "class Main { static void main() { "
                     "try { while (true) { } } "
                     "catch { IO.printStr(\"no\"); } } }");
  ASSERT_TRUE(P->ok());
  Runtime RT(*P->Table, /*Fuel=*/10'000);
  TSAInterpreter I(*P->TSA, RT);
  EXPECT_EQ(I.runMain().Err, RuntimeError::OutOfFuel);
  EXPECT_EQ(RT.getOutput(), "");
}

TEST(TryCatch, StackOverflowIsNotCatchable) {
  EXPECT_EQ(agreedOutcome("class Main { "
                          "static int f(int n) { "
                          "try { return f(n + 1); } catch { return -1; } } "
                          "static void main() { IO.printInt(f(0)); } }"),
            (Outcome{RuntimeError::StackOverflow, ""}));
}

TEST(TryCatch, OptimizerKeepsChecksInsideTryBodies) {
  // Redundant null checks inside a try region are pinned (their removal
  // would delete exception edges); outside they are unified as usual.
  auto P = compileMJ(
      "try.mj",
      "class C { int a; int b; } class Main { static void main() { "
      "C c = new C(); "
      "int outside = c.a + c.b; "
      "try { IO.printInt(c.a + c.b); } catch { } "
      "IO.printInt(outside); } }");
  ASSERT_TRUE(P->ok());
  unsigned Before = P->TSA->countOpcode(Opcode::NullCheck);
  optimizeModule(*P->TSA);
  unsigned After = P->TSA->countOpcode(Opcode::NullCheck);
  EXPECT_LT(After, Before) << "outside-try checks should still unify";
  EXPECT_GE(After, 2u) << "in-try checks must remain pinned";
  TSAVerifier V(*P->TSA);
  EXPECT_TRUE(V.verify());
}

TEST(TryCatch, VerifierRejectsStrippedExceptionEdge) {
  auto P = compileMJ("try.mj",
                     "class Main { static void main() { int z = 0; "
                     "try { IO.printInt(1 / z); } "
                     "catch { IO.printStr(\"c\"); } } }");
  ASSERT_TRUE(P->ok());
  // Clear a RaisesToCatch flag: the raising instruction loses its edge.
  bool Cleared = false;
  std::function<void(CSTSeq &)> Walk = [&](CSTSeq &Seq) {
    for (auto &N : Seq) {
      if (N->RaisesToCatch && !Cleared) {
        N->RaisesToCatch = false;
        Cleared = true;
      }
      Walk(N->Then);
      Walk(N->Else);
      Walk(N->Header);
      Walk(N->Body);
    }
  };
  for (const auto &M : P->TSA->Methods)
    Walk(const_cast<CSTSeq &>(M->Root));
  ASSERT_TRUE(Cleared);
  TSAVerifier V(*P->TSA);
  EXPECT_FALSE(V.verify());
}

TEST(TryCatch, VerifierRejectsForgedExceptionEdge) {
  auto P = compileMJ("try.mj",
                     "class Main { static void main() { int z = 1; "
                     "try { IO.printInt(1 / z); IO.printInt(z + 1); } "
                     "catch { IO.printStr(\"c\"); } } }");
  ASSERT_TRUE(P->ok());
  // Flag a block that does NOT end with a raising instruction.
  bool Forged = false;
  std::function<void(CSTSeq &, bool)> Walk = [&](CSTSeq &Seq, bool InTry) {
    for (auto &N : Seq) {
      if (N->K == CSTNode::Kind::Basic && InTry && !N->RaisesToCatch &&
          !Forged && N->BB && !N->BB->Insts.empty() &&
          !N->BB->Insts.back()->mayRaise()) {
        N->RaisesToCatch = true;
        Forged = true;
      }
      Walk(N->Then, InTry || N->K == CSTNode::Kind::Try);
      Walk(N->Else, InTry && N->K != CSTNode::Kind::Try);
      Walk(N->Header, InTry);
      Walk(N->Body, InTry);
    }
  };
  for (const auto &M : P->TSA->Methods)
    Walk(const_cast<CSTSeq &>(M->Root), false);
  if (!Forged)
    GTEST_SKIP() << "no unflagged in-try block available";
  TSAVerifier V(*P->TSA);
  EXPECT_FALSE(V.verify());
}

} // namespace
