//===- tests/exec_prepared_test.cpp - Prepared-exec parity ----*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The quickened execution units (TSAExec): the runtime-error and
/// try/catch programs must trap with the same exception at the same
/// point — everything printed before the trap matches, not just the
/// checksum — on every configuration of the differential matrix. Also
/// proves that one PreparedModule is safely shared across threads (run
/// under TSan via exec_prepared_tsan) and that a decoded module lowers to
/// the same streams as the compiled one.
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "exec/ExecUnit.h"
#include "exec/TSAInterp.h"
#include "opt/Optimizer.h"
#include "testgen/DifferentialRunner.h"
#include "testgen/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <thread>

using namespace safetsa;
using testgen::agreedOutcome;
using testgen::Outcome;

namespace {

//===----------------------------------------------------------------------===//
// Trap points: the runtime-error programs trap with the same exception
// after the same partial output everywhere.
//===----------------------------------------------------------------------===//

TEST(PreparedTraps, NullPointer) {
  EXPECT_EQ(agreedOutcome("class C { int x; } class Main { static void "
                          "main() { IO.printInt(3); C c = null; "
                          "IO.printInt(c.x); } }"),
            (Outcome{RuntimeError::NullPointer, "3"}));
}

TEST(PreparedTraps, IndexOutOfBounds) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int[] a = new "
                          "int[3]; IO.printInt(a.length); "
                          "IO.printInt(a[7]); } }"),
            (Outcome{RuntimeError::IndexOutOfBounds, "3"}));
}

TEST(PreparedTraps, DivisionByZero) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int z = 0; "
                          "IO.printInt(9); IO.printInt(1 / z); } }"),
            (Outcome{RuntimeError::DivisionByZero, "9"}));
}

TEST(PreparedTraps, ClassCast) {
  EXPECT_EQ(agreedOutcome("class A {} class B extends A {} class C extends "
                          "A {} class Main { static void main() { A a = "
                          "new C(); IO.printInt(1); B b = (B) a; } }"),
            (Outcome{RuntimeError::ClassCast, "1"}));
}

TEST(PreparedTraps, TrapInsideLoopKeepsPartialOutput) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int[] a = new "
                          "int[4]; int i = 0; while (i < 10) { "
                          "IO.printInt(a[i]); i = i + 1; } } }"),
            (Outcome{RuntimeError::IndexOutOfBounds, "0000"}));
}

TEST(PreparedTraps, CalleeTrapUnwindsThroughCaller) {
  EXPECT_EQ(agreedOutcome("class Main { static int f(int[] a, int i) { "
                          "return a[i]; } static void main() { "
                          "int[] a = new int[2]; IO.printInt(f(a, 1)); "
                          "IO.printInt(f(a, 5)); } }"),
            (Outcome{RuntimeError::IndexOutOfBounds, "0"}));
}

//===----------------------------------------------------------------------===//
// Try/catch: exception edges and handler phis.
//===----------------------------------------------------------------------===//

TEST(PreparedTryCatch, CatchesDivisionByZero) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int z = 0; "
                          "int r; try { r = 10 / z; } catch { r = -1; } "
                          "IO.printInt(r); } }"),
            (Outcome{RuntimeError::None, "-1"}));
}

TEST(PreparedTryCatch, DistinctRaiseSitesYieldDistinctStates) {
  for (int Which = 0; Which != 3; ++Which) {
    char Buf[512];
    std::snprintf(
        Buf, sizeof(Buf),
        "class Main { static void main() { int z = 0; int[] a = new int[2]; "
        "int s = 0; try { s = 1; if (%d == 0) { s = s + 10 / z; } "
        "s = 2; if (%d == 1) { s = s + a[9]; } s = 3; "
        "if (%d == 2) { s = s + 10 / z; } s = 4; } catch { s = s + 100; } "
        "IO.printInt(s); } }",
        Which, Which, Which);
    EXPECT_EQ(agreedOutcome(Buf),
              (Outcome{RuntimeError::None, std::to_string(101 + Which)}));
  }
}

TEST(PreparedTryCatch, ExceptionsUnwindOutOfCallees) {
  EXPECT_EQ(agreedOutcome("class Main { "
                          "static int f(int z) { return 10 / z; } "
                          "static void main() { int r; "
                          "try { r = f(0); } catch { r = -7; } "
                          "IO.printInt(r); } }"),
            (Outcome{RuntimeError::None, "-7"}));
}

TEST(PreparedTryCatch, NestedTryInnermostWins) {
  EXPECT_EQ(agreedOutcome("class Main { static void main() { int z = 0; int "
                          "r = 0; try { try { r = 10 / z; } catch { r = 1; } "
                          "r = r + 10 / z; } catch { r = r + 10; } "
                          "IO.printInt(r); } }"),
            (Outcome{RuntimeError::None, "11"}));
}

TEST(PreparedTryCatch, TryInsideLoopWithBreakAndContinue) {
  EXPECT_EQ(
      agreedOutcome(
          "class Main { static void main() { int z = 0; int i = 0; int s = "
          "0; while (i < 6) { i = i + 1; try { if (i == 2) { continue; } "
          "if (i == 5) { break; } s = s + 10 / (i - 3); } "
          "catch { s = s + 1000; } } IO.printInt(s); IO.printInt(i); } }"),
      (Outcome{RuntimeError::None, "10055"}));
}

TEST(PreparedTryCatch, LoopInsideTry) {
  EXPECT_EQ(
      agreedOutcome(
          "class Main { static void main() { int[] a = new int[3]; int s = "
          "0; try { int i = 0; while (i < 10) { s = s + a[i] + i; i = i + "
          "1; } } catch { s = s + 500; } IO.printInt(s); } }"),
      (Outcome{RuntimeError::None, "503"}));
}

TEST(PreparedTryCatch, ReturnInsideTryAndHandler) {
  EXPECT_EQ(agreedOutcome("class Main { static int f(int z) { "
                          "try { return 10 / z; } catch { return -1; } } "
                          "static void main() { IO.printInt(f(0)); "
                          "IO.printInt(f(5)); } }"),
            (Outcome{RuntimeError::None, "-12"}));
}

TEST(PreparedTryCatch, UncaughtErrorKindsUnwind) {
  // StackOverflow is not catchable; must unwind identically.
  EXPECT_EQ(agreedOutcome("class Main { static int f(int n) { int r; "
                          "try { r = f(n + 1); } catch { r = -1; } return r; "
                          "} static void main() { IO.printInt(f(0)); } }"),
            (Outcome{RuntimeError::StackOverflow, ""}));
}

//===----------------------------------------------------------------------===//
// Fuel, direct calls, concurrency
//===----------------------------------------------------------------------===//

TEST(PreparedExec, FuelBoundsInfiniteLoops) {
  auto C = compileMJ("fuel.mj", "class Main { static void main() { "
                                "while (true) { } } }");
  ASSERT_TRUE(C->ok());
  auto PM = prepareModule(*C->TSA);
  ASSERT_TRUE(PM);
  Runtime RT(*C->Table, /*Fuel=*/10'000);
  TSAExec X(*PM, RT);
  EXPECT_EQ(X.runMain().Err, RuntimeError::OutOfFuel);
}

TEST(PreparedExec, DirectCallWithArguments) {
  auto C = compileMJ("call.mj",
                     "class Main { static int gcd(int a, int b) { "
                     "while (b != 0) { int t = a % b; a = b; b = t; } "
                     "return a; } static void main() { "
                     "IO.printInt(gcd(48, 36)); } }");
  ASSERT_TRUE(C->ok());
  auto PM = prepareModule(*C->TSA);
  ASSERT_TRUE(PM);
  const MethodSymbol *Gcd = nullptr;
  for (const auto &Class : C->Table->getClasses())
    for (const MethodSymbol *M : Class->Methods)
      if (M->Name == "gcd")
        Gcd = M;
  ASSERT_NE(Gcd, nullptr);
  std::vector<Value> Args = {Value::makeInt(1071), Value::makeInt(462)};

  Runtime RTX(*C->Table);
  TSAExec X(*PM, RTX);
  ExecResult RP = X.call(Gcd, Args);
  ASSERT_TRUE(RP.ok());
  EXPECT_EQ(RP.Ret.I, 21);

  Runtime RTT(*C->Table);
  TSAInterpreter I(*C->TSA, RTT);
  ExecResult RT_ = I.call(Gcd, Args);
  ASSERT_TRUE(RT_.ok());
  EXPECT_EQ(RT_.Ret.I, 21);
}

TEST(PreparedExec, OnePreparedModuleManyThreads) {
  // One immutable PreparedModule, one TSAExec + Runtime per thread: the
  // concurrency contract the serve layer relies on (TSan-checked via the
  // exec_prepared_tsan registration).
  const CorpusProgram *P = &getCorpus().front();
  auto C = compileMJ(P->Name, P->Source);
  ASSERT_TRUE(C->ok());
  auto PM = prepareModule(*C->TSA);
  ASSERT_TRUE(PM);
  Outcome Ref = testgen::runPrepared(*PM, *C->Table);

  constexpr unsigned NumThreads = 8;
  std::vector<std::string> Outs(NumThreads);
  std::vector<RuntimeError> Errs(NumThreads, RuntimeError::Internal);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Runtime RT(*C->Table);
      TSAExec X(*PM, RT);
      ExecResult R = X.runMain();
      Errs[T] = R.Err;
      Outs[T] = RT.getOutput();
    });
  for (auto &Th : Threads)
    Th.join();
  for (unsigned T = 0; T != NumThreads; ++T) {
    EXPECT_EQ(Errs[T], Ref.Err);
    EXPECT_EQ(Outs[T], Ref.Output);
  }
}

TEST(PreparedExec, PreparedFormIsCompact) {
  // Structural sanity: every corpus method lowers, slots are dense, and
  // the prepared stream is linear (no graph left to chase at run time).
  for (const CorpusProgram &P : getCorpus()) {
    auto C = compileMJ(P.Name, P.Source);
    ASSERT_TRUE(C->ok());
    auto PM = prepareModule(*C->TSA);
    ASSERT_TRUE(PM) << P.Name;
    EXPECT_EQ(PM->Units.size(), C->TSA->Methods.size());
    EXPECT_GT(PM->totalCode(), 0u);
    EXPECT_NE(PM->MainUnit, nullptr);
    for (const auto &U : PM->Units) {
      EXPECT_GE(U->NumSlots, U->NumArgs);
      for (const ExecInst &In : U->Code) {
        if (In.Dst != ExecInst::NoSlot) {
          EXPECT_LT(In.Dst, U->NumSlots);
        }
        if (In.Op == XOp::Jmp || In.Op == XOp::BrFalse) {
          EXPECT_LT(static_cast<size_t>(In.X), U->Code.size());
        }
        if (In.Handler >= 0) {
          EXPECT_LT(static_cast<size_t>(In.Handler), U->Code.size());
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Numbering agreement: prepare indexes its side tables by the dense
// Instruction::Id and BasicBlock::Id, so the producer's module and its
// fused decode must still lower to the same tier-0 streams.
//===----------------------------------------------------------------------===//

/// Names a prepared target (ExecInst::P) independently of the module
/// owning it: units by index, methods by signature, classes and types by
/// name.
std::string targetName(const PreparedModule &PM, const void *P) {
  if (!P)
    return "null";
  for (const ExecUnit *U : PM.Units)
    if (U == P)
      return "unit#" + std::to_string(U->Index);
  const ClassTable &Table = *PM.Module->Table;
  for (const MethodSymbol *M : Table.getAllMethods())
    if (M == P)
      return "method " + M->signature();
  for (const ClassSymbol *C : Table.getClasses())
    if (C == P)
      return "class " + std::string(C->Name);
  return "type " + static_cast<const Type *>(P)->getName();
}

void expectSameLowering(const PreparedModule &A, const PreparedModule &B,
                        const std::string &Label) {
  ASSERT_EQ(A.Units.size(), B.Units.size()) << Label;
  for (size_t UI = 0; UI != A.Units.size(); ++UI) {
    const ExecUnit &X = *A.Units[UI], &Y = *B.Units[UI];
    const std::string Where = Label + ": " + X.Symbol->signature();
    ASSERT_EQ(X.Symbol->signature(), Y.Symbol->signature()) << Label;
    EXPECT_EQ(X.NumSlots, Y.NumSlots) << Where;
    EXPECT_EQ(X.NumArgs, Y.NumArgs) << Where;
    EXPECT_EQ(X.NumRefArgs, Y.NumRefArgs) << Where;
    EXPECT_TRUE(std::ranges::equal(X.ArgPool, Y.ArgPool)) << Where;
    EXPECT_TRUE(std::ranges::equal(X.RefSlots, Y.RefSlots)) << Where;
    ASSERT_EQ(X.ConstPool.size(), Y.ConstPool.size()) << Where;
    for (size_t K = 0; K != X.ConstPool.size(); ++K)
      EXPECT_EQ(X.ConstPool[K].Bits, Y.ConstPool[K].Bits)
          << Where << " constant " << K;
    ASSERT_EQ(X.StrPool.size(), Y.StrPool.size()) << Where;
    for (size_t K = 0; K != X.StrPool.size(); ++K)
      EXPECT_EQ(X.StrPool[K], Y.StrPool[K]) << Where << " string " << K;
    ASSERT_EQ(X.Code.size(), Y.Code.size()) << Where;
    for (size_t K = 0; K != X.Code.size(); ++K) {
      const ExecInst &P = X.Code[K], &Q = Y.Code[K];
      bool Same = P.Op == Q.Op && P.N == Q.N && P.A == Q.A && P.B == Q.B &&
                  P.C == Q.C && P.Dst == Q.Dst && P.X == Q.X &&
                  P.Handler == Q.Handler && P.S == Q.S;
      EXPECT_TRUE(Same) << Where << " @" << K << ": " << xopName(P.Op)
                        << " vs " << xopName(Q.Op);
      EXPECT_EQ(targetName(A, P.P), targetName(B, Q.P)) << Where << " @" << K;
    }
  }
}

/// Compiles \p Src, optimizes and encodes it (which finalizes every
/// method, as a producer would), decodes the bytes with the fused
/// decoder, and lowers both modules at tier 0.
void expectDecodedLowersLikeCompiled(const std::string &Src,
                                     const std::string &Label) {
  auto C = compileMJ("lower.mj", Src);
  ASSERT_TRUE(C->ok()) << Label << C->renderDiagnostics();
  optimizeModule(*C->TSA);
  std::string Err;
  auto Unit = decodeModule(encodeModule(*C->TSA), &Err);
  ASSERT_TRUE(Unit) << Label << ": " << Err;
  auto FromCompiled = prepareModule(*C->TSA);
  auto FromDecoded = prepareModule(*Unit->Module);
  ASSERT_TRUE(FromCompiled && FromDecoded) << Label;
  expectSameLowering(*FromCompiled, *FromDecoded, Label);
}

TEST(PreparedLowering, DecodedCorpusLowersLikeCompiled) {
  for (const CorpusProgram &P : getCorpus())
    expectDecodedLowersLikeCompiled(P.Source, P.Name);
}

TEST(PreparedLowering, DecodedGeneratedProgramsLowerLikeCompiled) {
  for (uint64_t Seed = 0; Seed != 300; ++Seed)
    expectDecodedLowersLikeCompiled(testgen::generateProgram(Seed),
                                    "seed " + std::to_string(Seed));
}

} // namespace
