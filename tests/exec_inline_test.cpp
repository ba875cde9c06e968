//===- tests/exec_inline_test.cpp - Speculative inlining tests -*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tier-1 speculative inlining (DESIGN.md §14), proved five ways:
///
///  1. Structure: a flattened static leaf call leaves an EnterInline
///     and an InlineRet exit and no CallUnit; an InlineBudget of 0
///     restores the call.
///  2. Guarded splices: a one-way IC site keeps a GuardInline whose
///     receiver miss takes the out-of-line one-way IC fallback (and
///     counts InlineGuardMisses), with no deoptimization anywhere.
///  3. Unwind: traps raised inside an inlined body — caught, uncaught,
///     and at the stack-depth limit — agree across the differential
///     matrix, whose tier1/maxinline row forces inlining onto every
///     eligible site (and runs the corpus and the generator soak).
///  4. GC: collect-at-every-allocation stress across inlined frames
///     (merged RefSlots) neither crashes nor changes observable output.
///  5. The activation ledger stays exact across the longjmp-free
///     unwind (the depth-limit case above).
///
/// Plus the profile-counter saturation boundary (satellite of the same
/// change): tallies stop at ProfileData::kSaturate instead of wrapping.
///
/// Registered under `ctest -L exec` with _asan/_tsan variants.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "exec/ExecUnit.h"
#include "testgen/DifferentialRunner.h"

#include <gtest/gtest.h>

using namespace safetsa;
using testgen::agreedOutcome;
using testgen::Outcome;
using testgen::runPrepared;
using testgen::tier1For;

namespace {

/// Every call site the heuristics would ever take: no size ceiling.
const ExecPolicy kForcedInline{.InlineBudget = 0x7fffffff};

const MethodSymbol *findMethod(const ClassTable &Table, const char *Class,
                               const char *Name) {
  for (const auto &C : Table.getClasses())
    if (C->Name == Class)
      for (const MethodSymbol *M : C->Methods)
        if (M->Name == Name)
          return M;
  return nullptr;
}

const ClassSymbol *findClass(const ClassTable &Table, const char *Name) {
  for (const auto &C : Table.getClasses())
    if (C->Name == Name)
      return C;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Structure: the splice shape, and the off switch.
//===----------------------------------------------------------------------===//

const char *kLeafSrc =
    "class Main { "
    "static int add(int a, int b) { return a + b; } "
    "static void main() { int s = 0; int i = 0; "
    "while (i < 5) { s = add(s, i); i = i + 1; } IO.printInt(s); } }";

TEST(InlineStructure, StaticLeafCallIsFlattened) {
  auto C = compileMJ("leaf.mj", kLeafSrc);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  ASSERT_EQ(T0->countOp(XOp::CallUnit), 1u);
  runPrepared(*T0, *C->Table);

  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);
  // The direct call is gone; in its place the callee body bracketed by
  // one EnterInline and (value-returning callee) an InlineRet exit — no
  // separate LeaveInline continuation remains.
  EXPECT_EQ(T1->countOp(XOp::CallUnit), 0u);
  EXPECT_EQ(T1->countOp(XOp::EnterInline), 1u);
  EXPECT_GE(T1->countOp(XOp::InlineRet), 1u);
  EXPECT_EQ(T1->countOp(XOp::LeaveInline), 0u);
  EXPECT_EQ(T1->countOp(XOp::GuardInline), 0u); // Static: no receiver.
  EXPECT_EQ(T1->Tiering.InlinedSites, 1u);
  // The un-inlined callee unit stays live (callable directly; no deopt
  // metadata needed), and the caller frame grew by the callee's slots.
  const MethodSymbol *Add = findMethod(*C->Table, "Main", "add");
  ASSERT_TRUE(Add);
  bool SawCallee = false;
  for (const auto &U : T1->Units)
    if (U->Symbol == Add) {
      SawCallee = true;
      EXPECT_FALSE(U->Code.empty());
    }
  EXPECT_TRUE(SawCallee);
  EXPECT_EQ(runPrepared(*T1, *C->Table).Output, "10");

  // renderTierSummary carries the new tallies on the wire-facing string.
  std::string Summary = renderTierSummary(*T1);
  EXPECT_NE(Summary.find("inlined=1"), std::string::npos) << Summary;
  EXPECT_NE(Summary.find("guardmiss=0"), std::string::npos) << Summary;
}

TEST(InlineStructure, BudgetZeroRestoresTheCall) {
  auto C = compileMJ("leafb0.mj", kLeafSrc);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T1 = tier1For(*C->TSA, *C->Table, {.InlineBudget = 0});
  ASSERT_TRUE(T1);
  EXPECT_EQ(T1->countOp(XOp::CallUnit), 1u);
  EXPECT_EQ(T1->countOp(XOp::EnterInline), 0u);
  EXPECT_EQ(T1->Tiering.InlinedSites, 0u);
  EXPECT_EQ(runPrepared(*T1, *C->Table).Output, "10");

  // The kill switch kills everywhere: no corpus program splices a site.
  for (const CorpusProgram &P : getCorpus()) {
    auto CP = compileMJ(P.Name, P.Source);
    ASSERT_TRUE(CP->ok()) << P.Name;
    auto Off = tier1For(*CP->TSA, *CP->Table, {.InlineBudget = 0});
    ASSERT_TRUE(Off) << P.Name;
    EXPECT_EQ(Off->Tiering.InlinedSites, 0u) << P.Name;
    EXPECT_EQ(Off->countOp(XOp::EnterInline), 0u) << P.Name;
  }
}

//===----------------------------------------------------------------------===//
// Guarded splices: the mono receiver check and its fallback.
//===----------------------------------------------------------------------===//

const char *kMonoSrc =
    "class A { int f() { return 1; } } "
    "class B extends A { int f() { return 2; } } "
    "class Main { "
    "static int go(A a) { return a.f(); } "
    "static void main() { A x = new A(); int s = 0; int i = 0; "
    "while (i < 10) { s = s + go(x); i = i + 1; } IO.printInt(s); } }";

TEST(InlineGuard, MonoSpliceGuardsAndKeepsFallback) {
  auto C = compileMJ("monoinl.mj", kMonoSrc);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  runPrepared(*T0, *C->Table); // Only A receivers recorded.
  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);
  // The spliced site: guard in the stream, the original one-way IC
  // kept out of line as the miss path.
  EXPECT_EQ(T1->countOp(XOp::GuardInline), 1u);
  EXPECT_EQ(T1->countOp(XOp::DispatchIC), 1u);
  EXPECT_EQ(T1->countICs(1), 1u);
  EXPECT_EQ(T1->Tiering.InlinedSites, 1u);

  // All-A workload: every guard hits, nothing tallies (splice hits are
  // free — only misses are counted, at the fallback).
  EXPECT_EQ(runPrepared(*T1, *C->Table).Output, "10");
  EXPECT_EQ(T1->InlineGuardMisses.load(), 0u);
  EXPECT_EQ(T1->ICHits.load(), 0u);
  EXPECT_EQ(T1->ICMisses.load(), 0u);

  // A B receiver misses the guard, reaches B.f through the fallback
  // one-way IC (whose own guard also misses), and is counted on both
  // ledgers.
  const MethodSymbol *Go = findMethod(*C->Table, "Main", "go");
  const ClassSymbol *B = findClass(*C->Table, "B");
  ASSERT_TRUE(Go && B);
  Runtime RT(*C->Table);
  TSAExec X(*T1, RT);
  ExecResult R = X.call(Go, {Value::makeRef(RT.allocObject(B))});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.I, 2);
  EXPECT_EQ(T1->InlineGuardMisses.load(), 1u);
  EXPECT_EQ(T1->ICMisses.load(), 1u);
}

//===----------------------------------------------------------------------===//
// Unwind: traps inside inlined bodies, caught and uncaught.
//===----------------------------------------------------------------------===//

TEST(InlineTraps, UncaughtTrapInsideInlinedBody) {
  // div is a leaf, gets spliced; the third iteration divides by zero.
  // The partial output before the trap must survive.
  EXPECT_EQ(agreedOutcome("class Main { static int div(int a, int b) { "
                          "return a / b; } static void main() { int i = 2; "
                          "while (i > 0 - 1) { IO.printInt(div(6, i)); "
                          "i = i - 1; } } }"),
            (Outcome{RuntimeError::DivisionByZero, "36"}));
}

TEST(InlineTraps, NullDerefInsideInlinedCallee) {
  EXPECT_EQ(agreedOutcome("class P { int v; } "
                          "class Main { static int get(P p) { return p.v; } "
                          "static void main() { P p = new P(); p.v = 9; "
                          "IO.printInt(get(p)); P q = null; "
                          "IO.printInt(get(q)); } }"),
            (Outcome{RuntimeError::NullPointer, "9"}));
}

TEST(InlineTraps, CaughtTrapInsideInlinedBodyReachesSiteHandler) {
  // The call site sits in a try block: the splice's trampoline must
  // route a caught trap from inside the inlined body to the caller's
  // handler with the inline activations unwound.
  EXPECT_EQ(agreedOutcome("class Main { static int pick(int[] a, int i) { "
                          "return a[i]; } static void main() { int[] a = new "
                          "int[3]; a[2] = 7; int i = 0; while (i < 5) { try "
                          "{ IO.printInt(pick(a, i + 2)); } catch { "
                          "IO.printStr(\"oob \"); } i = i + 1; } } }"),
            (Outcome{RuntimeError::None, "7oob oob oob oob "}));
}

TEST(InlineTraps, CatchInsideInlinedCalleeStaysLocal) {
  // The callee has its own try/catch; its handlers are re-based into
  // the caller's stream and must still fire locally.
  EXPECT_EQ(agreedOutcome("class Main { static int safe(int a, int b) { "
                          "try { return a / b; } catch { return 0 - 1; } } "
                          "static void main() { IO.printInt(safe(8, 2)); "
                          "IO.printInt(safe(8, 0)); } }"),
            (Outcome{RuntimeError::None, "4-1"}));
}

TEST(InlineTraps, DepthLimitCountsInlinedFrames) {
  // leaf() is spliced into deep(), but EnterInline still charges the
  // activation ledger: recursing past the limit must overflow at the
  // same observable point the tree-walker overflows.
  EXPECT_EQ(agreedOutcome("class Main { static int leaf(int x) { return x "
                          "+ 1; } static int deep(int n) { int k = leaf(n); "
                          "if (n <= 0) { return k; } return deep(n - 1); } "
                          "static void main() { IO.printInt(deep(1000)); } }"),
            (Outcome{RuntimeError::StackOverflow, ""}));
}

//===----------------------------------------------------------------------===//
// GC stress: collect at every allocation across inlined frames.
//===----------------------------------------------------------------------===//

TEST(InlineGC, StressCollectAcrossInlinedFrames) {
  // The inlined callee allocates, forcing collections while the caller's
  // extended frame (merged RefSlots) holds the only references. Wrong
  // root maps reclaim live cells and corrupt the sums.
  const char *Src =
      "class Box { int v; } "
      "class Main { "
      "static Box boxed(int v) { Box b = new Box(); b.v = v; return b; } "
      "static int sum(Box a, Box b) { return a.v + b.v; } "
      "static void main() { int s = 0; int i = 0; "
      "while (i < 50) { Box x = boxed(i); Box y = boxed(i + i); "
      "s = s + sum(x, y); i = i + 1; } IO.printInt(s); } }";
  auto C = compileMJ("inlgc.mj", Src);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T1 = tier1For(*C->TSA, *C->Table, kForcedInline);
  ASSERT_TRUE(T1);
  EXPECT_GE(T1->Tiering.InlinedSites, 1u);
  GcOptions Stress;
  Stress.StressEveryNAllocs = 1;
  EXPECT_EQ(runPrepared(*T1, *C->Table, testgen::kRunFuel, Stress),
            (Outcome{RuntimeError::None, "3675"}));
}

TEST(InlineGC, CorpusUnderStressWithForcedInlining) {
  // The heaviest allocator in the corpus, collect-at-every-allocation,
  // inlining forced: end-to-end pressure on the merged root maps. The
  // stressed run must match the same stream with collection off.
  const CorpusProgram *P = findCorpusProgram("BigInteger");
  ASSERT_TRUE(P);
  auto C = compileMJ("inlgcbig.mj", P->Source);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T1 = tier1For(*C->TSA, *C->Table, kForcedInline);
  ASSERT_TRUE(T1);
  GcOptions Off, Stress;
  Off.Disable = true;
  Stress.StressEveryNAllocs = 1;
  Outcome Ref = runPrepared(*T1, *C->Table, testgen::kRunFuel, Off);
  EXPECT_EQ(Ref.Err, RuntimeError::None);
  EXPECT_EQ(runPrepared(*T1, *C->Table, testgen::kRunFuel, Stress), Ref);
}

//===----------------------------------------------------------------------===//
// Profile-counter saturation (the satellite hardening this PR rides on).
//===----------------------------------------------------------------------===//

TEST(ProfileSaturation, InvocationCounterStopsAtCeiling) {
  ProfileData P(1, 0);
  P.recordInvocation(0, ProfileData::kSaturate - 5);
  EXPECT_EQ(P.invocations(0), ProfileData::kSaturate - 5);
  // Crossing the boundary lands once...
  P.recordInvocation(0, 10);
  EXPECT_EQ(P.invocations(0), ProfileData::kSaturate + 5);
  // ...then the counter is pinned: no further movement, never a wrap.
  P.recordInvocation(0, ~uint64_t(0) / 2);
  P.recordInvocation(0);
  EXPECT_EQ(P.invocations(0), ProfileData::kSaturate + 5);
  // A saturated method still reads as hot.
  EXPECT_TRUE(P.anyHot(1));
  EXPECT_TRUE(P.anyHot(ProfileData::kSaturate));
}

TEST(ProfileSaturation, DispatchWaysAndOverflowStopAtCeiling) {
  auto C = compileMJ("sat.mj", kMonoSrc);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  const ClassSymbol *A = findClass(*C->Table, "A");
  const ClassSymbol *B = findClass(*C->Table, "B");
  ASSERT_TRUE(A && B);

  ProfileData P(0, 1);
  P.recordDispatch(0, A, ProfileData::kSaturate - 1);
  P.recordDispatch(0, A, 7);
  P.recordDispatch(0, A, 7); // Pinned now.
  ProfileData::SiteSummary S = P.site(0);
  EXPECT_EQ(S.Classes[0], A);
  EXPECT_EQ(S.Counts[0], ProfileData::kSaturate + 6);
  // The second way saturates independently of the first.
  P.recordDispatch(0, B, ProfileData::kSaturate);
  P.recordDispatch(0, B);
  S = P.site(0);
  EXPECT_EQ(S.Classes[1], B);
  EXPECT_EQ(S.Counts[1], ProfileData::kSaturate);
  // total() of two saturated ways must not wrap either.
  EXPECT_EQ(S.total(), 2 * ProfileData::kSaturate + 6);
  EXPECT_FALSE(S.megamorphic());
}

} // namespace
