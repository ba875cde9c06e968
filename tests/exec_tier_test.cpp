//===- tests/exec_tier_test.cpp - Two-tier execution tests ----*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile-guided execution tier (DESIGN.md §11), proved four ways:
///
///  1. Trap points and try/catch: tier-1 streams (inline caches,
///     closed-world devirtualization, superinstruction fusion) behave
///     like every other configuration of the differential matrix, whose
///     tier-1 rows (fusion on and off, inline caches masked) also run
///     the whole corpus and the generator soak (testgen_test).
///  2. Deterministic replay: profile + re-preparation is a pure function
///     — two independent profile/reprepare cycles over the same workload
///     yield byte-identical tier-1 streams (unit pointers compared
///     through their stable indices).
///  3. The IC state machine: profiled-monomorphic sites become guarded
///     direct calls (and count hits), guard misses fall back to the
///     vtable (and count misses), 2..4 receiver classes form a bounded
///     PIC, and overflow demotes the site back to the plain vtable path.
///  4. Structure: fusion preserves stream length (shadow slots), so no
///     branch target or handler index ever needs re-patching.
///
/// Registered under `ctest -L exec` with _asan/_tsan variants.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "exec/ExecUnit.h"
#include "testgen/DifferentialRunner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <unordered_map>

using namespace safetsa;
using testgen::agreedOutcome;
using testgen::Outcome;
using testgen::runPrepared;
using testgen::tier1For;

namespace {

/// Structural identity of a prepared module, with raw ExecUnit pointers
/// (which differ across independent preparations) rendered through their
/// stable unit indices. Two byte-identical tier-1 streams produce equal
/// fingerprints and vice versa; symbol/type pointers are stable because
/// both preparations come from one compile.
std::string fingerprint(const PreparedModule &PM) {
  std::unordered_map<const void *, uint32_t> UnitIdx;
  for (const ExecUnit *U : PM.Units)
    UnitIdx[U] = U->Index;
  std::string S;
  char Buf[192];
  for (const auto &U : PM.Units) {
    std::snprintf(Buf, sizeof(Buf), "unit %u slots=%u args=%u\n", U->Index,
                  U->NumSlots, U->NumArgs);
    S += Buf;
    for (const ExecInst &In : U->Code) {
      auto It = UnitIdx.find(In.P);
      if (It != UnitIdx.end())
        std::snprintf(Buf, sizeof(Buf),
                      " %s a%u b%u c%u d%u x%d h%d s%d u%u\n",
                      xopName(In.Op), In.A, In.B, In.C, In.Dst, In.X,
                      In.Handler, In.S, It->second);
      else
        std::snprintf(Buf, sizeof(Buf),
                      " %s a%u b%u c%u d%u x%d h%d s%d p%p\n",
                      xopName(In.Op), In.A, In.B, In.C, In.Dst, In.X,
                      In.Handler, In.S, In.P);
      S += Buf;
    }
    for (const ICEntry &E : U->ICs) {
      std::snprintf(Buf, sizeof(Buf), " ic ways=%u m%p", E.Ways,
                    static_cast<const void *>(E.Method));
      S += Buf;
      for (unsigned W = 0; W != E.Ways; ++W) {
        std::snprintf(Buf, sizeof(Buf), " %.*s->u%u",
                      static_cast<int>(E.Classes[W]->Name.size()),
                      E.Classes[W]->Name.data(), UnitIdx.at(E.Targets[W]));
        S += Buf;
      }
      S += '\n';
    }
  }
  return S;
}

const MethodSymbol *findMethod(const ClassTable &Table, const char *Class,
                               const char *Name) {
  for (const auto &C : Table.getClasses())
    if (C->Name == Class)
      for (const MethodSymbol *M : C->Methods)
        if (M->Name == Name)
          return M;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Trap points and try/catch at tier 1.
//===----------------------------------------------------------------------===//

TEST(TierTraps, CalleeTrapUnwindsThroughVirtualCall) {
  EXPECT_EQ(agreedOutcome(
                "class A { int f(int[] a, int i) { return a[i]; } } "
                "class B extends A { int f(int[] a, int i) { return a[i] + "
                "1; } } class Main { static void main() { A x = new B(); "
                "int[] a = new int[2]; IO.printInt(x.f(a, 1)); "
                "IO.printInt(x.f(a, 5)); } }"),
            (Outcome{RuntimeError::IndexOutOfBounds, "1"}));
}

TEST(TierTryCatch, CaughtIndexTrapInsideFusedAccess) {
  // The a[i] below fuses to IdxGetElt at tier 1; the caught trap and the
  // handler's state must survive fusion.
  EXPECT_EQ(agreedOutcome(
                "class Main { static void main() { int[] a = new int[3]; "
                "int s = 0; int i = 0; while (i < 6) { try { s = s + a[i]; } "
                "catch { s = s + 100; } i = i + 1; } IO.printInt(s); } }"),
            (Outcome{RuntimeError::None, "300"}));
}

TEST(TierTryCatch, CaughtTrapInsideHotVirtualCallee) {
  EXPECT_EQ(agreedOutcome(
                "class A { int f(int z) { return 10 / z; } } "
                "class B extends A { int f(int z) { return 20 / z; } } "
                "class Main { static void main() { A x = new B(); int s = 0; "
                "int i = 0 - 2; while (i < 3) { try { s = s + x.f(i); } "
                "catch { s = s + 1000; } i = i + 1; } IO.printInt(s); } }"),
            (Outcome{RuntimeError::None, "1000"}));
}

//===----------------------------------------------------------------------===//
// Deterministic replay: profile -> reprepare is a pure function.
//===----------------------------------------------------------------------===//

void expectDeterministicReplay(const std::string &Src) {
  auto C = compileMJ("replay.mj", Src);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  // Two fully independent cycles over the same workload (one profiling
  // run each).
  auto A = tier1For(*C->TSA, *C->Table);
  auto B = tier1For(*C->TSA, *C->Table);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(fingerprint(*A), fingerprint(*B))
      << "tier-1 streams diverged across identical profile cycles";
}

TEST(TierReplay, CorpusPrograms) {
  for (const CorpusProgram &P : getCorpus()) {
    SCOPED_TRACE(P.Name);
    expectDeterministicReplay(P.Source);
  }
}

TEST(TierReplay, TrapProgram) {
  expectDeterministicReplay(
      "class Main { static void main() { int[] a = new int[3]; "
      "IO.printInt(a.length); IO.printInt(a[7]); } }");
}

TEST(TierReplay, TryCatchProgram) {
  expectDeterministicReplay(
      "class Main { static void main() { int z = 0; int r = 0; "
      "try { try { r = 10 / z; } catch { r = 1; } "
      "r = r + 10 / z; } catch { r = r + 10; } IO.printInt(r); } }");
}

TEST(TierReplay, PolymorphicProgram) {
  const char *Src =
      "class A { int f() { return 1; } } "
      "class B extends A { int f() { return 2; } } "
      "class C extends A { int f() { return 3; } } "
      "class Main { static void main() { int s = 0; int i = 0; "
      "while (i < 9) { A x; if (i % 3 == 0) { x = new A(); } else { "
      "if (i % 3 == 1) { x = new B(); } else { x = new C(); } } "
      "s = s + x.f(); i = i + 1; } IO.printInt(s); } }";
  expectDeterministicReplay(Src);
  EXPECT_EQ(agreedOutcome(Src), (Outcome{RuntimeError::None, "18"}));
}

//===----------------------------------------------------------------------===//
// The IC state machine: mono -> poly -> megamorphic.
//===----------------------------------------------------------------------===//

/// Two classes overriding f (so closed-world devirt cannot fire), but a
/// profile that only ever saw A: the site becomes a one-way DispatchIC.
const char *kMonoSrc =
    "class A { int f() { return 1; } } "
    "class B extends A { int f() { return 2; } } "
    "class Main { "
    "static int go(A a) { return a.f(); } "
    "static void main() { A x = new A(); int s = 0; int i = 0; "
    "while (i < 10) { s = s + go(x); i = i + 1; } IO.printInt(s); } }";

TEST(TierIC, MonomorphicSiteGetsGuardedDirectCall) {
  auto C = compileMJ("mono.mj", kMonoSrc);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  EXPECT_EQ(T0->Tier, 0u);
  ASSERT_TRUE(T0->Profile);
  EXPECT_EQ(T0->countOp(XOp::DispatchIC), 0u);
  Outcome O0 = runPrepared(*T0, *C->Table);
  EXPECT_EQ(O0.Output, "10");
  EXPECT_GT(T0->Profile->totalDispatchSamples(), 0u);

  // Inlining off: this test pins the bare one-way IC state machine and
  // its exact ICHits tallies (a spliced site guards via GuardInline and
  // does not tally hits; exec_inline_test covers that shape).
  auto T1 = reprepareModule(*T0, {.InlineBudget = 0});
  ASSERT_TRUE(T1);
  EXPECT_EQ(T1->Tier, 1u);
  EXPECT_EQ(T1->countOp(XOp::DispatchIC), 1u);
  EXPECT_EQ(T1->countICs(1), 1u);
  EXPECT_EQ(T1->countOp(XOp::Dispatch), 0u);
  // The lowering-time tallies agree: one profiled-monomorphic site,
  // lowered to a one-guard direct call (a mono IC), nothing devirted.
  EXPECT_EQ(T1->Tiering.ProfiledMono, 1u);
  EXPECT_EQ(T1->Tiering.MonoICs, 1u);
  EXPECT_EQ(T1->Tiering.MonoLoweredDirect, 1u);
  EXPECT_EQ(T1->Tiering.DevirtCalls, 0u);
  EXPECT_EQ(T1->Tiering.PolyICs, 0u);
  EXPECT_EQ(T1->Tiering.Megamorphic, 0u);
  // Guard always hits on the same workload: all hits, no misses.
  Outcome O1 = runPrepared(*T1, *C->Table);
  EXPECT_EQ(O1.Output, "10");
  EXPECT_EQ(T1->ICHits.load(), 10u);
  EXPECT_EQ(T1->ICMisses.load(), 0u);
}

// The "tier1_mono_sites == 0" artifact, pinned: on a closed-world corpus
// a profiled-monomorphic site is usually subsumed by devirtualization
// (single receiver class implies single implementation), so it never
// emits a one-way DispatchIC — classification must happen at lowering
// time, not by counting opcodes. The site still counts as profiled-mono
// AND as lowered-direct.
TEST(TierIC, DevirtSubsumesProfiledMonoSiteInStats) {
  auto C = compileMJ("devstat.mj",
                     "class A { int f() { return 7; } } "
                     "class B extends A { } "
                     "class Main { static void main() { A x = new B(); "
                     "int s = 0; int i = 0; while (i < 4) { "
                     "s = s + x.f(); i = i + 1; } IO.printInt(s); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  runPrepared(*T0, *C->Table); // Profile records only B receivers.
  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);
  // Opcode census alone would report zero mono sites...
  EXPECT_EQ(T1->countOp(XOp::DispatchIC), 0u);
  EXPECT_EQ(T1->countOp(XOp::Dispatch), 0u);
  // ...but the site was profiled-mono and lowered direct via devirt.
  EXPECT_EQ(T1->Tiering.ProfiledMono, 1u);
  EXPECT_EQ(T1->Tiering.DevirtCalls, 1u);
  EXPECT_EQ(T1->Tiering.MonoLoweredDirect, 1u);
  EXPECT_EQ(T1->Tiering.MonoICs, 0u);
  EXPECT_EQ(runPrepared(*T1, *C->Table).Output, "28");
}

TEST(TierIC, GuardMissFallsBackToVtableAndCounts) {
  auto C = compileMJ("miss.mj", kMonoSrc);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  runPrepared(*T0, *C->Table); // Profile records only A receivers.
  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);
  ASSERT_EQ(T1->countICs(1), 1u);

  // Now feed go() a B: the mono guard (A) misses, the vtable fallback
  // must still reach B.f, and the miss must be counted.
  const MethodSymbol *Go = findMethod(*C->Table, "Main", "go");
  const ClassSymbol *B = nullptr;
  for (const ClassSymbol *Cl : C->Table->getClasses())
    if (Cl->Name == "B")
      B = Cl;
  ASSERT_TRUE(Go && B);
  Runtime RT(*C->Table);
  TSAExec X(*T1, RT);
  ExecResult R = X.call(Go, {Value::makeRef(RT.allocObject(B))});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.I, 2); // B.f, not the cached A.f.
  EXPECT_EQ(T1->ICMisses.load(), 1u);
  EXPECT_EQ(T1->ICHits.load(), 0u);
  // Default options inline this mono site, so the B receiver first
  // missed the splice's GuardInline, then the out-of-line one-way IC
  // fallback (tallied above) reached the vtable.
  EXPECT_EQ(T1->Tiering.InlinedSites, 1u);
  EXPECT_EQ(T1->InlineGuardMisses.load(), 1u);
}

TEST(TierIC, PolymorphicSiteGetsBoundedPIC) {
  auto C = compileMJ(
      "poly.mj",
      "class A { int f() { return 1; } } "
      "class B extends A { int f() { return 2; } } "
      "class C extends A { int f() { return 3; } } "
      "class Main { static int go(A a) { return a.f(); } "
      "static void main() { int s = 0; int i = 0; while (i < 12) { "
      "A x; if (i % 3 == 0) { x = new A(); } else { "
      "if (i % 3 == 1) { x = new B(); } else { x = new C(); } } "
      "s = s + go(x); i = i + 1; } IO.printInt(s); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  EXPECT_EQ(runPrepared(*T0, *C->Table).Output, "24");
  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);
  EXPECT_EQ(T1->countOp(XOp::DispatchIC), 1u);
  EXPECT_EQ(T1->countOp(XOp::Dispatch), 0u);
  EXPECT_EQ(runPrepared(*T1, *C->Table).Output, "24");
  EXPECT_EQ(T1->ICHits.load(), 12u); // All three ways resident.
  EXPECT_EQ(T1->ICMisses.load(), 0u);
}

TEST(TierIC, MegamorphicSiteDemotesToVtable) {
  // Five receiver classes at one site overflow the 4-way profile: the
  // site must stay a plain vtable Dispatch at tier 1 (and still agree).
  auto C = compileMJ(
      "mega.mj",
      "class A { int f() { return 1; } } "
      "class B extends A { int f() { return 2; } } "
      "class C extends A { int f() { return 3; } } "
      "class D extends A { int f() { return 4; } } "
      "class E extends A { int f() { return 5; } } "
      "class Main { static int go(A a) { return a.f(); } "
      "static void main() { int s = 0; int i = 0; while (i < 10) { "
      "A x; int k = i % 5; if (k == 0) { x = new A(); } else { "
      "if (k == 1) { x = new B(); } else { if (k == 2) { x = new C(); } "
      "else { if (k == 3) { x = new D(); } else { x = new E(); } } } } "
      "s = s + go(x); i = i + 1; } IO.printInt(s); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  EXPECT_EQ(runPrepared(*T0, *C->Table).Output, "30");
  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);
  EXPECT_EQ(T1->countOp(XOp::DispatchIC), 0u);
  EXPECT_EQ(T1->countOp(XOp::Dispatch), 1u);
  EXPECT_EQ(runPrepared(*T1, *C->Table).Output, "30");
  EXPECT_EQ(T1->ICHits.load(), 0u); // No caches formed, none counted.
}

TEST(TierIC, ClosedWorldMonomorphicDevirtualizesWithoutGuard) {
  // No override anywhere: every possible receiver resolves the slot to
  // A.f, so the site needs no guard at all — a plain direct call, even
  // with an empty profile.
  auto C = compileMJ("devirt.mj",
                     "class A { int f() { return 7; } } "
                     "class B extends A { } "
                     "class Main { static void main() { A x = new B(); "
                     "IO.printInt(x.f()); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  ASSERT_EQ(T0->countOp(XOp::Dispatch), 1u);
  auto T1 = reprepareModule(*T0); // Note: no profiling run needed.
  ASSERT_TRUE(T1);
  EXPECT_EQ(T1->countOp(XOp::Dispatch), 0u);
  EXPECT_EQ(T1->countOp(XOp::DispatchIC), 0u);
  EXPECT_EQ(runPrepared(*T1, *C->Table).Output, "7");
  EXPECT_EQ(T1->ICHits.load(), 0u); // Direct call: no guard, no tally.
}

// The inliner's heat for a one-way IC is the site's own profile slot.
// cold() is lowered first, so its never-run dispatch takes profile site
// 0 while main's takes site 1; main's IC is entry 0 of main's unit.
// Reading the profile through the IC index would find cold's empty slot
// and leave main's 100-call site unspliced.
TEST(TierIC, OneWayICHeatComesFromItsOwnProfileSite) {
  auto C = compileMJ(
      "heat.mj",
      "class A { int get() { return 1; } } "
      "class B extends A { int get() { return 2; } } "
      "class Main { static int cold(A a) { return a.get(); } "
      "static void main() { A a = new A(); int s = 0; int i = 0; "
      "while (i < 100) { s = s + a.get(); i = i + 1; } "
      "IO.printInt(s); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T1 = tier1For(*C->TSA, *C->Table);
  ASSERT_TRUE(T1);
  EXPECT_EQ(T1->Tiering.ProfiledMono, 1u);
  EXPECT_EQ(T1->Tiering.InlinedSites, 1u);
  EXPECT_EQ(T1->Tiering.InlinedHeat, 100u);
  EXPECT_EQ(T1->countOp(XOp::GuardInline), 1u);
  EXPECT_EQ(runPrepared(*T1, *C->Table).Output, "100");
}

//===----------------------------------------------------------------------===//
// Superinstruction fusion structure.
//===----------------------------------------------------------------------===//

// Stores assign from locals so the check and the access stay adjacent
// (the RHS is generated between lvalue checks and the store otherwise).
const char *kFuseSrc =
    "class P { int v; } "
    "class Main { static void main() { int[] a = new int[8]; "
    "P p = new P(); int t = 3; p.v = t; int i = 0; "
    "while (i < 8) { int w = i + p.v; a[i] = w; i = i + 1; } "
    "int s = 0; i = 0; while (i < 8) { s = s + a[i]; i = i + 1; } "
    "double d = 0.5; while (d < 4.0) { d = d + 1.0; } "
    "IO.printInt(s); IO.printInt(p.v); IO.printDouble(d); } }";
/// What kFuseSrc prints: s = sum(i + 3), p.v, then d.
const char *kFuseOut = "5234.5";

TEST(TierFusion, FusesPairsAndPreservesStreamLength) {
  auto C = compileMJ("fuse.mj", kFuseSrc);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);
  auto T1 = reprepareModule(*T0);
  ASSERT_TRUE(T1);

  // Every fusion family fires at least once on this program.
  size_t BrCmps = 0;
  for (XOp Op : {XOp::BrCmpLtI, XOp::BrCmpLeI, XOp::BrCmpGtI, XOp::BrCmpGeI,
                 XOp::BrCmpEqI, XOp::BrCmpNeI})
    BrCmps += T1->countOp(Op);
  EXPECT_GT(BrCmps, 0u);
  EXPECT_GT(T1->countOp(XOp::IdxGetElt), 0u);
  EXPECT_GT(T1->countOp(XOp::IdxSetElt), 0u);
  EXPECT_GT(T1->countOp(XOp::NullGetField), 0u);
  EXPECT_GT(T1->countOp(XOp::NullSetField), 0u);
  // The loop back edges carry phi copies: the move fusions fire too.
  EXPECT_GT(T1->countOp(XOp::Move2) + T1->countOp(XOp::MoveJmp), 0u);

  // Compare+branch fusion is integer-only: the double loop's CmpLtD
  // still feeds a separate BrFalse at tier 1.
  const ArenaArray<ExecInst> &Main = T1->MainUnit->Code;
  size_t DoubleCmpBranches = 0;
  for (size_t I = 0; I + 1 < Main.size(); ++I)
    if (Main[I].Op == XOp::CmpLtD && Main[I + 1].Op == XOp::BrFalse &&
        Main[I + 1].A == Main[I].Dst)
      ++DoubleCmpBranches;
  EXPECT_EQ(DoubleCmpBranches, 1u);

  // Fusion never moves code: same stream length per unit (shadow slots).
  ASSERT_EQ(T1->Units.size(), T0->Units.size());
  for (size_t I = 0; I != T0->Units.size(); ++I)
    EXPECT_EQ(T1->Units[I]->Code.size(), T0->Units[I]->Code.size());

  // And the NoFusion mask really masks.
  auto T1NF = reprepareModule(*T0, {.NoFusion = true});
  ASSERT_TRUE(T1NF);
  for (XOp Op : {XOp::BrCmpLtI, XOp::NullGetField, XOp::NullSetField,
                 XOp::IdxGetElt, XOp::IdxSetElt, XOp::Move2, XOp::MoveJmp})
    EXPECT_EQ(T1NF->countOp(Op), 0u) << xopName(Op);

  EXPECT_EQ(runPrepared(*T1, *C->Table).Output, kFuseOut);
  EXPECT_EQ(runPrepared(*T1NF, *C->Table).Output, kFuseOut);
}

//===----------------------------------------------------------------------===//
// Concurrency: tier-0 profiling and tier-1 IC tallies are TSan-clean.
//===----------------------------------------------------------------------===//

TEST(TierConcurrency, ConcurrentProfilingAndTier1Execution) {
  auto C = compileMJ("conc.mj", kMonoSrc);
  ASSERT_TRUE(C->ok());
  auto T0 = prepareModule(*C->TSA);
  ASSERT_TRUE(T0);

  // Phase 1: many threads profile one tier-0 module concurrently.
  constexpr unsigned NumThreads = 8;
  {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&] {
        Runtime RT(*C->Table);
        TSAExec X(*T0, RT);
        X.runMain();
      });
    for (auto &Th : Threads)
      Th.join();
  }
  // Relaxed counters may drop no increments here: every activation of
  // main was counted.
  EXPECT_EQ(T0->Profile->invocations(T0->MainUnit->Index), NumThreads);

  // Phase 2: many threads execute the re-quickened tier 1 concurrently;
  // the per-call IC flushes must add up exactly. Inlining off so every
  // guard hit lands in ICHits (spliced guards tally only misses).
  auto T1 = reprepareModule(*T0, {.InlineBudget = 0});
  ASSERT_TRUE(T1);
  {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&] {
        Runtime RT(*C->Table);
        TSAExec X(*T1, RT);
        X.runMain();
      });
    for (auto &Th : Threads)
      Th.join();
  }
  EXPECT_EQ(T1->ICHits.load(), 10u * NumThreads);
  EXPECT_EQ(T1->ICMisses.load(), 0u);
}

} // namespace
