//===- tests/gc_test.cpp - Precise GC correctness -------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Correctness proofs for the precise mark-sweep heap (src/gc, DESIGN.md
/// §13): allocation-churn stays bounded under StressEveryNAllocs=1,
/// traps and try/catch behave identically with GC stressed (the
/// differential matrix's gcstress rows, which also run the corpus and
/// the generator soak), a forced collection retains exactly the
/// reachable set (checked against an independent test-side reachability
/// walk), cell 0 is never handed out, free-list reuse keeps indices
/// stable, paranoid mode traps on dead refs, and 8 threads executing a
/// shared served module with stress GC stay clean (run under TSan via
/// gc_test_tsan, ASan via gc_test_asan).
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "driver/Compiler.h"
#include "exec/ExecUnit.h"
#include "exec/TSAInterp.h"
#include "serve/CodeClient.h"
#include "serve/CodeServer.h"
#include "testgen/DifferentialRunner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>

using namespace safetsa;
using testgen::agreedOutcome;
using testgen::Outcome;

namespace {

GcOptions stressGc() {
  GcOptions G;
  G.StressEveryNAllocs = 1;
  return G;
}

GcOptions disabledGc() {
  GcOptions G;
  G.Disable = true;
  return G;
}

// Traps and try/catch under stress: collections between the faulting
// allocation sites must not move the trap point or the caught value.
TEST(GcParity, TrapsAndTryCatch) {
  EXPECT_EQ(
      agreedOutcome(
          "class Node { int v; Node next; } class Main { static void main() "
          "{ Node head = null; int i = 0; "
          "while (i < 50) { Node n = new Node(); n.v = i; n.next = head; "
          "head = n; i = i + 1; } "
          "Node bad = null; IO.printInt(head.v); IO.printInt(bad.v); } }"),
      (Outcome{RuntimeError::NullPointer, "49"}));
  EXPECT_EQ(
      agreedOutcome(
          "class Main { static void main() { int i = 0; int s = 0; "
          "while (i < 40) { try { int[] a = new int[i % 5]; s = s + a[i % "
          "7]; } catch { s = s + 1000; } i = i + 1; } IO.printInt(s); } }"),
      (Outcome{RuntimeError::None, "30000"}));
  EXPECT_EQ(
      agreedOutcome(
          "class C { int x; } class Main { static void main() { int i = 0; "
          "while (i < 30) { try { C c = null; if (i % 2 == 0) { c = new "
          "C(); } c.x = i; IO.printInt(c.x); } catch { IO.printChar('!'); "
          "} i = i + 1; } } }"),
      (Outcome{RuntimeError::None,
               "0!2!4!6!8!10!12!14!16!18!20!22!24!26!28!"}));
}

//===----------------------------------------------------------------------===//
// Bounded churn: a loop that allocates and drops garbage every iteration
// must not grow the heap under StressEveryNAllocs=1.
//===----------------------------------------------------------------------===//

const char *kChurnSrc =
    "class Box { int v; int[] payload; } "
    "class Main { static int work(int i) { "
    "Box b = new Box(); b.v = i; b.payload = new int[8]; "
    "b.payload[3] = i * 2; return b.v + b.payload[3]; } "
    "static void main() { int i = 0; int s = 0; "
    "while (i < 2000) { s = s + work(i); i = i + 1; } "
    "IO.printInt(s); } }";

TEST(GcStress, HeapStaysBoundedUnderChurn) {
  auto C = compileMJ("churn.mj", kChurnSrc);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto PM = prepareModule(*C->TSA);
  ASSERT_TRUE(PM);
  Runtime RT(*C->Table, 200'000'000, stressGc());
  TSAExec X(*PM, RT);
  ExecResult R = X.runMain();
  ASSERT_EQ(R.Err, RuntimeError::None) << runtimeErrorName(R.Err);
  // 2000 iterations x 2 cells each; with a collection after every
  // allocation the cell vector must stay at a handful of live cells plus
  // the in-flight allocation window, not grow with the iteration count.
  EXPECT_LT(RT.heapCells(), 64u) << "heap grew despite stress collection";
  EXPECT_GT(RT.gcStats().Cycles, 1000u);
  EXPECT_GT(RT.gcStats().CellsReclaimed, 3000u);
  // Sanity: GC off on the same workload really does grow the heap, so
  // the bound above is meaningful.
  Runtime Grow(*C->Table, 200'000'000, disabledGc());
  TSAExec XG(*PM, Grow);
  ASSERT_EQ(XG.runMain().Err, RuntimeError::None);
  EXPECT_GT(Grow.heapCells(), 2000u);
  EXPECT_EQ(Grow.getOutput(), RT.getOutput());
}

TEST(GcStress, TreeWalkHeapStaysBounded) {
  auto C = compileMJ("churn.mj", kChurnSrc);
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  Runtime RT(*C->Table, 200'000'000, stressGc());
  TSAInterpreter I(*C->TSA, RT);
  ASSERT_EQ(I.runMain().Err, RuntimeError::None);
  EXPECT_LT(RT.heapCells(), 64u);
  EXPECT_GT(RT.gcStats().Cycles, 1000u);
}

//===----------------------------------------------------------------------===//
// Reachability: after a forced collection with no frames live, the
// retained set must equal an independent walk from statics + interned
// strings — exactly the unreachable cells were reclaimed, no more, no
// less.
//===----------------------------------------------------------------------===//

/// Independent reachability walk over the roots the collector enumerates
/// once frames are gone: statics and the string pool. It finds
/// references by declared field and element types, not through the
/// collector's own lists (ClassSymbol::RefFields, the static ref slots,
/// the cell kinds).
std::set<uint32_t> reachableWithoutFrames(Runtime &RT) {
  std::vector<uint32_t> Work;
  std::set<uint32_t> Reachable;
  auto Push = [&](uint32_t Ref) {
    if (Ref != 0 && Reachable.insert(Ref).second)
      Work.push_back(Ref);
  };
  for (const ClassSymbol *C : RT.getTable().getClasses())
    for (const FieldSymbol *F : C->Fields)
      if (F->IsStatic && F->Ty->isRef())
        Push(RT.getStatic(F).R);
  for (const Runtime::InternedString &E : RT.stringPool())
    Push(E.Ref);
  while (!Work.empty()) {
    uint32_t Ref = Work.back();
    Work.pop_back();
    const HeapCell &Cell = RT.cell(Ref);
    if (Cell.isArray()) {
      if (Cell.ArrayElemTy->isRef())
        for (uint32_t I = 0; I != Cell.Len; ++I)
          Push(RT.getElt(Ref, static_cast<int32_t>(I)).R);
      continue;
    }
    for (const FieldSymbol *F : Cell.Class->InstanceLayout)
      if (F->Ty->isRef())
        Push(RT.getField(Ref, F).R);
  }
  return Reachable;
}

TEST(GcReachability, LiveCellsMatchOracleReachableSet) {
  // main() leaves a static list of 10 nodes (each with an 8-elt array)
  // plus a static string, and makes plenty of garbage on the way.
  auto C = compileMJ(
      "reach.mj",
      "class Node { int v; Node next; int[] data; } "
      "class Main { static Node keep; "
      "static void main() { int i = 0; "
      "while (i < 10) { Node n = new Node(); n.data = new int[8]; "
      "n.v = i; n.next = keep; keep = n; i = i + 1; } "
      "i = 0; while (i < 500) { Node junk = new Node(); "
      "junk.data = new int[3]; i = i + 1; } "
      "IO.printStr(\"done\"); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto PM = prepareModule(*C->TSA);
  ASSERT_TRUE(PM);
  Runtime RT(*C->Table); // Default options: budget never trips here.
  TSAExec X(*PM, RT);
  ASSERT_EQ(X.runMain().Err, RuntimeError::None);
  EXPECT_EQ(RT.getOutput(), "done");

  size_t Before = RT.gcLiveCells();
  uint64_t Reclaimed = RT.collectNow();
  EXPECT_GT(Reclaimed, 0u);
  EXPECT_EQ(RT.gcLiveCells(), Before - Reclaimed);

  std::set<uint32_t> Reachable = reachableWithoutFrames(RT);
  // 10 nodes + 10 arrays via Main.keep, + the interned "done".
  EXPECT_EQ(Reachable.size(), 21u);
  EXPECT_EQ(RT.gcLiveCells(), Reachable.size());

  // A second forced collection reclaims nothing: the live set is stable.
  EXPECT_EQ(RT.collectNow(), 0u);
  EXPECT_EQ(RT.gcLiveCells(), Reachable.size());
}

// Typed inline extensions: a tier-1 caller splices `pass` (reference
// slots) and `mix` (integer slots at the same callee slot indices). The
// shared extension keeps a ref region and a non-ref region, so every
// frame slot the root scan reads holds a reference: no marked root may
// name a cell that was never allocated. `mix`'s integers are all at least
// 10^9, far past any cell index, so a layout that let one into a
// reference slot would surface as a wild root at the next back-edge
// collection.
TEST(GcReachability, TypedInlineExtensionKeepsRootsPrecise) {
  auto C = compileMJ(
      "typedext.mj",
      "class Node { int v; Node next; } "
      "class Main { static Node keep; "
      "static Node pass(Node n) { Node m = n.next; return m; } "
      "static int mix(int x) { int y = x + 1000000000; return y; } "
      "static void main() { Node head = new Node(); "
      "head.next = new Node(); keep = head; int s = 0; int i = 0; "
      "while (i < 40) { Node m = pass(head); s = s + mix(i) % 7; "
      "Node junk = new Node(); junk.next = m; i = i + 1; } "
      "IO.printInt(s); } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  auto T1 = testgen::tier1For(*C->TSA, *C->Table);
  ASSERT_TRUE(T1);
  ASSERT_EQ(T1->Tiering.InlinedSites, 2u);

  Runtime Tree(*C->Table, testgen::kRunFuel, stressGc());
  TSAInterpreter Walker(*C->TSA, Tree);
  ASSERT_EQ(Walker.runMain().Err, RuntimeError::None);

  Runtime RT(*C->Table, testgen::kRunFuel, stressGc());
  TSAExec X(*T1, RT);
  ASSERT_EQ(X.runMain().Err, RuntimeError::None);
  EXPECT_EQ(RT.getOutput(), Tree.getOutput());
  EXPECT_GE(RT.gcStats().Cycles, 40u); // One per iteration at least.
  EXPECT_EQ(RT.gcStats().WildRefs, 0u)
      << "a frame slot listed as a reference held an integer";

  RT.collectNow();
  EXPECT_EQ(RT.gcStats().WildRefs, 0u);
  std::set<uint32_t> Reachable = reachableWithoutFrames(RT);
  EXPECT_EQ(Reachable.size(), 2u); // keep and keep.next.
  EXPECT_EQ(RT.gcLiveCells(), Reachable.size());
}

//===----------------------------------------------------------------------===//
// Null-slot convention and free-list reuse.
//===----------------------------------------------------------------------===//

TEST(GcHeapInvariants, CellZeroIsNeverHandedOut) {
  auto C = compileMJ("null.mj",
                     "class C { int x; } "
                     "class Main { static void main() { } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  ClassTable &Table = *C->Table;
  const ClassSymbol *Cls = nullptr;
  for (const auto &Sym : Table.getClasses())
    if (Sym->Name == "C")
      Cls = Sym;
  ASSERT_NE(Cls, nullptr);

  Runtime RT(Table, 200'000'000, stressGc());
  Type *CharTy = C->TSA->Types->getChar();
  // Fresh allocations, swept-and-recycled allocations, and interned
  // strings must all avoid index 0 — ref 0 stays the null reference.
  for (int Round = 0; Round != 3; ++Round) {
    for (int I = 0; I != 100; ++I) {
      EXPECT_NE(RT.allocObject(Cls), 0u);
      EXPECT_NE(RT.allocArray(CharTy, 4), 0u);
    }
    EXPECT_NE(RT.internString("s" + std::to_string(Round), CharTy), 0u);
    RT.collectNow(); // Everything unrooted dies; indices recycle.
  }
}

TEST(GcHeapInvariants, NullRefAccessTrapsNotUB) {
  // Field and element access through null must raise NullPointer — the
  // trap, not a read of cell 0 — on every engine, stressed or not.
  EXPECT_EQ(agreedOutcome("class C { int x; } class Main { static void "
                          "main() { C c = null; IO.printInt(c.x); } }"),
            (Outcome{RuntimeError::NullPointer, ""}));
  EXPECT_EQ(agreedOutcome("class Main { static void main() { "
                          "int[] a = null; IO.printInt(a[0]); } }"),
            (Outcome{RuntimeError::NullPointer, ""}));
}

TEST(GcHeapInvariants, FreeListReusesIndicesWithoutGrowth) {
  auto C = compileMJ("reuse.mj", "class C { int x; } "
                                 "class Main { static void main() { } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  ClassTable &Table = *C->Table;
  const ClassSymbol *Cls = nullptr;
  for (const auto &Sym : Table.getClasses())
    if (Sym->Name == "C")
      Cls = Sym;
  ASSERT_NE(Cls, nullptr);

  Runtime RT(Table);
  uint32_t First = RT.allocObject(Cls);
  size_t CellsAfterFirst = RT.heapCells();
  ASSERT_EQ(RT.collectNow(), 1u); // Unrooted: swept.
  // The recycled allocation reuses the swept index; the vector does not
  // grow, and the non-moving discipline means the index is bit-identical.
  uint32_t Second = RT.allocObject(Cls);
  EXPECT_EQ(Second, First);
  EXPECT_EQ(RT.heapCells(), CellsAfterFirst);
}

TEST(GcHeapInvariants, DisabledGcNeverCollects) {
  auto C = compileMJ("off.mj", "class C { int x; } "
                               "class Main { static void main() { } }");
  ASSERT_TRUE(C->ok()) << C->renderDiagnostics();
  const ClassSymbol *Cls = nullptr;
  for (const auto &Sym : C->Table->getClasses())
    if (Sym->Name == "C")
      Cls = Sym;
  ASSERT_NE(Cls, nullptr);
  GcOptions G = stressGc();
  G.Disable = true;
  Runtime RT(*C->Table, 200'000'000, G);
  for (int I = 0; I != 50; ++I)
    RT.allocObject(Cls);
  EXPECT_FALSE(RT.gcPending());
  EXPECT_EQ(RT.collectNow(), 0u);
  EXPECT_EQ(RT.gcStats().Cycles, 0u);
  EXPECT_EQ(RT.heapCells(), 51u); // 50 + the null cell: grow-only.
}

//===----------------------------------------------------------------------===//
// Paranoid mode: a dead (swept) ref read through cell() aborts instead
// of silently returning recycled memory.
//===----------------------------------------------------------------------===//

TEST(GcParanoidDeathTest, DeadRefTrapsUnderParanoid) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        setenv("SAFETSA_PARANOID", "1", 1);
        auto C = compileMJ("paranoid.mj",
                           "class C { int x; } "
                           "class Main { static void main() { } }");
        const ClassSymbol *Cls = nullptr;
        for (const auto &Sym : C->Table->getClasses())
          if (Sym->Name == "C")
            Cls = Sym;
        Runtime RT(*C->Table);
        uint32_t Ref = RT.allocObject(Cls);
        RT.collectNow(); // Unrooted: Ref is now dead.
        RT.cell(Ref);    // Paranoid trap: abort, not recycled memory.
      },
      "PARANOID heap trap");
}

//===----------------------------------------------------------------------===//
// Concurrency: 8 threads execute one served module, each with its own
// stress-collected Runtime. Safepoint polls, striped GC counters, and
// the shared PreparedModule must stay race-free (gc_test_tsan).
//===----------------------------------------------------------------------===//

TEST(GcConcurrency, EightThreadServeStormWithStressGc) {
  const GcOptions Stress = stressGc();
  CodeServer Server;
  std::string Err;
  auto Prog = compileMJ("storm.mj", kChurnSrc);
  ASSERT_TRUE(Prog->ok()) << Prog->renderDiagnostics();
  std::vector<uint8_t> Wire = encodeModule(*Prog->TSA);
  Digest D = Server.publish(ByteSpan(Wire), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  auto Unit = Server.load(D, &Err);
  ASSERT_TRUE(Unit) << Err;
  auto PM = Server.loadPrepared(D, &Err);
  ASSERT_TRUE(PM) << Err;

  uint64_t CyclesBefore = gcCounters().Cycles.sum();
  constexpr unsigned kThreads = 8;
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Failures{0};
  std::string Expected;
  {
    Runtime RT(*Unit->Table, 200'000'000, disabledGc());
    TSAExec X(*PM, RT);
    ASSERT_EQ(X.runMain().Err, RuntimeError::None);
    Expected = RT.getOutput();
  }
  for (unsigned T = 0; T != kThreads; ++T)
    Threads.emplace_back([&] {
      // Per-thread stress-collected Runtime; the prepared module is
      // shared and const.
      Runtime RT(*Unit->Table, 200'000'000, Stress);
      TSAExec X(*PM, RT);
      ExecResult R = X.runMain();
      if (R.Err != RuntimeError::None || RT.getOutput() != Expected ||
          RT.gcStats().Cycles == 0 || RT.heapCells() > 64)
        ++Failures;
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);

  // Every thread's collections landed in the process-wide striped
  // aggregate, and the STATS verb reports them.
  uint64_t CyclesNow = gcCounters().Cycles.sum();
  EXPECT_GE(CyclesNow - CyclesBefore, kThreads);
  ServeStats S = Server.stats();
  EXPECT_GE(S.GcCycles, CyclesNow);
  EXPECT_GT(S.GcCellsReclaimed, 0u);
}

} // namespace
