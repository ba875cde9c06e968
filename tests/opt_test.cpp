//===- tests/opt_test.cpp - Optimizer unit tests --------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Targeted checks for each pass: constant folding results, the
/// dominator-scoped CSE with the Mem variable (what may and may not be
/// unified across stores/calls/joins), check elimination, and DCE — plus
/// semantics preservation on every mutation (the differential suite
/// covers whole programs; these pin down pass-level behaviour).
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "exec/TSAInterp.h"
#include "opt/Optimizer.h"
#include "tsa/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

using namespace safetsa;

namespace {

struct Opt {
  std::unique_ptr<CompiledProgram> P;
  OptStats Stats;
  std::string OutputBefore, OutputAfter;

  unsigned count(Opcode Op) const { return P->TSA->countOpcode(Op); }
};

std::string run(CompiledProgram &P) {
  Runtime RT(*P.Table);
  TSAInterpreter I(*P.TSA, RT);
  ExecResult R = I.runMain();
  EXPECT_EQ(R.Err, RuntimeError::None) << runtimeErrorName(R.Err);
  return RT.getOutput();
}

Opt optimize(const std::string &Src, OptOptions Options = {}) {
  Opt O;
  O.P = compileMJ("opt.mj", Src);
  EXPECT_TRUE(O.P->ok()) << O.P->renderDiagnostics();
  O.OutputBefore = run(*O.P);
  O.Stats = optimizeModule(*O.P->TSA, Options);
  TSAVerifier V(*O.P->TSA);
  bool Verified = V.verify();
  EXPECT_TRUE(Verified) << (V.getErrors().empty() ? ""
                                                  : V.getErrors().front());
  if (!Verified)
    return O; // Running an ill-formed module could crash the test.
  O.OutputAfter = run(*O.P);
  EXPECT_EQ(O.OutputBefore, O.OutputAfter) << "optimization changed output";
  return O;
}

unsigned countPrim(const TSAModule &Mod, PrimOp Prim) {
  unsigned N = 0;
  for (const auto &M : Mod.Methods)
    M->forEachInstruction([&](const Instruction &I) {
      if ((I.Op == Opcode::Primitive || I.Op == Opcode::XPrimitive) &&
          I.Prim == Prim)
        ++N;
    });
  return N;
}

unsigned
danglingCSTRefs(const CSTSeq &Seq,
                const std::unordered_set<const Instruction *> &Linked) {
  unsigned N = 0;
  for (const CSTNode *Node : Seq) {
    N += Node->Cond && !Linked.count(Node->Cond);
    N += Node->RetVal && !Linked.count(Node->RetVal);
    for (const CSTSeq *Sub :
         {&Node->Then, &Node->Else, &Node->Header, &Node->Body})
      N += danglingCSTRefs(*Sub, Linked);
  }
  return N;
}

/// References to instructions no block holds any more: operands and CST
/// conditions / return values that still name a retired value.
unsigned danglingRefs(const TSAModule &Mod) {
  unsigned N = 0;
  for (const auto &M : Mod.Methods) {
    std::unordered_set<const Instruction *> Linked;
    M->forEachInstruction([&](const Instruction &I) { Linked.insert(&I); });
    M->forEachInstruction([&](const Instruction &I) {
      for (const Instruction *Op : I.Operands)
        N += !Linked.count(Op);
    });
    N += danglingCSTRefs(M->Root, Linked);
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Constant propagation
//===----------------------------------------------------------------------===//

TEST(Opt, FoldsConstantArithmetic) {
  Opt O = optimize("class Main { static void main() { "
                   "IO.printInt(2 * 3 + 4 * 5 - 1); } }");
  EXPECT_GE(O.Stats.FoldedConstants, 3u);
  // Only the call remains (plus preloads).
  EXPECT_EQ(O.count(Opcode::Primitive), 0u);
}

TEST(Opt, FoldsTransitively) {
  // a and b fold, enabling a+b to fold too.
  Opt O = optimize("class Main { static void main() { "
                   "int a = 1 + 2; int b = a * 4; IO.printInt(a + b); } }");
  EXPECT_EQ(O.count(Opcode::Primitive), 0u);
}

TEST(Opt, FoldsComparisonsAndBooleans) {
  Opt O = optimize("class Main { static void main() { "
                   "IO.printBool(3 < 4); IO.printBool(!(2 == 2)); } }");
  EXPECT_EQ(O.count(Opcode::Primitive), 0u);
}

TEST(Opt, DoesNotFoldDivisionByZero) {
  // The runtime exception must be preserved, not folded away.
  auto P = compileMJ("opt.mj", "class Main { static void main() { "
                               "IO.printInt(1 / 0); } }");
  ASSERT_TRUE(P->ok());
  optimizeModule(*P->TSA);
  EXPECT_EQ(P->TSA->countOpcode(Opcode::XPrimitive), 1u);
  Runtime RT(*P->Table);
  TSAInterpreter I(*P->TSA, RT);
  EXPECT_EQ(I.runMain().Err, RuntimeError::DivisionByZero);
}

TEST(Opt, FoldsDoubleMath) {
  Opt O = optimize("class Main { static void main() { "
                   "IO.printDouble(0.5 * 4.0 + 1.0); } }");
  EXPECT_EQ(O.count(Opcode::Primitive), 0u);
  EXPECT_EQ(O.OutputAfter, "3");
}

//===----------------------------------------------------------------------===//
// CSE
//===----------------------------------------------------------------------===//

// Parameters keep the operands opaque so constant propagation does not
// pre-empt CSE in these tests.
TEST(Opt, UnifiesPureExpressions) {
  Opt O = optimize("class Main { static void f(int a, int b) { "
                   "IO.printInt(a * b); IO.printInt(a * b); } "
                   "static void main() { f(6, 7); } }");
  EXPECT_GE(O.Stats.CSERemoved, 1u);
  unsigned Muls = 0;
  for (const auto &M : O.P->TSA->Methods)
    M->forEachInstruction([&](const Instruction &I) {
      if (I.Op == Opcode::Primitive && I.Prim == PrimOp::MulI)
        ++Muls;
    });
  EXPECT_EQ(Muls, 1u);
}

TEST(Opt, UnifiesAcrossDominators) {
  // The computation in the if-arm reuses the one before the branch.
  Opt O = optimize(
      "class Main { static void f(int a, int b) { "
      "int x = a * b; if (x > 0) { IO.printInt(a * b); } } "
      "static void main() { f(6, 7); } }");
  unsigned Muls = 0;
  for (const auto &M : O.P->TSA->Methods)
    M->forEachInstruction([&](const Instruction &I) {
      if (I.Op == Opcode::Primitive && I.Prim == PrimOp::MulI)
        ++Muls;
    });
  EXPECT_EQ(Muls, 1u);
}

TEST(Opt, DoesNotUnifyAcrossBranches) {
  // Sibling arms do not dominate each other; both multiplies stay.
  Opt O = optimize(
      "class Main { static void f(int a, int b) { "
      "if (a < b) { IO.printInt(a * b); } else { IO.printInt(a * b); } } "
      "static void main() { f(6, 7); } }");
  unsigned Muls = 0;
  for (const auto &M : O.P->TSA->Methods)
    M->forEachInstruction([&](const Instruction &I) {
      if (I.Op == Opcode::Primitive && I.Prim == PrimOp::MulI)
        ++Muls;
    });
  EXPECT_EQ(Muls, 2u);
}

TEST(Opt, RedundantLoadsUnifiedUntilStore) {
  Opt O = optimize(
      "class C { int v; } class Main { static void main() { "
      "C c = new C(); c.v = 3; int a = c.v; int b = c.v; "
      "c.v = 4; int d = c.v; IO.printInt(a + b + d); } }");
  // Loads before the second store unify; the post-store load must remain.
  unsigned Loads = 0;
  for (const auto &M : O.P->TSA->Methods)
    Loads += M->countOpcode(Opcode::GetField);
  EXPECT_EQ(Loads, 2u);
  EXPECT_EQ(O.OutputAfter, "10");
}

TEST(Opt, CallsClobberMemory) {
  Opt O = optimize(
      "class C { static int g; static void poke() { g = g + 1; } } "
      "class Main { static void main() { C.g = 5; int a = C.g; "
      "C.poke(); int b = C.g; IO.printInt(a + b); } }");
  unsigned Loads = 0;
  for (const auto &M : O.P->TSA->Methods)
    if (M->Symbol->Name == "main")
      Loads = M->countOpcode(Opcode::GetStatic);
  EXPECT_EQ(Loads, 2u) << "load across a call must not be unified";
  EXPECT_EQ(O.OutputAfter, "11");
}

TEST(Opt, ArrayLengthIsImmutableAcrossStores) {
  // a.length is CSE-able even across element stores.
  Opt O = optimize(
      "class Main { static void main() { int[] a = new int[5]; "
      "int x = a.length; a[0] = 9; int y = a.length; "
      "IO.printInt(x + y); } }");
  unsigned Lens = 0;
  for (const auto &M : O.P->TSA->Methods)
    Lens += M->countOpcode(Opcode::ArrayLength);
  EXPECT_EQ(Lens, 1u);
}

TEST(Opt, FieldSensitiveMemKeepsUnrelatedLoads) {
  const char *Src =
      "class C { int v; int w; } class Main { static void main() { "
      "C c = new C(); c.v = 1; int a = c.w; c.v = 2; int b = c.w; "
      "IO.printInt(a + b + c.v); } }";
  // Insensitive: the store to v kills the load of w.
  Opt Coarse = optimize(Src);
  unsigned CoarseLoads = 0;
  for (const auto &M : Coarse.P->TSA->Methods)
    CoarseLoads += M->countOpcode(Opcode::GetField);
  // Field-sensitive (§8 outlook): loads of w unify across stores to v.
  OptOptions FS;
  FS.FieldSensitiveMem = true;
  Opt Fine = optimize(Src, FS);
  unsigned FineLoads = 0;
  for (const auto &M : Fine.P->TSA->Methods)
    FineLoads += M->countOpcode(Opcode::GetField);
  EXPECT_LT(FineLoads, CoarseLoads);
}

TEST(Opt, FieldSensitiveMemSameFieldStoreStillClobbers) {
  // Sensitivity is per field, not per object: a store to v must still
  // kill earlier loads of v.
  OptOptions FS;
  FS.FieldSensitiveMem = true;
  Opt O = optimize(
      "class C { int v; } class Main { static void main() { "
      "C c = new C(); c.v = 1; int a = c.v; c.v = 2; int b = c.v; "
      "IO.printInt(a + b); } }",
      FS);
  unsigned Loads = 0;
  for (const auto &M : O.P->TSA->Methods)
    Loads += M->countOpcode(Opcode::GetField);
  EXPECT_EQ(Loads, 2u) << "load of v across a store to v must survive";
  EXPECT_EQ(O.OutputAfter, "3");
}

TEST(Opt, FieldSensitiveMemIsConservativeAcrossObjects) {
  // The partition key is the FieldSymbol alone (no points-to analysis),
  // so a store to d.v must clobber a pending load of c.v — c and d may
  // alias for all the pass knows.
  OptOptions FS;
  FS.FieldSensitiveMem = true;
  Opt O = optimize(
      "class C { int v; } class Main { static void main() { "
      "C c = new C(); C d = new C(); c.v = 7; int a = c.v; "
      "d.v = 9; int b = c.v; IO.printInt(a + b); } }",
      FS);
  unsigned Loads = 0;
  for (const auto &M : O.P->TSA->Methods)
    Loads += M->countOpcode(Opcode::GetField);
  EXPECT_EQ(Loads, 2u) << "possible alias: second load of v must survive";
  EXPECT_EQ(O.OutputAfter, "14");
}

TEST(Opt, FieldSensitiveMemPreservesCorpusSemantics) {
  // Whole-corpus differential: optimizing with the finer memory
  // partition never changes observable behaviour (output or trap).
  OptOptions FS;
  FS.FieldSensitiveMem = true;
  for (const CorpusProgram &P : getCorpus()) {
    SCOPED_TRACE(P.Name);
    auto Before = compileMJ(P.Name, P.Source);
    ASSERT_TRUE(Before->ok()) << Before->renderDiagnostics();
    Runtime RTB(*Before->Table);
    TSAInterpreter IB(*Before->TSA, RTB);
    ExecResult RB = IB.runMain();

    auto After = compileMJ(P.Name, P.Source);
    ASSERT_TRUE(After->ok());
    optimizeModule(*After->TSA, FS);
    TSAVerifier V(*After->TSA);
    ASSERT_TRUE(V.verify())
        << (V.getErrors().empty() ? "" : V.getErrors().front());
    Runtime RTA(*After->Table);
    TSAInterpreter IA(*After->TSA, RTA);
    ExecResult RA = IA.runMain();

    EXPECT_EQ(RA.Err, RB.Err) << runtimeErrorName(RA.Err);
    EXPECT_EQ(RTA.getOutput(), RTB.getOutput());
  }
}

//===----------------------------------------------------------------------===//
// Check elimination (the Figure 6 mechanism)
//===----------------------------------------------------------------------===//

TEST(Opt, RedundantNullChecksEliminated) {
  Opt O = optimize(
      "class C { int a; int b; int c; } class Main { static void main() { "
      "C x = new C(); x.a = 1; x.b = 2; x.c = 3; "
      "IO.printInt(x.a + x.b + x.c); } }");
  EXPECT_GE(O.Stats.CSERemovedNullChecks, 4u);
  unsigned Checks = 0;
  for (const auto &M : O.P->TSA->Methods)
    if (M->Symbol->Name == "main")
      Checks = M->countOpcode(Opcode::NullCheck);
  EXPECT_EQ(Checks, 1u) << "one certificate should serve all six accesses";
}

TEST(Opt, RedundantIndexChecksEliminated) {
  Opt O = optimize(
      "class Main { static void main() { int[] a = new int[4]; int i = 2; "
      "a[i] = 5; IO.printInt(a[i] + a[i]); } }");
  unsigned Checks = 0;
  for (const auto &M : O.P->TSA->Methods)
    Checks += M->countOpcode(Opcode::IndexCheck);
  EXPECT_EQ(Checks, 1u);
  EXPECT_GE(O.Stats.CSERemovedIndexChecks, 2u);
}

TEST(Opt, DifferentIndicesKeepTheirChecks) {
  Opt O = optimize(
      "class Main { static void main() { int[] a = new int[4]; "
      "a[1] = 5; a[2] = 6; IO.printInt(a[1] + a[2]); } }");
  unsigned Checks = 0;
  for (const auto &M : O.P->TSA->Methods)
    Checks += M->countOpcode(Opcode::IndexCheck);
  EXPECT_EQ(Checks, 2u) << "distinct index values need distinct checks";
}

TEST(Opt, ChecksOnDistinctArraysKept) {
  Opt O = optimize(
      "class Main { static void main() { int[] a = new int[2]; "
      "int[] b = new int[2]; a[0] = 1; b[0] = 2; "
      "IO.printInt(a[0] + b[0]); } }");
  unsigned Null = 0;
  for (const auto &M : O.P->TSA->Methods)
    Null += M->countOpcode(Opcode::NullCheck);
  EXPECT_EQ(Null, 2u);
}

TEST(Opt, LiveChecksNeverRemoved) {
  // A single out-of-bounds access: its check must survive optimization.
  auto P = compileMJ("opt.mj",
                     "class Main { static void main() { int[] a = "
                     "new int[1]; int i = 5; IO.printInt(a[i]); } }");
  ASSERT_TRUE(P->ok());
  optimizeModule(*P->TSA);
  EXPECT_EQ(P->TSA->countOpcode(Opcode::IndexCheck), 1u);
  Runtime RT(*P->Table);
  TSAInterpreter I(*P->TSA, RT);
  EXPECT_EQ(I.runMain().Err, RuntimeError::IndexOutOfBounds);
}

//===----------------------------------------------------------------------===//
// DCE
//===----------------------------------------------------------------------===//

TEST(Opt, RemovesUnusedPureValues) {
  Opt O = optimize("class Main { static void main() { int a = 6 & 2; "
                   "int unused = a * a + 3; IO.printInt(1); } }");
  EXPECT_EQ(O.count(Opcode::Primitive), 0u);
  EXPECT_GE(O.Stats.DCERemoved + O.Stats.FoldedConstants, 2u);
}

TEST(Opt, CollapsesTrivialPhis) {
  // `k` is merged but never modified: its header phi is trivial.
  Opt O = optimize(
      "class Main { static void main() { int k = 3; int s = 0; "
      "for (int i = 0; i < 4; i++) { s = s + k; } "
      "IO.printInt(s); } }");
  EXPECT_GE(O.Stats.DCERemovedPhis, 1u);
  // Only s and i still need header phis.
  unsigned Phis = 0;
  for (const auto &M : O.P->TSA->Methods)
    Phis += M->countOpcode(Opcode::Phi);
  EXPECT_EQ(Phis, 2u);
}

TEST(Opt, KeepsSideEffectsAndIO) {
  Opt O = optimize("class C { static int g; } "
                   "class Main { static void main() { C.g = 42; "
                   "IO.printInt(C.g); } }");
  unsigned Stores = 0;
  for (const auto &M : O.P->TSA->Methods)
    Stores += M->countOpcode(Opcode::SetStatic);
  EXPECT_EQ(Stores, 1u);
  EXPECT_EQ(O.OutputAfter, "42");
}

TEST(Opt, UnusedParamAndConstPreloadsRemoved) {
  Opt O = optimize("class Main { static int f(int used, int unused) "
                   "{ return used; } "
                   "static void main() { IO.printInt(f(1, 2)); } }");
  for (const auto &M : O.P->TSA->Methods) {
    if (M->Symbol->Name != "f")
      continue;
    unsigned Params = 0;
    M->forEachInstruction([&](const Instruction &I) {
      if (I.Op == Opcode::Param)
        ++Params;
    });
    EXPECT_EQ(Params, 1u);
  }
}

//===----------------------------------------------------------------------===//
// Forward and commit: a retired value's uses follow its replacement
//===----------------------------------------------------------------------===//

TEST(Opt, ForwardingChainThroughNestedTrivialPhis) {
  // k never changes in either loop. The inner header's phi collapses to
  // the outer header's, which then collapses to a * b, so the use inside
  // the inner loop forwards two hops. CSE later unifies z with that
  // product.
  Opt O = optimize("class Main { static int f(int a, int b, int n) { "
                   "int k = a * b; int s = 0; "
                   "for (int i = 0; i < n; i++) { "
                   "  for (int j = 0; j < n; j++) { s = s + k; } } "
                   "int z = a * b; return s + z + k; } "
                   "static void main() { IO.printInt(f(3, 4, 3)); } }");
  EXPECT_EQ(danglingRefs(*O.P->TSA), 0u);
  EXPECT_GE(O.Stats.DCERemovedPhis, 2u);
  EXPECT_GE(O.Stats.CSERemoved, 1u);
  EXPECT_EQ(countPrim(*O.P->TSA, PrimOp::MulI), 1u);
  EXPECT_EQ(O.OutputAfter, "132");
}

TEST(Opt, RetiredConditionsAndReturnValuesAreRewritten) {
  // The if condition repeats an earlier comparison and the return value
  // an earlier product (CSE retires both); the loop condition is a flag
  // whose header phi is trivial (DCE retires it). Each CST reference
  // must follow its value's replacement.
  Opt O = optimize("class Main { static int f(int a, int b) { "
                   "boolean c = a < b; IO.printBool(c); "
                   "if (a < b) { IO.printInt(a); } "
                   "boolean go = true; int i = 0; "
                   "while (go) { i = i + 1; if (i > 3) break; } "
                   "IO.printInt(a * b + i); return a * b; } "
                   "static void main() { IO.printInt(f(2, 5)); } }");
  EXPECT_EQ(danglingRefs(*O.P->TSA), 0u);
  EXPECT_GE(O.Stats.CSERemoved, 2u);
  EXPECT_EQ(countPrim(*O.P->TSA, PrimOp::CmpLtI), 1u);
  EXPECT_EQ(countPrim(*O.P->TSA, PrimOp::MulI), 1u);
  EXPECT_EQ(O.OutputAfter, "true21410");
}

TEST(Opt, TransportCertificateRetiredByALaterSafePhi) {
  // The loop phi p takes q around the back edge, and the check of q after
  // the if-join certifies that edge. The join's own phi q then retires
  // that very check in favour of its safe phi, so the loop's safe phi must
  // end up reading the join's safe phi.
  Opt O = optimize(
      "class Node { int v; Node next; } "
      "class Main { static int walk(Node head, Node alt, int n) { "
      "Node p = head; IO.printInt(p.v); int s = 0; "
      "for (int i = 0; i < n; i++) { "
      "  s = s + p.v; Node q = null; "
      "  if (i % 2 == 0) { q = p.next; IO.printInt(q.v); } "
      "  else { q = alt; IO.printInt(q.v); } "
      "  s = s + q.v; p = q; } "
      "return s; } "
      "static void main() { "
      "Node a = new Node(); Node b = new Node(); Node c = new Node(); "
      "a.v = 1; b.v = 2; c.v = 3; a.next = b; b.next = c; c.next = a; "
      "IO.printInt(walk(a, c, 5)); } }");
  EXPECT_EQ(danglingRefs(*O.P->TSA), 0u);
  EXPECT_EQ(O.Stats.TransportedChecks, 2u);
  std::vector<const Instruction *> SafePhis;
  for (const auto &M : O.P->TSA->Methods)
    M->forEachInstruction([&](const Instruction &I) {
      if (I.isPhi() && I.DstSafe)
        SafePhis.push_back(&I);
    });
  ASSERT_EQ(SafePhis.size(), 2u);
  // Block order puts the loop header's safe phi first.
  const Instruction *Loop = SafePhis[0], *Join = SafePhis[1];
  EXPECT_NE(std::find(Loop->Operands.begin(), Loop->Operands.end(), Join),
            Loop->Operands.end());
}

TEST(Opt, RaisersInTryBodyStayPinned) {
  // Inside the try body the second a / b repeats the first and 6 / 3 is
  // constant, but removing either would drop its exception edge into
  // the handler: both stay. They may still provide values.
  Opt O = optimize("class Main { static int f(int a, int b) { int r = 0; "
                   "try { int x = a / b; int y = a / b; int k = 6 / 3; "
                   "r = x + y + k; } catch { r = 100; } "
                   "return r; } "
                   "static void main() { IO.printInt(f(9, 3)); "
                   "IO.printInt(f(9, 0)); } }");
  EXPECT_EQ(danglingRefs(*O.P->TSA), 0u);
  EXPECT_EQ(countPrim(*O.P->TSA, PrimOp::DivI), 3u);
  EXPECT_EQ(O.Stats.FoldedConstants, 0u);
  EXPECT_EQ(O.OutputAfter, "8100");
}

//===----------------------------------------------------------------------===//
// Paper tables
//===----------------------------------------------------------------------===//

TEST(Opt, CorpusTotalsBehindFigures5And6) {
  // EXPERIMENTS.md's Figure 5 / Figure 6 / §8 tables quote these totals
  // over the whole corpus; any optimizer change that moves them must
  // update the tables with them.
  unsigned Insts[2] = {}, Phis[2] = {}, Null[2] = {}, Index[2] = {};
  size_t Bytes[2] = {};
  auto Count = [&](TSAModule &Mod, int K) {
    Insts[K] += Mod.countInstructions();
    Phis[K] += Mod.countOpcode(Opcode::Phi);
    Null[K] += Mod.countOpcode(Opcode::NullCheck);
    Index[K] += Mod.countOpcode(Opcode::IndexCheck);
    Bytes[K] += encodeModule(Mod).size();
  };
  for (const CorpusProgram &P : getCorpus()) {
    auto C = compileMJ(P.Name, P.Source);
    ASSERT_TRUE(C->ok()) << P.Name;
    Count(*C->TSA, 0);
    OptStats Stats = optimizeModule(*C->TSA);
    Count(*C->TSA, 1);
    EXPECT_GT(Stats.CSERemoved + Stats.DCERemoved, 0u)
        << "optimizer found nothing on " << P.Name;
  }
  EXPECT_EQ(getCorpus().size(), 14u);
  EXPECT_EQ(Insts[0], 3864u);
  EXPECT_EQ(Insts[1], 2448u);
  EXPECT_EQ(Bytes[0], 14633u);
  EXPECT_EQ(Bytes[1], 10842u);
  EXPECT_EQ(Phis[0], 928u);
  EXPECT_EQ(Phis[1], 247u);
  EXPECT_EQ(Null[0], 811u);
  EXPECT_EQ(Null[1], 318u);
  EXPECT_EQ(Index[0], 234u);
  EXPECT_EQ(Index[1], 182u);
}

TEST(Opt, IdempotentOnSecondRun) {
  const CorpusProgram *Scanner = findCorpusProgram("Scanner");
  ASSERT_NE(Scanner, nullptr);
  Opt O = optimize(Scanner->Source);
  unsigned After1 = O.P->TSA->countInstructions();
  OptStats S2 = optimizeModule(*O.P->TSA);
  EXPECT_EQ(O.P->TSA->countInstructions(), After1);
  EXPECT_EQ(S2.CSERemoved, 0u);
  EXPECT_EQ(S2.DCERemoved, 0u);
}

} // namespace
