//===- tests/transport_test.cpp - Safe-phi check transport ----*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper §4 mechanism: null-check certificates travelling across
/// phi-joins on the safe-ref plane. These cases are invisible to plain
/// dominance-scoped CSE — the certificate exists on *every* path but in
/// *different* instructions — so removal requires a phi of certificates.
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "driver/Compiler.h"
#include "exec/TSAInterp.h"
#include "opt/Optimizer.h"
#include "testgen/DifferentialRunner.h"
#include "tsa/Verifier.h"

#include <gtest/gtest.h>

using namespace safetsa;
using testgen::agreedOutcome;
using testgen::Outcome;

namespace {

struct Result {
  std::unique_ptr<CompiledProgram> P;
  OptStats Stats;
  std::string Output;
  unsigned SafePhis = 0;
  unsigned NullChecks = 0;
};

Result optimize(const std::string &Src, bool Transport = true) {
  Result R;
  R.P = compileMJ("transport.mj", Src);
  EXPECT_TRUE(R.P->ok()) << R.P->renderDiagnostics();
  OptOptions O;
  O.CheckTransport = Transport;
  R.Stats = optimizeModule(*R.P->TSA, O);
  TSAVerifier V(*R.P->TSA);
  EXPECT_TRUE(V.verify())
      << (V.getErrors().empty() ? "" : V.getErrors().front());
  Runtime RT(*R.P->Table);
  TSAInterpreter I(*R.P->TSA, RT);
  ExecResult E = I.runMain();
  EXPECT_EQ(E.Err, RuntimeError::None) << runtimeErrorName(E.Err);
  R.Output = RT.getOutput();
  for (const auto &M : R.P->TSA->Methods)
    M->forEachInstruction([&](const Instruction &I) {
      if (I.isPhi() && I.DstSafe)
        ++R.SafePhis;
      if (I.Op == Opcode::NullCheck)
        ++R.NullChecks;
    });
  return R;
}

// Both arms check x (through different instructions); the post-join
// access must not recheck.
const char *DiamondSrc =
    "class C { int v; } "
    "class Main { static int f(C a, C b, boolean c) { "
    "C x = null; "
    "if (c) { x = a; IO.printInt(x.v); } "
    "else { x = b; IO.printInt(x.v); } "
    "return x.v; } "
    "static void main() { IO.printInt(f(new C(), new C(), true)); } }";

TEST(CheckTransport, DiamondRecheckRemoved) {
  Result With = optimize(DiamondSrc, true);
  Result Without = optimize(DiamondSrc, false);
  EXPECT_GE(With.Stats.TransportedChecks, 1u);
  EXPECT_EQ(With.SafePhis, 1u);
  EXPECT_LT(With.NullChecks, Without.NullChecks);
  EXPECT_EQ(With.Output, Without.Output);
  EXPECT_EQ(With.Output, "00"); // One arm's print + main's print.
  EXPECT_EQ(agreedOutcome(DiamondSrc), (Outcome{RuntimeError::None, "00"}));
}

TEST(CheckTransport, NotAppliedWhenOnePathUnchecked) {
  // The else-arm never dereferences b: no certificate on that path, so
  // the post-join check must stay.
  const char *Src =
      "class C { int v; } "
      "class Main { static int f(C a, C b, boolean c) { "
      "C x = null; "
      "if (c) { x = a; IO.printInt(x.v); } else { x = b; } "
      "return x.v; } "
      "static void main() { IO.printInt(f(new C(), new C(), false)); } }";
  Result R = optimize(Src);
  EXPECT_EQ(R.Stats.TransportedChecks, 0u);
  EXPECT_EQ(R.SafePhis, 0u);
  EXPECT_EQ(agreedOutcome(Src), (Outcome{RuntimeError::None, "0"}));
}

TEST(CheckTransport, NullOnOnePathStillTraps) {
  // b arrives null through the unchecked arm; the retained check must
  // still fire, on every configuration. (With transport, this join is
  // not coverable.)
  EXPECT_EQ(
      agreedOutcome(
          "class C { int v; } "
          "class Main { static int f(C a, C b, boolean c) { "
          "C x = null; "
          "if (c) { x = a; IO.printInt(x.v); } else { x = b; } "
          "return x.v; } "
          "static void main() { IO.printInt(f(new C(), null, false)); } }"),
      (Outcome{RuntimeError::NullPointer, ""}));
}

TEST(CheckTransport, LoopCarriedCertificate) {
  // p is checked before the loop and re-assigned to a checked value in
  // the body: the in-loop check of the phi rides the safe phi, including
  // around the back edge.
  const char *Src = "class Node { int v; Node next; } "
                    "class Main { static int sum(Node head, int n) { "
                    "Node p = head; "
                    "IO.printInt(p.v); " // certificate for the entry edge
                    "int s = 0; "
                    "for (int i = 0; i < n; i++) { "
                    "  s = s + p.v; "    // recheck of the loop phi
                    "  Node q = p.next; "
                    "  if (q == null) break; "
                    "  IO.printInt(q.v); " // certificate for the back edge
                    "  p = q; "
                    "} return s; } "
                    "static void main() { "
                    "Node a = new Node(); Node b = new Node(); "
                    "a.v = 1; b.v = 2; a.next = b; "
                    "IO.printInt(sum(a, 5)); } }";
  Result With = optimize(Src, true);
  Result Without = optimize(Src, false);
  EXPECT_EQ(With.Output, Without.Output);
  EXPECT_GE(With.Stats.TransportedChecks, 1u);
  EXPECT_LE(With.NullChecks, Without.NullChecks);
  EXPECT_EQ(agreedOutcome(Src), (Outcome{RuntimeError::None, "123"}));
}

TEST(CheckTransport, SafePhiIsAGcRoot) {
  // From the second iteration on, the old p lives only in the safe phi:
  // q's slots already hold the next node when make() is entered. A
  // prepared frame must report the phi's slot as a root, or the stressed
  // collection at make()'s entry safepoint frees p and make's allocation
  // reuses its cell.
  const char *Src = "class Node { int v; } "
                    "class Main { static Node make(int v) { "
                    "Node n = new Node(); n.v = v; return n; } "
                    "static int run(Node head, int n) { "
                    "Node p = head; "
                    "IO.printInt(p.v); " // certificate for the entry edge
                    "int s = 0; "
                    "for (int i = 0; i < n; i++) { "
                    "  s = s + p.v; "    // recheck of the loop phi
                    "  Node q = new Node(); "
                    "  q.v = i + 10; "   // certificate for the back edge
                    "  Node junk = make(99); "
                    "  s = s + p.v; "
                    "  p = q; "
                    "} return s; } "
                    "static void main() { Node h = new Node(); h.v = 1; "
                    "IO.printInt(run(h, 5)); } }";
  Result R = optimize(Src);
  EXPECT_GE(R.Stats.TransportedChecks, 1u);
  EXPECT_GE(R.SafePhis, 1u);
  EXPECT_EQ(agreedOutcome(Src), (Outcome{RuntimeError::None, "194"}));
}

TEST(CheckTransport, SurvivesCodecRoundTrip) {
  // Safe-ref phis are first-class wire citizens: encode, decode into a
  // fresh table, verify, run.
  Result R = optimize(DiamondSrc, true);
  ASSERT_EQ(R.SafePhis, 1u);
  std::string Err;
  auto Unit = decodeModule(encodeModule(*R.P->TSA), &Err);
  ASSERT_TRUE(Unit) << Err;
  TSAVerifier V(*Unit->Module);
  EXPECT_TRUE(V.verify());
  unsigned SafePhis = 0;
  for (const auto &M : Unit->Module->Methods)
    M->forEachInstruction([&](const Instruction &I) {
      if (I.isPhi() && I.DstSafe)
        ++SafePhis;
    });
  EXPECT_EQ(SafePhis, 1u);
  EXPECT_EQ(testgen::runTreeWalk(*Unit->Module, *Unit->Table),
            (Outcome{RuntimeError::None, "00"}));
}

TEST(CheckTransport, ForgedSafePhiRejected) {
  // A safe phi whose operand is an UNCHECKED value must not verify:
  // safety cannot be minted at a join.
  Result R = optimize(DiamondSrc, true);
  ASSERT_EQ(R.SafePhis, 1u);
  Instruction *SafePhi = nullptr;
  Instruction *RawValue = nullptr;
  for (const auto &M : R.P->TSA->Methods)
    M->forEachInstruction([&](const Instruction &I) {
      if (I.isPhi() && I.DstSafe && !SafePhi)
        SafePhi = const_cast<Instruction *>(&I);
      if (I.Op == Opcode::Param && I.OpType && I.OpType->isClass() &&
          !RawValue)
        RawValue = const_cast<Instruction *>(&I);
    });
  ASSERT_NE(SafePhi, nullptr);
  ASSERT_NE(RawValue, nullptr);
  SafePhi->Operands[0] = RawValue; // ref plane into a safe-ref phi.
  TSAVerifier V(*R.P->TSA);
  EXPECT_FALSE(V.verify());
}

} // namespace
