//===- tests/verifier_test.cpp - Tamper-rejection tests -------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adversarial in-memory IR: start from a valid module and apply the
/// mutations a malicious producer would love — references that escape the
/// dominance region, operands from the wrong type plane, unchecked memory
/// designators, safety-minting casts, phi arity lies. Every one must be
/// rejected. (The wire format cannot even express most of these; these
/// tests pin down the verifier as an independent line of defense.)
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "opt/Optimizer.h"
#include "tsa/Verifier.h"

#include <gtest/gtest.h>

using namespace safetsa;

namespace {

std::unique_ptr<CompiledProgram> compile(const std::string &Src) {
  auto P = compileMJ("verif.mj", Src);
  EXPECT_TRUE(P->ok()) << P->renderDiagnostics();
  TSAVerifier V(*P->TSA);
  EXPECT_TRUE(V.verify()) << "baseline module must verify";
  return P;
}

TSAMethod *methodNamed(TSAModule &M, const std::string &Name) {
  for (const auto &F : M.Methods)
    if (F->Symbol->Name == Name)
      return F;
  return nullptr;
}

Instruction *findOp(TSAMethod &M, Opcode Op, unsigned Skip = 0) {
  Instruction *Found = nullptr;
  M.forEachInstruction([&](const Instruction &I) {
    if (I.Op == Op && !Found) {
      if (Skip == 0)
        Found = const_cast<Instruction *>(&I);
      else
        --Skip;
    }
  });
  return Found;
}

void expectReject(TSAModule &M, const std::string &Needle) {
  TSAVerifier V(M);
  EXPECT_FALSE(V.verify()) << "tampered module must not verify";
  bool Found = false;
  for (const std::string &E : V.getErrors())
    if (E.find(Needle) != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found) << "wanted error containing '" << Needle << "', got:\n"
                     << (V.getErrors().empty() ? "(none)"
                                               : V.getErrors().front());
}

const char *LoopSrc =
    "class C { int v; "
    "  static int f(int n, C c) { int s = 0; "
    "    for (int i = 0; i < n; i++) { s = s + c.v + i; } "
    "    if (s > 10) s = s - 10; "
    "    return s; } "
    "  static void main() { IO.printInt(f(3, new C())); } }";

//===----------------------------------------------------------------------===//
// Referential integrity
//===----------------------------------------------------------------------===//

TEST(Verifier, UseBeforeDefInSameBlockRejected) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  // Find a block with two same-plane instructions and swap an operand to
  // reference a LATER instruction.
  bool Tampered = false;
  for (auto &BB : F->Blocks) {
    for (size_t I = 0; I + 1 < BB->Insts.size() && !Tampered; ++I) {
      Instruction *Early = BB->Insts[I];
      if (Early->isPhi())
        continue; // Loop-carried phi references are legal SSA.
      for (size_t J = I + 1; J < BB->Insts.size() && !Tampered; ++J) {
        Instruction *Late = BB->Insts[J];
        if (Late->isPhi())
          continue;
        for (Instruction *&Op : Early->Operands)
          if (Op->OpType == Late->OpType && Late->hasResult() &&
              Op->Op == Late->Op) {
            Op = Late;
            Tampered = true;
            break;
          }
      }
    }
  }
  if (!Tampered)
    GTEST_SKIP() << "no suitable instruction pair";
  TSAVerifier V(*P->TSA);
  EXPECT_FALSE(V.verify());
}

TEST(Verifier, CrossBranchReferenceRejected) {
  // A value computed in the then-arm referenced from the else-arm: the
  // exact attack of paper Figure 1/2 ("instruction (13) references
  // instruction (10) while the program takes the path through (11)").
  auto P = compile(
      "class A { static int f(boolean b, int x) { int r = 0; "
      "if (b) { r = x * 3; } else { r = x * 5; } return r; } "
      "static void main() { IO.printInt(f(true, 2)); } }");
  TSAMethod *F = methodNamed(*P->TSA, "f");
  // Blocks are in pre-order: find the two sibling arm blocks (same idom,
  // both with instructions) and make the later one reference the earlier.
  auto HasPhi = [](const BasicBlock &BB) {
    for (const auto &I : BB.Insts)
      if (I->isPhi())
        return true;
    return false;
  };
  BasicBlock *Then = nullptr, *Else = nullptr;
  for (auto &BB : F->Blocks)
    for (auto &BB2 : F->Blocks)
      if (BB->IDom && BB->IDom == BB2->IDom && BB->Id < BB2->Id &&
          !BB->Insts.empty() && !BB2->Insts.empty() && !HasPhi(*BB) &&
          !HasPhi(*BB2) && !BasicBlock::dominates(BB, BB2)) {
        Then = BB;
        Else = BB2;
      }
  ASSERT_NE(Then, nullptr);
  ASSERT_NE(Else, nullptr);
  Instruction *Stolen = nullptr;
  for (auto &I : Then->Insts)
    if (!I->isPhi() && I->hasResult() && I->OpType && I->OpType->isInt())
      Stolen = I;
  ASSERT_NE(Stolen, nullptr);
  bool Tampered = false;
  for (auto &I : Else->Insts)
    for (Instruction *&Op : I->Operands)
      if (!Tampered && !I->isPhi() && Op->OpType && Op->OpType->isInt() &&
          Op->hasResult()) {
        Op = Stolen;
        Tampered = true;
      }
  ASSERT_TRUE(Tampered);
  expectReject(*P->TSA, "referential integrity");
}

TEST(Verifier, PhiOperandMustDominateItsEdge) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *Phi = nullptr;
  F->forEachInstruction([&](const Instruction &I) {
    if (I.isPhi() && I.OpType->isInt() && !Phi)
      Phi = const_cast<Instruction *>(&I);
  });
  ASSERT_NE(Phi, nullptr);
  // Point the phi's first (preheader) operand at an int value defined
  // inside the loop body — valid only along the back edge, not the entry
  // edge.
  Instruction *BodyValue = nullptr;
  F->forEachInstruction([&](const Instruction &I) {
    if (I.Op == Opcode::Primitive && I.Prim == PrimOp::AddI &&
        I.Parent->DomDepth > Phi->Parent->DomDepth && !BodyValue)
      BodyValue = const_cast<Instruction *>(&I);
  });
  if (!BodyValue)
    GTEST_SKIP();
  Phi->Operands[0] = BodyValue;
  TSAVerifier V(*P->TSA);
  EXPECT_FALSE(V.verify());
}

//===----------------------------------------------------------------------===//
// Type separation
//===----------------------------------------------------------------------===//

TEST(Verifier, IntOperandFromBooleanPlaneRejected) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  // An integer add fed a boolean (comparison result).
  Instruction *Add = nullptr, *Bool = nullptr;
  F->forEachInstruction([&](const Instruction &I) {
    if (I.Op == Opcode::Primitive && I.Prim == PrimOp::AddI && !Add)
      Add = const_cast<Instruction *>(&I);
    if (I.Op == Opcode::Primitive && I.Prim == PrimOp::CmpLtI && !Bool)
      Bool = const_cast<Instruction *>(&I);
  });
  ASSERT_NE(Add, nullptr);
  ASSERT_NE(Bool, nullptr);
  Add->Operands[0] = Bool;
  expectReject(*P->TSA, "plane");
}

TEST(Verifier, MemoryOpFromUnsafePlaneRejected) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *GF = findOp(*F, Opcode::GetField);
  ASSERT_NE(GF, nullptr);
  // Replace the safe-ref designator with the raw (unchecked) reference —
  // the nullcheck's own operand.
  Instruction *Check = GF->Operands[0];
  ASSERT_EQ(Check->Op, Opcode::NullCheck);
  GF->Operands[0] = Check->Operands[0];
  expectReject(*P->TSA, "plane");
}

// Two unrelated classes, each with an instance field, a static field in
// one of them, and a method that reads and writes C.v.
const char *FieldSrc =
    "class D { int w; } "
    "class C { int v; static int k; "
    "  static int f(C c) { c.v = c.v + 1; return c.v; } "
    "  static void main() { IO.printInt(f(new C())); } }";

TEST(Verifier, FieldOfUnrelatedClassRejected) {
  // GetField and SetField on a C that name D's field: D is not a
  // superclass of C, so the access would read past C's layout.
  for (Opcode Op : {Opcode::GetField, Opcode::SetField}) {
    auto P = compile(FieldSrc);
    Instruction *I = findOp(*methodNamed(*P->TSA, "f"), Op);
    ASSERT_NE(I, nullptr) << opcodeName(Op);
    I->Field = P->Table->lookup("D")->findField("w");
    expectReject(*P->TSA, std::string(opcodeName(Op)) +
                              ": field does not belong to the accessed class");
  }
}

TEST(Verifier, XcallWithoutReceiverRejected) {
  // A virtual call of a parameterless instance method turned into an
  // xcall with no operands: the callee would run with no receiver.
  auto P = compile("class C { int v; int get() { return v; } "
                   "  static void main() { IO.printInt(new C().get()); } }");
  Instruction *D = findOp(*methodNamed(*P->TSA, "main"), Opcode::Dispatch);
  ASSERT_NE(D, nullptr);
  D->Op = Opcode::Call;
  D->Operands.truncate(0);
  expectReject(*P->TSA, "xcall target must be static or a constructor");
}

TEST(Verifier, InstanceAccessToStaticFieldRejected) {
  // The same accesses naming C's own static field: its Slot is a static
  // slot, not an instance offset.
  for (Opcode Op : {Opcode::GetField, Opcode::SetField}) {
    auto P = compile(FieldSrc);
    Instruction *I = findOp(*methodNamed(*P->TSA, "f"), Op);
    ASSERT_NE(I, nullptr) << opcodeName(Op);
    I->Field = P->Table->lookup("C")->findField("k");
    expectReject(*P->TSA, std::string(opcodeName(Op)) +
                              ": instance field access names a static field");
  }
}

TEST(Verifier, IndexCertificateForWrongArrayRejected) {
  auto P = compile(
      "class A { static int f(int[] a, int[] b, int i) { "
      "int x = a[i]; int y = b[0]; return x + y; } "
      "static void main() { IO.printInt(f(new int[3], new int[3], 1)); } }");
  TSAMethod *F = methodNamed(*P->TSA, "f");
  // Two geltelts with distinct arrays: splice a's certificate into b's
  // access.
  Instruction *G1 = findOp(*F, Opcode::GetElt, 0);
  Instruction *G2 = findOp(*F, Opcode::GetElt, 1);
  ASSERT_NE(G1, nullptr);
  ASSERT_NE(G2, nullptr);
  G2->Operands[1] = G1->Operands[1];
  expectReject(*P->TSA, "plane");
}

TEST(Verifier, PhiMixingPlanesRejected) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *Phi = nullptr;
  F->forEachInstruction([&](const Instruction &I) {
    if (I.isPhi() && I.OpType->isInt() && !Phi)
      Phi = const_cast<Instruction *>(&I);
  });
  ASSERT_NE(Phi, nullptr);
  Instruction *Bool = nullptr;
  F->forEachInstruction([&](const Instruction &I) {
    if (I.Op == Opcode::Primitive && I.Prim == PrimOp::CmpLtI && !Bool)
      Bool = const_cast<Instruction *>(&I);
  });
  if (!Bool || !BasicBlock::dominates(Bool->Parent, Phi->Parent))
    GTEST_SKIP();
  Phi->Operands[1] = Bool;
  expectReject(*P->TSA, "plane");
}

//===----------------------------------------------------------------------===//
// Safety construction
//===----------------------------------------------------------------------===//

TEST(Verifier, DowncastCannotMintSafety) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *NC = findOp(*F, Opcode::NullCheck);
  ASSERT_NE(NC, nullptr);
  // Forge: replace the nullcheck with a downcast claiming ref -> safe-ref.
  NC->Op = Opcode::Downcast;
  NC->AuxType = NC->OpType;
  NC->SrcSafe = false;
  NC->DstSafe = true;
  expectReject(*P->TSA, "cannot introduce safety");
}

TEST(Verifier, DowncastMustWiden) {
  auto P = compile(
      "class B {} class A extends B { "
      "static Object f(A a) { return (Object) a; } "
      "static void main() { IO.printBool(f(new A()) != null); } }");
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *DC = findOp(*F, Opcode::Downcast);
  ASSERT_NE(DC, nullptr);
  // Flip source and target: Object -> A without a dynamic check.
  std::swap(DC->OpType, DC->AuxType);
  // Keep operand plane consistent with the flipped source so the ONLY
  // error is the narrowing itself.
  TSAVerifier V(*P->TSA);
  EXPECT_FALSE(V.verify());
}

TEST(Verifier, PrimitiveDivMustBeXPrimitive) {
  auto P = compile(
      "class A { static int f(int a, int b) { return a / b; } "
      "static void main() { IO.printInt(f(4, 2)); } }");
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *Div = findOp(*F, Opcode::XPrimitive);
  ASSERT_NE(Div, nullptr);
  Div->Op = Opcode::Primitive; // Claim divide cannot raise.
  expectReject(*P->TSA, "wrong primitive/xprimitive");
}

TEST(Verifier, PreloadOutsideEntryRejected) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *Const =
      F->createConst(ConstantValue::makeInt(7), P->Types.getInt());
  // Push into a non-entry block.
  ASSERT_GT(F->Blocks.size(), 1u);
  F->append(F->Blocks[1], Const);
  expectReject(*P->TSA, "outside of the entry block");
}

TEST(Verifier, ConstKindMismatchRejected) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *C = findOp(*F, Opcode::Const);
  ASSERT_NE(C, nullptr);
  C->OpType = P->Types.getDouble(); // Int payload on the double plane.
  expectReject(*P->TSA, "constant kind");
}

// The verifier holds static initializers to their fields' types, as fused
// decode does: a string planted in a class-typed static is rejected both
// in memory and on the two-pass path (structural decode, then verify).
TEST(Verifier, StaticInitTypeMismatchRejected) {
  auto P = compile(
      "class Foo { int a; int b; int c; int d; int e; int f; int g; int h; } "
      "class Main { static Foo p = null; static void main() { Foo q = p; "
      "if (q != null) { q.h = 12345; } } }");
  ASSERT_EQ(P->TSA->StaticInits.size(), 1u);
  P->TSA->StaticInits[0].second = ConstantValue::makeString("x");
  expectReject(*P->TSA, "static initializer");

  DecodeOptions TwoPass;
  TwoPass.FusedVerify = false;
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  std::string Err;
  auto Unit = decodeModule(ByteSpan(Wire), &Err, TwoPass);
  ASSERT_TRUE(Unit) << "structural decode leaves types to the verifier: "
                    << Err;
  expectReject(*Unit->Module, "static initializer");
}

TEST(Verifier, PhiArityLieRejected) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *Phi = findOp(*F, Opcode::Phi);
  ASSERT_NE(Phi, nullptr);
  F->addOperand(Phi, Phi->Operands[0]);
  expectReject(*P->TSA, "predecessor count");
}

TEST(Verifier, WrongOperandCountRejected) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *Add = nullptr;
  F->forEachInstruction([&](const Instruction &I) {
    if (I.Op == Opcode::Primitive && primOpArity(I.Prim) == 2 && !Add)
      Add = const_cast<Instruction *>(&I);
  });
  ASSERT_NE(Add, nullptr);
  Add->Operands.truncate(Add->Operands.size() - 1);
  expectReject(*P->TSA, "operands");
}

TEST(Verifier, NewOfBuiltinRejected) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *New = nullptr;
  // Inject `new Object` equivalent: retype an existing New.
  auto Main = methodNamed(*P->TSA, "main");
  Main->forEachInstruction([&](const Instruction &I) {
    if (I.Op == Opcode::New && !New)
      New = const_cast<Instruction *>(&I);
  });
  ASSERT_NE(New, nullptr);
  New->OpType = P->Types.getClass(P->Table->getObjectClass());
  expectReject(*P->TSA, "user class");
  (void)F;
}

//===----------------------------------------------------------------------===//
// CST structure
//===----------------------------------------------------------------------===//

TEST(Verifier, BreakOutsideLoopRejected) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  CSTNode *Break = F->createNode();
  Break->K = CSTNode::Kind::Break;
  // Insert at top level, where no loop is active (after the first Basic
  // so the sequence still starts correctly).
  F->Root.insert(F->arena(), F->Root.size() - 1, Break);
  expectReject(*P->TSA, "outside of a loop");
}

TEST(Verifier, NonBooleanConditionRejected) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *IntVal = findOp(*F, Opcode::Param);
  ASSERT_NE(IntVal, nullptr);
  std::function<CSTNode *(CSTSeq &)> FindIf =
      [&](CSTSeq &Seq) -> CSTNode * {
    for (auto &N : Seq) {
      if (N->K == CSTNode::Kind::If)
        return N;
      for (auto *Sub : {&N->Then, &N->Else, &N->Header, &N->Body})
        if (CSTNode *R = FindIf(*Sub))
          return R;
    }
    return nullptr;
  };
  CSTNode *If = FindIf(F->Root);
  ASSERT_NE(If, nullptr);
  If->Cond = IntVal;
  expectReject(*P->TSA, "boolean");
}

TEST(Verifier, ReturnValueOnWrongPlaneRejected) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  Instruction *Bool = nullptr;
  F->forEachInstruction([&](const Instruction &I) {
    if (I.Op == Opcode::Primitive && I.Prim == PrimOp::CmpLtI && !Bool)
      Bool = const_cast<Instruction *>(&I);
  });
  ASSERT_NE(Bool, nullptr);
  std::function<CSTNode *(CSTSeq &)> FindRet =
      [&](CSTSeq &Seq) -> CSTNode * {
    for (auto &N : Seq) {
      if (N->K == CSTNode::Kind::Return && N->RetVal)
        return N;
      for (auto *Sub : {&N->Then, &N->Else, &N->Header, &N->Body})
        if (CSTNode *R = FindRet(*Sub))
          return R;
    }
    return nullptr;
  };
  CSTNode *Ret = FindRet(F->Root);
  ASSERT_NE(Ret, nullptr);
  Ret->RetVal = Bool;
  expectReject(*P->TSA, "wrong plane");
}

//===----------------------------------------------------------------------===//
// Counter check agrees with the full verifier on valid modules
//===----------------------------------------------------------------------===//

TEST(Verifier, CounterCheckAcceptsValidModules) {
  auto P = compile(LoopSrc);
  EXPECT_TRUE(counterCheckModule(*P->TSA));
}

// The standalone verifier and the counter check are the fused decoder's
// oracle (DESIGN.md §8): every corpus module the fused decoder accepts,
// plain and optimized, passes both.
TEST(Verifier, OracleAcceptsEveryDecodedCorpusModule) {
  for (const CorpusProgram &Prog : getCorpus())
    for (bool Optimize : {false, true}) {
      auto P = compileMJ(Prog.Name, Prog.Source);
      ASSERT_TRUE(P->ok()) << Prog.Name;
      if (Optimize)
        optimizeModule(*P->TSA);
      std::string Err;
      auto Unit = decodeModule(encodeModule(*P->TSA), &Err);
      ASSERT_TRUE(Unit) << Prog.Name << ": " << Err;
      const char *Form = Optimize ? " (optimized)" : "";
      TSAVerifier V(*Unit->Module);
      EXPECT_TRUE(V.verify())
          << Prog.Name << Form << ": "
          << (V.getErrors().empty() ? "" : V.getErrors().front());
      EXPECT_TRUE(counterCheckModule(*Unit->Module)) << Prog.Name << Form;
    }
}

TEST(Verifier, CounterCheckRejectsForwardReference) {
  auto P = compile(LoopSrc);
  TSAMethod *F = methodNamed(*P->TSA, "f");
  // Make a loop-header phi reference the `s - 10` value computed in the
  // if-arm AFTER the loop — a block that dominates neither back edge.
  Instruction *Phi = nullptr;
  F->forEachInstruction([&](const Instruction &I) {
    if (I.isPhi() && I.OpType->isInt() && !Phi)
      Phi = const_cast<Instruction *>(&I);
  });
  Instruction *Sub = nullptr;
  F->forEachInstruction([&](const Instruction &I) {
    if (I.Op == Opcode::Primitive && I.Prim == PrimOp::SubI && !Sub)
      Sub = const_cast<Instruction *>(&I);
  });
  ASSERT_NE(Phi, nullptr);
  ASSERT_NE(Sub, nullptr);
  ASSERT_FALSE(BasicBlock::dominates(Sub->Parent, Phi->Parent));
  Phi->Operands[0] = Sub;
  bool FullOk = TSAVerifier(*P->TSA).verify();
  bool CounterOk = counterCheckModule(*P->TSA);
  EXPECT_FALSE(FullOk);
  EXPECT_FALSE(CounterOk);
}

} // namespace
