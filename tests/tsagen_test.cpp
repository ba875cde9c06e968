//===- tests/tsagen_test.cpp - SafeTSA generation invariants --*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural properties of generated SafeTSA: the paper's well-formedness
/// rules hold by construction for every corpus program (property checks),
/// and small programs produce the expected shapes (unit checks).
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "ssagen/TSAGen.h"
#include "tsa/Signature.h"
#include "tsa/Verifier.h"

#include <gtest/gtest.h>

#include <unordered_map>

using namespace safetsa;

namespace {

std::unique_ptr<CompiledProgram> compile(const std::string &Src) {
  auto P = compileMJ("gen.mj", Src);
  EXPECT_TRUE(P->ok()) << P->renderDiagnostics();
  return P;
}

const TSAMethod *methodNamed(const TSAModule &M, const std::string &Name) {
  for (const auto &F : M.Methods)
    if (F->Symbol->Name == Name)
      return F;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Property checks over the whole corpus
//===----------------------------------------------------------------------===//

class GenProperty : public ::testing::TestWithParam<CorpusProgram> {};

TEST_P(GenProperty, EveryOperandDominatesItsUse) {
  auto P = compile(GetParam().Source);
  for (const auto &M : P->TSA->Methods) {
    std::unordered_map<const Instruction *, unsigned> Ordinal;
    for (const auto &BB : M->Blocks)
      for (unsigned I = 0; I != BB->Insts.size(); ++I)
        Ordinal[BB->Insts[I]] = I;
    for (const auto &BB : M->Blocks) {
      for (const auto &I : BB->Insts) {
        for (size_t K = 0; K != I->Operands.size(); ++K) {
          const Instruction *Op = I->Operands[K];
          ASSERT_NE(Op->Parent, nullptr);
          if (I->isPhi()) {
            ASSERT_LT(K, BB->Preds.size());
            EXPECT_TRUE(BasicBlock::dominates(Op->Parent, BB->Preds[K]));
          } else if (Op->Parent == BB) {
            EXPECT_LT(Ordinal[Op], Ordinal[I])
                << "same-block use before def";
          } else {
            EXPECT_TRUE(BasicBlock::dominates(Op->Parent, BB))
                << "operand block does not dominate use";
          }
        }
      }
    }
  }
}

TEST_P(GenProperty, PreloadsOnlyInEntryAndPhisFirst) {
  auto P = compile(GetParam().Source);
  for (const auto &M : P->TSA->Methods) {
    for (const auto &BB : M->Blocks) {
      bool SeenNonPhi = false;
      for (const auto &I : BB->Insts) {
        if (I->isPreload()) {
          EXPECT_EQ(BB, M->getEntry());
        }
        if (I->isPhi()) {
          EXPECT_FALSE(SeenNonPhi) << "phi after non-phi";
        } else {
          SeenNonPhi = true;
        }
      }
    }
  }
}

TEST_P(GenProperty, PhiArityMatchesPredecessors) {
  auto P = compile(GetParam().Source);
  for (const auto &M : P->TSA->Methods)
    for (const auto &BB : M->Blocks)
      for (const auto &I : BB->Insts)
        if (I->isPhi()) {
          EXPECT_EQ(I->Operands.size(), BB->Preds.size());
        }
}

TEST_P(GenProperty, BlocksAreInDominatorPreOrder) {
  auto P = compile(GetParam().Source);
  for (const auto &M : P->TSA->Methods) {
    for (const auto &BB : M->Blocks) {
      if (BB->IDom) {
        EXPECT_LT(BB->IDom->Id, BB->Id)
            << "immediate dominator must precede the block";
      }
      EXPECT_EQ(BB->DomDepth, BB->IDom ? BB->IDom->DomDepth + 1 : 0u);
    }
    // Entry is first and has no predecessors.
    EXPECT_TRUE(M->getEntry()->Preds.empty());
    EXPECT_EQ(M->getEntry()->Id, 0u);
  }
}

TEST_P(GenProperty, MemoryOpsConsumeOnlySafePlanes) {
  auto P = compile(GetParam().Source);
  PlaneContext Ctx{P->Types, *P->Table};
  for (const auto &M : P->TSA->Methods) {
    M->forEachInstruction([&](const Instruction &I) {
      switch (I.Op) {
      case Opcode::GetField:
      case Opcode::SetField:
      case Opcode::GetElt:
      case Opcode::SetElt:
      case Opcode::ArrayLength: {
        std::optional<PlaneKey> Got = resultPlane(*I.Operands[0], Ctx);
        ASSERT_TRUE(Got.has_value());
        EXPECT_EQ(Got->K, PlaneKey::Kind::SafeRef)
            << "memory operation with an unchecked designator";
        break;
      }
      case Opcode::Dispatch: {
        std::optional<PlaneKey> Got = resultPlane(*I.Operands[0], Ctx);
        ASSERT_TRUE(Got.has_value());
        EXPECT_EQ(Got->K, PlaneKey::Kind::SafeRef);
        break;
      }
      default:
        break;
      }
    });
  }
}

TEST_P(GenProperty, IndexCertificatesAnchorToTheirArray) {
  // GetElt/SetElt index operands must be certificates for exactly the
  // array value being accessed (Appendix A).
  auto P = compile(GetParam().Source);
  for (const auto &M : P->TSA->Methods) {
    M->forEachInstruction([&](const Instruction &I) {
      if (I.Op != Opcode::GetElt && I.Op != Opcode::SetElt)
        return;
      const Instruction *Idx = I.Operands[1];
      ASSERT_EQ(Idx->Op, Opcode::IndexCheck);
      EXPECT_EQ(Idx->Operands[0], I.Operands[0])
          << "index certificate anchored to a different array";
    });
  }
}

TEST_P(GenProperty, ConstantPoolIsDeduplicated) {
  auto P = compile(GetParam().Source);
  for (const auto &M : P->TSA->Methods) {
    const BasicBlock *Entry = M->getEntry();
    for (size_t I = 0; I != Entry->Insts.size(); ++I) {
      if (Entry->Insts[I]->Op != Opcode::Const)
        continue;
      for (size_t J = I + 1; J != Entry->Insts.size(); ++J) {
        if (Entry->Insts[J]->Op != Opcode::Const)
          continue;
        EXPECT_FALSE(Entry->Insts[I]->OpType == Entry->Insts[J]->OpType &&
                     M->constant(*Entry->Insts[I]) ==
                         M->constant(*Entry->Insts[J]))
            << "duplicate constant-pool entry";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GenProperty, ::testing::ValuesIn(getCorpus()),
    [](const ::testing::TestParamInfo<CorpusProgram> &Info) {
      return std::string(Info.param.Name);
    });

//===----------------------------------------------------------------------===//
// Shape checks on small programs
//===----------------------------------------------------------------------===//

TEST(TSAGen, StraightLineHasTwoBlocks) {
  auto P = compile("class A { static int f(int x) { return x + 1; } "
                   "static void main() { IO.printInt(f(1)); } }");
  const TSAMethod *F = methodNamed(*P->TSA, "f");
  ASSERT_NE(F, nullptr);
  // Entry (preloads) + one code block.
  EXPECT_EQ(F->Blocks.size(), 2u);
  EXPECT_EQ(F->countOpcode(Opcode::Phi), 0u);
}

TEST(TSAGen, IfElseProducesJoinPhi) {
  auto P = compile(
      "class A { static int f(boolean b) { int x = 0; "
      "if (b) x = 1; else x = 2; return x; } "
      "static void main() { IO.printInt(f(true)); } }");
  const TSAMethod *F = methodNamed(*P->TSA, "f");
  // Blocks: entry, code, then, else, join.
  EXPECT_EQ(F->Blocks.size(), 5u);
  // Eager single-pass construction: one phi merging x, plus a trivial one
  // for the unmodified b (removed later by DCE, as in the paper).
  EXPECT_EQ(F->countOpcode(Opcode::Phi), 2u);
}

TEST(TSAGen, WhileLoopHeaderHoldsPhis) {
  auto P = compile(
      "class A { static int f(int n) { int s = 0; int i = 0; "
      "while (i < n) { s = s + i; i = i + 1; } return s; } "
      "static void main() { IO.printInt(f(3)); } }");
  const TSAMethod *F = methodNamed(*P->TSA, "f");
  ASSERT_NE(F, nullptr);
  // Eager construction: phis for n, s, i in the loop header.
  unsigned Phis = F->countOpcode(Opcode::Phi);
  EXPECT_GE(Phis, 3u);
  // The loop CST node's header sequence starts with the phi block.
  const CSTNode *Loop = nullptr;
  for (const auto &N : F->Root)
    if (N->K == CSTNode::Kind::Loop)
      Loop = N;
  ASSERT_NE(Loop, nullptr);
  ASSERT_FALSE(Loop->Header.empty());
  const BasicBlock *Header = Loop->Header.front()->BB;
  unsigned HeaderPhis = 0;
  for (const auto &I : Header->Insts)
    if (I->isPhi())
      ++HeaderPhis;
  EXPECT_EQ(HeaderPhis, Phis);
  // Header has a back edge: at least two predecessors.
  EXPECT_GE(Header->Preds.size(), 2u);
}

TEST(TSAGen, FieldReadEmitsNullCheckThenGetField) {
  auto P = compile("class C { int v; static int f(C c) { return c.v; } "
                   "static void main() { IO.printInt(f(new C())); } }");
  const TSAMethod *F = methodNamed(*P->TSA, "f");
  EXPECT_EQ(F->countOpcode(Opcode::NullCheck), 1u);
  EXPECT_EQ(F->countOpcode(Opcode::GetField), 1u);
}

TEST(TSAGen, ArrayReadEmitsBothChecks) {
  auto P = compile(
      "class A { static int f(int[] a) { return a[2]; } "
      "static void main() { IO.printInt(f(new int[3])); } }");
  const TSAMethod *F = methodNamed(*P->TSA, "f");
  EXPECT_EQ(F->countOpcode(Opcode::NullCheck), 1u);
  EXPECT_EQ(F->countOpcode(Opcode::IndexCheck), 1u);
  EXPECT_EQ(F->countOpcode(Opcode::GetElt), 1u);
}

TEST(TSAGen, DivisionIsXPrimitive) {
  auto P = compile(
      "class A { static int f(int a, int b) { return a / b + a * b; } "
      "static void main() { IO.printInt(f(6, 3)); } }");
  const TSAMethod *F = methodNamed(*P->TSA, "f");
  EXPECT_EQ(F->countOpcode(Opcode::XPrimitive), 1u);
  // mul and add are plain primitives.
  EXPECT_EQ(F->countOpcode(Opcode::Primitive), 2u);
}

TEST(TSAGen, UnreachableCodeIsDropped) {
  auto P = compile("class A { static int f() { return 1; } "
                   "static void main() { IO.printInt(f()); } }");
  // No crash and a verifiable module is the main assertion here.
  TSAVerifier V(*P->TSA);
  EXPECT_TRUE(V.verify());
}

TEST(TSAGen, PrunedModeCreatesFewerPhis) {
  const char *Src =
      "class A { static int f(int n) { int a = 1; int b = 2; int s = 0; "
      "for (int i = 0; i < n; i++) { s = s + a + b; } return s; } "
      "static void main() { IO.printInt(f(2)); } }";
  auto Eager = compileMJ("gen.mj", Src);
  ASSERT_TRUE(Eager->ok());

  auto Base = compileMJ("gen.mj", Src, /*EmitTSA=*/false);
  TSAGenOptions G;
  G.EagerPhis = false;
  TSAGenerator Gen(Base->Types, *Base->Table, G);
  auto Pruned = Gen.generate(Base->AST);

  EXPECT_GT(Eager->TSA->countOpcode(Opcode::Phi),
            Pruned->countOpcode(Opcode::Phi));
  TSAVerifier V1(*Eager->TSA);
  EXPECT_TRUE(V1.verify());
  TSAVerifier V2(*Pruned);
  EXPECT_TRUE(V2.verify());
}

TEST(TSAGen, DispatchReceiverIsErasedToOwnerPlane) {
  auto P = compile(
      "class A { int f() { return 1; } } class B extends A {} "
      "class Main { static void main() { B b = new B(); "
      "IO.printInt(b.f()); } }");
  const TSAMethod *M = methodNamed(*P->TSA, "main");
  bool FoundDispatch = false;
  PlaneContext Ctx{P->Types, *P->Table};
  M->forEachInstruction([&](const Instruction &I) {
    if (I.Op != Opcode::Dispatch)
      return;
    FoundDispatch = true;
    // Receiver plane is safe-A (the method owner), reached via a free
    // safety-preserving downcast from safe-B.
    std::optional<PlaneKey> Plane = resultPlane(*I.Operands[0], Ctx);
    ASSERT_TRUE(Plane.has_value());
    EXPECT_EQ(Plane->K, PlaneKey::Kind::SafeRef);
    EXPECT_EQ(Plane->Ty->getClassSymbol()->Name, "A");
  });
  EXPECT_TRUE(FoundDispatch);
}

} // namespace
