//===- tsa/Method.h - SafeTSA methods, blocks, and the CST ----*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic blocks, the Control Structure Tree, and method/module containers.
///
/// Per paper §7, a SafeTSA method body is partitioned into a Control
/// Structure Tree — "the structural part of the UAST" — and per-block
/// instruction lists. The CST deterministically induces the control-flow
/// graph and the dominator tree ("integrate the dominator and control flow
/// information in the same structure"), which is what makes the three-
/// phase externalization and the (l, r) reference scheme possible.
///
/// CST well-formedness invariants (enforced by the generator, rechecked by
/// the verifier):
///  - Every sequence starts with a Basic node.
///  - Every If and Loop node is immediately followed by a Basic node (the
///    join / loop-exit block).
///  - Return / Break / Continue are the last node of their sequence.
///  - An If's condition value is referenced from the end of the Basic
///    block preceding it; a Loop's condition from the end of its header.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_TSA_METHOD_H
#define SAFETSA_TSA_METHOD_H

#include "sema/ClassTable.h"
#include "support/Arena.h"
#include "tsa/Instruction.h"

#include <memory>
#include <utility>

namespace safetsa {

class TSAMethod;

/// A basic block: a straight-line instruction list plus derived CFG and
/// dominator links. Phi instructions, when present, precede all others.
///
/// Blocks and their instructions are allocated from the owning method's
/// arena (see TSAMethod); the pointers here are non-owning.
class BasicBlock {
public:
  unsigned Id = 0; ///< Position in TSAMethod::Blocks (dominator pre-order).
  SmallVector<Instruction *, 8> Insts;

  // Derived by deriveCFG():
  SmallVector<BasicBlock *, 2> Preds; ///< Order defines phi operand order.
  SmallVector<BasicBlock *, 2> Succs;
  BasicBlock *IDom = nullptr;
  unsigned DomDepth = 0;

  // Derived by finalize(): number of values per plane in this block,
  // indexed by the owning method's interned plane id (TSAMethod::Planes).
  // Ragged: a block's vector only extends to the highest id it defines.
  SmallVector<unsigned, 8> PlaneCounts;

  /// Values this block holds on interned plane \p Id (0 when the block
  /// defines nothing on that plane).
  unsigned planeCount(uint32_t Id) const {
    return Id < PlaneCounts.size() ? PlaneCounts[Id] : 0;
  }

  Instruction *append(Instruction *I) {
    I->Parent = this;
    Insts.push_back(I);
    return I;
  }

  /// True when \p A dominates \p B (reflexive).
  static bool dominates(const BasicBlock *A, const BasicBlock *B) {
    while (B) {
      if (A == B)
        return true;
      B = B->IDom;
    }
    return false;
  }
};

/// Control Structure Tree node.
///
/// Loop nodes carry a Header sequence rather than a single header block:
/// the loop's phis live in the first block of the Header, but evaluating
/// the condition may itself require structured control flow (short-circuit
/// operators lower to if-else "in all expression contexts", paper footnote
/// 3). Back edges (latch and continue) target the Header's first block;
/// the condition value must be available in the Header's final block,
/// whose true edge enters the Body and false edge exits the loop.
///
/// Try nodes implement the paper's exception translation (§7): inside a
/// try region, "we split basic blocks into linked subblocks" so that each
/// subblock ends with at most one potentially-raising instruction, and
/// "an implicit control-flow edge is created from each potential point of
/// exception to a special exception-handling phi-node" — the first block
/// of the handler sequence. Basic nodes whose block ends with such an
/// instruction carry RaisesToCatch; this is part of the CST (and of the
/// wire format) so producer and consumer derive identical edges. Try
/// reuses Then for the protected body and Else for the handler.
class CSTNode {
public:
  enum class Kind : uint8_t { Basic, If, Loop, Return, Break, Continue,
                              Try };

  Kind K = Kind::Basic;
  BasicBlock *BB = nullptr;      ///< Basic only: the block.
  Instruction *Cond = nullptr;   ///< If / Loop condition (boolean value).
  Instruction *RetVal = nullptr; ///< Return value; null for void returns.
  /// Basic only: this block ends with a potentially-raising instruction
  /// and has an exception edge to the innermost enclosing handler.
  bool RaisesToCatch = false;

  SmallVector<CSTNode *, 2> Then;   ///< If / Try body.
  SmallVector<CSTNode *, 2> Else;   ///< If else / Try handler.
  SmallVector<CSTNode *, 2> Header; ///< Loop only.
  SmallVector<CSTNode *, 2> Body;   ///< Loop only.
};

using CSTSeq = SmallVector<CSTNode *, 2>;

/// One method in SafeTSA form.
///
/// Owns every IR node (Instruction, BasicBlock, CSTNode) through a bump
/// arena: creation is a pointer bump, teardown is one slab sweep. Passes
/// that unlink nodes just drop the pointers — the memory is reclaimed when
/// the method dies, never individually. All node creation goes through the
/// create* helpers below so nothing outlives its method.
class TSAMethod {
public:
  MethodSymbol *Symbol = nullptr;

  /// All blocks in creation order == CST walk order == dominator-tree
  /// pre-order (paper §7 phase 2 transmits blocks in exactly this order).
  std::vector<BasicBlock *> Blocks;

  /// Top-level statement sequence. Blocks[0] is the entry block, which
  /// holds the preloaded parameters and constants followed by code.
  CSTSeq Root;

  /// Dense plane ids for this method, rebuilt by finalize(). Codec and
  /// counter check index flat per-block count vectors with these ids
  /// instead of walking an ordered map per operand.
  PlaneInterner Planes;

  BasicBlock *getEntry() const {
    assert(!Blocks.empty() && "method has no blocks");
    return Blocks.front();
  }

  BasicBlock *createBlock() {
    BasicBlock *BB = Arena.create<BasicBlock>();
    BB->Id = static_cast<unsigned>(Blocks.size());
    Blocks.push_back(BB);
    return BB;
  }

  /// Creates a detached instruction; append it to a block to link it in.
  /// This is the one place an Instruction::Id is handed out.
  Instruction *createInst(Opcode Op) {
    Instruction *I = Arena.create<Instruction>();
    I->Op = Op;
    I->Id = NumInstIds++;
    return I;
  }

  /// Bound on Instruction::Id in this method: a table indexed by Id
  /// needs this many entries.
  uint32_t numInstIds() const { return NumInstIds; }

  /// Creates a detached CST node (defaults to Basic; callers set K).
  CSTNode *createNode() { return Arena.create<CSTNode>(); }

  CSTNode *createBasicNode(BasicBlock *BB) {
    CSTNode *N = Arena.create<CSTNode>();
    N->K = CSTNode::Kind::Basic;
    N->BB = BB;
    return N;
  }

  /// Recomputes Preds/Succs/IDom/DomDepth from the CST and renumbers
  /// Blocks into CST walk order. Must be called after structural changes.
  void deriveCFG();

  /// Assigns PlaneIndex/PlaneId to every instruction, rebuilds the plane
  /// interner, and fills per-block PlaneCounts. Requires deriveCFG() to
  /// have run. \p Ctx supplies the type context used to compute result
  /// planes.
  void finalize(struct PlaneContext &Ctx);

  /// Invokes \p Fn on every instruction in block order.
  template <typename Fn> void forEachInstruction(Fn &&F) const {
    for (const auto &BB : Blocks)
      for (const auto &I : BB->Insts)
        F(*I);
  }

  /// Number of transmitted instructions, excluding the Const/Param
  /// preloads which the paper treats as constant-pool entries rather than
  /// instructions ("doesn't correspond to any actual code").
  unsigned countInstructions() const;
  unsigned countOpcode(Opcode Op) const;

private:
  /// Backing store for every Instruction, BasicBlock, and CSTNode of this
  /// method; the containers above hold raw pointers into it.
  BumpArena Arena;
  /// The next Instruction::Id createInst hands out.
  uint32_t NumInstIds = 0;
};

/// A compiled SafeTSA module: the unit of mobile-code distribution.
///
/// Owns the SafeTSA form of every method with a body. Type and member
/// symbols are *references* into the ClassTable — the paper's type table,
/// whose builtin part "is always generated implicitly and thereby
/// tamper-proof".
class TSAModule {
public:
  ClassTable *Table = nullptr;
  TypeContext *Types = nullptr;

  std::vector<std::unique_ptr<TSAMethod>> Methods;

  /// Constant initial values of static fields (slot -> constant); fields
  /// without an entry start zero/null.
  std::vector<std::pair<FieldSymbol *, ConstantValue>> StaticInits;

  TSAMethod *findMethod(const MethodSymbol *Symbol) const {
    for (const auto &M : Methods)
      if (M->Symbol == Symbol)
        return M.get();
    return nullptr;
  }

  /// Whole-module instruction count (paper Figure 5 metric).
  unsigned countInstructions() const {
    unsigned N = 0;
    for (const auto &M : Methods)
      N += M->countInstructions();
    return N;
  }

  unsigned countOpcode(Opcode Op) const {
    unsigned N = 0;
    for (const auto &M : Methods)
      N += M->countOpcode(Op);
    return N;
  }
};

} // namespace safetsa

#endif // SAFETSA_TSA_METHOD_H
