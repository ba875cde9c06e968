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

#include <initializer_list>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace safetsa {

class TSAMethod;

/// A basic block: a straight-line instruction list plus derived CFG and
/// dominator links. Phi instructions, when present, precede all others.
///
/// Blocks, their instruction lists and their edge lists live in the
/// owning module's arena; the pointers here are non-owning.
class BasicBlock {
public:
  unsigned Id = 0; ///< Position in TSAMethod::Blocks (dominator pre-order).
  unsigned DomDepth = 0; ///< Derived by deriveCFG().
  ArenaArray<Instruction *> Insts;

  // Derived by deriveCFG():
  ArenaArray<BasicBlock *> Preds; ///< Order defines phi operand order.
  ArenaArray<BasicBlock *> Succs;
  BasicBlock *IDom = nullptr;

  // Derived by finalize(): number of values per plane in this block,
  // indexed by the owning method's plane id (TSAMethod::Planes). Ragged:
  // a block's array only extends to the highest id it defines.
  ArenaArray<uint32_t> PlaneCounts;

  /// Values this block holds on plane \p Id (0 when the block defines
  /// nothing on that plane).
  unsigned planeCount(uint32_t Id) const {
    return Id < PlaneCounts.size() ? PlaneCounts[Id] : 0;
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

class CSTNode;
using CSTSeq = ArenaArray<CSTNode *>;

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
  /// Basic only: this block ends with a potentially-raising instruction
  /// and has an exception edge to the innermost enclosing handler.
  bool RaisesToCatch = false;
  BasicBlock *BB = nullptr;      ///< Basic only: the block.
  Instruction *Cond = nullptr;   ///< If / Loop condition (boolean value).
  Instruction *RetVal = nullptr; ///< Return value; null for void returns.

  CSTSeq Then;   ///< If / Try body.
  CSTSeq Else;   ///< If else / Try handler.
  CSTSeq Header; ///< Loop only.
  CSTSeq Body;   ///< Loop only.
};

/// Numbers a method's register planes in first-touch order without
/// hashing: base and safe-ref planes by the dense Type::Index, safe-index
/// planes by the anchor's Instruction::Id. finalize() and the decoder
/// both number through it, so producer and consumer hand out the same
/// ids. The tables keep their storage from method to method; begin()
/// clears only the entries the previous method touched (by position, so
/// the previous method's types and instructions may be gone).
class PlaneNumbering {
public:
  void begin() {
    for (auto [Kind, I] : Touched)
      table(Kind)[I] = Instruction::NoPlane;
    Touched.clear();
    Keys.clear();
  }
  /// The id of \p K, or NoPlane when no value of this method is on it.
  uint32_t find(const PlaneKey &K) {
    const std::vector<uint32_t> &T = table(K.K);
    uint32_t I = index(K);
    return I < T.size() ? T[I] : Instruction::NoPlane;
  }
  /// The id of \p K, numbering the plane on first touch.
  uint32_t intern(const PlaneKey &K) {
    std::vector<uint32_t> &T = table(K.K);
    uint32_t I = index(K);
    if (I >= T.size())
      T.resize(std::max<size_t>(I + 1, T.size() * 2), Instruction::NoPlane);
    if (T[I] == Instruction::NoPlane) {
      T[I] = static_cast<uint32_t>(Keys.size());
      Keys.push_back(K);
      Touched.push_back({K.K, I});
    }
    return T[I];
  }
  /// The planes numbered since begin(), by id.
  const std::vector<PlaneKey> &keys() const { return Keys; }
  /// Bytes the tables hold.
  size_t capacityBytes() const {
    return (ByBaseType.capacity() + BySafeRefType.capacity() +
            ByAnchor.capacity()) *
               sizeof(uint32_t) +
           Keys.capacity() * sizeof(PlaneKey) +
           Touched.capacity() * sizeof(Touched[0]);
  }
  /// Sizes the tables for \p NumTypes types and \p NumInsts
  /// instructions, with room to spare so a module's next method seldom
  /// regrows them; only valid between methods.
  void reserve(uint32_t NumTypes, uint32_t NumInsts) {
    for (std::vector<uint32_t> *T : {&ByBaseType, &BySafeRefType})
      if (T->size() < NumTypes)
        T->resize(std::max<size_t>(NumTypes, 2 * T->size()),
                  Instruction::NoPlane);
    if (ByAnchor.size() < NumInsts)
      ByAnchor.resize(std::max<size_t>(2 * NumInsts, 64),
                      Instruction::NoPlane);
    if (Keys.capacity() < 64) {
      Keys.reserve(64);
      Touched.reserve(64);
    }
  }

private:
  static uint32_t index(const PlaneKey &K) {
    return K.K == PlaneKey::Kind::SafeIndex ? K.Anchor->Id : K.Ty->Index;
  }
  std::vector<uint32_t> &table(PlaneKey::Kind K) {
    return K == PlaneKey::Kind::SafeIndex ? ByAnchor
           : K == PlaneKey::Kind::SafeRef ? BySafeRefType
                                          : ByBaseType;
  }

  std::vector<uint32_t> ByBaseType, BySafeRefType; ///< By Type::Index.
  std::vector<uint32_t> ByAnchor;                  ///< By Instruction::Id.
  std::vector<PlaneKey> Keys;
  /// The entries numbered since begin(): (table, index).
  std::vector<std::pair<PlaneKey::Kind, uint32_t>> Touched;
};

/// Scratch storage of deriveCFG(), kept by callers that derive many
/// methods so the derivation allocates nothing once warm.
struct CFGScratch {
  std::vector<BasicBlock *> Order, Pending, Breaks;
  std::vector<std::pair<BasicBlock *, BasicBlock *>> Edges;
  std::vector<uint32_t> NumPreds, NumSuccs; ///< By block Id.

  /// Bytes the lists hold.
  size_t capacityBytes() const {
    return (Order.capacity() + Pending.capacity() + Breaks.capacity()) *
               sizeof(BasicBlock *) +
           Edges.capacity() * sizeof(Edges[0]) +
           (NumPreds.capacity() + NumSuccs.capacity()) * sizeof(uint32_t);
  }
};

/// One method in SafeTSA form: a plain record in its module's arena,
/// like every node it reaches. Creation is a pointer bump and teardown is
/// the module's slab sweep. Passes that unlink nodes just drop the
/// pointers. All node creation goes through the create* helpers below so
/// nothing outlives its module, and all list growth through the arena
/// helpers (append, addOperand) so storage stays in the arena.
class TSAMethod {
public:
  TSAMethod(BumpArena &Arena, MethodSymbol *Symbol)
      : Symbol(Symbol), Arena(&Arena) {}

  MethodSymbol *Symbol = nullptr;

  /// All blocks in creation order == CST walk order == dominator-tree
  /// pre-order (paper §7 phase 2 transmits blocks in exactly this order).
  ArenaArray<BasicBlock *> Blocks;

  /// Top-level statement sequence. Blocks[0] is the entry block, which
  /// holds the preloaded parameters and constants followed by code.
  CSTSeq Root;

  /// This method's register planes by id, rebuilt by finalize(). Codec
  /// and counter check index flat per-block count arrays with these ids.
  ArenaArray<PlaneKey> Planes;

  /// The constant pool: Const instructions name an entry by ConstIdx.
  ArenaArray<ConstantValue> Consts;

  BumpArena &arena() const { return *Arena; }

  BasicBlock *getEntry() const {
    assert(!Blocks.empty() && "method has no blocks");
    return Blocks.front();
  }

  BasicBlock *createBlock() {
    BasicBlock *BB = Arena->create<BasicBlock>();
    BB->Id = static_cast<unsigned>(Blocks.size());
    Blocks.push_back(*Arena, BB);
    return BB;
  }

  /// Creates a detached instruction; append it to a block to link it in.
  /// This is the one place an Instruction::Id is handed out.
  Instruction *createInst(Opcode Op) {
    Instruction *I = Arena->create<Instruction>();
    I->Op = Op;
    I->Id = NumInstIds++;
    return I;
  }

  /// Creates a Const instruction for pool entry \p C (its string, if
  /// any, is copied into the arena).
  Instruction *createConst(const ConstantValue &C, Type *Ty) {
    Instruction *I = createInst(Opcode::Const);
    I->ConstIdx = static_cast<uint32_t>(Consts.size());
    I->OpType = Ty;
    ConstantValue Own = C;
    Own.StrVal = Arena->copyString(C.StrVal);
    Consts.push_back(*Arena, Own);
    return I;
  }

  const ConstantValue &constant(const Instruction &I) const {
    assert(I.Op == Opcode::Const && "not a constant");
    return Consts[I.ConstIdx];
  }

  /// Bound on Instruction::Id in this method: a table indexed by Id
  /// needs this many entries.
  uint32_t numInstIds() const { return NumInstIds; }

  /// Creates a detached CST node (defaults to Basic; callers set K).
  CSTNode *createNode() { return Arena->create<CSTNode>(); }

  CSTNode *createBasicNode(BasicBlock *BB) {
    CSTNode *N = Arena->create<CSTNode>();
    N->K = CSTNode::Kind::Basic;
    N->BB = BB;
    return N;
  }

  /// Appends \p I to \p BB.
  Instruction *append(BasicBlock *BB, Instruction *I) {
    I->Parent = BB;
    BB->Insts.push_back(*Arena, I);
    return I;
  }
  void append(CSTSeq &Seq, CSTNode *N) { Seq.push_back(*Arena, N); }
  void addOperand(Instruction *I, Instruction *Op) {
    I->Operands.push_back(*Arena, Op);
  }
  void setOperands(Instruction *I, std::span<Instruction *const> Ops) {
    I->Operands = Arena->copyArray(Ops.data(), Ops.size());
  }
  void setOperands(Instruction *I, std::initializer_list<Instruction *> Ops) {
    I->Operands = Arena->copyArray(Ops.begin(), Ops.size());
  }

  /// Recomputes Preds/Succs/IDom/DomDepth from the CST and renumbers
  /// Blocks into CST walk order. Must be called after structural changes.
  /// Edge lists are exact-size; a re-derivation reuses their storage.
  void deriveCFG(CFGScratch *Scratch = nullptr);

  /// Assigns PlaneIndex/PlaneId to every instruction, renumbers the
  /// planes, and fills per-block PlaneCounts. Requires deriveCFG() to
  /// have run. \p Ctx supplies the type context used to compute result
  /// planes.
  void finalize(struct PlaneContext &Ctx);

  /// Invokes \p Fn on every instruction in block order.
  template <typename Fn> void forEachInstruction(Fn &&F) const {
    for (const BasicBlock *BB : Blocks)
      for (const Instruction *I : BB->Insts)
        F(*I);
  }

  /// Number of transmitted instructions, excluding the Const/Param
  /// preloads which the paper treats as constant-pool entries rather than
  /// instructions ("doesn't correspond to any actual code").
  unsigned countInstructions() const;
  unsigned countOpcode(Opcode Op) const;

private:
  /// The module arena every node of this method lives in.
  BumpArena *Arena;
  /// The next Instruction::Id createInst hands out.
  uint32_t NumInstIds = 0;
};

static_assert(std::is_trivially_destructible_v<BasicBlock> &&
                  std::is_trivially_destructible_v<CSTNode> &&
                  std::is_trivially_destructible_v<TSAMethod>,
              "IR records live in an arena that runs no destructors");

/// A compiled SafeTSA module: the unit of mobile-code distribution.
///
/// Owns the SafeTSA form of every method with a body, all in one arena.
/// Type and member symbols are *references* into the ClassTable — the
/// paper's type table, whose builtin part "is always generated implicitly
/// and thereby tamper-proof".
class TSAModule {
public:
  TSAModule() = default;
  /// A module whose arena starts with room for about \p ArenaBytes.
  explicit TSAModule(size_t ArenaBytes) : Arena(ArenaBytes) {}

  ClassTable *Table = nullptr;
  TypeContext *Types = nullptr;

  std::vector<TSAMethod *> Methods;

  /// Constant initial values of static fields; fields without an entry
  /// start zero/null. String bytes live in the module's arena.
  std::vector<std::pair<FieldSymbol *, ConstantValue>> StaticInits;

  /// Creates an empty method body for \p Symbol and adds it to Methods.
  TSAMethod *createMethod(MethodSymbol *Symbol) {
    TSAMethod *M = Arena.create<TSAMethod>(Arena, Symbol);
    Methods.push_back(M);
    return M;
  }

  /// Records \p C as \p F's initial value (copying its string).
  void addStaticInit(FieldSymbol *F, ConstantValue C) {
    C.StrVal = Arena.copyString(C.StrVal);
    StaticInits.push_back({F, C});
  }

  BumpArena &arena() { return Arena; }

  TSAMethod *findMethod(const MethodSymbol *Symbol) const {
    for (TSAMethod *M : Methods)
      if (M->Symbol == Symbol)
        return M;
    return nullptr;
  }

  /// Whole-module instruction count (paper Figure 5 metric).
  unsigned countInstructions() const {
    unsigned N = 0;
    for (const TSAMethod *M : Methods)
      N += M->countInstructions();
    return N;
  }

  unsigned countOpcode(Opcode Op) const {
    unsigned N = 0;
    for (const TSAMethod *M : Methods)
      N += M->countOpcode(Op);
    return N;
  }

private:
  BumpArena Arena;
};

} // namespace safetsa

#endif // SAFETSA_TSA_METHOD_H
