//===- opt/Optimizer.cpp --------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The passes run on dense value numbers and retire values by forwarding:
/// see DESIGN.md §7, "Producer optimizer".
///
//===----------------------------------------------------------------------===//

#include "opt/Optimizer.h"

#include "tsa/ConstFold.h"

#include <algorithm>
#include <span>

using namespace safetsa;

namespace {

//===----------------------------------------------------------------------===//
// Dominator-scoped value table
//===----------------------------------------------------------------------===//

/// Value-number key of a unifiable instruction.
struct CSEKey {
  uint8_t Op = 0;
  uint8_t Prim = 0;
  uint8_t Flags = 0;
  const void *Sym = nullptr; // Type / field / nothing.
  const Instruction *A = nullptr;
  const Instruction *B = nullptr;
  uint64_t Mem = 0;

  bool operator==(const CSEKey &) const = default;
  size_t hash() const {
    uint64_t H = Op | uint64_t(Prim) << 8 | uint64_t(Flags) << 16;
    for (uint64_t V : {uint64_t(reinterpret_cast<uintptr_t>(Sym)),
                       uint64_t(reinterpret_cast<uintptr_t>(A)),
                       uint64_t(reinterpret_cast<uintptr_t>(B)), Mem}) {
      H = (H ^ V) * 0x9e3779b97f4a7c15ull;
      H ^= H >> 29;
    }
    return static_cast<size_t>(H);
  }
};

/// The values available at a point of the dominator-tree walk: a linear-
/// probing hash table plus an undo stack of the slots filled. Scopes nest
/// with the walk, so entries leave in the reverse order they came, and
/// emptying the newest slot is an exact delete: no live key was probed
/// past it, since it was empty when every older key went in.
class ScopedValueTable {
public:
  /// Makes room for \p MaxEntries live entries. The table is empty
  /// between walks, since a walk pops every scope it opens.
  void reserve(size_t MaxEntries) {
    size_t Cap = 16;
    while (Cap < 2 * MaxEntries)
      Cap <<= 1;
    if (Slots.size() < Cap)
      Slots.assign(Cap, Slot());
  }
  /// The value available under \p Key; when there is none, makes \p Val
  /// that value in the current scope and returns null.
  Instruction *findOrInsert(const CSEKey &Key, Instruction *Val) {
    size_t Mask = Slots.size() - 1;
    size_t I = Key.hash() & Mask;
    for (; Slots[I].Val; I = (I + 1) & Mask)
      if (Slots[I].Key == Key)
        return Slots[I].Val;
    Slots[I] = {Key, Val};
    Undo.push_back(static_cast<uint32_t>(I));
    return nullptr;
  }
  size_t mark() const { return Undo.size(); }
  void popTo(size_t Mark) {
    for (; Undo.size() > Mark; Undo.pop_back())
      Slots[Undo.back()].Val = nullptr;
  }

private:
  struct Slot {
    CSEKey Key;
    Instruction *Val = nullptr; ///< Null = empty.
  };
  std::vector<Slot> Slots; ///< Power-of-two size, at most half full.
  std::vector<uint32_t> Undo;
};

/// Runs the pipeline on one method at a time; a module reuses one object
/// so its tables keep their storage. Tables indexed by Instruction::Id
/// are sized to TSAMethod::numInstIds() when a pass begins and grow with
/// the instructions it creates. Tables indexed by BasicBlock::Id stay
/// valid because the CFG is derived once up front and no pass changes
/// block structure.
class MethodOptimizer {
public:
  OptStats run(TSAMethod &Method, PlaneContext &Context,
               const OptOptions &Options) {
    OptStats Stats;
    M = &Method;
    Ctx = &Context;
    // CSE and the fold/DCE bookkeeping rely on fresh dominator info.
    M->deriveCFG(&Ctx->CFG);
    InTry.assign(M->Blocks.size(), 0);
    ValueRefs.clear();
    scanCST(M->Root, false);
    if (Options.ConstantPropagation)
      runConstantPropagation(Stats);
    // Collapse the construction's superfluous phis first: values hidden
    // behind trivial phis would otherwise defeat CSE's value matching.
    if (Options.DCE)
      runDCE(Stats);
    if (Options.CSE && !M->Blocks.empty())
      runCSE(Options.FieldSensitiveMem, Stats);
    if (Options.CheckTransport)
      runCheckTransport(Stats);
    if (Options.DCE)
      runDCE(Stats);
    M->deriveCFG(&Ctx->CFG);
    M->finalize(*Ctx);
    return Stats;
  }

private:
  //===--------------------------------------------------------------------===//
  // Forward and commit
  //===--------------------------------------------------------------------===//

  void beginPass() {
    Fwd.assign(M->numInstIds(), nullptr);
    Dead.assign(M->numInstIds(), 0);
    NumDead = 0;
  }

  /// Creates an instruction the current pass's tables cover.
  Instruction *create(Opcode Op) {
    Instruction *I = M->createInst(Op);
    Fwd.resize(M->numInstIds(), nullptr);
    Dead.resize(M->numInstIds(), 0);
    return I;
  }

  /// Unlinks \p Old at commit(), where every use of it turns into a use
  /// of \p New (a value retired without a replacement must have none).
  void retire(Instruction *Old, Instruction *New = nullptr) {
    assert(Old != New && "self replacement");
    Fwd[Old->Id] = New;
    Dead[Old->Id] = 1;
    ++NumDead;
  }

  /// The value \p V stands for once the pass's forwards apply. Compresses
  /// the path, so later lookups through a chain take one hop.
  Instruction *resolve(Instruction *V) {
    if (!V || !Fwd[V->Id])
      return V;
    return Fwd[V->Id] = resolve(Fwd[V->Id]);
  }

  /// Applies the pass's forwards to every surviving operand and CST value
  /// reference, and unlinks the retired instructions (the arena reclaims
  /// them with the method).
  void commit() {
    if (!NumDead)
      return;
    for (BasicBlock *BB : M->Blocks) {
      size_t Out = 0;
      for (Instruction *I : BB->Insts) {
        if (Dead[I->Id])
          continue;
        for (Instruction *&Op : I->Operands)
          Op = resolve(Op);
        BB->Insts[Out++] = I;
      }
      BB->Insts.truncate(Out);
    }
    for (CSTNode *Node : ValueRefs) {
      Node->Cond = resolve(Node->Cond);
      Node->RetVal = resolve(Node->RetVal);
    }
  }

  /// One CST walk per method: marks the blocks of try bodies and collects
  /// the nodes that reference values. Removing a raising instruction inside
  /// a try body would delete its exception edge and desynchronize the
  /// handler's phis, so the passes leave such instructions in place (their
  /// *uses* may still be replaced). Handlers and code outside try regions
  /// are unrestricted.
  void scanCST(const CSTSeq &Seq, bool InTryBody) {
    for (CSTNode *Node : Seq) {
      if (Node->Cond || Node->RetVal)
        ValueRefs.push_back(Node);
      switch (Node->K) {
      case CSTNode::Kind::Basic:
        InTry[Node->BB->Id] = InTryBody;
        break;
      case CSTNode::Kind::Try:
        scanCST(Node->Then, true);
        scanCST(Node->Else, InTryBody);
        break;
      default:
        scanCST(Node->Then, InTryBody);
        scanCST(Node->Else, InTryBody);
        scanCST(Node->Header, InTryBody);
        scanCST(Node->Body, InTryBody);
        break;
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Constant propagation / folding
  //===--------------------------------------------------------------------===//

  /// The entry block's first constant equal to \p C of type \p Ty, or a
  /// new one appended to it.
  Instruction *findOrCreateConst(const ConstantValue &C, Type *Ty) {
    BasicBlock *Entry = M->getEntry();
    for (Instruction *I : Entry->Insts)
      if (I->Op == Opcode::Const && I->OpType == Ty && M->constant(*I) == C)
        return I;
    Instruction *I = M->createConst(C, Ty);
    Fwd.resize(M->numInstIds(), nullptr);
    Dead.resize(M->numInstIds(), 0);
    return M->append(Entry, I);
  }

  void runConstantPropagation(OptStats &Stats) {
    beginPass();
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BasicBlock *BB : M->Blocks) {
        // By index: folding may append constants to the entry block.
        for (size_t K = 0; K != BB->Insts.size(); ++K) {
          Instruction *I = BB->Insts[K];
          if (Dead[I->Id] ||
              (I->Op != Opcode::Primitive && I->Op != Opcode::XPrimitive))
            continue;
          if ((I->mayRaise() && InTry[BB->Id]) || I->Operands.empty())
            continue; // Keep the exception edge intact.
          if (!std::all_of(I->Operands.begin(), I->Operands.end(),
                           [&](Instruction *Op) {
                             return resolve(Op)->Op == Opcode::Const;
                           }))
            continue;
          ConstantValue Out;
          const ConstantValue *B =
              I->Operands.size() > 1 ? &M->constant(*resolve(I->Operands[1]))
                                     : nullptr;
          if (!foldPrim(I->Prim, M->constant(*resolve(I->Operands[0])), B,
                        Out))
            continue;
          retire(I, findOrCreateConst(Out, primOpResultType(I->Prim, *Ctx)));
          ++Stats.FoldedConstants;
          Changed = true;
        }
      }
    }
    commit();
  }

  //===--------------------------------------------------------------------===//
  // Memory-state analysis (the paper's Mem variable)
  //===--------------------------------------------------------------------===//

  /// Keys partitioning memory when field-sensitive: a FieldSymbol, or this
  /// marker for "all array elements".
  static const void *arraysKey() {
    static const char Marker = 0;
    return &Marker;
  }

  struct MemVersion {
    const void *Key;
    uint64_t Version;
    bool operator==(const MemVersion &) const = default;
  };
  /// A memory state: an epoch plus the partitions stored to since it
  /// began, sorted by key. A block's exit state keeps its versions in
  /// StatePool[First, First + Count), so states cost no allocation each.
  struct MemState {
    uint64_t Epoch = 0;
    uint32_t First = 0, Count = 0;
  };

  std::span<const MemVersion> versions(const MemState &S) const {
    return std::span(StatePool).subspan(S.First, S.Count);
  }
  bool sameState(const MemState &A, const MemState &B) const {
    return A.Epoch == B.Epoch && std::ranges::equal(versions(A), versions(B));
  }

  /// The current version of partition \p Key, bumped first by a store.
  uint64_t version(const void *Key, bool Store) {
    auto V = std::lower_bound(CurVersions.begin(), CurVersions.end(), Key,
                              [](const MemVersion &X, const void *K) {
                                return std::less<const void *>()(X.Key, K);
                              });
    if (V == CurVersions.end() || V->Key != Key) {
      if (!Store)
        return 0;
      V = CurVersions.insert(V, {Key, 0});
    }
    return Store ? ++V->Version : V->Version;
  }

  /// Assigns each load a memory-state id such that two loads with equal
  /// (key, id) observe the same memory. Joins and unprocessed predecessors
  /// (loop back edges) conservatively start a fresh state, mirroring the
  /// paper's "if the current value of Mem is different on two incoming
  /// edges … a phi node must be inserted" without materializing Mem phis.
  void computeLoadStates(bool FieldSensitive) {
    LoadState.assign(M->numInstIds(), 0);
    BlockOut.resize(M->Blocks.size());
    StatePool.clear();
    uint64_t NextEpoch = 1;
    for (BasicBlock *BB : M->Blocks) {
      // Blocks go in Id order, so a predecessor is done iff its Id is less.
      bool AllSame = !BB->Preds.empty();
      for (size_t K = 0; K != BB->Preds.size() && AllSame; ++K)
        AllSame = BB->Preds[K]->Id < BB->Id &&
                  sameState(BlockOut[BB->Preds[K]->Id],
                            BlockOut[BB->Preds[0]->Id]);
      if (AllSame) {
        const MemState &In = BlockOut[BB->Preds[0]->Id];
        CurEpoch = In.Epoch;
        std::span<const MemVersion> V = versions(In);
        CurVersions.assign(V.begin(), V.end());
      } else {
        CurEpoch = NextEpoch++;
        CurVersions.clear();
      }
      const void *Arrays = FieldSensitive ? arraysKey() : nullptr;
      for (const Instruction *I : BB->Insts) {
        switch (I->Op) {
        case Opcode::GetField:
        case Opcode::GetStatic:
          LoadState[I->Id] =
              (CurEpoch << 20) |
              version(FieldSensitive ? I->Field : nullptr, false);
          break;
        case Opcode::GetElt:
          LoadState[I->Id] = (CurEpoch << 20) | version(Arrays, false);
          break;
        case Opcode::SetField:
        case Opcode::SetStatic:
          version(FieldSensitive ? I->Field : nullptr, true);
          break;
        case Opcode::SetElt:
          version(Arrays, true);
          break;
        case Opcode::Call:
        case Opcode::Dispatch:
          // No interprocedural information: calls clobber all memory
          // ("each function call return[s] an updated value of Mem").
          CurEpoch = NextEpoch++;
          CurVersions.clear();
          break;
        default:
          break;
        }
      }
      BlockOut[BB->Id] = {CurEpoch, static_cast<uint32_t>(StatePool.size()),
                          static_cast<uint32_t>(CurVersions.size())};
      StatePool.insert(StatePool.end(), CurVersions.begin(),
                       CurVersions.end());
    }
  }

  //===--------------------------------------------------------------------===//
  // Dominator-scoped CSE
  //===--------------------------------------------------------------------===//

  /// Builds the value-number key for \p I; returns false for instructions
  /// that must not be unified (stores, calls, allocations, phis, preloads
  /// — the constant pool already unifies Consts).
  bool keyFor(const Instruction &I, CSEKey &Key) {
    Key.Op = static_cast<uint8_t>(I.Op);
    switch (I.Op) {
    case Opcode::Primitive:
    case Opcode::XPrimitive:
      // Integer divide / remainder raise on identical operands
      // identically, so unifying them is sound.
      Key.Prim = static_cast<uint8_t>(I.Prim);
      Key.Sym = I.AuxType; // InstanceOf target.
      Key.A = resolve(I.Operands[0]);
      Key.B = I.Operands.size() > 1 ? resolve(I.Operands[1]) : nullptr;
      return true;
    case Opcode::NullCheck:
      // Null-ness of an SSA value never changes: a dominating check
      // certifies all later uses (Figure 6's null-check column).
      Key.Sym = I.OpType;
      Key.A = resolve(I.Operands[0]);
      return true;
    case Opcode::IndexCheck:
      // Arrays cannot be resized, so (array value, index value) is enough
      // (Appendix A; Figure 6's array-check column).
      Key.Sym = I.OpType;
      Key.A = resolve(I.Operands[0]);
      Key.B = resolve(I.Operands[1]);
      return true;
    case Opcode::Upcast:
    case Opcode::Downcast:
      Key.Sym = I.OpType;
      Key.Flags = static_cast<uint8_t>((I.SrcSafe ? 1 : 0) |
                                       (I.DstSafe ? 2 : 0));
      Key.A = resolve(I.Operands[0]);
      Key.B = reinterpret_cast<const Instruction *>(I.AuxType);
      return true;
    case Opcode::ArrayLength:
      // Array lengths are immutable; no Mem component needed.
      Key.A = resolve(I.Operands[0]);
      return true;
    case Opcode::GetField:
      Key.Sym = I.Field;
      Key.A = resolve(I.Operands[0]);
      Key.Mem = LoadState[I.Id];
      return true;
    case Opcode::GetStatic:
      Key.Sym = I.Field;
      Key.Mem = LoadState[I.Id];
      return true;
    case Opcode::GetElt:
      Key.A = resolve(I.Operands[0]);
      Key.B = resolve(I.Operands[1]);
      Key.Mem = LoadState[I.Id];
      return true;
    default:
      return false;
    }
  }

  void runCSE(bool FieldSensitive, OptStats &Stats) {
    beginPass();
    computeLoadStates(FieldSensitive);
    // Dominator-tree children as sibling lists in Id order: prepend each
    // block to its parent's list, last block first.
    FirstChild.assign(M->Blocks.size(), nullptr);
    NextSibling.resize(M->Blocks.size());
    for (size_t B = M->Blocks.size(); B-- > 1;) {
      BasicBlock *BB = M->Blocks[B];
      NextSibling[B] = FirstChild[BB->IDom->Id];
      FirstChild[BB->IDom->Id] = BB;
    }
    Available.reserve(M->numInstIds());
    cseBlock(M->getEntry(), Stats);
    commit();
  }

  void cseBlock(BasicBlock *BB, OptStats &Stats) {
    size_t Scope = Available.mark();
    for (Instruction *I : BB->Insts) {
      CSEKey Key;
      if (!keyFor(*I, Key))
        continue;
      Instruction *Avail = Available.findOrInsert(Key, I);
      // Raising instructions inside try bodies anchor exception edges and
      // stay; they may still *provide* a value for later instructions.
      if (!Avail || (I->mayRaise() && InTry[BB->Id]))
        continue;
      retire(I, Avail);
      ++Stats.CSERemoved;
      if (I->Op == Opcode::NullCheck)
        ++Stats.CSERemovedNullChecks;
      if (I->Op == Opcode::IndexCheck)
        ++Stats.CSERemovedIndexChecks;
    }
    for (BasicBlock *C = FirstChild[BB->Id]; C; C = NextSibling[C->Id])
      cseBlock(C, Stats);
    Available.popTo(Scope);
  }

  //===--------------------------------------------------------------------===//
  // Check transport across phi-joins (paper §4)
  //===--------------------------------------------------------------------===//

  /// For a reference phi whose every incoming value carries an available
  /// nullcheck certificate, materializes a phi ON THE SAFE-REF PLANE of the
  /// certificates and replaces dominated rechecks of the merged value. This
  /// is the mechanism the paper §4 highlights: "it enables the transport of
  /// null-checked and index-checked values across phi-joins" — check
  /// removal that plain dominance-scoped CSE cannot see. Loop-carried
  /// certificates work too: when a phi operand is the phi itself, the safe
  /// phi references itself along the back edge.
  void runCheckTransport(OptStats &Stats) {
    beginPass();
    // All nullchecks, as one list per checked value in block order:
    // prepend each check to its value's list, last check first.
    FirstCheck.assign(M->numInstIds(), nullptr);
    NextCheck.resize(M->numInstIds());
    for (size_t B = M->Blocks.size(); B-- > 0;)
      for (size_t K = M->Blocks[B]->Insts.size(); K-- > 0;) {
        Instruction *I = M->Blocks[B]->Insts[K];
        if (I->Op == Opcode::NullCheck) {
          NextCheck[I->Id] = FirstCheck[I->Operands[0]->Id];
          FirstCheck[I->Operands[0]->Id] = I;
        }
      }

    for (BasicBlock *BB : M->Blocks) {
      for (size_t PI = 0; PI != BB->Insts.size(); ++PI) {
        Instruction *P = BB->Insts[PI];
        if (!P->isPhi() || P->DstSafe || !P->OpType ||
            !(P->OpType->isClass() || P->OpType->isArray()))
          continue;

        // Rechecks of the merged value that the safe phi would replace
        // (skipping pinned in-try checks, whose edges must stay). Checks
        // retired for an earlier phi are skipped here and below.
        Rechecks.clear();
        for (Instruction *D = FirstCheck[P->Id]; D; D = NextCheck[D->Id])
          if (!Dead[D->Id] && D->OpType == P->OpType &&
              BasicBlock::dominates(BB, D->Parent) && !InTry[D->Parent->Id])
            Rechecks.push_back(D);
        if (Rechecks.empty())
          continue;

        // A certificate for each incoming value, available at the end of
        // the corresponding predecessor.
        Certs.assign(P->Operands.size(), nullptr);
        bool AllCovered = true;
        for (size_t K = 0; K != P->Operands.size() && AllCovered; ++K) {
          Instruction *V = resolve(P->Operands[K]);
          if (V == P)
            continue; // Back edge: the safe phi certifies itself.
          for (Instruction *C = FirstCheck[V->Id]; C && !Certs[K];
               C = NextCheck[C->Id])
            if (!Dead[C->Id] && C->OpType == P->OpType &&
                BasicBlock::dominates(C->Parent, BB->Preds[K]))
              Certs[K] = C;
          AllCovered = Certs[K] != nullptr;
        }
        if (!AllCovered)
          continue;

        Instruction *SafeRaw = create(Opcode::Phi);
        SafeRaw->OpType = P->OpType;
        SafeRaw->DstSafe = true;
        // Back edges carry no certificate; commit() forwards retired ones.
        for (Instruction *&C : Certs)
          if (!C)
            C = SafeRaw;
        M->setOperands(SafeRaw, Certs);
        SafeRaw->Parent = BB;
        // Insert right after P so the phi prefix stays contiguous.
        BB->Insts.insert(M->arena(), PI + 1, SafeRaw);

        for (Instruction *D : Rechecks)
          retire(D, SafeRaw);
        Stats.TransportedChecks += static_cast<unsigned>(Rechecks.size());
      }
    }
    commit();
  }

  //===--------------------------------------------------------------------===//
  // DCE (liveness-based, Briggs-style phi pruning)
  //===--------------------------------------------------------------------===//

  void markLive(Instruction *I) {
    if (I && !Dead[I->Id] && !Live[I->Id]) {
      Live[I->Id] = 1;
      Worklist.push_back(I);
    }
  }

  void runDCE(OptStats &Stats) {
    beginPass();
    // Phase 1: collapse trivial phis (all operands the same value, possibly
    // including the phi itself) to fixpoint.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BasicBlock *BB : M->Blocks) {
        for (Instruction *I : BB->Insts) {
          if (!I->isPhi() || Dead[I->Id])
            continue;
          Instruction *Unique = nullptr;
          bool Trivial = true;
          for (Instruction *Op : I->Operands) {
            Op = resolve(Op);
            if (Op == I)
              continue;
            if (Unique && Op != Unique) {
              Trivial = false;
              break;
            }
            Unique = Op;
          }
          if (!Trivial || !Unique)
            continue;
          retire(I, Unique);
          ++Stats.DCERemoved;
          ++Stats.DCERemovedPhis;
          Changed = true;
        }
      }
    }

    // Phase 2: mark from roots (side effects, potential exceptions, CST
    // references), then sweep everything unmarked — this removes the
    // superfluous phis the single-pass construction inserts (paper §7:
    // "dead code elimination … leading to a reduction of 31% on average in
    // the number of phi instructions") plus unused pure values.
    Live.assign(M->numInstIds(), 0);
    for (BasicBlock *BB : M->Blocks)
      for (Instruction *I : BB->Insts)
        if (I->hasSideEffects() || I->mayRaise())
          markLive(I);
    for (CSTNode *Node : ValueRefs) {
      markLive(resolve(Node->Cond));
      markLive(resolve(Node->RetVal));
    }
    while (!Worklist.empty()) {
      Instruction *I = Worklist.back();
      Worklist.pop_back();
      for (Instruction *Op : I->Operands)
        markLive(resolve(Op));
    }

    for (BasicBlock *BB : M->Blocks)
      for (Instruction *I : BB->Insts) {
        if (Dead[I->Id] || Live[I->Id])
          continue;
        ++Stats.DCERemoved;
        if (I->isPhi())
          ++Stats.DCERemovedPhis;
        retire(I);
      }
    commit();
  }

  TSAMethod *M = nullptr;
  PlaneContext *Ctx = nullptr;

  // Indexed by Instruction::Id.
  std::vector<Instruction *> Fwd; ///< Replacement of a forwarded value.
  std::vector<uint8_t> Dead;      ///< Unlinked at the pass's commit().
  size_t NumDead = 0;
  std::vector<uint64_t> LoadState; ///< Memory-state id of each load.
  std::vector<uint8_t> Live;       ///< DCE marks.
  /// Nullchecks of value V: FirstCheck[V], then NextCheck[check]...
  std::vector<Instruction *> FirstCheck, NextCheck;

  // Indexed by BasicBlock::Id.
  std::vector<uint8_t> InTry; ///< Block lies in a try body.
  std::vector<MemState> BlockOut; ///< Memory state on exit.
  /// Dominator-tree children of B: FirstChild[B], then NextSibling[child]...
  std::vector<BasicBlock *> FirstChild, NextSibling;

  /// The memory state at the instruction being scanned.
  uint64_t CurEpoch = 0;
  std::vector<MemVersion> CurVersions;
  std::vector<MemVersion> StatePool; ///< Versions of the BlockOut states.
  ScopedValueTable Available;
  std::vector<Instruction *> Worklist, Rechecks, Certs;
  /// CST nodes with a condition or return value.
  std::vector<CSTNode *> ValueRefs;
};

} // namespace

OptStats safetsa::optimizeMethod(TSAMethod &M, PlaneContext &Ctx,
                                 const OptOptions &Options) {
  return MethodOptimizer().run(M, Ctx, Options);
}

OptStats safetsa::optimizeModule(TSAModule &Module,
                                 const OptOptions &Options) {
  OptStats Stats;
  PlaneContext Ctx{*Module.Types, *Module.Table};
  MethodOptimizer Opt;
  for (TSAMethod *M : Module.Methods)
    Stats += Opt.run(*M, Ctx, Options);
  return Stats;
}
