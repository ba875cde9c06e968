//===- exec/Prepare.cpp - CST/SSA -> quickened ExecUnit lowering *- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-time lowering of a verified SafeTSA module into prepared execution
/// units (see ExecUnit.h and DESIGN.md §10).
///
/// Slot assignment rides on the plane tables: finalize() enumerates every
/// value-producing instruction in block order x in-block order when it
/// assigns (PlaneId, PlaneIndex), and this pass walks the identical order
/// handing out dense frame slots — so a slot is exactly "flattened plane-
/// table position plus the argument base", and the per-block totals are
/// cross-checked against PlaneCounts. Param preloads are pinned to the
/// reserved argument region [0, NumArgs) instead, so calls write their
/// arguments straight into the callee frame. The slot table is a vector
/// indexed by Instruction::Id: lowering is a renumber, not a lookup.
///
/// Control flow is lowered in one pass over the CST. The CST invariants
/// (every sequence starts with a Basic node; If/Loop are followed by their
/// join/exit Basic; Return/Break/Continue terminate their sequence) let a
/// single pending-edge list carry every not-yet-resolved forward branch:
/// each pending entry remembers the emitted jump to patch and the CFG
/// source block of the edge, and the next lowered Basic node consumes the
/// list by emitting one move stub per edge (the phi moves for that
/// specific predecessor) in front of the block body. Back edges and
/// continues target an already-lowered loop header, so their moves are
/// emitted inline followed by a direct jump. Exception edges become stubs
/// after the handler: every may-raise instruction of a RaisesToCatch
/// block gets its Handler field patched to a stub that performs the
/// handler phis' moves for that raising block and jumps to the handler
/// body — the runtime transfers there for catchable traps, which is
/// exactly the tree-walker's "PrevBlock = RaiseBlock, execute the
/// handler" semantics, pre-resolved.
///
/// Phi moves are emitted sequentially in phi order with no parallel-copy
/// resolution, deliberately: the definitional tree-walker updates phis in
/// that order (an earlier phi's new value is visible to a later phi of
/// the same block), and the prepared form must replay the oracle's
/// read/write sequence exactly.
///
/// Tiering (DESIGN.md §11): the same lowering runs at tier 0 (profiling)
/// and tier 1 (optimizing). Dispatch sites are numbered module-wide in
/// lowering order — deterministic, so a tier-1 pass reads exactly the
/// profile slot its tier-0 twin wrote — and tier 1 additionally applies
/// closed-world devirtualization, profile-guided inline caches, and a
/// post-lowering superinstruction fusion peephole (fuseUnit below) that
/// never changes code indices: the fused instruction keeps the first
/// pair member's slot and the second member survives as a dead "shadow"
/// slot the fused handler steps over, so every branch target, handler
/// stub, and pending-edge patch stays valid verbatim.
///
//===----------------------------------------------------------------------===//

#include "exec/ExecUnit.h"

#include "sema/ClassTable.h"

#include <algorithm>
#include <cassert>

using namespace safetsa;

namespace {

/// What one lowering pass is asked for. prepareModule uses the defaults
/// (tier 0); reprepareModule fills in the rest from its tier-0 twin and
/// the caller's policy.
struct LowerOptions {
  uint32_t Tier = 0;
  /// Tier 1: receiver-class profiles gathered by tier-0 execution; null
  /// means no speculation (only closed-world devirt and fusion apply).
  const ProfileData *Profile = nullptr;
  /// Tier 1: transform masks and inline budget.
  ExecPolicy Policy;
};

/// A forward branch awaiting its target: the emitted Jmp/BrFalse at
/// Idx, plus the CFG source block for the target's phi moves.
struct Pending {
  size_t Idx;
  const BasicBlock *From;
};

template <typename T> size_t capacityBytes(const std::vector<T> &V) {
  return V.capacity() * sizeof(T);
}

/// Everything lowering works in besides the module it builds: the slot
/// and block tables, the unit being built and the pending-edge lists and
/// stacks of the CST walk. One per thread, like the decoder's scratch
/// (Codec.cpp): each lowering resets what it uses instead of rebuilding
/// it, and one that leaves more than kCap bytes behind releases it all.
struct LowerScratch {
  static constexpr size_t kCap = 256 * 1024;

  std::vector<uint16_t> SlotOf;   ///< Instruction::Id -> frame slot.
  std::vector<size_t> BlockEntry; ///< BasicBlock::Id -> code index.
  /// Code, pools, caches and RefSlots of the unit being built.
  std::vector<ExecInst> Code;
  std::vector<uint16_t> ArgPool;
  std::vector<Word> ConstPool;
  std::vector<std::string_view> StrPool;
  std::vector<ICEntry> ICs;
  std::vector<uint16_t> RefSlots;
  /// Edges into the next lowered Basic node.
  std::vector<Pending> Incoming;
  /// Pending edges set aside while another arm lowers, innermost on top.
  std::vector<Pending> Saved;
  /// Exit edges of the enclosing loops, innermost on top.
  std::vector<Pending> Breaks;
  /// Header blocks of the enclosing loops, innermost last.
  std::vector<const BasicBlock *> Loops;
  /// Raising sites of enclosing try bodies: (block, code index), each
  /// block's sites together, innermost try's on top.
  std::vector<std::pair<const BasicBlock *, size_t>> Sites;
  /// Stub jumps of the Basic node being entered.
  std::vector<size_t> ToEntry;

  size_t bytes() const {
    return capacityBytes(SlotOf) + capacityBytes(BlockEntry) +
           capacityBytes(Code) + capacityBytes(ArgPool) +
           capacityBytes(ConstPool) + capacityBytes(StrPool) +
           capacityBytes(ICs) + capacityBytes(RefSlots) +
           capacityBytes(Incoming) + capacityBytes(Saved) +
           capacityBytes(Breaks) + capacityBytes(Loops) +
           capacityBytes(Sites) + capacityBytes(ToEntry);
  }
};

LowerScratch &lowerScratch() {
  static thread_local LowerScratch Scratch;
  return Scratch;
}

/// Lowers a module's methods unit after unit: per-value and per-block
/// state sits in vectors indexed by Instruction::Id and BasicBlock::Id
/// (verona-bc's FuncState shape), sized once for the largest method;
/// each unit is built in the thread's scratch and takes exactly sized
/// copies of its tables in the module's arena.
class MethodLowerer {
public:
  MethodLowerer(PreparedModule &PM, const LowerOptions &Opts,
                BumpArena &Arrays, LowerScratch &X)
      : PM(PM), Opts(Opts), Arrays(Arrays), SlotOf(X.SlotOf),
        BlockEntry(X.BlockEntry),
        Buf(X), Incoming(X.Incoming), Saved(X.Saved), Breaks(X.Breaks),
        Loops(X.Loops), Sites(X.Sites), ToEntry(X.ToEntry) {
    size_t Ids = 0;
    for (const auto &Method : PM.Module->Methods)
      Ids = std::max<size_t>(Ids, Method->numInstIds());
    SlotOf.reserve(Ids);
    Buf.Code.reserve(2 * Ids);
    Buf.ArgPool.reserve(Ids);
    Buf.ConstPool.reserve(Ids);
    Buf.RefSlots.reserve(Ids);
  }

  /// Module-wide dispatch-site counter, shared across units (profile
  /// slot allocation at tier 0, profile lookup at tier 1).
  uint32_t NextSite = 0;

  /// Lowers \p Unit's method into it; false when the method exceeds
  /// prepared-form limits (frame slots or call arity), after which the
  /// caller drops the module and this lowerer.
  bool run(ExecUnit &Unit) {
    U = &Unit;
    M = Unit.Method;
    // Start from empty lists: the previous unit's, or a failed
    // lowering's, are still there.
    Buf.Code.clear();
    Buf.ArgPool.clear();
    Buf.ConstPool.clear();
    Buf.StrPool.clear();
    Buf.ICs.clear();
    Buf.RefSlots.clear();
    Incoming.clear();
    Saved.clear();
    Breaks.clear();
    Loops.clear();
    Sites.clear();
    TryDepth = 0;
    HaveFt = false;
    SlotOf.assign(M->numInstIds(), ExecInst::NoSlot);
    BlockEntry.assign(M->Blocks.size(), SIZE_MAX);
    if (!assignSlots())
      return false;
    if (!lowerSeq(M->Root))
      return false;
    // Falling off the end of the root sequence is a void return; route
    // any straggling forward edges (e.g. the fall-out of a trailing Try)
    // to a final RetVoid.
    if (HaveFt || !Incoming.empty()) {
      size_t Here = pc();
      for (const Pending &P : Incoming)
        Buf.Code[P.Idx].X = static_cast<int32_t>(Here);
      Incoming.clear();
      HaveFt = false;
      ExecInst X;
      X.Op = XOp::RetVoid;
      emit(X);
    }
    // Each of the unit's tables is copied once, at its final size, into
    // the arrays arena; Buf keeps its storage for the next unit.
    auto Take = [this](auto &To, const auto &From) {
      To = Arrays.copyArray(From.data(), From.size());
    };
    Take(U->Code, Buf.Code);
    Take(U->ArgPool, Buf.ArgPool);
    Take(U->ConstPool, Buf.ConstPool);
    Take(U->StrPool, Buf.StrPool);
    Take(U->ICs, Buf.ICs);
    Take(U->RefSlots, Buf.RefSlots);
    return true;
  }

private:
  bool assignSlots() {
    const MethodSymbol *Sym = M->Symbol;
    size_t NArgs = Sym->ParamTys.size() + (Sym->IsStatic ? 0 : 1);
    if (NArgs > 255)
      return false;
    U->NumArgs = static_cast<uint32_t>(NArgs);
    // GC slot map, argument region first: the receiver (always a ref)
    // and each ref-typed parameter. The caller writes these before
    // entry, so frame setup never nulls them.
    if (!Sym->IsStatic)
      Buf.RefSlots.push_back(0);
    for (size_t I = 0; I != Sym->ParamTys.size(); ++I)
      if (Sym->ParamTys[I]->isRef())
        Buf.RefSlots.push_back(
            static_cast<uint16_t>(I + (Sym->IsStatic ? 0 : 1)));
    U->NumRefArgs = static_cast<uint32_t>(Buf.RefSlots.size());
    uint32_t Next = static_cast<uint32_t>(NArgs);
    for (const BasicBlock *BB : M->Blocks) {
      unsigned BlockVals = 0;
      for (const Instruction *I : BB->Insts) {
        if (!I->hasResult())
          continue;
        ++BlockVals;
        if (I->Op == Opcode::Param) {
          if (I->ParamIndex >= NArgs)
            return false;
          SlotOf[I->Id] = static_cast<uint16_t>(I->ParamIndex);
        } else {
          if (Next >= ExecInst::NoSlot)
            return false;
          // Body half of the GC slot map, straight from the verifier's
          // plane tables: a slot holds a reference iff its value lives
          // on a safe-ref plane (null/index certificates included) or a
          // base plane over a ref type. SafeIndex planes hold ints.
          const PlaneKey &K = M->Planes[I->PlaneId];
          if (K.K == PlaneKey::Kind::SafeRef ||
              (K.K == PlaneKey::Kind::Base && K.Ty && K.Ty->isRef()))
            Buf.RefSlots.push_back(static_cast<uint16_t>(Next));
          SlotOf[I->Id] = static_cast<uint16_t>(Next++);
        }
      }
      // The slot walk and finalize()'s plane-table walk enumerate the
      // same values; a disagreement means the module was not finalized.
      unsigned PlaneVals = 0;
      for (unsigned C : BB->PlaneCounts)
        PlaneVals += C;
      assert(PlaneVals == BlockVals &&
             "slot layout disagrees with the plane tables");
      (void)PlaneVals;
      (void)BlockVals;
    }
    U->NumSlots = Next;
    return true;
  }

  uint16_t slot(const Instruction *I) const {
    assert(SlotOf[I->Id] != ExecInst::NoSlot && "value has no slot");
    return SlotOf[I->Id];
  }

  size_t pc() const { return Buf.Code.size(); }
  size_t emit(const ExecInst &X) {
    Buf.Code.push_back(X);
    return Buf.Code.size() - 1;
  }
  size_t emitJmp(int32_t Target = 0) {
    ExecInst X;
    X.Op = XOp::Jmp;
    X.X = Target;
    return emit(X);
  }

  /// Moves for CFG edge From -> To: each phi of To receives its operand
  /// for that predecessor. Sequential in phi order (see file comment).
  void emitEdgeMoves(const BasicBlock *From, const BasicBlock *To) {
    if (To->Insts.empty() || !To->Insts.front()->isPhi())
      return;
    int K = -1;
    for (size_t I = 0; I != To->Preds.size(); ++I)
      if (To->Preds[I] == From) {
        K = static_cast<int>(I);
        break;
      }
    assert(K >= 0 && "phi edge source is not a predecessor");
    if (K < 0)
      return;
    for (const Instruction *P : To->Insts) {
      if (!P->isPhi())
        break;
      uint16_t Src = slot(P->Operands[K]);
      uint16_t Dst = slot(P);
      if (Src == Dst)
        continue; // Self-reference along a back edge.
      ExecInst X;
      X.Op = XOp::Move;
      X.A = Src;
      X.Dst = Dst;
      emit(X);
    }
  }

  /// Resolves the inline fall-through and every pending edge into an
  /// already-lowered target (a loop header): moves, then a direct jump.
  void flushEdgesTo(const BasicBlock *Target) {
    size_t Entry = BlockEntry[Target->Id];
    assert(Entry != SIZE_MAX && "back edge to a block not lowered yet");
    if (HaveFt) {
      emitEdgeMoves(FtFrom, Target);
      emitJmp(static_cast<int32_t>(Entry));
      HaveFt = false;
    }
    for (const Pending &P : Incoming) {
      size_t Stub = pc();
      emitEdgeMoves(P.From, Target);
      emitJmp(static_cast<int32_t>(Entry));
      Buf.Code[P.Idx].X = static_cast<int32_t>(Stub);
    }
    Incoming.clear();
  }

  bool lowerSeq(const CSTSeq &Seq) {
    for (const CSTNode *Node : Seq) {
      switch (Node->K) {
      case CSTNode::Kind::Basic:
        if (!lowerBasic(*Node))
          return false;
        break;
      case CSTNode::Kind::If:
        if (!lowerIf(*Node))
          return false;
        break;
      case CSTNode::Kind::Loop:
        if (!lowerLoop(*Node))
          return false;
        break;
      case CSTNode::Kind::Try:
        if (!lowerTry(*Node))
          return false;
        break;
      case CSTNode::Kind::Return: {
        // A Return is a CST node, not a block: edges reaching it need no
        // phi moves (merges that carry values go through a Basic block).
        size_t Here = pc();
        for (const Pending &P : Incoming)
          Buf.Code[P.Idx].X = static_cast<int32_t>(Here);
        Incoming.clear();
        ExecInst X;
        if (Node->RetVal) {
          X.Op = XOp::RetVal;
          X.A = slot(Node->RetVal);
        } else {
          X.Op = XOp::RetVoid;
        }
        emit(X);
        HaveFt = false;
        return true; // Terminates its sequence.
      }
      case CSTNode::Kind::Break: {
        // The innermost loop's exit edges are on top of Breaks.
        if (HaveFt) {
          Breaks.push_back({emitJmp(), FtFrom});
          HaveFt = false;
        }
        Breaks.insert(Breaks.end(), Incoming.begin(), Incoming.end());
        Incoming.clear();
        return true;
      }
      case CSTNode::Kind::Continue:
        flushEdgesTo(Loops.back());
        return true;
      }
    }
    return true;
  }

  bool lowerBasic(const CSTNode &N) {
    const BasicBlock *BB = N.BB;
    // Inline fall-through edge first; if stubs follow, jump over them.
    ToEntry.clear();
    if (HaveFt) {
      emitEdgeMoves(FtFrom, BB);
      if (!Incoming.empty())
        ToEntry.push_back(emitJmp());
      HaveFt = false;
    }
    // One move stub per pending edge; the last one falls into the body.
    for (size_t I = 0; I != Incoming.size(); ++I) {
      size_t Stub = pc();
      emitEdgeMoves(Incoming[I].From, BB);
      Buf.Code[Incoming[I].Idx].X = static_cast<int32_t>(Stub);
      if (I + 1 != Incoming.size())
        ToEntry.push_back(emitJmp());
    }
    Incoming.clear();
    size_t Entry = pc();
    for (size_t Idx : ToEntry)
      Buf.Code[Idx].X = static_cast<int32_t>(Entry);
    BlockEntry[BB->Id] = Entry;

    bool Raises = N.RaisesToCatch && TryDepth != 0;
    for (const Instruction *I : BB->Insts) {
      long Idx = -1;
      if (!emitInst(*I, Idx))
        return false;
      if (Idx >= 0 && Raises && I->mayRaise())
        Sites.push_back({BB, static_cast<size_t>(Idx)});
    }
    HaveFt = true;
    FtFrom = BB;
    return true;
  }

  bool lowerIf(const CSTNode &N) {
    // The condition is referenced from the end of the Basic block that
    // directly precedes the If, so control arrives as a fall-through.
    assert(HaveFt && Incoming.empty() && "if must follow its decision");
    const BasicBlock *Decision = FtFrom;
    ExecInst Br;
    Br.Op = XOp::BrFalse;
    Br.A = slot(N.Cond);
    size_t BrIdx = emit(Br);
    if (!lowerSeq(N.Then))
      return false;
    if (N.Else.empty()) {
      // Decision -> join edge: the BrFalse becomes a pending edge and the
      // then-arm's fall-through (if any) stays the inline one.
      Incoming.push_back({BrIdx, Decision});
      return true;
    }
    if (HaveFt) {
      Incoming.push_back({emitJmp(), FtFrom});
      HaveFt = false;
    }
    // The then-arm's pendings target the join, not the else entry: they
    // wait on Saved while the else arm lowers.
    size_t Mark = Saved.size();
    Saved.insert(Saved.end(), Incoming.begin(), Incoming.end());
    Incoming.clear();
    Buf.Code[BrIdx].X = static_cast<int32_t>(pc());
    HaveFt = true;
    FtFrom = Decision;
    if (!lowerSeq(N.Else))
      return false;
    Incoming.insert(Incoming.end(), Saved.begin() + Mark, Saved.end());
    Saved.resize(Mark);
    return true;
  }

  bool lowerLoop(const CSTNode &N) {
    assert(!N.Header.empty() && N.Header.front()->K == CSTNode::Kind::Basic &&
           "loop header must start with a basic block");
    const BasicBlock *HB = N.Header.front()->BB;
    // Entry edges flow into the header's first Basic node as usual.
    if (!lowerSeq(N.Header))
      return false;
    assert(HaveFt && Incoming.empty() && "loop header must fall through");
    ExecInst Br;
    Br.Op = XOp::BrFalse;
    Br.A = slot(N.Cond);
    // This loop's exits collect on Breaks above Mark: the decision's exit
    // edge, then every break of the body.
    size_t Mark = Breaks.size();
    Breaks.push_back({emit(Br), FtFrom});
    Loops.push_back(HB);
    bool Ok = lowerSeq(N.Body);
    Loops.pop_back();
    if (!Ok)
      return false;
    // Back edges: the latch fall-through and any pending body fall-outs
    // re-enter the header with that edge's phi moves.
    flushEdgesTo(HB);
    Incoming.assign(Breaks.begin() + Mark, Breaks.end());
    Breaks.resize(Mark);
    HaveFt = false;
    return true;
  }

  bool lowerTry(const CSTNode &N) {
    assert(!N.Else.empty() && N.Else.front()->K == CSTNode::Kind::Basic &&
           "try handler must start with a basic block");
    const BasicBlock *HandlerBB = N.Else.front()->BB;
    // The body's raising sites collect on Sites in [SiteMark, SiteEnd).
    size_t SiteMark = Sites.size();
    ++TryDepth;
    bool Ok = lowerSeq(N.Then);
    --TryDepth;
    if (!Ok)
      return false;
    size_t SiteEnd = Sites.size();
    // Body fall-outs jump over the handler and the exception stubs.
    if (HaveFt) {
      Incoming.push_back({emitJmp(), FtFrom});
      HaveFt = false;
    }
    size_t Mark = Saved.size();
    Saved.insert(Saved.end(), Incoming.begin(), Incoming.end());
    Incoming.clear();
    // The handler entry has no forward in-edges; it is reached only
    // through the exception stubs below. Its own raising sites belong to
    // an enclosing try and collect above SiteEnd.
    if (!lowerSeq(N.Else))
      return false;
    if (HaveFt) {
      Incoming.push_back({emitJmp(), FtFrom});
      HaveFt = false;
    }
    size_t Entry = BlockEntry[HandlerBB->Id];
    assert(Entry != SIZE_MAX && "handler not lowered yet");
    // One stub per raising block, in lowering order; a block's sites are
    // consecutive.
    for (size_t I = SiteMark; I != SiteEnd;) {
      const BasicBlock *RaiseBB = Sites[I].first;
      size_t Stub = pc();
      emitEdgeMoves(RaiseBB, HandlerBB);
      emitJmp(static_cast<int32_t>(Entry));
      for (; I != SiteEnd && Sites[I].first == RaiseBB; ++I)
        Buf.Code[Sites[I].second].Handler = static_cast<int32_t>(Stub);
    }
    Sites.erase(Sites.begin() + SiteMark, Sites.begin() + SiteEnd);
    Incoming.insert(Incoming.end(), Saved.begin() + Mark, Saved.end());
    Saved.resize(Mark);
    return true;
  }

  /// Emits the quickened form of one instruction; OutIdx receives the
  /// code index (-1 when the instruction lowers to no code). False on a
  /// prepared-form limit (call arity > 255).
  bool emitInst(const Instruction &I, long &OutIdx) {
    OutIdx = -1;
    ExecInst X;
    switch (I.Op) {
    case Opcode::Param: // Lives in the argument region; no code.
    case Opcode::Phi:   // Becomes edge moves; no code.
      return true;

    case Opcode::Const:
      X.Dst = slot(&I);
      if (M->constant(I).K == ConstantValue::Kind::String) {
        // String cells are per-Runtime, so the unit keeps the text and
        // interns at execution time, exactly like the tree-walker.
        X.Op = XOp::LoadStr;
        X.X = static_cast<int32_t>(Buf.StrPool.size());
        Buf.StrPool.push_back(M->constant(I).StrVal);
      } else {
        X.Op = XOp::LoadConst;
        X.X = static_cast<int32_t>(Buf.ConstPool.size());
        Buf.ConstPool.push_back(constantValue(M->constant(I)).word());
      }
      break;

    case Opcode::Primitive:
    case Opcode::XPrimitive:
      // PrimOp and the prepared opcode block share one order; dispatch
      // selects the operation with no secondary switch.
      X.Op = static_cast<XOp>(static_cast<unsigned>(XOp::AddI) +
                              static_cast<unsigned>(I.Prim));
      if (!I.Operands.empty())
        X.A = slot(I.Operands[0]);
      if (I.Operands.size() > 1)
        X.B = slot(I.Operands[1]);
      X.Dst = slot(&I);
      if (I.Prim == PrimOp::InstanceOf)
        X.P = I.AuxType;
      break;

    case Opcode::NullCheck:
      X.Op = XOp::NullCheck;
      X.A = slot(I.Operands[0]);
      X.Dst = slot(&I);
      break;
    case Opcode::IndexCheck:
      X.Op = XOp::IndexCheck;
      X.A = slot(I.Operands[0]);
      X.B = slot(I.Operands[1]);
      X.Dst = slot(&I);
      break;
    case Opcode::Upcast:
      X.Op = XOp::Upcast;
      X.A = slot(I.Operands[0]);
      X.Dst = slot(&I);
      X.P = I.OpType;
      break;
    case Opcode::Downcast: // Free at runtime; just a slot copy.
      X.Op = XOp::Move;
      X.A = slot(I.Operands[0]);
      X.Dst = slot(&I);
      break;

    case Opcode::GetField:
      X.Op = XOp::GetField;
      X.A = slot(I.Operands[0]);
      X.X = static_cast<int32_t>(I.Field->Slot);
      X.Dst = slot(&I);
      break;
    case Opcode::SetField:
      X.Op = XOp::SetField;
      X.A = slot(I.Operands[0]);
      X.B = slot(I.Operands[1]);
      X.X = static_cast<int32_t>(I.Field->Slot);
      break;
    case Opcode::GetElt:
      X.Op = XOp::GetElt;
      X.A = slot(I.Operands[0]);
      X.B = slot(I.Operands[1]);
      X.Dst = slot(&I);
      break;
    case Opcode::SetElt:
      X.Op = XOp::SetElt;
      X.A = slot(I.Operands[0]);
      X.B = slot(I.Operands[1]);
      X.C = slot(I.Operands[2]);
      break;
    case Opcode::GetStatic:
      X.Op = XOp::GetStatic;
      X.X = static_cast<int32_t>(I.Field->Slot);
      X.Dst = slot(&I);
      break;
    case Opcode::SetStatic:
      X.Op = XOp::SetStatic;
      X.A = slot(I.Operands[0]);
      X.X = static_cast<int32_t>(I.Field->Slot);
      break;

    case Opcode::ArrayLength:
      X.Op = XOp::ArrayLength;
      X.A = slot(I.Operands[0]);
      X.Dst = slot(&I);
      break;
    case Opcode::New:
      X.Op = XOp::New;
      X.P = I.OpType->getClassSymbol();
      X.Dst = slot(&I);
      break;
    case Opcode::NewArray:
      X.Op = XOp::NewArray;
      X.A = slot(I.Operands[0]);
      X.P = I.OpType->getElemType();
      X.Dst = slot(&I);
      break;

    case Opcode::Call:
    case Opcode::Dispatch: {
      if (I.Operands.size() > 255)
        return false;
      X.N = static_cast<uint8_t>(I.Operands.size());
      X.X = static_cast<int32_t>(Buf.ArgPool.size());
      for (const Instruction *Op : I.Operands)
        Buf.ArgPool.push_back(slot(Op));
      X.Dst = I.hasResult() ? slot(&I) : ExecInst::NoSlot;
      if (I.Op == Opcode::Dispatch) {
        X.P = I.Method; // Static target; vtable resolved per receiver.
        lowerDispatch(I, X);
      } else if (I.Method->isNative()) {
        if (X.N > Runtime::MaxNativeArgs)
          return false;
        X.Op = XOp::CallNative;
        X.P = I.Method;
      } else {
        X.Op = XOp::CallUnit;
        X.P = PM.unitFor(I.Method); // Null (-> Internal) for bodyless.
      }
      break;
    }
    }
    OutIdx = static_cast<long>(emit(X));
    return true;
  }

  /// Tier-aware lowering of one virtual-call site. Every Dispatch burns a
  /// module-wide site id in lowering order (even when the site is devirted
  /// or demoted) so tier-0 and tier-1 passes agree on profile indices.
  void lowerDispatch(const Instruction &I, ExecInst &X) {
    uint32_t Site = NextSite++;
    X.Op = XOp::Dispatch;
    if (Opts.Tier == 0) {
      X.S = static_cast<int32_t>(Site); // Tier 0 profiles into this slot.
      return;
    }
    if (Opts.Policy.NoInlineCaches)
      return;
    // Classify the site from the tier-0 profile *before* deciding how to
    // lower it: closed-world devirtualization below subsumes most
    // profiled-monomorphic sites (single receiver class implies single
    // implementation on a whole-program corpus), so classification by
    // emitted opcode alone would undercount them — the tier1_mono_sites
    // == 0 artifact this bookkeeping exists to fix.
    const ProfileData *Prof = Opts.Profile;
    ProfileData::SiteSummary DP;
    if (Prof && Site < Prof->numSites())
      DP = Prof->site(Site);
    unsigned Ways = DP.distinct();
    bool Mega = DP.megamorphic();
    if (Mega)
      ++PM.Tiering.Megamorphic;
    else if (Ways == 1)
      ++PM.Tiering.ProfiledMono;
    else if (Ways > 1)
      ++PM.Tiering.ProfiledPoly;
    // Closed-world devirtualization: MJ modules are whole programs, so
    // when every class that can reach this site resolves the vtable slot
    // to one unit, no guard is needed — the site becomes a direct call.
    if (const ExecUnit *Only = closedWorldTarget(I.Method)) {
      X.Op = XOp::CallUnit;
      X.P = Only;
      ++PM.Tiering.DevirtCalls;
      if (Ways == 1 && !Mega)
        ++PM.Tiering.MonoLoweredDirect;
      return;
    }
    // Speculative inline cache from the tier-0 receiver-class profile:
    // one guard per recorded class (1..kWays), overflow -> megamorphic
    // demotion back to the plain vtable path.
    if (Ways == 0 || Mega) {
      ++PM.Tiering.VtableSites;
      return;
    }
    ICEntry E;
    E.Site = Site;
    E.Method = I.Method;
    for (unsigned W = 0; W != Ways; ++W) {
      const ClassSymbol *C = DP.Classes[W];
      size_t Slot = static_cast<size_t>(I.Method->VTableSlot);
      const MethodSymbol *T =
          I.Method->VTableSlot >= 0 && Slot < C->VTable.size()
              ? C->VTable[Slot]
              : nullptr;
      const ExecUnit *TU = PM.unitFor(T);
      if (!TU) {
        ++PM.Tiering.VtableSites;
        return; // Native/bodyless override: keep the generic path.
      }
      E.Classes[W] = C;
      E.Targets[W] = TU;
    }
    E.Ways = static_cast<uint8_t>(Ways);
    X.Op = XOp::DispatchIC;
    X.S = static_cast<int32_t>(Buf.ICs.size());
    Buf.ICs.push_back(E);
    if (Ways == 1) {
      ++PM.Tiering.MonoICs;
      ++PM.Tiering.MonoLoweredDirect;
    } else {
      ++PM.Tiering.PolyICs;
    }
  }

  /// The single unit every possible receiver of \p MS resolves to, or
  /// null when receivers disagree (or any target lacks a body).
  const ExecUnit *closedWorldTarget(const MethodSymbol *MS) const {
    if (!MS->Owner || MS->VTableSlot < 0)
      return nullptr;
    size_t Slot = static_cast<size_t>(MS->VTableSlot);
    const ExecUnit *Only = nullptr;
    for (const auto &C : PM.Module->Table->getClasses()) {
      if (!C->isSubclassOf(MS->Owner))
        continue;
      const MethodSymbol *T = Slot < C->VTable.size() ? C->VTable[Slot]
                                                      : nullptr;
      const ExecUnit *TU = PM.unitFor(T);
      if (!TU || (Only && TU != Only))
        return nullptr;
      Only = TU;
    }
    return Only;
  }

  PreparedModule &PM; ///< Tiering collects the tier-1 site tallies.
  const LowerOptions &Opts;
  BumpArena &Arrays; ///< Where each lowered unit's arrays go.
  const TSAMethod *M = nullptr; ///< The method being lowered ...
  ExecUnit *U = nullptr;        ///< ... into this unit.
  // The thread's scratch (LowerScratch documents each list).
  std::vector<uint16_t> &SlotOf;
  std::vector<size_t> &BlockEntry;
  LowerScratch &Buf;
  std::vector<Pending> &Incoming;
  std::vector<Pending> &Saved;
  std::vector<Pending> &Breaks;
  std::vector<const BasicBlock *> &Loops;
  std::vector<std::pair<const BasicBlock *, size_t>> &Sites;
  std::vector<size_t> &ToEntry;
  unsigned TryDepth = 0; ///< Enclosing try bodies.
  const BasicBlock *FtFrom = nullptr;
  bool HaveFt = false;
};

/// Superinstruction fusion (tier 1): one peephole pass over a fully
/// lowered and handler-patched unit. Fusable pairs (the hottest static
/// pairs in this ISA — integer compare+branch and check+guarded-access):
///
///   Cmp{Lt,Le,Gt,Ge,Eq,Ne}I + BrFalse(cmp)      -> BrCmp*I
///   NullCheck  + GetField(cert)                 -> NullGetField
///   NullCheck  + SetField(cert, v)              -> NullSetField
///   IndexCheck + GetElt(arr, cert)              -> IdxGetElt
///   IndexCheck + SetElt(arr, cert, v)           -> IdxSetElt
///   Move + Move                                 -> Move2
///   Move + Jmp                                  -> MoveJmp
///
/// The move forms target the flat-frame phi-edge copies that run on
/// every loop iteration (parallel copies before a back edge, then the
/// jump itself): Move2 performs both copies in source order, MoveJmp
/// folds the unconditional branch into the preceding copy. Double
/// compares stay unfused: they are rare enough that a leave-one-out
/// measurement could not tell the fused form from the pair
/// (EXPERIMENTS.md, "Tier-1 leave-one-out").
///
/// The fused instruction overwrites the first member in place (keeping
/// its Handler, so catchable traps transfer identically) and the second
/// member stays behind as a dead shadow slot the handler steps over —
/// code indices never move, so branch targets and handler stubs need no
/// re-patching. A pair is skipped when its second member is a branch or
/// handler target (jumping into the middle must still work). Fused forms
/// still write the first member's Dst (the check certificate / compare
/// result), so they are bit-identical in effect to their two-instruction
/// expansion and need no liveness analysis.
static void fuseUnit(ExecUnit &U) {
  const size_t N = U.Code.size();
  std::vector<bool> IsTarget(N + 1, false);
  for (const ExecInst &X : U.Code) {
    // GuardInline's X is its fallback block, InlineRet's and
    // LeaveInline's their continuation/handler — all are code indices a
    // jump lands on.
    if (X.Op == XOp::Jmp || X.Op == XOp::BrFalse ||
        X.Op == XOp::GuardInline || X.Op == XOp::InlineRet ||
        X.Op == XOp::LeaveInline)
      IsTarget[static_cast<size_t>(X.X)] = true;
    if (X.Handler >= 0)
      IsTarget[static_cast<size_t>(X.Handler)] = true;
  }
  for (size_t I = 0; I + 1 < N; ++I) {
    if (IsTarget[I + 1])
      continue;
    ExecInst &A = U.Code[I];
    const ExecInst &B = U.Code[I + 1];
    if (A.Op >= XOp::CmpLtI && A.Op <= XOp::CmpNeI &&
        B.Op == XOp::BrFalse && B.A == A.Dst) {
      // BrCmp*I mirrors the Cmp*I order, so fusion is a constant offset.
      A.Op = static_cast<XOp>(static_cast<unsigned>(XOp::BrCmpLtI) +
                              (static_cast<unsigned>(A.Op) -
                               static_cast<unsigned>(XOp::CmpLtI)));
      A.X = B.X; // Branch target on false.
      ++I;
      continue;
    }
    if (A.Op == XOp::Move && B.Op == XOp::Jmp) {
      A.Op = XOp::MoveJmp;
      A.X = B.X; // Unconditional target; the shadow Jmp is unreachable.
      ++I;
      continue;
    }
    if (A.Op == XOp::Move && B.Op == XOp::Move) {
      // Both copies in source order: B may legally read A's destination.
      A.Op = XOp::Move2;
      A.B = B.Dst;
      A.C = B.A;
      ++I;
      continue;
    }
    if (A.Op == XOp::NullCheck &&
        (B.Op == XOp::GetField || B.Op == XOp::SetField) && B.A == A.Dst) {
      // A: ref in A.A, certificate out A.Dst. Fused: field slot in X,
      // result (Get) or value (Set) slot in C.
      A.C = B.Op == XOp::GetField ? B.Dst : B.B;
      A.X = B.X;
      A.Op = B.Op == XOp::GetField ? XOp::NullGetField : XOp::NullSetField;
      ++I;
      continue;
    }
    if (A.Op == XOp::IndexCheck &&
        (B.Op == XOp::GetElt || B.Op == XOp::SetElt) && B.A == A.A &&
        B.B == A.Dst) {
      // A: array in A.A, index in A.B, certificate out A.Dst. Fused:
      // result (Get) or value (Set) slot in C.
      A.C = B.Op == XOp::GetElt ? B.Dst : B.C;
      A.Op = B.Op == XOp::GetElt ? XOp::IdxGetElt : XOp::IdxSetElt;
      ++I;
      continue;
    }
  }
}

//===----------------------------------------------------------------------===//
// Speculative inlining (tier 1, DESIGN.md §14)
//===----------------------------------------------------------------------===//
//
// Runs between pass 2 (lowering) and pass 3 (fusion): call sites whose
// callee is statically known — devirtualized/static CallUnit, or a
// one-way DispatchIC whose single way names the callee —
// are replaced by the callee's instruction body spliced into the caller's
// stream. The callee frame is flattened into an extension of the caller
// frame, so the call's frame push/pop disappears. The splice enters
// through exactly one instruction — EnterInline for direct sites,
// GuardInline for one-way IC sites (a class hit doubles as the
// enter) — and every body exit leaves in one instruction: RetVal
// becomes InlineRet (result move + ledger decrement + jump past the
// splice), RetVoid a jumping LeaveInline. The EnterInline/GuardInline
// depth tick keeps the activation ledger exact, so StackOverflow still
// traps where the tree-walker's recursive call would.
//
// Two properties keep the flattened form cheap enough to beat the call
// it replaces (bench_exec's inlining section gates on it):
//
//  * One shared extension region per caller. Control can only ever be
//    inside one splice at a time (bodies are self-contained, and a
//    callee trap leaves through the site's trampoline before caller
//    code resumes), so every splice renumbers into the same extension
//    behind the caller's NumSlots, whose ref and non-ref regions are
//    each sized by the LARGEST splice, not the sum — a caller with a
//    dozen splices grows its frame (and its entry ref-nulling walk) by
//    about one callee, not twelve.
//
//  * Parameter aliasing. When the callee never writes a parameter slot
//    (pre-fusion streams write frame slots only through Dst, so this is
//    an exact scan), the body's parameter reads are renumbered straight
//    to the caller's argument slots and the per-execution entry Moves
//    vanish. The caller cannot mutate those slots mid-splice — only the
//    body executes between EnterInline and LeaveInline.
//
// Profile gating: sites the tier-0 run never executed keep their calls
// (a cold splice is pure frame/stream bloat). A one-way IC's heat is its
// own profile site's tally (ICEntry::Site), a direct call's the callee's
// invocation count. reprepareModule always
// passes the tier-0 ProfileData; direct tier-1 preparation without a
// profile splices every eligible site (the forced-inlining test mode).
//
// One-way IC sites keep their receiver speculation as a GuardInline in
// front of the splice; a guard miss branches to an out-of-line copy of
// the original one-way DispatchIC appended behind the unit's code — the
// un-inlined callee ExecUnit stays live, so no deoptimization metadata
// is needed, and the fallback also tallies the site's IC counters.
//
// Exception structure is preserved: a callee-internal handler rebases
// into the spliced body; a callee trap that would unwind transfers to a
// per-site trampoline (LeaveInline, then jump to the caller's handler
// stub) when the call site itself sits in a try, so catch semantics and
// the depth ledger both match the un-inlined execution. Frames are
// untagged, so the shared extension is typed: a ref region that every
// splice numbers its reference slots into and a non-ref region for the
// rest, each sized by the largest splice. The whole ref region joins the
// caller's RefSlots, so caller-entry nulling and GC root enumeration
// cover every slot any splice treats as a ref, and no slot they scan can
// hold another splice's integer (DESIGN.md §14).
//
// The pass is two-phase and closed: every site across every unit is
// planned against the original pass-2 streams, then every mutated unit
// is rebuilt into fresh, exactly-reserved vectors and swapped in at the
// end. A callee snapshot therefore never contains Enter/LeaveInline
// from its own inlining, keeping each splice's one-Leave accounting
// exact even when a callee was itself a caller.

/// True when \p U performs any unit-level call (native calls excluded:
/// they cannot re-enter prepared code).
static bool hasUnitCall(const ExecUnit &U) {
  for (const ExecInst &X : U.Code)
    switch (X.Op) {
    case XOp::CallUnit:
    case XOp::Dispatch:
    case XOp::DispatchIC:
      return true;
    default:
      break;
    }
  return false;
}

/// Callee eligibility: fits the instruction budget, contains no virtual
/// dispatch, and any remaining direct calls target leaf units — so a
/// flattened frame nests at most one real invoke deep and the splice
/// size stays bounded by the budget.
static bool inlinableCallee(const ExecUnit &C, uint32_t Budget) {
  if (C.Code.size() > Budget)
    return false;
  for (const ExecInst &X : C.Code)
    switch (X.Op) {
    case XOp::Dispatch:
    case XOp::DispatchIC:
      return false;
    case XOp::CallUnit: {
      const ExecUnit *T = static_cast<const ExecUnit *>(X.P);
      if (!T || hasUnitCall(*T))
        return false;
      break;
    }
    default:
      break;
    }
  return true;
}

/// True when \p C writes any of its own parameter slots. Pre-fusion
/// streams write frame slots only through Dst (the fused forms that
/// also write B/C are produced after inlining), so this scan is exact
/// for the callee snapshots the inliner splices.
static bool writesParamSlot(const ExecUnit &C) {
  for (const ExecInst &X : C.Code)
    if (X.Dst != ExecInst::NoSlot && X.Dst < C.NumArgs)
      return true;
  return false;
}

static void inlineHotSites(PreparedModule &PM, const LowerOptions &Opts,
                           BumpArena &Arrays) {
  struct Plan {
    size_t SiteIdx;                ///< Caller code index of the call.
    const ExecUnit *Callee;
    const ClassSymbol *GuardClass; ///< Non-null for one-way IC sites.
    bool AliasArgs;                ///< Read-only params: no entry Moves.
    uint64_t Heat;                 ///< Profiled dynamic calls through it.
  };
  const ProfileData *Prof = Opts.Profile;
  // Phase 1: plan every unit against the original streams (no unit is
  // mutated until every plan is final).
  std::vector<std::vector<Plan>> Plans(PM.Units.size());
  for (const ExecUnit *UP : PM.Units) {
    const ExecUnit &U = *UP;
    // A caller the tier-0 run never entered cannot amortize a bigger
    // frame or stream; keep its calls.
    if (Prof && U.Index < Prof->numUnits() &&
        Prof->invocations(U.Index) == 0)
      continue;
    for (size_t I = 0; I != U.Code.size(); ++I) {
      const ExecInst &X = U.Code[I];
      const ExecUnit *Callee = nullptr;
      const ClassSymbol *Guard = nullptr;
      uint64_t Heat = 1; // No profile: splice every eligible site.
      if (X.Op == XOp::CallUnit) {
        Callee = static_cast<const ExecUnit *>(X.P);
        // Direct calls carry no per-site profile; the callee's
        // module-wide activation count is the closest heat signal.
        if (Prof && Callee && Callee->Index < Prof->numUnits())
          Heat = Prof->invocations(Callee->Index);
      } else if (X.Op == XOp::DispatchIC && U.ICs[X.S].Ways == 1) {
        const ICEntry &E = U.ICs[X.S];
        Callee = E.Targets[0];
        Guard = E.Classes[0];
        if (Prof && E.Site < Prof->numSites())
          Heat = Prof->site(E.Site).total();
      }
      if (!Callee || Callee == &U || Heat == 0)
        continue;
      if (!inlinableCallee(*Callee, Opts.Policy.InlineBudget))
        continue;
      if (Callee->NumArgs != X.N)
        continue; // Defensive; arity always matches in verified modules.
      if (U.NumSlots + 2 * Callee->NumSlots > 0xfffeu)
        continue; // The shared extension would overflow the slot space.
      Plans[U.Index].push_back(
          {I, Callee, Guard, !writesParamSlot(*Callee), Heat});
    }
  }

  // Phase 2: rebuild every planned caller into scratch vectors, reading
  // only original streams; copy them in at the end (phase 3).
  struct Rebuilt {
    ExecUnit *U;
    std::vector<ExecInst> Code;
    std::vector<uint16_t> ArgPool;
    std::vector<Word> ConstPool;
    std::vector<std::string_view> StrPool;
    std::vector<uint16_t> RefSlots;
    uint32_t NumSlots;
  };
  std::vector<Rebuilt> Results;
  for (ExecUnit *UP : PM.Units) {
    ExecUnit &U = *UP;
    const std::vector<Plan> &Sites = Plans[U.Index];
    if (Sites.empty())
      continue;
    const ArenaArray<ExecInst> &Old = U.Code;
    const size_t OldN = Old.size();

    // All splices in this caller time-share one frame extension, split
    // into a ref region [RefBase, RefBase + MaxRef) and a non-ref region
    // [ValBase, ValBase + MaxVal), each sized by the largest splice, not
    // the sum. A splice numbers its own slots densely into the region of
    // their kind (aliased parameters stay caller slots), so a slot of the
    // ref region only ever holds a reference and the caller's RefSlots
    // can list the whole region. 16-bit slot safety was checked per site
    // in phase 1 (both regions together are at most twice the largest
    // callee frame).
    auto ExtCounts = [](const Plan &P, uint32_t &Refs, uint32_t &Vals) {
      const ExecUnit &C = *P.Callee;
      uint32_t First = P.AliasArgs ? C.NumArgs : 0;
      Refs = static_cast<uint32_t>(
          C.RefSlots.end() -
          std::lower_bound(C.RefSlots.begin(), C.RefSlots.end(), First));
      Vals = C.NumSlots - First - Refs;
    };
    uint32_t MaxRef = 0, MaxVal = 0;
    for (const Plan &P : Sites) {
      uint32_t Refs, Vals;
      ExtCounts(P, Refs, Vals);
      MaxRef = std::max(MaxRef, Refs);
      MaxVal = std::max(MaxVal, Vals);
    }
    const uint16_t RefBase = static_cast<uint16_t>(U.NumSlots);
    const uint16_t ValBase = static_cast<uint16_t>(U.NumSlots + MaxRef);

    Rebuilt R;
    R.U = &U;
    R.NumSlots = U.NumSlots + MaxRef + MaxVal;
    // Exact final sizes, reserved once (no per-splice reallocation).
    {
      size_t CodeLen = OldN, ArgLen = U.ArgPool.size();
      size_t ConstLen = U.ConstPool.size(), StrLen = U.StrPool.size();
      size_t RefLen = U.RefSlots.size() + MaxRef;
      for (const Plan &P : Sites) {
        const ExecInst &S = Old[P.SiteIdx];
        bool Guarded = P.GuardClass != nullptr;
        bool Tramp = S.Handler >= 0;
        // Guard-or-Enter + arg moves (aliased: none) + body +
        // trampoline?, replacing the 1-instruction call site; guarded
        // sites add a 2-instruction out-of-line fallback. Body exits
        // jump the ledger out themselves, so there is no continuation
        // instruction.
        CodeLen += 1 + (P.AliasArgs ? 0 : S.N) + P.Callee->Code.size() +
                   (Tramp ? 1 : 0) - 1 + (Guarded ? 2 : 0);
        ArgLen += P.Callee->ArgPool.size();
        ConstLen += P.Callee->ConstPool.size();
        StrLen += P.Callee->StrPool.size();
      }
      R.Code.reserve(CodeLen);
      R.ArgPool.reserve(ArgLen);
      R.ConstPool.reserve(ConstLen);
      R.StrPool.reserve(StrLen);
      R.RefSlots.reserve(RefLen);
    }
    // Caller pools stay as stable prefixes: verbatim instructions (and
    // the out-of-line fallback's DispatchIC) keep their pool indices.
    R.ArgPool.insert(R.ArgPool.end(), U.ArgPool.begin(), U.ArgPool.end());
    R.ConstPool.insert(R.ConstPool.end(), U.ConstPool.begin(),
                       U.ConstPool.end());
    R.StrPool.insert(R.StrPool.end(), U.StrPool.begin(), U.StrPool.end());
    R.RefSlots.insert(R.RefSlots.end(), U.RefSlots.begin(),
                      U.RefSlots.end());
    for (uint32_t K = 0; K != MaxRef; ++K)
      R.RefSlots.push_back(static_cast<uint16_t>(RefBase + K));

    // Old code index -> new code index (Map[OldN] = end), plus the new
    // positions whose X / Handler still hold old caller indices to remap
    // once the map is complete.
    std::vector<size_t> Map(OldN + 1, 0);
    std::vector<size_t> FixX, FixH;
    struct FallbackRec {
      ExecInst Orig;   ///< The replaced one-way DispatchIC, verbatim.
      size_t AfterOld; ///< Old index of the site's continuation.
      size_t GuardAt;  ///< New index of the GuardInline to patch.
    };
    std::vector<FallbackRec> Fallbacks;

    std::vector<uint16_t> Remap; // Callee slot -> caller slot.
    size_t NextPlan = 0;
    for (size_t I = 0; I != OldN; ++I) {
      Map[I] = R.Code.size();
      if (NextPlan != Sites.size() && Sites[NextPlan].SiteIdx == I) {
        const Plan &P = Sites[NextPlan++];
        const ExecUnit &C = *P.Callee;
        const ExecInst S = Old[I];
        const bool Tramp = S.Handler >= 0;

        // Exactly one entry instruction: a guard hit doubles as the
        // EnterInline (depth check + ledger bump in the handler), so
        // only unguarded direct splices need the separate EnterInline.
        if (P.GuardClass) {
          ExecInst G;
          G.Op = XOp::GuardInline;
          G.A = U.ArgPool[S.X]; // Receiver slot (safe-ref certificate).
          G.P = P.GuardClass;
          Fallbacks.push_back({S, I + 1, R.Code.size()});
          R.Code.push_back(G); // X patched to the fallback below.
        } else {
          ExecInst E;
          E.Op = XOp::EnterInline;
          R.Code.push_back(E);
        }
        // Slot renumbering: body slots land in the extension region of
        // their kind, in slot order; when the body never writes its
        // parameters, parameter reads alias the caller's argument slots
        // directly and the entry Moves below are dropped.
        Remap.resize(C.NumSlots);
        {
          uint32_t First = P.AliasArgs ? C.NumArgs : 0;
          for (uint32_t Slot = 0; Slot != First; ++Slot)
            Remap[Slot] = U.ArgPool[S.X + Slot];
          uint16_t NextRef = RefBase, NextVal = ValBase;
          auto RS = C.RefSlots.begin();
          for (uint32_t Slot = First; Slot != C.NumSlots; ++Slot) {
            while (RS != C.RefSlots.end() && *RS < Slot)
              ++RS;
            bool IsRef = RS != C.RefSlots.end() && *RS == Slot;
            Remap[Slot] = IsRef ? NextRef++ : NextVal++;
          }
        }
        // Unused operand fields are zero and never read; they renumber
        // like slot 0 (or stay 0 for a slotless callee).
        auto MapSlot = [&](uint16_t Slot) {
          return Slot < C.NumSlots ? Remap[Slot] : Slot;
        };
        // Frame flattening: the call's argument transfer becomes plain
        // Moves into the callee's renumbered argument slots
        // (read-only-param callees skip even that).
        if (!P.AliasArgs)
          for (unsigned K = 0; K != S.N; ++K) {
            ExecInst Mv;
            Mv.Op = XOp::Move;
            Mv.A = U.ArgPool[S.X + K];
            Mv.Dst = Remap[K];
            R.Code.push_back(Mv);
          }
        const size_t BodyBase = R.Code.size();
        const size_t TrampAt = BodyBase + C.Code.size();
        // First instruction after the splice: body exits jump straight
        // there, carrying the ledger decrement themselves.
        const size_t After = TrampAt + (Tramp ? 1 : 0);
        const int32_t ConstOff = static_cast<int32_t>(R.ConstPool.size());
        const int32_t StrOff = static_cast<int32_t>(R.StrPool.size());
        const int32_t ArgOff = static_cast<int32_t>(R.ArgPool.size());
        R.ConstPool.insert(R.ConstPool.end(), C.ConstPool.begin(),
                           C.ConstPool.end());
        R.StrPool.insert(R.StrPool.end(), C.StrPool.begin(),
                         C.StrPool.end());
        for (uint16_t A : C.ArgPool)
          R.ArgPool.push_back(MapSlot(A));

        for (const ExecInst &CI : C.Code) {
          ExecInst Y = CI;
          // A/B/C are always frame slots in this ISA; unused fields are
          // zero and never read, so blind renumbering is safe.
          Y.A = MapSlot(Y.A);
          Y.B = MapSlot(Y.B);
          Y.C = MapSlot(Y.C);
          if (Y.Dst != ExecInst::NoSlot)
            Y.Dst = MapSlot(Y.Dst);
          switch (CI.Op) {
          case XOp::RetVal:
            Y.Op = XOp::InlineRet; // Result move + ledger-out + jump.
            Y.Dst = S.Dst;         // Site result slot (may be NoSlot).
            Y.X = static_cast<int32_t>(After);
            break;
          case XOp::RetVoid:
            Y.Op = XOp::LeaveInline; // Ledger-out + jump, one dispatch.
            Y.X = static_cast<int32_t>(After);
            break;
          case XOp::Jmp:
          case XOp::BrFalse:
            Y.X += static_cast<int32_t>(BodyBase); // Body-internal.
            break;
          case XOp::LoadConst:
            Y.X += ConstOff;
            break;
          case XOp::LoadStr:
            Y.X += StrOff;
            break;
          case XOp::CallUnit:
          case XOp::CallNative:
            Y.X += ArgOff;
            break;
          default:
            break; // Field/static/pool-free: X is frame-independent.
          }
          if (CI.Handler >= 0)
            Y.Handler = static_cast<int32_t>(BodyBase) + CI.Handler;
          else if (Tramp)
            Y.Handler = static_cast<int32_t>(TrampAt);
          R.Code.push_back(Y);
        }
        if (Tramp) {
          // Catchable callee trap with the call site in a try: one
          // jumping LeaveInline unwinds the inlined frame and enters
          // the caller's handler stub.
          ExecInst L;
          L.Op = XOp::LeaveInline;
          L.X = S.Handler; // Old caller index; remapped below.
          FixX.push_back(R.Code.size());
          R.Code.push_back(L);
        }
        ++PM.Tiering.InlinedSites;
        PM.Tiering.InlinedHeat += P.Heat;
        continue;
      }
      ExecInst Y = Old[I];
      if (Y.Op == XOp::Jmp || Y.Op == XOp::BrFalse)
        FixX.push_back(R.Code.size());
      if (Y.Handler >= 0)
        FixH.push_back(R.Code.size());
      R.Code.push_back(Y);
    }
    Map[OldN] = R.Code.size();

    // Out-of-line guard-miss fallbacks: the original one-way DispatchIC
    // (same IC entry, same caller ArgPool indices — the prefix is
    // unchanged),
    // then a jump back to the site's continuation.
    for (const FallbackRec &F : Fallbacks) {
      R.Code[F.GuardAt].X = static_cast<int32_t>(R.Code.size());
      ExecInst D = F.Orig;
      if (D.Handler >= 0)
        FixH.push_back(R.Code.size());
      R.Code.push_back(D);
      ExecInst J;
      J.Op = XOp::Jmp;
      J.X = static_cast<int32_t>(F.AfterOld);
      FixX.push_back(R.Code.size());
      R.Code.push_back(J);
    }

    for (size_t Pos : FixX)
      R.Code[Pos].X =
          static_cast<int32_t>(Map[static_cast<size_t>(R.Code[Pos].X)]);
    for (size_t Pos : FixH)
      R.Code[Pos].Handler =
          static_cast<int32_t>(Map[static_cast<size_t>(R.Code[Pos].Handler)]);
    Results.push_back(std::move(R));
  }

  // Phase 3: copy every rebuilt unit in, exactly sized, in the arrays
  // arena. Until here every unit still exposed its original stream, so
  // cross-unit splices read consistent (pre-inline) callee bodies.
  BumpArena &A = Arrays;
  for (Rebuilt &R : Results) {
    ExecUnit &U = *R.U;
    U.Code = A.copyArray(R.Code.data(), R.Code.size());
    U.ArgPool = A.copyArray(R.ArgPool.data(), R.ArgPool.size());
    U.ConstPool = A.copyArray(R.ConstPool.data(), R.ConstPool.size());
    U.StrPool = A.copyArray(R.StrPool.data(), R.StrPool.size());
    U.RefSlots = A.copyArray(R.RefSlots.data(), R.RefSlots.size());
    U.NumSlots = R.NumSlots;
  }
}

/// What a module's prepared form takes in its arena per instruction id
/// of its methods (code, pools, slot maps and the unit records): 40-51
/// bytes at tier 0 over the frozen pool, so every pool module's units fit
/// the first slab.
constexpr size_t ArenaBytesPerInstId = 52;

/// Moves every unit's arrays into \p PM's arena, all in one slab of just
/// their size: tier 1 builds them in a scratch arena, where splicing
/// leaves the replaced streams behind.
static void moveArrays(PreparedModule &PM) {
  // Each array starts 8-aligned at worst, so rounding every one up to 8
  // bytes bounds the padding.
  auto Bytes = [](const auto &A) {
    return (A.size() * sizeof(A[0]) + 7) & ~size_t(7);
  };
  size_t Total = 0;
  for (const ExecUnit *U : PM.Units)
    Total += Bytes(U->Code) + Bytes(U->ArgPool) + Bytes(U->ConstPool) +
             Bytes(U->StrPool) + Bytes(U->ICs) + Bytes(U->RefSlots);
  BumpArena &A = PM.arena();
  A.reserve(Total);
  auto Move = [&A](auto &Array) {
    Array = A.copyArray(Array.data(), Array.size());
  };
  for (ExecUnit *U : PM.Units) {
    Move(U->Code);
    Move(U->ArgPool);
    Move(U->ConstPool);
    Move(U->StrPool);
    Move(U->ICs);
    Move(U->RefSlots);
  }
}

std::unique_ptr<PreparedModule> lowerModule(const TSAModule &Module,
                                            const LowerOptions &Opts) {
  size_t NumInstIds = 0, NumGlobalIds = Module.Table->getAllMethods().size();
  for (const TSAMethod *M : Module.Methods) {
    NumInstIds += M->numInstIds();
    NumGlobalIds = std::max<size_t>(NumGlobalIds, M->Symbol->GlobalId + 1);
  }
  // Tier 0 lowers straight into the module's arena, sized for records and
  // arrays alike; tier 1 lowers its arrays into a scratch arena and moves
  // the final ones over once splicing and fusion are done, so its first
  // slab holds just the records.
  size_t RecordBytes = Module.Methods.size() * (sizeof(ExecUnit) + 16) +
                       NumGlobalIds * sizeof(ExecUnit *) + 64;
  auto PM = std::make_unique<PreparedModule>(
      Opts.Tier == 0 ? NumInstIds * ArenaBytesPerInstId : RecordBytes);
  PM->Module = &Module;
  PM->Tier = Opts.Tier;
  BumpArena &A = PM->arena();
  PM->ByGlobalId = A.allocArray<const ExecUnit *>(NumGlobalIds);

  // Pass 1: shells, so cross-method calls (and tier-1 IC targets) take
  // direct unit pointers.
  PM->Units = A.allocArray<ExecUnit *>(Module.Methods.size());
  for (size_t I = 0; I != Module.Methods.size(); ++I) {
    const TSAMethod *M = Module.Methods[I];
    ExecUnit *U = A.create<ExecUnit>();
    U->Method = M;
    U->Symbol = M->Symbol;
    U->Index = static_cast<uint32_t>(I);
    PM->ByGlobalId[M->Symbol->GlobalId] = U;
    PM->Units[I] = U;
  }

  // Pass 2: lower every body. L.NextSite numbers dispatch sites
  // module-wide in lowering order (deterministic across preparations).
  LowerScratch &X = lowerScratch();
  BumpArena Spliced(Opts.Tier == 0 ? 0 : NumInstIds * ArenaBytesPerInstId);
  BumpArena &Arrays = Opts.Tier == 0 ? PM->arena() : Spliced;
  MethodLowerer L(*PM, Opts, Arrays, X);
  bool Lowered = true;
  for (ExecUnit *U : PM->Units)
    if (!(Lowered = L.run(*U)))
      break;
  if (X.bytes() > LowerScratch::kCap)
    X = LowerScratch();
  if (!Lowered)
    return nullptr;

  // Pass 2.5 (tier 1): speculative inlining — splice small statically-
  // known callees into their callers before fusion, so the fused stream
  // sees the flattened code (DESIGN.md §14).
  if (Opts.Tier >= 1 && Opts.Policy.InlineBudget > 0)
    inlineHotSites(*PM, Opts, Arrays);

  // Pass 3 (tier 1): fuse after every handler stub and branch target has
  // been patched, so the peephole sees final indices.
  if (Opts.Tier >= 1 && !Opts.Policy.NoFusion)
    for (ExecUnit *U : PM->Units)
      fuseUnit(*U);

  if (Opts.Tier >= 1)
    moveArrays(*PM);

  // Tier 0 carries the side profile the optimizing tier will consume.
  if (Opts.Tier == 0)
    PM->Profile = std::make_unique<ProfileData>(PM->Units.size(), L.NextSite);

  for (const ExecUnit *U : PM->Units) {
    const MethodSymbol *S = U->Symbol;
    if (S->IsStatic && S->Name == "main" && S->ParamTys.empty()) {
      PM->MainUnit = U;
      break;
    }
  }
  return PM;
}

} // namespace

std::unique_ptr<PreparedModule>
safetsa::prepareModule(const TSAModule &Module) {
  return lowerModule(Module, LowerOptions{});
}

std::unique_ptr<PreparedModule>
safetsa::reprepareModule(const PreparedModule &T0, const ExecPolicy &Policy) {
  LowerOptions Opts;
  Opts.Tier = 1;
  Opts.Profile = T0.Profile.get();
  Opts.Policy = Policy;
  return lowerModule(*T0.Module, Opts);
}
