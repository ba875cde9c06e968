//===- tsa/Method.cpp - CFG derivation and numbering ----------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Derives the control-flow graph and dominator tree from the Control
/// Structure Tree. Both the producer and the consumer run the same
/// derivation, so the dominator relation — the foundation of the (l, r)
/// reference scheme — can never disagree between the two sides.
///
//===----------------------------------------------------------------------===//

#include "tsa/Method.h"
#include "tsa/Signature.h"

using namespace safetsa;

namespace {

/// CST -> CFG walker. Records each edge as it meets it, in a
/// deterministic order (the same order the generator created them in),
/// and collects the block visit order.
///
/// A fall-out set -- the blocks control may leave a sequence from -- is
/// the top of the Pending stack from a sequence's base index on, so the
/// walk needs no per-node storage: processSeq(Seq, Base) finds its
/// incoming set at Pending[Base..] and leaves its fall-out set there.
class CFGDeriver {
public:
  explicit CFGDeriver(CFGScratch &S) : S(S) {}

  /// Innermost active exception handler entry (null outside any try).
  BasicBlock *CatchTarget = nullptr;

  void processSeq(const CSTSeq &Seq, size_t Base, BasicBlock *LoopHeader,
                  bool InLoop) {
    std::vector<BasicBlock *> &P = S.Pending;
    for (const CSTNode *Node : Seq) {
      switch (Node->K) {
      case CSTNode::Kind::Basic:
        for (size_t I = Base; I != P.size(); ++I)
          addEdge(P[I], Node->BB);
        S.Order.push_back(Node->BB);
        if (Node->RaisesToCatch) {
          assert(CatchTarget && "exception edge outside of a try region");
          addEdge(Node->BB, CatchTarget);
        }
        P.resize(Base);
        P.push_back(Node->BB);
        break;

      case CSTNode::Kind::Try: {
        // Then = protected body, Else = handler. Exception edges are
        // emitted while walking the body (RaisesToCatch flags); the
        // handler is entered only through them. Fall-out: body's, then
        // the handler's.
        assert(!Node->Else.empty() &&
               Node->Else.front()->K == CSTNode::Kind::Basic &&
               "try handler must start with a basic block");
        BasicBlock *SavedCatch = CatchTarget;
        CatchTarget = Node->Else.front()->BB;
        processSeq(Node->Then, Base, LoopHeader, InLoop);
        CatchTarget = SavedCatch;
        processSeq(Node->Else, P.size(), LoopHeader, InLoop);
        break;
      }

      case CSTNode::Kind::If: {
        // The decision block is the current block; both arms start from
        // it. Fall-out: the then arm's, then the else arm's (the decision
        // set itself when there is no else).
        size_t In = P.size();
        copyToTop(Base, In);
        processSeq(Node->Then, In, LoopHeader, InLoop);
        if (Node->Else.empty()) {
          std::rotate(P.begin() + Base, P.begin() + In, P.end());
          break;
        }
        size_t ElseBase = P.size();
        copyToTop(Base, In);
        processSeq(Node->Else, ElseBase, LoopHeader, InLoop);
        P.erase(P.begin() + Base, P.begin() + In);
        break;
      }

      case CSTNode::Kind::Loop: {
        // Back edges target the header's first block (where the phis
        // live); the condition is available in the header sequence's
        // fall-out block, whose true edge enters the body and whose false
        // edge leaves the loop, as do the breaks.
        assert(!Node->Header.empty() &&
               Node->Header.front()->K == CSTNode::Kind::Basic &&
               "loop header must start with a basic block");
        BasicBlock *HeaderEntry = Node->Header.front()->BB;
        processSeq(Node->Header, Base, nullptr, false);
        size_t Decision = P.size();
        copyToTop(Base, Decision);
        size_t FirstBreak = S.Breaks.size();
        processSeq(Node->Body, Decision, HeaderEntry, true);
        for (size_t I = Decision; I != P.size(); ++I)
          addEdge(P[I], HeaderEntry); // Back edges.
        P.resize(Decision);
        P.insert(P.end(), S.Breaks.begin() + FirstBreak, S.Breaks.end());
        S.Breaks.resize(FirstBreak);
        break;
      }

      case CSTNode::Kind::Return:
        P.resize(Base);
        break;

      case CSTNode::Kind::Break:
        assert(InLoop && "break outside of a loop");
        S.Breaks.insert(S.Breaks.end(), P.begin() + Base, P.end());
        P.resize(Base);
        break;

      case CSTNode::Kind::Continue:
        assert(LoopHeader && "continue outside of a loop");
        for (size_t I = Base; I != P.size(); ++I)
          addEdge(P[I], LoopHeader);
        P.resize(Base);
        break;
      }
    }
  }

private:
  /// Pushes a copy of Pending[From, To) onto Pending.
  void copyToTop(size_t From, size_t To) {
    std::vector<BasicBlock *> &P = S.Pending;
    P.resize(P.size() + (To - From));
    std::copy(P.begin() + From, P.begin() + To, P.end() - (To - From));
  }
  void addEdge(BasicBlock *From, BasicBlock *To) {
    S.Edges.push_back({From, To});
  }

  CFGScratch &S;
};

} // namespace

void TSAMethod::deriveCFG(CFGScratch *Scratch) {
  CFGScratch Local;
  CFGScratch &S = Scratch ? *Scratch : Local;
  S.Order.clear();
  S.Pending.clear();
  S.Breaks.clear();
  S.Edges.clear();
  // Room to spare, so a module's next larger method seldom regrows them.
  for (std::vector<BasicBlock *> *V : {&S.Order, &S.Pending, &S.Breaks})
    if (V->capacity() < 2 * Blocks.size())
      V->reserve(std::max<size_t>(4 * Blocks.size(), 32));
  if (S.Edges.capacity() < 4 * Blocks.size())
    S.Edges.reserve(std::max<size_t>(8 * Blocks.size(), 64));
  for (std::vector<uint32_t> *V : {&S.NumPreds, &S.NumSuccs})
    if (V->capacity() < Blocks.size())
      V->reserve(std::max<size_t>(2 * Blocks.size(), 32));

  // Ids become creation positions for the ownership check below.
  for (size_t I = 0; I != Blocks.size(); ++I) {
    BasicBlock *BB = Blocks[I];
    BB->Id = static_cast<unsigned>(I);
    BB->IDom = nullptr;
    BB->DomDepth = 0;
  }

  CFGDeriver Deriver(S);
  Deriver.processSeq(Root, 0, nullptr, false);

  assert(S.Order.size() == Blocks.size() &&
         "CST does not cover every block exactly once");
#ifndef NDEBUG
  for (BasicBlock *BB : S.Order)
    assert(BB->Id < Blocks.size() && Blocks[BB->Id] == BB &&
           "CST references an unowned block");
#endif
  // Renumber blocks into CST walk order (== dominator-tree pre-order).
  // Blocks are arena-owned, so reordering is pointer shuffling.
  std::copy(S.Order.begin(), S.Order.end(), Blocks.begin());
  for (size_t I = 0; I != Blocks.size(); ++I)
    Blocks[I]->Id = static_cast<unsigned>(I);

  // Exact-size edge lists, filled in the order the walk met the edges;
  // a re-derivation reuses their storage when it is large enough.
  S.NumPreds.assign(Blocks.size(), 0);
  S.NumSuccs.assign(Blocks.size(), 0);
  for (auto [From, To] : S.Edges) {
    ++S.NumSuccs[From->Id];
    ++S.NumPreds[To->Id];
  }
  for (BasicBlock *BB : Blocks) {
    BB->Preds.clear();
    BB->Succs.clear();
    BB->Preds.resize(*Arena, S.NumPreds[BB->Id]);
    BB->Succs.resize(*Arena, S.NumSuccs[BB->Id]);
    S.NumPreds[BB->Id] = S.NumSuccs[BB->Id] = 0;
  }
  for (auto [From, To] : S.Edges) {
    From->Succs[S.NumSuccs[From->Id]++] = To;
    To->Preds[S.NumPreds[To->Id]++] = From;
  }

  // Iterative dominator computation (Cooper–Harvey–Kennedy). Blocks are in
  // a reverse-postorder-compatible order for structured CFGs.
  if (Blocks.empty())
    return;
  BasicBlock *Entry = Blocks.front();
  Entry->IDom = nullptr;

  auto Intersect = [](BasicBlock *A, BasicBlock *B) {
    while (A != B) {
      while (A->Id > B->Id)
        A = A->IDom;
      while (B->Id > A->Id)
        B = B->IDom;
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 1; I < Blocks.size(); ++I) {
      BasicBlock *BB = Blocks[I];
      BasicBlock *NewIDom = nullptr;
      for (BasicBlock *P : BB->Preds) {
        if (P != Entry && !P->IDom)
          continue; // Not yet processed this round.
        NewIDom = NewIDom ? Intersect(NewIDom, P) : P;
      }
      assert(NewIDom && "unreachable block in CST-derived CFG");
      if (BB->IDom != NewIDom) {
        BB->IDom = NewIDom;
        Changed = true;
      }
    }
  }

  for (BasicBlock *BB : Blocks)
    BB->DomDepth = BB->IDom ? BB->IDom->DomDepth + 1 : 0;
}

void TSAMethod::finalize(PlaneContext &Ctx) {
  PlaneNumbering &N = Ctx.Numbering;
  std::vector<uint32_t> &Counts = Ctx.Counts;
  N.begin();
  N.reserve(Ctx.Types.numTypes() + 16, NumInstIds);
  if (Counts.capacity() < 64)
    Counts.reserve(64);
  for (BasicBlock *BB : Blocks) {
    Counts.clear();
    for (Instruction *I : BB->Insts) {
      std::optional<PlaneKey> Plane = resultPlane(*I, Ctx);
      if (!Plane) {
        I->PlaneId = Instruction::NoPlane;
        continue;
      }
      uint32_t Id = N.intern(*Plane);
      I->PlaneId = Id;
      if (Id >= Counts.size())
        Counts.resize(Id + 1, 0);
      I->PlaneIndex = Counts[Id]++;
    }
    BB->PlaneCounts.clear();
    BB->PlaneCounts.resize(*Arena, Counts.size());
    std::copy(Counts.begin(), Counts.end(), BB->PlaneCounts.begin());
  }
  Planes.clear();
  Planes.resize(*Arena, N.keys().size());
  std::copy(N.keys().begin(), N.keys().end(), Planes.begin());
}

unsigned TSAMethod::countInstructions() const {
  unsigned N = 0;
  forEachInstruction([&](const Instruction &I) {
    if (!I.isPreload())
      ++N;
  });
  return N;
}

unsigned TSAMethod::countOpcode(Opcode Op) const {
  unsigned N = 0;
  forEachInstruction([&](const Instruction &I) {
    if (I.Op == Op)
      ++N;
  });
  return N;
}
