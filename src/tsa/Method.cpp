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

/// CST -> CFG walker. Links each edge into Preds/Succs as it meets it,
/// in a deterministic order (the same order the generator created them
/// in), and collects the block visit order.
class CFGDeriver {
public:
  explicit CFGDeriver(size_t NumBlocks) { Order.reserve(NumBlocks); }

  std::vector<BasicBlock *> Order;

  /// Innermost active exception handler entry (null outside any try).
  BasicBlock *CatchTarget = nullptr;

  /// A fall-out set: the blocks control may leave a sequence from. Almost
  /// always 1-2 blocks, so it lives inline.
  using BlockSet = SmallVector<BasicBlock *, 4>;

  /// Processes \p Seq with control arriving from \p Incoming; returns the
  /// set of blocks whose control falls out of the sequence.
  BlockSet processSeq(const CSTSeq &Seq, BlockSet Incoming,
                      BasicBlock *LoopHeader, BlockSet *LoopBreaks) {
    for (const auto &Node : Seq) {
      switch (Node->K) {
      case CSTNode::Kind::Basic:
        for (BasicBlock *P : Incoming)
          addEdge(P, Node->BB);
        visit(Node->BB);
        if (Node->RaisesToCatch) {
          assert(CatchTarget && "exception edge outside of a try region");
          addEdge(Node->BB, CatchTarget);
        }
        Incoming.assign(1, Node->BB);
        break;

      case CSTNode::Kind::Try: {
        // Then = protected body, Else = handler. Exception edges are
        // emitted while walking the body (RaisesToCatch flags); the
        // handler is entered only through them.
        assert(!Node->Else.empty() &&
               Node->Else.front()->K == CSTNode::Kind::Basic &&
               "try handler must start with a basic block");
        BasicBlock *SavedCatch = CatchTarget;
        CatchTarget = Node->Else.front()->BB;
        BlockSet BodyOut =
            processSeq(Node->Then, std::move(Incoming), LoopHeader,
                       LoopBreaks);
        CatchTarget = SavedCatch;
        BlockSet HandlerOut =
            processSeq(Node->Else, {}, LoopHeader, LoopBreaks);
        Incoming = std::move(BodyOut);
        Incoming.insert(Incoming.end(), HandlerOut.begin(),
                        HandlerOut.end());
        break;
      }

      case CSTNode::Kind::If: {
        // The decision block is the current block; both arms start from it.
        BlockSet ThenOut =
            processSeq(Node->Then, Incoming, LoopHeader, LoopBreaks);
        BlockSet ElseOut =
            Node->Else.empty()
                ? std::move(Incoming)
                : processSeq(Node->Else, std::move(Incoming), LoopHeader,
                             LoopBreaks);
        Incoming = std::move(ThenOut);
        Incoming.insert(Incoming.end(), ElseOut.begin(), ElseOut.end());
        break;
      }

      case CSTNode::Kind::Loop: {
        // Back edges target the header's first block (where the phis
        // live); the condition is available in the header sequence's
        // fall-out block, whose true edge enters the body and whose false
        // edge leaves the loop.
        assert(!Node->Header.empty() &&
               Node->Header.front()->K == CSTNode::Kind::Basic &&
               "loop header must start with a basic block");
        BasicBlock *HeaderEntry = Node->Header.front()->BB;
        BlockSet Decision =
            processSeq(Node->Header, std::move(Incoming), nullptr, nullptr);
        BlockSet Breaks;
        BlockSet BodyOut =
            processSeq(Node->Body, Decision, HeaderEntry, &Breaks);
        for (BasicBlock *Latch : BodyOut)
          addEdge(Latch, HeaderEntry); // Back edges.
        // Control leaves via the decision block's false branch and breaks.
        Incoming = std::move(Decision);
        Incoming.insert(Incoming.end(), Breaks.begin(), Breaks.end());
        break;
      }

      case CSTNode::Kind::Return:
        Incoming.clear();
        break;

      case CSTNode::Kind::Break:
        assert(LoopBreaks && "break outside of a loop");
        LoopBreaks->insert(LoopBreaks->end(), Incoming.begin(),
                           Incoming.end());
        Incoming.clear();
        break;

      case CSTNode::Kind::Continue:
        assert(LoopHeader && "continue outside of a loop");
        for (BasicBlock *P : Incoming)
          addEdge(P, LoopHeader);
        Incoming.clear();
        break;
      }
    }
    return Incoming;
  }

private:
  void visit(BasicBlock *BB) { Order.push_back(BB); }
  void addEdge(BasicBlock *From, BasicBlock *To) {
    From->Succs.push_back(To);
    To->Preds.push_back(From);
  }
};

} // namespace

void TSAMethod::deriveCFG() {
  // The walk links edges in place, so clear the derived links first. Ids
  // become creation positions for the ownership check below.
  for (size_t I = 0; I != Blocks.size(); ++I) {
    BasicBlock *BB = Blocks[I];
    BB->Id = static_cast<unsigned>(I);
    BB->Preds.clear();
    BB->Succs.clear();
    BB->IDom = nullptr;
    BB->DomDepth = 0;
  }

  CFGDeriver Deriver(Blocks.size());
  Deriver.processSeq(Root, {}, nullptr, nullptr);

  assert(Deriver.Order.size() == Blocks.size() &&
         "CST does not cover every block exactly once");
#ifndef NDEBUG
  for (BasicBlock *BB : Deriver.Order)
    assert(BB->Id < Blocks.size() && Blocks[BB->Id] == BB &&
           "CST references an unowned block");
#endif
  // Renumber blocks into CST walk order (== dominator-tree pre-order).
  // Blocks are arena-owned, so reordering is pointer shuffling.
  Blocks.swap(Deriver.Order);
  for (size_t I = 0; I != Blocks.size(); ++I)
    Blocks[I]->Id = static_cast<unsigned>(I);

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

  for (auto &BB : Blocks)
    BB->DomDepth = BB->IDom ? BB->IDom->DomDepth + 1 : 0;
}

void TSAMethod::finalize(PlaneContext &Ctx) {
  Planes.clear();
  for (auto &BB : Blocks) {
    BB->PlaneCounts.clear();
    for (auto &I : BB->Insts) {
      std::optional<PlaneKey> Plane = resultPlane(*I, Ctx);
      if (!Plane) {
        I->PlaneId = PlaneInterner::None;
        continue;
      }
      uint32_t Id = Planes.intern(*Plane);
      I->PlaneId = Id;
      if (Id >= BB->PlaneCounts.size())
        BB->PlaneCounts.resize(Id + 1, 0);
      I->PlaneIndex = BB->PlaneCounts[Id]++;
    }
  }
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
