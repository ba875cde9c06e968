//===- tsa/Verifier.cpp ---------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tsa/Verifier.h"

#include "tsa/ConstFold.h"

#include <sstream>
#include <unordered_set>

using namespace safetsa;

void TSAVerifier::error(const TSAMethod &M, const std::string &Msg) {
  std::string Name = M.Symbol ? M.Symbol->signature() : "<method>";
  Errors.push_back(Name + ": " + Msg);
}

bool TSAVerifier::verify() {
  bool Ok = true;
  for (const auto &[F, C] : Module.StaticInits)
    if (!staticInitFits(C, F->Ty)) {
      Errors.push_back(std::string(F->Owner->Name) + "." +
                       std::string(F->Name) +
                       ": static initializer does not have the field's type");
      Ok = false;
    }
  for (TSAMethod *M : Module.Methods)
    Ok &= verifyMethod(*M);
  return Ok;
}

bool TSAVerifier::verifyMethod(TSAMethod &M) {
  size_t ErrorsBefore = Errors.size();

  if (!checkCSTStructure(M))
    return false; // CFG derivation would not be safe.

  M.deriveCFG(&Ctx.CFG);
  M.finalize(Ctx);

  // Entry block must have no predecessors; every other block at least one.
  if (!M.Blocks.empty() && !M.getEntry()->Preds.empty())
    error(M, "entry block has predecessors");

  Pos.clear();
  for (const BasicBlock *BB : M.Blocks)
    for (unsigned I = 0; I != BB->Insts.size(); ++I)
      Pos[BB->Insts[I]] = {BB, I};

  checkBlocks(M);
  checkCSTValueRefs(M, M.Root, nullptr);

  return Errors.size() == ErrorsBefore;
}

//===----------------------------------------------------------------------===//
// Counter check (paper §9)
//===----------------------------------------------------------------------===//

bool safetsa::counterCheckMethod(const TSAMethod &M, PlaneContext &Ctx) {
  // Plane typing is assumed intact (see header); finalize() cached each
  // value's interned plane id, so the per-operand cost is one array index
  // — the paper's "simple counters", literally.
  (void)Ctx;
  std::vector<unsigned> Running(M.Planes.size(), 0);
  for (const BasicBlock *BB : M.Blocks) {
    Running.assign(Running.size(), 0);
    for (const Instruction *I : BB->Insts) {
      for (size_t K = 0; K != I->Operands.size(); ++K) {
        const Instruction *Op = I->Operands[K];
        if (!Op || !Op->Parent)
          return false;
        const BasicBlock *D = Op->Parent;
        uint32_t Plane = Op->PlaneId;
        if (Plane >= Running.size())
          return false; // No result value, or another method's plane id.
        // Phi operand k is checked against the end of predecessor k.
        const BasicBlock *Use =
            I->isPhi() ? (K < BB->Preds.size() ? BB->Preds[K] : nullptr)
                       : BB;
        if (!Use)
          return false;
        if (D == BB && !I->isPhi()) {
          if (Op->PlaneIndex >= Running[Plane])
            return false;
        } else {
          if (!BasicBlock::dominates(D, Use))
            return false;
          if (Op->PlaneIndex >= D->planeCount(Plane))
            return false;
        }
      }
      if (I->PlaneId != Instruction::NoPlane)
        ++Running[I->PlaneId];
    }
  }
  return true;
}

bool safetsa::counterCheckModule(const TSAModule &Module) {
  PlaneContext Ctx{*Module.Types, *Module.Table};
  for (const TSAMethod *M : Module.Methods)
    if (!counterCheckMethod(*M, Ctx))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// CST structure
//===----------------------------------------------------------------------===//

/// Validates the paper's exception-edge discipline before CFG derivation:
/// RaisesToCatch only inside try bodies; a flagged block's last
/// instruction may raise; inside a try body every raising instruction is
/// last-in-block and flagged (subblock splitting); every handler has at
/// least one incoming edge (otherwise it would be unreachable). On a
/// violation \p Why names it; the decoder runs this on every method, so
/// it builds no strings.
static bool checkExceptionEdges(const CSTSeq &Seq, bool InTryBody,
                                unsigned &EdgeCount, const char *&Why) {
  for (const CSTNode *Node : Seq) {
    switch (Node->K) {
    case CSTNode::Kind::Basic: {
      const BasicBlock *BB = Node->BB;
      bool LastRaises =
          BB && !BB->Insts.empty() && BB->Insts.back()->mayRaise();
      if (Node->RaisesToCatch) {
        if (!InTryBody) {
          Why = "exception edge outside of a try body";
          return false;
        }
        if (!LastRaises) {
          Why = "flagged block does not end with a raising instruction";
          return false;
        }
        ++EdgeCount;
      } else if (InTryBody && LastRaises) {
        Why = "raising instruction in a try body without an exception edge";
        return false;
      }
      if (InTryBody && BB)
        for (size_t I = 0; I + 1 < BB->Insts.size(); ++I)
          if (BB->Insts[I]->mayRaise()) {
            Why = "raising instruction is not the last of its subblock";
            return false;
          }
      break;
    }
    case CSTNode::Kind::If:
      if (!checkExceptionEdges(Node->Then, InTryBody, EdgeCount, Why) ||
          !checkExceptionEdges(Node->Else, InTryBody, EdgeCount, Why))
        return false;
      break;
    case CSTNode::Kind::Loop:
      if (!checkExceptionEdges(Node->Header, InTryBody, EdgeCount, Why) ||
          !checkExceptionEdges(Node->Body, InTryBody, EdgeCount, Why))
        return false;
      break;
    case CSTNode::Kind::Try: {
      unsigned Inner = 0;
      if (!checkExceptionEdges(Node->Then, /*InTryBody=*/true, Inner, Why))
        return false;
      if (Inner == 0) {
        Why = "try handler is unreachable (no exception edges)";
        return false;
      }
      // The handler's own exceptions route to the enclosing context.
      if (!checkExceptionEdges(Node->Else, InTryBody, EdgeCount, Why))
        return false;
      break;
    }
    default:
      break;
    }
  }
  return true;
}

bool safetsa::checkExceptionDiscipline(const TSAMethod &M,
                                       std::string *Err) {
  unsigned Edges = 0;
  const char *Why = nullptr;
  if (checkExceptionEdges(M.Root, /*InTryBody=*/false, Edges, Why))
    return true;
  if (Err)
    *Err = (M.Symbol ? M.Symbol->signature() : "<method>") + ": " + Why;
  return false;
}

bool TSAVerifier::checkCSTStructure(TSAMethod &M) {
  std::vector<BasicBlock *> Covered;
  if (!checkSeq(M.Root, /*InLoop=*/false, /*IsLoopHeader=*/false, Covered, M))
    return false;

  std::string EdgeErr;
  if (!checkExceptionDiscipline(M, &EdgeErr)) {
    Errors.push_back(EdgeErr);
    return false;
  }

  if (Covered.size() != M.Blocks.size()) {
    error(M, "CST covers " + std::to_string(Covered.size()) + " blocks but "
                 "the method owns " + std::to_string(M.Blocks.size()));
    return false;
  }
  std::unordered_set<const BasicBlock *> Owned;
  for (const BasicBlock *BB : M.Blocks)
    Owned.insert(BB);
  std::unordered_set<const BasicBlock *> Seen;
  for (BasicBlock *BB : Covered) {
    if (!Owned.count(BB)) {
      error(M, "CST references a block not owned by the method");
      return false;
    }
    if (!Seen.insert(BB).second) {
      error(M, "CST references a block twice");
      return false;
    }
  }
  return true;
}

bool TSAVerifier::checkSeq(const CSTSeq &Seq, bool InLoop, bool IsLoopHeader,
                           std::vector<BasicBlock *> &Covered, TSAMethod &M) {
  if (Seq.empty()) {
    error(M, "empty CST sequence");
    return false;
  }
  if (Seq.front()->K != CSTNode::Kind::Basic) {
    error(M, "CST sequence does not start with a basic block");
    return false;
  }
  for (size_t I = 0; I != Seq.size(); ++I) {
    const CSTNode &Node = *Seq[I];
    bool IsLast = I + 1 == Seq.size();
    switch (Node.K) {
    case CSTNode::Kind::Basic:
      if (!Node.BB) {
        error(M, "basic CST node without a block");
        return false;
      }
      Covered.push_back(Node.BB);
      break;
    case CSTNode::Kind::If:
      if (!Node.Cond) {
        error(M, "if node without a condition value");
        return false;
      }
      if (!checkSeq(Node.Then, InLoop, IsLoopHeader, Covered, M))
        return false;
      if (!Node.Else.empty() &&
          !checkSeq(Node.Else, InLoop, IsLoopHeader, Covered, M))
        return false;
      break;
    case CSTNode::Kind::Try:
      if (IsLoopHeader) {
        error(M, "try inside a loop header sequence");
        return false;
      }
      if (Node.Else.empty()) {
        error(M, "try node without a handler");
        return false;
      }
      if (!checkSeq(Node.Then, InLoop, false, Covered, M))
        return false;
      if (!checkSeq(Node.Else, InLoop, false, Covered, M))
        return false;
      break;
    case CSTNode::Kind::Loop:
      if (IsLoopHeader) {
        // Loop headers contain only expression control flow; a loop whose
        // decision set could become empty would break CFG derivation.
        error(M, "loop nested inside a loop header sequence");
        return false;
      }
      if (!Node.Cond) {
        error(M, "loop node without a condition value");
        return false;
      }
      if (!checkSeq(Node.Header, false, /*IsLoopHeader=*/true, Covered, M))
        return false;
      if (!checkSeq(Node.Body, /*InLoop=*/true, false, Covered, M))
        return false;
      break;
    case CSTNode::Kind::Return:
      if (IsLoopHeader) {
        error(M, "return inside a loop header sequence");
        return false;
      }
      if (!IsLast) {
        error(M, "statements follow a return in a CST sequence");
        return false;
      }
      break;
    case CSTNode::Kind::Break:
    case CSTNode::Kind::Continue:
      if (!InLoop || IsLoopHeader) {
        error(M, "break/continue outside of a loop body in the CST");
        return false;
      }
      if (!IsLast) {
        error(M, "statements follow a break/continue in a CST sequence");
        return false;
      }
      break;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Instruction checks
//===----------------------------------------------------------------------===//

bool TSAVerifier::isAvailableAt(const Instruction *Def,
                                const BasicBlock *Block,
                                unsigned Ordinal) const {
  auto It = Pos.find(Def);
  if (It == Pos.end())
    return false; // Foreign instruction (different method) or dangling.
  const BasicBlock *DefBlock = It->second.first;
  if (DefBlock == Block)
    return It->second.second < Ordinal;
  return BasicBlock::dominates(DefBlock, Block);
}

void TSAVerifier::checkBlocks(TSAMethod &M) {
  for (BasicBlock *BB : M.Blocks) {
    bool SeenNonPhi = false;
    for (unsigned Ord = 0; Ord != BB->Insts.size(); ++Ord) {
      Instruction &I = *BB->Insts[Ord];
      if (I.isPhi()) {
        if (SeenNonPhi)
          error(M, "phi after non-phi instruction in block " +
                       std::to_string(BB->Id));
      } else {
        SeenNonPhi = true;
      }
      checkInstruction(M, *BB, I, Ord);
    }
  }
}

void TSAVerifier::checkConst(TSAMethod &M, const Instruction &I) {
  if (I.ConstIdx >= M.Consts.size()) {
    error(M, "constant outside the method's constant pool");
    return;
  }
  Type *Ty = I.OpType;
  bool Ok = false;
  switch (M.constant(I).K) {
  case ConstantValue::Kind::Int:
    Ok = Ty->isInt();
    break;
  case ConstantValue::Kind::Double:
    Ok = Ty->isDouble();
    break;
  case ConstantValue::Kind::Bool:
    Ok = Ty->isBoolean();
    break;
  case ConstantValue::Kind::Char:
    Ok = Ty->isChar();
    break;
  case ConstantValue::Kind::Null:
    Ok = Ty->isClass() || Ty->isArray();
    break;
  case ConstantValue::Kind::String:
    Ok = Ty->isArray() && Ty->getElemType()->isChar();
    break;
  }
  if (!Ok)
    error(M, "constant kind does not match its declared type plane");
}

void TSAVerifier::checkDowncast(TSAMethod &M, const Instruction &I) {
  Type *Src = I.AuxType, *Dst = I.OpType;
  if (!Src || !Dst || !(Src->isClass() || Src->isArray()) ||
      !(Dst->isClass() || Dst->isArray())) {
    error(M, "downcast requires reference types");
    return;
  }
  // Statically-safe directions only: widening along the class hierarchy
  // (identity included); arrays widen only to Object. Safety may be
  // erased (safe-ref -> ref) or preserved, but NEVER introduced — that is
  // nullcheck's exclusive privilege.
  bool Widens = false;
  if (Src == Dst)
    Widens = true;
  else if (Dst->isClass() && Src->isClass())
    Widens = Src->getClassSymbol()->isSubclassOf(Dst->getClassSymbol());
  else if (Dst->isClass() && Src->isArray())
    Widens = Dst->getClassSymbol()->Super == nullptr; // Object only.
  if (!Widens)
    error(M, "downcast does not widen: " + Src->getName() + " -> " +
                 Dst->getName());
  if (I.DstSafe && !I.SrcSafe)
    error(M, "downcast cannot introduce safety (ref -> safe-ref)");
}

void TSAVerifier::checkInstruction(TSAMethod &M, BasicBlock &BB,
                                   Instruction &I, unsigned Ordinal) {
  // Preloads are confined to the entry block (paper §5: parameters and
  // constants are pre-loaded into the initial basic block).
  if (I.isPreload() && &BB != M.getEntry()) {
    error(M, std::string(opcodeName(I.Op)) +
                 " preload outside of the entry block");
    return;
  }
  if (I.Op == Opcode::Const)
    checkConst(M, I);
  if (I.Op == Opcode::Param) {
    // Instance methods and constructors receive `this` as parameter 0;
    // declared parameters follow.
    bool IsInstance = M.Symbol && !M.Symbol->IsStatic;
    unsigned Shift = IsInstance ? 1 : 0;
    bool Ok = false;
    if (IsInstance && I.ParamIndex == 0)
      Ok = I.OpType == Ctx.Types.getClass(M.Symbol->Owner);
    else if (M.Symbol && I.ParamIndex >= Shift &&
             I.ParamIndex - Shift < M.Symbol->ParamTys.size())
      Ok = M.Symbol->ParamTys[I.ParamIndex - Shift] == I.OpType;
    if (!Ok)
      error(M, "parameter preload index/type mismatch");
  }
  if (I.Op == Opcode::Downcast)
    checkDowncast(M, I);
  if (I.Op == Opcode::Upcast &&
      !(I.OpType && (I.OpType->isClass() || I.OpType->isArray())))
    error(M, "upcast target must be a reference type");
  if ((I.Op == Opcode::GetStatic || I.Op == Opcode::SetStatic) &&
      (!I.Field || !I.Field->IsStatic))
    error(M, "static field access without a static field");
  if (I.Op == Opcode::New &&
      !(I.OpType && I.OpType->isClass() &&
        !I.OpType->getClassSymbol()->IsBuiltin))
    error(M, "new requires a user class type");
  if ((I.Op == Opcode::Primitive && primOpMayRaise(I.Prim)) ||
      (I.Op == Opcode::XPrimitive && !primOpMayRaise(I.Prim)))
    error(M, std::string("operation '") + primOpName(I.Prim) +
                 "' used with the wrong primitive/xprimitive opcode");

  // Operand count.
  InstPlanes Planes;
  const char *PlaneErr = instructionPlanes(I, Ctx, Planes);
  unsigned Expected = Planes.NumOperands;
  if (I.isPhi()) {
    if (I.Operands.size() != BB.Preds.size()) {
      error(M, "phi operand count " + std::to_string(I.Operands.size()) +
                   " does not match predecessor count " +
                   std::to_string(BB.Preds.size()) + " in block " +
                   std::to_string(BB.Id));
      return;
    }
  } else if (I.Operands.size() != Expected) {
    error(M, std::string(opcodeName(I.Op)) + " expects " +
                 std::to_string(Expected) + " operands, has " +
                 std::to_string(I.Operands.size()));
    return;
  }

  // Operand planes and availability.
  for (unsigned Idx = 0; Idx != I.Operands.size(); ++Idx) {
    Instruction *Op = I.Operands[Idx];
    if (!Op) {
      error(M, "null operand");
      continue;
    }
    std::optional<PlaneKey> Want;
    if (!PlaneErr) {
      Want = Planes.operand(I, Idx);
      if (!Want)
        PlaneErr = "element access index decoded before its array";
    }
    if (PlaneErr) {
      error(M, std::string(opcodeName(I.Op)) + ": " + PlaneErr);
      return;
    }
    std::optional<PlaneKey> Got = resultPlane(*Op, Ctx);
    if (!Got) {
      error(M, "operand has no result value");
      continue;
    }
    if (!(*Got == *Want)) {
      error(M, std::string(opcodeName(I.Op)) + " operand " +
                   std::to_string(Idx) + " is on plane " + Got->str() +
                   " but the instruction reads plane " + Want->str());
      continue;
    }
    if (I.isPhi()) {
      // Phi operand k must be available at the end of predecessor k.
      BasicBlock *Pred = BB.Preds[Idx];
      if (!isAvailableAt(Op, Pred,
                         static_cast<unsigned>(Pred->Insts.size())))
        error(M, "phi operand " + std::to_string(Idx) +
                     " does not dominate its incoming edge");
    } else if (!isAvailableAt(Op, &BB, Ordinal)) {
      error(M, std::string(opcodeName(I.Op)) + " operand " +
                   std::to_string(Idx) +
                   " does not dominate its use (referential integrity)");
    }
  }
  // An instruction whose operands are all null (or that takes none, like
  // an xcall of a parameterless method) is still checked.
  if (PlaneErr)
    error(M, std::string(opcodeName(I.Op)) + ": " + PlaneErr);
}

//===----------------------------------------------------------------------===//
// CST value references
//===----------------------------------------------------------------------===//

BasicBlock *TSAVerifier::checkCSTValueRefs(TSAMethod &M, const CSTSeq &Seq,
                                           BasicBlock *Cur) {
  // Walk the CST maintaining the current block, mirroring CFG derivation.
  for (const auto &Node : Seq) {
    switch (Node->K) {
    case CSTNode::Kind::Basic:
      Cur = Node->BB;
      break;
    case CSTNode::Kind::If: {
      const Instruction *Cond = Node->Cond;
      std::optional<PlaneKey> P = Cond ? resultPlane(*Cond, Ctx)
                                       : std::nullopt;
      if (!P || !(*P == PlaneKey::base(Ctx.Types.getBoolean())))
        error(M, "if condition is not a boolean value");
      else if (!Cur || !isAvailableAt(Cond, Cur,
                                      static_cast<unsigned>(
                                          Cur->Insts.size())))
        error(M, "if condition not available at the decision block");
      checkCSTValueRefs(M, Node->Then, Cur);
      checkCSTValueRefs(M, Node->Else, Cur);
      // After an if, control is at the join: the next Basic updates Cur.
      Cur = nullptr;
      break;
    }
    case CSTNode::Kind::Loop: {
      BasicBlock *Decision = checkCSTValueRefs(M, Node->Header, Cur);
      const Instruction *Cond = Node->Cond;
      std::optional<PlaneKey> P = Cond ? resultPlane(*Cond, Ctx)
                                       : std::nullopt;
      if (!P || !(*P == PlaneKey::base(Ctx.Types.getBoolean())))
        error(M, "loop condition is not a boolean value");
      else if (!Decision ||
               !isAvailableAt(Cond, Decision,
                              static_cast<unsigned>(
                                  Decision->Insts.size())))
        error(M, "loop condition not available at the loop decision block");
      checkCSTValueRefs(M, Node->Body, Decision);
      Cur = nullptr;
      break;
    }
    case CSTNode::Kind::Try: {
      checkCSTValueRefs(M, Node->Then, Cur);
      checkCSTValueRefs(M, Node->Else, nullptr);
      Cur = nullptr;
      break;
    }
    case CSTNode::Kind::Return: {
      Type *Ret = M.Symbol ? M.Symbol->RetTy : nullptr;
      if (Node->RetVal) {
        std::optional<PlaneKey> P = resultPlane(*Node->RetVal, Ctx);
        if (!Ret || Ret->isVoid())
          error(M, "value returned from a void method");
        else if (!P || !(*P == PlaneKey::base(Ret)))
          error(M, "return value is on the wrong plane");
        else if (!Cur || !isAvailableAt(Node->RetVal, Cur,
                                        static_cast<unsigned>(
                                            Cur->Insts.size())))
          error(M, "return value not available at the returning block");
      } else if (Ret && !Ret->isVoid()) {
        error(M, "non-void method returns without a value");
      }
      break;
    }
    case CSTNode::Kind::Break:
    case CSTNode::Kind::Continue:
      break;
    }
  }
  return Cur;
}
