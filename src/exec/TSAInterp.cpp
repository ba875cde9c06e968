//===- exec/TSAInterp.cpp -------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/TSAInterp.h"

#include <cmath>
#include <limits>

using namespace safetsa;

//===----------------------------------------------------------------------===//
// Shared integer semantics (Java rules, 32-bit wrap-around)
//===----------------------------------------------------------------------===//

static int32_t wrap32(int64_t V) { return static_cast<int32_t>(V); }

void TSAInterpreter::initializeStatics() {
  applyStaticInitializers(Module, RT);
}

ExecResult TSAInterpreter::runMain() {
  initializeStatics();
  for (const auto &Class : Module.Table->getClasses())
    for (const MethodSymbol *M : Class->Methods)
      if (M->IsStatic && M->Name == "main" && M->ParamTys.empty())
        return call(M, {});
  ExecResult R;
  R.Err = RuntimeError::Internal;
  return R;
}

ExecResult TSAInterpreter::call(const MethodSymbol *Method,
                                std::vector<Value> Args) {
  Err = RuntimeError::None;
  bool Ok = true;
  Value Ret = callMethodValue(Method, std::move(Args), Ok);
  ExecResult R;
  R.Err = Ok ? RuntimeError::None : Err;
  R.Ret = Ret;
  return R;
}

void TSAInterpreter::enumerateRoots(GcMarker &M) {
  for (const Frame *F : Frames) {
    for (const Value &V : F->Args)
      if (V.K == Value::Kind::Ref)
        M.mark(V.R);
    for (const auto &[I, V] : F->Vals)
      if (V.K == Value::Kind::Ref)
        M.mark(V.R);
  }
}

Value TSAInterpreter::callMethodValue(const MethodSymbol *Callee,
                                      std::vector<Value> Args, bool &Ok) {
  if (Callee->isNative())
    return RT.callNative(Callee, Args);

  const TSAMethod *Body = Module.findMethod(Callee);
  if (!Body) {
    Ok = fail(RuntimeError::Internal);
    return Value();
  }
  if (Depth >= MaxDepth) {
    Ok = fail(RuntimeError::StackOverflow);
    return Value();
  }
  ++Depth;
  Frame F;
  F.Method = Body;
  // Parameters live in the frame's reserved argument region; val() reads
  // Param values straight from it, so nothing is copied into Vals.
  F.Args = std::move(Args);
  size_t NumInsts = 0;
  for (const BasicBlock *BB : Body->Blocks)
    NumInsts += BB->Insts.size();
  F.Vals.reserve(NumInsts);
  // Call-entry safepoint (mirrors the prepared interpreter): register
  // the frame, then poll with every live ref in an enumerable root.
  if (GcOn) {
    Frames.push_back(&F);
    if (RT.gcPending())
      RT.gcSafepoint();
  }
  Signal Sig = execSeq(Body->Root, F);
  if (GcOn)
    Frames.pop_back();
  --Depth;
  if (Sig == Signal::Error) {
    Ok = false;
    return Value();
  }
  return F.RetVal;
}

TSAInterpreter::Signal TSAInterpreter::execSeq(const CSTSeq &Seq, Frame &F) {
  for (const auto &Node : Seq) {
    switch (Node->K) {
    case CSTNode::Kind::Basic: {
      Signal Sig = execBlock(*Node->BB, F);
      if (Sig != Signal::Normal)
        return Sig;
      F.PrevBlock = Node->BB;
      break;
    }
    case CSTNode::Kind::If: {
      bool Cond = val(Node->Cond, F).I != 0;
      if (Cond) {
        Signal Sig = execSeq(Node->Then, F);
        if (Sig != Signal::Normal)
          return Sig;
      } else if (!Node->Else.empty()) {
        Signal Sig = execSeq(Node->Else, F);
        if (Sig != Signal::Normal)
          return Sig;
      }
      // On the empty-else path PrevBlock remains the decision block,
      // matching the decision->join CFG edge.
      break;
    }
    case CSTNode::Kind::Loop: {
      while (true) {
        if (!RT.burnFuel())
          return (fail(RuntimeError::OutOfFuel), Signal::Error);
        Signal Sig = execSeq(Node->Header, F);
        if (Sig != Signal::Normal)
          return Sig; // Headers contain no break/continue/return, so this
                      // can only be an error.
        if (val(Node->Cond, F).I == 0)
          break; // Fall out; PrevBlock is the decision block.
        Sig = execSeq(Node->Body, F);
        if (Sig == Signal::Return || Sig == Signal::Error)
          return Sig;
        if (Sig == Signal::Break)
          break; // PrevBlock is the breaking block.
        // Normal fall-through or Continue: next iteration. This is the
        // loop back edge — the tree-walker's safepoint, matching the
        // prepared streams' backward-branch poll.
        if (GcOn && RT.gcPending())
          RT.gcSafepoint();
      }
      break;
    }
    case CSTNode::Kind::Try: {
      Signal Sig = execSeq(Node->Then, F);
      if (Sig == Signal::Error && isCatchableError(Err)) {
        // Transfer along the exception edge: the handler's phis select
        // their operand by the raising block.
        Err = RuntimeError::None;
        F.PrevBlock = F.RaiseBlock;
        Sig = execSeq(Node->Else, F);
      }
      if (Sig != Signal::Normal)
        return Sig;
      break;
    }
    case CSTNode::Kind::Return:
      if (Node->RetVal) {
        F.RetVal = val(Node->RetVal, F);
        F.HasRet = true;
      }
      return Signal::Return;
    case CSTNode::Kind::Break:
      return Signal::Break;
    case CSTNode::Kind::Continue:
      return Signal::Continue;
    }
  }
  return Signal::Normal;
}

TSAInterpreter::Signal TSAInterpreter::execBlock(const BasicBlock &BB,
                                                 Frame &F) {
  for (const auto &I : BB.Insts) {
    if (!RT.burnFuel())
      return (fail(RuntimeError::OutOfFuel), Signal::Error);
    if (!execInst(*I, BB, F)) {
      F.RaiseBlock = &BB; // Source of the (potential) exception edge.
      return Signal::Error;
    }
  }
  return Signal::Normal;
}

bool TSAInterpreter::execInst(const Instruction &I, const BasicBlock &BB,
                              Frame &F) {
  auto Set = [&](Value V) {
    F.Vals[&I] = V;
    return true;
  };

  switch (I.Op) {
  case Opcode::Const:
    return Set(RT.constant(F.Method->constant(I), Module.Types->getChar()));

  case Opcode::Param:
    // The value itself lives in Frame::Args; val() reads it from there.
    if (I.ParamIndex >= F.Args.size())
      return fail(RuntimeError::Internal);
    return true;

  case Opcode::Phi: {
    for (size_t K = 0; K != BB.Preds.size(); ++K)
      if (BB.Preds[K] == F.PrevBlock)
        return Set(val(I.Operands[K], F));
    return fail(RuntimeError::Internal);
  }

  case Opcode::Primitive:
  case Opcode::XPrimitive: {
    Value A = I.Operands.empty() ? Value() : val(I.Operands[0], F);
    Value B = I.Operands.size() > 1 ? val(I.Operands[1], F) : Value();
    switch (I.Prim) {
    case PrimOp::AddI:
      return Set(Value::makeInt(wrap32(int64_t(A.I) + B.I)));
    case PrimOp::SubI:
      return Set(Value::makeInt(wrap32(int64_t(A.I) - B.I)));
    case PrimOp::MulI:
      return Set(Value::makeInt(wrap32(int64_t(A.I) * B.I)));
    case PrimOp::DivI:
      if (B.I == 0)
        return fail(RuntimeError::DivisionByZero);
      if (A.I == std::numeric_limits<int32_t>::min() && B.I == -1)
        return Set(Value::makeInt(A.I));
      return Set(Value::makeInt(A.I / B.I));
    case PrimOp::RemI:
      if (B.I == 0)
        return fail(RuntimeError::DivisionByZero);
      if (A.I == std::numeric_limits<int32_t>::min() && B.I == -1)
        return Set(Value::makeInt(0));
      return Set(Value::makeInt(A.I % B.I));
    case PrimOp::NegI:
      return Set(Value::makeInt(wrap32(-int64_t(A.I))));
    case PrimOp::AndI:
      return Set(Value::makeInt(A.I & B.I));
    case PrimOp::OrI:
      return Set(Value::makeInt(A.I | B.I));
    case PrimOp::XorI:
      return Set(Value::makeInt(A.I ^ B.I));
    case PrimOp::ShlI:
      return Set(Value::makeInt(wrap32(int64_t(A.I) << (B.I & 31))));
    case PrimOp::ShrI:
      return Set(Value::makeInt(A.I >> (B.I & 31)));
    case PrimOp::NotI:
      return Set(Value::makeInt(~A.I));
    case PrimOp::CmpLtI:
      return Set(Value::makeBool(A.I < B.I));
    case PrimOp::CmpLeI:
      return Set(Value::makeBool(A.I <= B.I));
    case PrimOp::CmpGtI:
      return Set(Value::makeBool(A.I > B.I));
    case PrimOp::CmpGeI:
      return Set(Value::makeBool(A.I >= B.I));
    case PrimOp::CmpEqI:
      return Set(Value::makeBool(A.I == B.I));
    case PrimOp::CmpNeI:
      return Set(Value::makeBool(A.I != B.I));
    case PrimOp::IntToDouble:
      return Set(Value::makeDouble(static_cast<double>(A.I)));
    case PrimOp::IntToChar:
      return Set(Value::makeChar(static_cast<char>(A.I & 0xff)));
    case PrimOp::AddD:
      return Set(Value::makeDouble(A.D + B.D));
    case PrimOp::SubD:
      return Set(Value::makeDouble(A.D - B.D));
    case PrimOp::MulD:
      return Set(Value::makeDouble(A.D * B.D));
    case PrimOp::DivD:
      return Set(Value::makeDouble(A.D / B.D));
    case PrimOp::NegD:
      return Set(Value::makeDouble(-A.D));
    case PrimOp::CmpLtD:
      return Set(Value::makeBool(A.D < B.D));
    case PrimOp::CmpLeD:
      return Set(Value::makeBool(A.D <= B.D));
    case PrimOp::CmpGtD:
      return Set(Value::makeBool(A.D > B.D));
    case PrimOp::CmpGeD:
      return Set(Value::makeBool(A.D >= B.D));
    case PrimOp::CmpEqD:
      return Set(Value::makeBool(A.D == B.D));
    case PrimOp::CmpNeD:
      return Set(Value::makeBool(A.D != B.D));
    case PrimOp::DoubleToInt: {
      double D = A.D;
      int32_t R;
      if (std::isnan(D))
        R = 0;
      else if (D >= 2147483647.0)
        R = std::numeric_limits<int32_t>::max();
      else if (D <= -2147483648.0)
        R = std::numeric_limits<int32_t>::min();
      else
        R = static_cast<int32_t>(D);
      return Set(Value::makeInt(R));
    }
    case PrimOp::CharToInt:
      return Set(Value::makeInt(A.I));
    case PrimOp::NotB:
      return Set(Value::makeBool(A.I == 0));
    case PrimOp::CmpEqB:
      return Set(Value::makeBool((A.I != 0) == (B.I != 0)));
    case PrimOp::CmpNeB:
      return Set(Value::makeBool((A.I != 0) != (B.I != 0)));
    case PrimOp::CmpEqR:
      return Set(Value::makeBool(A.R == B.R));
    case PrimOp::CmpNeR:
      return Set(Value::makeBool(A.R != B.R));
    case PrimOp::InstanceOf: {
      if (A.R == 0)
        return Set(Value::makeBool(false));
      const HeapCell &Cell = RT.cell(A.R);
      Type *T = I.AuxType;
      bool Is;
      if (T->isArray())
        Is = Cell.isArray() && Cell.ArrayElemTy == T->getElemType();
      else
        Is = !Cell.isArray() &&
             Cell.Class->isSubclassOf(T->getClassSymbol());
      return Set(Value::makeBool(Is));
    }
    }
    return fail(RuntimeError::Internal);
  }

  case Opcode::NullCheck: {
    Value V = val(I.Operands[0], F);
    if (V.R == 0)
      return fail(RuntimeError::NullPointer);
    return Set(V);
  }

  case Opcode::IndexCheck: {
    Value Arr = val(I.Operands[0], F);
    Value Idx = val(I.Operands[1], F);
    const HeapCell &Cell = RT.cell(Arr.R);
    if (Idx.I < 0 || static_cast<size_t>(Idx.I) >= Cell.Len)
      return fail(RuntimeError::IndexOutOfBounds);
    return Set(Idx);
  }

  case Opcode::Upcast: {
    Value V = val(I.Operands[0], F);
    if (V.R == 0)
      return Set(V); // (T)null succeeds, as in Java.
    const HeapCell &Cell = RT.cell(V.R);
    Type *T = I.OpType;
    bool Is;
    if (T->isArray())
      Is = Cell.isArray() && Cell.ArrayElemTy == T->getElemType();
    else
      Is = !Cell.isArray() && Cell.Class->isSubclassOf(T->getClassSymbol());
    if (!Is)
      return fail(RuntimeError::ClassCast);
    return Set(V);
  }

  case Opcode::Downcast:
    return Set(val(I.Operands[0], F)); // Modeling only; no code (paper §4).

  case Opcode::GetField: {
    Value Obj = val(I.Operands[0], F);
    return Set(RT.getField(Obj.R, I.Field));
  }
  case Opcode::SetField: {
    Value Obj = val(I.Operands[0], F);
    RT.setField(Obj.R, I.Field, val(I.Operands[1], F));
    return true;
  }
  case Opcode::GetElt: {
    Value Arr = val(I.Operands[0], F);
    Value Idx = val(I.Operands[1], F);
    return Set(RT.getElt(Arr.R, Idx.I));
  }
  case Opcode::SetElt: {
    Value Arr = val(I.Operands[0], F);
    Value Idx = val(I.Operands[1], F);
    RT.setElt(Arr.R, Idx.I, val(I.Operands[2], F));
    return true;
  }
  case Opcode::GetStatic:
    return Set(RT.getStatic(I.Field));
  case Opcode::SetStatic:
    RT.setStatic(I.Field, val(I.Operands[0], F));
    return true;

  case Opcode::ArrayLength: {
    Value Arr = val(I.Operands[0], F);
    return Set(Value::makeInt(static_cast<int32_t>(RT.cell(Arr.R).Len)));
  }

  case Opcode::New:
    return Set(Value::makeRef(RT.allocObject(I.OpType->getClassSymbol())));

  case Opcode::NewArray: {
    Value Len = val(I.Operands[0], F);
    if (Len.I < 0)
      return fail(RuntimeError::NegativeArraySize);
    if (!RT.arrayFitsBudget(Len.I))
      return fail(RuntimeError::OutOfMemory);
    return Set(Value::makeRef(
        RT.allocArray(I.OpType->getElemType(), Len.I)));
  }

  case Opcode::Call: {
    std::vector<Value> Args;
    Args.reserve(I.Operands.size());
    for (const Instruction *Op : I.Operands)
      Args.push_back(val(Op, F));
    bool Ok = true;
    Value Ret = callMethodValue(I.Method, std::move(Args), Ok);
    if (!Ok)
      return false;
    if (I.hasResult())
      return Set(Ret);
    return true;
  }

  case Opcode::Dispatch: {
    std::vector<Value> Args;
    Args.reserve(I.Operands.size());
    for (const Instruction *Op : I.Operands)
      Args.push_back(val(Op, F));
    const HeapCell &Cell = RT.cell(Args[0].R);
    assert(!Cell.isArray() && "dispatch on an array");
    assert(I.Method->VTableSlot >= 0 &&
           static_cast<size_t>(I.Method->VTableSlot) <
               Cell.Class->VTable.size() &&
           "bad vtable slot");
    const MethodSymbol *Target =
        Cell.Class->VTable[I.Method->VTableSlot];
    bool Ok = true;
    Value Ret = callMethodValue(Target, std::move(Args), Ok);
    if (!Ok)
      return false;
    if (I.hasResult())
      return Set(Ret);
    return true;
  }
  }
  return fail(RuntimeError::Internal);
}
