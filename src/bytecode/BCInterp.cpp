//===- bytecode/BCInterp.cpp ----------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bytecode/BCInterp.h"

#include <cmath>
#include <limits>

using namespace safetsa;

static int32_t wrap32(int64_t V) { return static_cast<int32_t>(V); }

/// Runtime exceptions an MJ catch-all handler intercepts (mirrors the
/// SafeTSA evaluator's set).
static bool isCatchable(RuntimeError E) {
  switch (E) {
  case RuntimeError::NullPointer:
  case RuntimeError::IndexOutOfBounds:
  case RuntimeError::DivisionByZero:
  case RuntimeError::ClassCast:
  case RuntimeError::NegativeArraySize:
    return true;
  default:
    return false;
  }
}

Value BCInterpreter::poolValue(uint16_t Idx) {
  const PoolEntry &E = Module.pool(Idx);
  switch (E.K) {
  case PoolEntry::Kind::Int:
    return Value::makeInt(E.IntVal);
  case PoolEntry::Kind::Double:
    return Value::makeDouble(E.DblVal);
  case PoolEntry::Kind::StrChars:
    return Value::makeRef(
        RT.internString(Module.pool(E.Index).Str, Types.getChar()));
  default:
    assert(false && "ldc of a non-constant pool entry");
    return Value();
  }
}

void BCInterpreter::initializeStatics() {
  for (const BCClass &C : Module.Classes)
    for (const BCClass::Field &F : C.Fields)
      if ((F.Flags & 1) && F.InitPool && F.Symbol)
        RT.setStatic(F.Symbol, poolValue(F.InitPool));
}

ExecResult BCInterpreter::runMain() {
  initializeStatics();
  ExecResult R;
  for (const BCClass &C : Module.Classes)
    for (const BCMethod &M : C.Methods)
      if (M.Symbol && M.Symbol->IsStatic && M.Symbol->Name == "main" &&
          M.Symbol->ParamTys.empty())
        return call(M.Symbol, {});
  R.Err = RuntimeError::Internal;
  return R;
}

ExecResult BCInterpreter::call(const MethodSymbol *Method,
                               std::vector<Value> Args) {
  Err = RuntimeError::None;
  ExecResult R;
  if (Method->isNative()) {
    R.Ret = RT.callNative(Method, Args);
    return R;
  }
  const BCMethod *Body = Module.findMethod(Method);
  if (!Body) {
    R.Err = RuntimeError::Internal;
    return R;
  }
  bool Ok = true;
  Value Ret = execMethod(*Body, std::move(Args), Ok);
  R.Err = Ok ? RuntimeError::None : Err;
  R.Ret = Ret;
  return R;
}

Value BCInterpreter::execMethod(const BCMethod &M, std::vector<Value> Args,
                                bool &Ok) {
  if (Depth >= MaxDepth) {
    Ok = fail(RuntimeError::StackOverflow);
    return Value();
  }
  ++Depth;

  std::vector<Value> Locals(M.MaxLocals);
  for (size_t I = 0; I != Args.size() && I < Locals.size(); ++I)
    Locals[I] = Args[I];
  std::vector<Value> Stack;
  Stack.reserve(M.MaxStack + 4);

  auto Push = [&](Value V) { Stack.push_back(V); };
  auto Pop = [&]() {
    assert(!Stack.empty() && "operand stack underflow");
    Value V = Stack.back();
    Stack.pop_back();
    return V;
  };

  const std::vector<uint8_t> &Code = M.Code;
  size_t PC = 0;

  auto U8 = [&]() { return Code[PC++]; };
  auto U16 = [&]() {
    uint16_t V = static_cast<uint16_t>((Code[PC] << 8) | Code[PC + 1]);
    PC += 2;
    return V;
  };
  auto BranchTo = [&](size_t OpPos) {
    int16_t Off = static_cast<int16_t>((Code[PC] << 8) | Code[PC + 1]);
    PC = OpPos + Off;
  };

  auto Return = [&](Value V) {
    --Depth;
    return V;
  };

  size_t OpPos = 0;
  // True when the fault was dispatched to a handler in this frame: the
  // operand stack is cleared and execution resumes at the handler, the
  // JVM exception-table model.
  bool Recovered = false;
  auto Fault = [&](RuntimeError E) {
    if (isCatchable(E)) {
      for (const BCMethod::ExEntry &Entry : M.ExTable) {
        if (OpPos >= Entry.Start && OpPos < Entry.End &&
            Entry.Handler < Code.size()) {
          Stack.clear();
          PC = Entry.Handler;
          Err = RuntimeError::None; // A callee may have set it already.
          Recovered = true;
          return Value();
        }
      }
    }
    Ok = fail(E);
    --Depth;
    return Value();
  };

  while (true) {
    if (PC >= Code.size())
      return Fault(RuntimeError::Internal);
    if (!RT.burnFuel())
      return Fault(RuntimeError::OutOfFuel);

    OpPos = PC;
    BC Op = static_cast<BC>(Code[PC++]);
    switch (Op) {
    case BC::Nop:
      break;
    case BC::AConstNull:
      Push(Value::makeNull());
      break;
    case BC::IConst0:
      Push(Value::makeInt(0));
      break;
    case BC::IConst1:
      Push(Value::makeInt(1));
      break;
    case BC::BIPush:
      Push(Value::makeInt(static_cast<int8_t>(U8())));
      break;
    case BC::SIPush:
      Push(Value::makeInt(static_cast<int16_t>(U16())));
      break;
    case BC::Ldc:
      Push(poolValue(U16()));
      break;
    case BC::ILoad:
    case BC::DLoad:
    case BC::ALoad:
      Push(Locals[U8()]);
      break;
    case BC::IStore:
    case BC::DStore:
    case BC::AStore:
      Locals[U8()] = Pop();
      break;
    case BC::IInc: {
      uint8_t Slot = U8();
      int8_t Delta = static_cast<int8_t>(U8());
      Locals[Slot] = Value::makeInt(wrap32(int64_t(Locals[Slot].I) + Delta));
      break;
    }
    case BC::Pop:
      Pop();
      break;
    case BC::Dup: {
      Value V = Pop();
      Push(V);
      Push(V);
      break;
    }
    case BC::DupX1: {
      Value A = Pop(), B = Pop();
      Push(A);
      Push(B);
      Push(A);
      break;
    }
    case BC::DupX2: {
      Value A = Pop(), B = Pop(), C = Pop();
      Push(A);
      Push(C);
      Push(B);
      Push(A);
      break;
    }
    case BC::Dup2: {
      Value A = Pop(), B = Pop();
      Push(B);
      Push(A);
      Push(B);
      Push(A);
      break;
    }
    case BC::Swap: {
      Value A = Pop(), B = Pop();
      Push(A);
      Push(B);
      break;
    }
    case BC::IAdd: {
      Value B = Pop(), A = Pop();
      Push(Value::makeInt(wrap32(int64_t(A.I) + B.I)));
      break;
    }
    case BC::ISub: {
      Value B = Pop(), A = Pop();
      Push(Value::makeInt(wrap32(int64_t(A.I) - B.I)));
      break;
    }
    case BC::IMul: {
      Value B = Pop(), A = Pop();
      Push(Value::makeInt(wrap32(int64_t(A.I) * B.I)));
      break;
    }
    case BC::IDiv: {
      Value B = Pop(), A = Pop();
      if (B.I == 0)
        {
          Value FV = Fault(RuntimeError::DivisionByZero);
          if (!Recovered)
            return FV;
          Recovered = false;
          break;
        }
      if (A.I == std::numeric_limits<int32_t>::min() && B.I == -1)
        Push(Value::makeInt(A.I));
      else
        Push(Value::makeInt(A.I / B.I));
      break;
    }
    case BC::IRem: {
      Value B = Pop(), A = Pop();
      if (B.I == 0)
        {
          Value FV = Fault(RuntimeError::DivisionByZero);
          if (!Recovered)
            return FV;
          Recovered = false;
          break;
        }
      if (A.I == std::numeric_limits<int32_t>::min() && B.I == -1)
        Push(Value::makeInt(0));
      else
        Push(Value::makeInt(A.I % B.I));
      break;
    }
    case BC::INeg: {
      Value A = Pop();
      Push(Value::makeInt(wrap32(-int64_t(A.I))));
      break;
    }
    case BC::IAnd: {
      Value B = Pop(), A = Pop();
      Push(Value::makeInt(A.I & B.I));
      break;
    }
    case BC::IOr: {
      Value B = Pop(), A = Pop();
      Push(Value::makeInt(A.I | B.I));
      break;
    }
    case BC::IXor: {
      Value B = Pop(), A = Pop();
      Push(Value::makeInt(A.I ^ B.I));
      break;
    }
    case BC::IShl: {
      Value B = Pop(), A = Pop();
      Push(Value::makeInt(wrap32(int64_t(A.I) << (B.I & 31))));
      break;
    }
    case BC::IShr: {
      Value B = Pop(), A = Pop();
      Push(Value::makeInt(A.I >> (B.I & 31)));
      break;
    }
    case BC::DAdd: {
      Value B = Pop(), A = Pop();
      Push(Value::makeDouble(A.D + B.D));
      break;
    }
    case BC::DSub: {
      Value B = Pop(), A = Pop();
      Push(Value::makeDouble(A.D - B.D));
      break;
    }
    case BC::DMul: {
      Value B = Pop(), A = Pop();
      Push(Value::makeDouble(A.D * B.D));
      break;
    }
    case BC::DDiv: {
      Value B = Pop(), A = Pop();
      Push(Value::makeDouble(A.D / B.D));
      break;
    }
    case BC::DNeg: {
      Value A = Pop();
      Push(Value::makeDouble(-A.D));
      break;
    }
    case BC::DCmpL:
    case BC::DCmpG: {
      Value B = Pop(), A = Pop();
      int32_t R;
      if (std::isnan(A.D) || std::isnan(B.D))
        R = Op == BC::DCmpL ? -1 : 1;
      else
        R = A.D < B.D ? -1 : (A.D > B.D ? 1 : 0);
      Push(Value::makeInt(R));
      break;
    }
    case BC::I2D: {
      Value A = Pop();
      Push(Value::makeDouble(static_cast<double>(A.I)));
      break;
    }
    case BC::D2I: {
      Value A = Pop();
      int32_t R;
      if (std::isnan(A.D))
        R = 0;
      else if (A.D >= 2147483647.0)
        R = std::numeric_limits<int32_t>::max();
      else if (A.D <= -2147483648.0)
        R = std::numeric_limits<int32_t>::min();
      else
        R = static_cast<int32_t>(A.D);
      Push(Value::makeInt(R));
      break;
    }
    case BC::I2C: {
      Value A = Pop();
      Push(Value::makeInt(A.I & 0xff));
      break;
    }
    case BC::Goto:
      BranchTo(OpPos);
      break;
    case BC::IfEq:
    case BC::IfNe:
    case BC::IfLt:
    case BC::IfGe:
    case BC::IfGt:
    case BC::IfLe: {
      int32_t V = Pop().I;
      bool Take = false;
      switch (Op) {
      case BC::IfEq:
        Take = V == 0;
        break;
      case BC::IfNe:
        Take = V != 0;
        break;
      case BC::IfLt:
        Take = V < 0;
        break;
      case BC::IfGe:
        Take = V >= 0;
        break;
      case BC::IfGt:
        Take = V > 0;
        break;
      default:
        Take = V <= 0;
        break;
      }
      if (Take)
        BranchTo(OpPos);
      else
        PC += 2;
      break;
    }
    case BC::IfICmpEq:
    case BC::IfICmpNe:
    case BC::IfICmpLt:
    case BC::IfICmpGe:
    case BC::IfICmpGt:
    case BC::IfICmpLe: {
      int32_t B = Pop().I, A = Pop().I;
      bool Take = false;
      switch (Op) {
      case BC::IfICmpEq:
        Take = A == B;
        break;
      case BC::IfICmpNe:
        Take = A != B;
        break;
      case BC::IfICmpLt:
        Take = A < B;
        break;
      case BC::IfICmpGe:
        Take = A >= B;
        break;
      case BC::IfICmpGt:
        Take = A > B;
        break;
      default:
        Take = A <= B;
        break;
      }
      if (Take)
        BranchTo(OpPos);
      else
        PC += 2;
      break;
    }
    case BC::IfACmpEq:
    case BC::IfACmpNe: {
      Value B = Pop(), A = Pop();
      bool Take = Op == BC::IfACmpEq ? A.R == B.R : A.R != B.R;
      if (Take)
        BranchTo(OpPos);
      else
        PC += 2;
      break;
    }
    case BC::IfNull:
    case BC::IfNonNull: {
      Value A = Pop();
      bool Take = Op == BC::IfNull ? A.R == 0 : A.R != 0;
      if (Take)
        BranchTo(OpPos);
      else
        PC += 2;
      break;
    }
    case BC::GetField: {
      uint16_t Idx = U16();
      Value Obj = Pop();
      if (Obj.R == 0)
        {
          Value FV = Fault(RuntimeError::NullPointer);
          if (!Recovered)
            return FV;
          Recovered = false;
          break;
        }
      Push(RT.getField(Obj.R, Module.PoolFields[Idx]));
      break;
    }
    case BC::PutField: {
      uint16_t Idx = U16();
      Value V = Pop();
      Value Obj = Pop();
      if (Obj.R == 0)
        {
          Value FV = Fault(RuntimeError::NullPointer);
          if (!Recovered)
            return FV;
          Recovered = false;
          break;
        }
      RT.setField(Obj.R, Module.PoolFields[Idx], V);
      break;
    }
    case BC::GetStatic:
      Push(RT.getStatic(Module.PoolFields[U16()]));
      break;
    case BC::PutStatic:
      RT.setStatic(Module.PoolFields[U16()], Pop());
      break;
    case BC::InvokeVirtual:
    case BC::InvokeStatic:
    case BC::InvokeSpecial: {
      uint16_t Idx = U16();
      MethodSymbol *Callee = Module.PoolMethods[Idx];
      unsigned NArgs = static_cast<unsigned>(Callee->ParamTys.size());
      bool HasRecv = Op != BC::InvokeStatic;
      std::vector<Value> CallArgs(NArgs + (HasRecv ? 1 : 0));
      for (size_t I = CallArgs.size(); I-- > 0;)
        CallArgs[I] = Pop();
      if (HasRecv) {
        if (CallArgs[0].R == 0)
          {
            Value FV = Fault(RuntimeError::NullPointer);
            if (!Recovered)
              return FV;
            Recovered = false;
            break;
          }
        if (Op == BC::InvokeVirtual) {
          const HeapCell &Cell = RT.cell(CallArgs[0].R);
          assert(!Cell.isArray() && Callee->VTableSlot >= 0);
          Callee = Cell.Class->VTable[Callee->VTableSlot];
        }
      }
      Value Ret;
      if (Callee->isNative()) {
        Ret = RT.callNative(Callee, CallArgs);
      } else {
        const BCMethod *Body = Module.findMethod(Callee);
        if (!Body)
          {
            Value FV = Fault(RuntimeError::Internal);
            if (!Recovered)
              return FV;
            Recovered = false;
            break;
          }
        bool CalleeOk = true;
        Ret = execMethod(*Body, std::move(CallArgs), CalleeOk);
        if (!CalleeOk) {
          // The callee recorded the error; try this frame's handlers.
          RuntimeError E = Err;
          Err = RuntimeError::None;
          Value FV = Fault(E);
          if (!Recovered) {
            --Depth;
            Ok = false;
            return FV;
          }
          Recovered = false;
          break;
        }
      }
      if (!Callee->RetTy->isVoid())
        Push(Ret);
      break;
    }
    case BC::New: {
      uint16_t Idx = U16();
      Type *Ty = Module.PoolTypes[Idx];
      Push(Value::makeRef(RT.allocObject(Ty->getClassSymbol())));
      break;
    }
    case BC::NewArray: {
      uint16_t Idx = U16();
      Type *Elem = Module.PoolTypes[Idx];
      Value Len = Pop();
      if (Len.I < 0)
        {
          Value FV = Fault(RuntimeError::NegativeArraySize);
          if (!Recovered)
            return FV;
          Recovered = false;
          break;
        }
      if (!RT.arrayFitsBudget(Len.I))
        {
          Value FV = Fault(RuntimeError::OutOfMemory);
          if (!Recovered)
            return FV;
          Recovered = false;
          break;
        }
      Push(Value::makeRef(RT.allocArray(Elem, Len.I)));
      break;
    }
    case BC::ArrayLength: {
      Value Arr = Pop();
      if (Arr.R == 0)
        {
          Value FV = Fault(RuntimeError::NullPointer);
          if (!Recovered)
            return FV;
          Recovered = false;
          break;
        }
      Push(Value::makeInt(static_cast<int32_t>(RT.cell(Arr.R).Len)));
      break;
    }
    case BC::IALoad:
    case BC::DALoad:
    case BC::AALoad:
    case BC::CALoad:
    case BC::BALoad: {
      Value Index = Pop();
      Value Arr = Pop();
      if (Arr.R == 0)
        {
          Value FV = Fault(RuntimeError::NullPointer);
          if (!Recovered)
            return FV;
          Recovered = false;
          break;
        }
      if (Index.I < 0 ||
          static_cast<uint32_t>(Index.I) >= RT.cell(Arr.R).Len)
        {
          Value FV = Fault(RuntimeError::IndexOutOfBounds);
          if (!Recovered)
            return FV;
          Recovered = false;
          break;
        }
      Value V = RT.getElt(Arr.R, Index.I);
      // Chars and booleans widen to int on the stack.
      if (Op == BC::CALoad || Op == BC::BALoad)
        V = Value::makeInt(V.I);
      Push(V);
      break;
    }
    case BC::IAStore:
    case BC::DAStore:
    case BC::AAStore:
    case BC::CAStore:
    case BC::BAStore: {
      Value V = Pop();
      Value Index = Pop();
      Value Arr = Pop();
      if (Arr.R == 0)
        {
          Value FV = Fault(RuntimeError::NullPointer);
          if (!Recovered)
            return FV;
          Recovered = false;
          break;
        }
      if (Index.I < 0 ||
          static_cast<uint32_t>(Index.I) >= RT.cell(Arr.R).Len)
        {
          Value FV = Fault(RuntimeError::IndexOutOfBounds);
          if (!Recovered)
            return FV;
          Recovered = false;
          break;
        }
      if (Op == BC::CAStore)
        V = Value::makeChar(static_cast<char>(V.I & 0xff));
      else if (Op == BC::BAStore)
        V = Value::makeBool(V.I != 0);
      RT.setElt(Arr.R, Index.I, V);
      break;
    }
    case BC::CheckCast: {
      uint16_t Idx = U16();
      Type *Ty = Module.PoolTypes[Idx];
      Value V = Pop();
      if (V.R != 0) {
        const HeapCell &Cell = RT.cell(V.R);
        bool IsOk;
        if (Ty->isArray())
          IsOk = Cell.isArray() && Cell.ArrayElemTy == Ty->getElemType();
        else
          IsOk = !Cell.isArray() &&
                 Cell.Class->isSubclassOf(Ty->getClassSymbol());
        if (!IsOk)
          {
            Value FV = Fault(RuntimeError::ClassCast);
            if (!Recovered)
              return FV;
            Recovered = false;
            break;
          }
      }
      Push(V);
      break;
    }
    case BC::InstanceOf: {
      uint16_t Idx = U16();
      Type *Ty = Module.PoolTypes[Idx];
      Value V = Pop();
      bool Is = false;
      if (V.R != 0) {
        const HeapCell &Cell = RT.cell(V.R);
        if (Ty->isArray())
          Is = Cell.isArray() && Cell.ArrayElemTy == Ty->getElemType();
        else
          Is = !Cell.isArray() &&
               Cell.Class->isSubclassOf(Ty->getClassSymbol());
      }
      Push(Value::makeBool(Is));
      break;
    }
    case BC::IReturn:
    case BC::DReturn:
    case BC::AReturn:
      return Return(Pop());
    case BC::Return:
      return Return(Value());
    }
  }
}
