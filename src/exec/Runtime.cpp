//===- exec/Runtime.cpp ---------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/Runtime.h"

#include "tsa/Method.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

using namespace safetsa;

std::string Value::str() const {
  // The one rendering every interpreter prints through, so the tree
  // walker, TSAExec and the bytecode backend stay byte-identical.
  char Buf[32];
  switch (K) {
  case Kind::Int:
    return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), I).ptr);
  case Kind::Double:
    // Deterministic, round-trippable rendering: printf's %.15g, which
    // to_chars reproduces exactly (signed zero, subnormals, inf, nan).
    return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), D,
                                          std::chars_format::general, 15)
                                .ptr);
  case Kind::Bool:
    return I ? "true" : "false";
  case Kind::Char:
    return std::string(1, static_cast<char>(I));
  case Kind::Ref:
    return R == 0 ? "null" : "ref#" + std::to_string(R);
  }
  return std::string();
}

const char *safetsa::runtimeErrorName(RuntimeError E) {
  switch (E) {
  case RuntimeError::None:
    return "none";
  case RuntimeError::NullPointer:
    return "NullPointerException";
  case RuntimeError::IndexOutOfBounds:
    return "ArrayIndexOutOfBoundsException";
  case RuntimeError::DivisionByZero:
    return "ArithmeticException";
  case RuntimeError::ClassCast:
    return "ClassCastException";
  case RuntimeError::NegativeArraySize:
    return "NegativeArraySizeException";
  case RuntimeError::StackOverflow:
    return "StackOverflowError";
  case RuntimeError::OutOfFuel:
    return "OutOfFuel";
  case RuntimeError::OutOfMemory:
    return "OutOfMemoryError";
  case RuntimeError::Internal:
    return "InternalError";
  }
  return "error";
}

bool safetsa::isCatchableError(RuntimeError E) {
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

Value safetsa::constantValue(const ConstantValue &C) {
  switch (C.K) {
  case ConstantValue::Kind::Int:
    return Value::makeInt(static_cast<int32_t>(C.IntVal));
  case ConstantValue::Kind::Double:
    return Value::makeDouble(C.DblVal);
  case ConstantValue::Kind::Bool:
    return Value::makeBool(C.IntVal != 0);
  case ConstantValue::Kind::Char:
    return Value::makeChar(static_cast<char>(C.IntVal));
  case ConstantValue::Kind::Null:
  case ConstantValue::Kind::String:
    break;
  }
  return Value::makeNull();
}

Value Runtime::constant(const ConstantValue &C, Type *CharTy) {
  if (C.K == ConstantValue::Kind::String)
    return Value::makeRef(internString(C.StrVal, CharTy));
  return constantValue(C);
}

void safetsa::applyStaticInitializers(const TSAModule &Module, Runtime &RT) {
  for (const auto &[Field, C] : Module.StaticInits)
    RT.setStatic(Field->Slot, RT.constant(C, Module.Types->getChar()));
}

Value Runtime::zeroValue(const Type *Ty) {
  if (!Ty)
    return Value::makeNull();
  if (Ty->isInt())
    return Value::makeInt(0);
  if (Ty->isDouble())
    return Value::makeDouble(0.0);
  if (Ty->isBoolean())
    return Value::makeBool(false);
  if (Ty->isChar())
    return Value::makeChar('\0');
  return Value::makeNull();
}

// All allocation funnels through GcHeap::acquireIndex, which recycles
// swept indices before growing the vector and never hands out cell 0 —
// ref 0 stays the null reference forever, so a null-ref access can only
// reach cell() (which rejects it), never alias a real object. Collection
// is deferred to safepoints, so nothing here can be swept mid-sequence.

uint32_t Runtime::allocObject(const ClassSymbol *Class) {
  uint32_t Ref = Gc.acquireIndex();
  HeapCell &Cell = Heap[Ref];
  Cell.Class = Class;
  Cell.Slots.reserve(Class->InstanceLayout.size());
  for (const FieldSymbol *F : Class->InstanceLayout)
    Cell.Slots.push_back(zeroValue(F->Ty));
  Gc.onAllocated(Cell.Slots.size());
  return Ref;
}

uint32_t Runtime::allocArray(Type *ElemTy, int32_t Length) {
  assert(Length >= 0 && "caller checks for negative sizes");
  uint32_t Ref = Gc.acquireIndex();
  HeapCell &Cell = Heap[Ref];
  Cell.ArrayElemTy = ElemTy;
  Cell.Slots.assign(static_cast<size_t>(Length), zeroValue(ElemTy));
  Gc.onAllocated(Cell.Slots.size());
  return Ref;
}

uint32_t Runtime::internString(std::string_view S, Type *CharTy) {
  for (const auto &[Str, Ref] : StringPool)
    if (Str == S)
      return Ref;
  uint32_t Ref = Gc.acquireIndex();
  HeapCell &Cell = Heap[Ref];
  Cell.ArrayElemTy = CharTy;
  for (char C : S)
    Cell.Slots.push_back(Value::makeChar(C));
  StringPool.push_back({std::string(S), Ref});
  Gc.onAllocated(Cell.Slots.size());
  return Ref;
}

void Runtime::enumerateRoots(GcMarker &M) {
  for (const Value &V : Statics)
    if (V.K == Value::Kind::Ref)
      M.mark(V.R);
  // Interned constants are canonical for the Runtime's lifetime (repeat
  // LoadStr must return the same ref), so the pool pins them.
  for (const auto &[Str, Ref] : StringPool)
    M.mark(Ref);
}

void Runtime::heapTrap(uint32_t Ref) {
  std::fprintf(stderr, "safetsa: PARANOID heap trap: invalid ref #%u\n", Ref);
  std::abort();
}

Value Runtime::callNative(NativeMethod M, const std::vector<Value> &Args) {
  switch (M) {
  case NativeMethod::PrintInt:
    Output += Args[0].str();
    return Value();
  case NativeMethod::PrintDouble:
    Output += Args[0].str();
    return Value();
  case NativeMethod::PrintChar:
    Output.push_back(static_cast<char>(Args[0].I));
    return Value();
  case NativeMethod::PrintBool:
    Output += Args[0].I ? "true" : "false";
    return Value();
  case NativeMethod::PrintStr: {
    if (Args[0].R == 0) {
      Output += "null";
      return Value();
    }
    for (const Value &C : cell(Args[0].R).Slots)
      Output.push_back(static_cast<char>(C.I));
    return Value();
  }
  case NativeMethod::Println:
    Output.push_back('\n');
    return Value();
  case NativeMethod::Sqrt:
    return Value::makeDouble(std::sqrt(Args[0].D));
  case NativeMethod::AbsDouble:
    return Value::makeDouble(std::fabs(Args[0].D));
  case NativeMethod::AbsInt:
    return Value::makeInt(Args[0].I < 0 ? -Args[0].I : Args[0].I);
  case NativeMethod::MinInt:
    return Value::makeInt(Args[0].I < Args[1].I ? Args[0].I : Args[1].I);
  case NativeMethod::MaxInt:
    return Value::makeInt(Args[0].I > Args[1].I ? Args[0].I : Args[1].I);
  case NativeMethod::MinDouble:
    return Value::makeDouble(Args[0].D < Args[1].D ? Args[0].D : Args[1].D);
  case NativeMethod::MaxDouble:
    return Value::makeDouble(Args[0].D > Args[1].D ? Args[0].D : Args[1].D);
  case NativeMethod::Pow:
    return Value::makeDouble(std::pow(Args[0].D, Args[1].D));
  case NativeMethod::Floor:
    return Value::makeDouble(std::floor(Args[0].D));
  case NativeMethod::None:
    break;
  }
  assert(false && "unknown native method");
  return Value();
}
