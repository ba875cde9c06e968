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
#include <cstdlib>
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

Value Value::fromWord(Word W, const Type *Ty) {
  Value X;
  if (!Ty || Ty->isVoid())
    return X;
  if (Ty->isInt())
    X.K = Kind::Int;
  else if (Ty->isDouble())
    X.K = Kind::Double;
  else if (Ty->isBoolean())
    X.K = Kind::Bool;
  else if (Ty->isChar())
    X.K = Kind::Char;
  else
    X.K = Kind::Ref;
  X.Bits = W.Bits;
  return X;
}

Value Runtime::constant(const ConstantValue &C, Type *CharTy) {
  if (C.K == ConstantValue::Kind::String)
    return Value::makeRef(internString(C.StrVal, CharTy));
  return constantValue(C);
}

void safetsa::applyStaticInitializers(const TSAModule &Module, Runtime &RT) {
  for (const auto &[Field, C] : Module.StaticInits)
    RT.setStatic(Field, RT.constant(C, Module.Types->getChar()));
}

// All allocation funnels through GcHeap::allocate, which recycles swept
// indices before growing the cell table and never hands out cell 0 — ref
// 0 stays the null reference forever, so a null-ref access can only reach
// cell() (which rejects it), never alias a real object. Collection is
// deferred to safepoints, so nothing here can be swept mid-sequence.

uint32_t Runtime::allocObject(const ClassSymbol *Class) {
  return Gc.allocate(CellKind::Object, Class,
                     static_cast<uint32_t>(Class->InstanceLayout.size()));
}

uint32_t Runtime::allocArray(Type *ElemTy, int32_t Length) {
  assert(Length >= 0 && "caller checks for negative sizes");
  return Gc.allocate(ElemTy->isRef() ? CellKind::RefArray : CellKind::Array,
                     ElemTy, static_cast<uint32_t>(Length));
}

uint32_t Runtime::internString(std::string_view S, Type *CharTy) {
  for (const InternedString &E : StringPool)
    if (std::string_view(StringText).substr(E.Off, E.Len) == S)
      return E.Ref;
  uint32_t Ref = allocArray(CharTy, static_cast<int32_t>(S.size()));
  Word *Chars = Gc.cell(Ref).Slots;
  for (size_t I = 0; I != S.size(); ++I)
    Chars[I] = Word::makeInt(static_cast<unsigned char>(S[I]));
  StringPool.push_back({static_cast<uint32_t>(StringText.size()),
                        static_cast<uint32_t>(S.size()), Ref});
  StringText += S;
  return Ref;
}

void Runtime::enumerateRoots(GcMarker &M) {
  // Statics carry no tags: the class table lists the slots whose field
  // type is a reference.
  for (unsigned S : Table.getStaticRefSlots())
    M.mark(Statics[S].R);
  // Interned constants are canonical for the Runtime's lifetime (repeat
  // LoadStr must return the same ref), so the pool pins them.
  for (const InternedString &E : StringPool)
    M.mark(E.Ref);
}

bool Runtime::paranoidEnv() {
  static const bool On = [] {
    const char *E = std::getenv("SAFETSA_PARANOID");
    return E && *E && !(E[0] == '0' && E[1] == '\0');
  }();
  return On;
}

void Runtime::heapTrap(uint32_t Ref) {
  std::fprintf(stderr, "safetsa: PARANOID heap trap: invalid ref #%u\n", Ref);
  std::abort();
}

Word Runtime::callNative(NativeMethod M, const Word *Args) {
  // Prints render with to_chars straight into Output, in the rendering
  // Value::str() defines (ints in decimal, doubles as %.15g).
  char Buf[32];
  switch (M) {
  case NativeMethod::PrintInt:
    Output.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Args[0].I).ptr);
    return Word{};
  case NativeMethod::PrintDouble:
    Output.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Args[0].D,
                                     std::chars_format::general, 15)
                           .ptr);
    return Word{};
  case NativeMethod::PrintChar:
    Output.push_back(static_cast<char>(Args[0].I));
    return Word{};
  case NativeMethod::PrintBool:
    Output += Args[0].I ? "true" : "false";
    return Word{};
  case NativeMethod::PrintStr: {
    if (Args[0].R == 0) {
      Output += "null";
      return Word{};
    }
    const HeapCell &Str = cell(Args[0].R);
    for (uint32_t I = 0, E = Str.Len; I != E; ++I)
      Output.push_back(static_cast<char>(Str.Slots[I].I));
    return Word{};
  }
  case NativeMethod::Println:
    Output.push_back('\n');
    return Word{};
  case NativeMethod::Sqrt:
    return Word::makeDouble(std::sqrt(Args[0].D));
  case NativeMethod::AbsDouble:
    return Word::makeDouble(std::fabs(Args[0].D));
  case NativeMethod::AbsInt:
    return Word::makeInt(Args[0].I < 0 ? -Args[0].I : Args[0].I);
  case NativeMethod::MinInt:
    return Word::makeInt(Args[0].I < Args[1].I ? Args[0].I : Args[1].I);
  case NativeMethod::MaxInt:
    return Word::makeInt(Args[0].I > Args[1].I ? Args[0].I : Args[1].I);
  case NativeMethod::MinDouble:
    return Word::makeDouble(Args[0].D < Args[1].D ? Args[0].D : Args[1].D);
  case NativeMethod::MaxDouble:
    return Word::makeDouble(Args[0].D > Args[1].D ? Args[0].D : Args[1].D);
  case NativeMethod::Pow:
    return Word::makeDouble(std::pow(Args[0].D, Args[1].D));
  case NativeMethod::Floor:
    return Word::makeDouble(std::floor(Args[0].D));
  case NativeMethod::None:
    break;
  }
  assert(false && "unknown native method");
  return Word{};
}

Value Runtime::callNative(const MethodSymbol *M,
                          const std::vector<Value> &Args) {
  Word W[MaxNativeArgs] = {};
  assert(Args.size() <= MaxNativeArgs && "native arity");
  for (size_t I = 0; I != Args.size() && I != MaxNativeArgs; ++I)
    W[I] = Args[I].word();
  return Value::fromWord(callNative(M->Native, W), M->RetTy);
}
