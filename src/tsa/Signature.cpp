//===- tsa/Signature.cpp --------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tsa/Signature.h"

#include <iterator>

using namespace safetsa;

const char *safetsa::opcodeName(Opcode Op) {
  static const char *const Names[] = {
      "const",    "param",       "phi",      "primitive", "xprimitive",
      "nullcheck", "indexcheck", "upcast",   "downcast",  "getfield",
      "setfield", "getelt",      "setelt",   "getstatic", "setstatic",
      "arraylength", "new",      "newarray", "xcall",     "xdispatch"};
  static_assert(std::size(Names) == size_t(Opcode::Dispatch) + 1);
  return Names[static_cast<size_t>(Op)];
}

const char *safetsa::primOpName(PrimOp Op) {
  static const char *const Names[] = {
      // int
      "add", "sub", "mul", "div", "rem", "neg", "and", "or", "xor", "shl",
      "shr", "not", "cmplt", "cmple", "cmpgt", "cmpge", "cmpeq", "cmpne",
      "todouble", "tochar",
      // double
      "add", "sub", "mul", "div", "neg", "cmplt", "cmple", "cmpgt",
      "cmpge", "cmpeq", "cmpne", "toint",
      // char, boolean, reference
      "toint", "not", "cmpeq", "cmpne", "cmpeq", "cmpne", "instanceof"};
  static_assert(std::size(Names) == size_t(PrimOp::InstanceOf) + 1);
  return Names[static_cast<size_t>(Op)];
}

unsigned safetsa::primOpArity(PrimOp Op) {
  switch (Op) {
  case PrimOp::NegI:
  case PrimOp::NotI:
  case PrimOp::IntToDouble:
  case PrimOp::IntToChar:
  case PrimOp::NegD:
  case PrimOp::DoubleToInt:
  case PrimOp::CharToInt:
  case PrimOp::NotB:
  case PrimOp::InstanceOf:
    return 1;
  default:
    return 2;
  }
}

bool safetsa::primOpMayRaise(PrimOp Op) {
  // Integer divide/remainder raise ArithmeticException on zero divisors;
  // everything else (including IEEE double division) is total. Which
  // operations raise is, per paper §5, a property of the transported
  // language's type system — these are Java's rules.
  return Op == PrimOp::DivI || Op == PrimOp::RemI;
}

// PrimOp lists each plane's operations together (Instruction.h): int,
// double, char, boolean, then reference.
static_assert(PrimOp::IntToChar < PrimOp::AddD &&
              PrimOp::DoubleToInt < PrimOp::CharToInt &&
              PrimOp::CharToInt < PrimOp::NotB &&
              PrimOp::CmpNeB < PrimOp::CmpEqR);

Type *safetsa::primOpOperandType(PrimOp Op, PlaneContext &Ctx) {
  if (Op <= PrimOp::IntToChar)
    return Ctx.Types.getInt();
  if (Op <= PrimOp::DoubleToInt)
    return Ctx.Types.getDouble();
  if (Op == PrimOp::CharToInt)
    return Ctx.Types.getChar();
  if (Op <= PrimOp::CmpNeB)
    return Ctx.Types.getBoolean();
  // Reference operations live on the Object plane; operands of more
  // specific static types reach it through free downcasts.
  return Ctx.objectType();
}

Type *safetsa::primOpResultType(PrimOp Op, PlaneContext &Ctx) {
  if (Op <= PrimOp::NotI || Op == PrimOp::CharToInt ||
      Op == PrimOp::DoubleToInt)
    return Ctx.Types.getInt();
  if ((Op >= PrimOp::AddD && Op <= PrimOp::NegD) ||
      Op == PrimOp::IntToDouble)
    return Ctx.Types.getDouble();
  if (Op == PrimOp::IntToChar)
    return Ctx.Types.getChar();
  // All comparisons, NotB, InstanceOf.
  return Ctx.Types.getBoolean();
}

bool Instruction::mayRaise() const {
  switch (Op) {
  case Opcode::XPrimitive:
  case Opcode::NullCheck:
  case Opcode::IndexCheck:
  case Opcode::Upcast:
  case Opcode::NewArray:
  case Opcode::Call:
  case Opcode::Dispatch:
    return true;
  default:
    return false;
  }
}

bool Instruction::hasResult() const {
  switch (Op) {
  case Opcode::SetField:
  case Opcode::SetElt:
  case Opcode::SetStatic:
    return false;
  case Opcode::Call:
  case Opcode::Dispatch:
    return Method && !Method->RetTy->isVoid();
  default:
    return true;
  }
}

bool Instruction::hasSideEffects() const {
  switch (Op) {
  case Opcode::SetField:
  case Opcode::SetElt:
  case Opcode::SetStatic:
  case Opcode::Call:
  case Opcode::Dispatch:
    return true;
  default:
    return false;
  }
}

unsigned safetsa::expectedOperandCount(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Const:
  case Opcode::Param:
  case Opcode::GetStatic:
  case Opcode::New:
    return 0;
  case Opcode::Phi:
    return static_cast<unsigned>(I.Operands.size()); // == #preds; checked
                                                     // by the verifier.
  case Opcode::Primitive:
  case Opcode::XPrimitive:
    return primOpArity(I.Prim);
  case Opcode::NullCheck:
  case Opcode::Upcast:
  case Opcode::Downcast:
  case Opcode::GetField:
  case Opcode::SetStatic:
  case Opcode::ArrayLength:
  case Opcode::NewArray:
    return 1;
  case Opcode::IndexCheck:
  case Opcode::SetField:
  case Opcode::GetElt:
    return 2;
  case Opcode::SetElt:
    return 3;
  case Opcode::Call: {
    unsigned N = static_cast<unsigned>(I.Method->ParamTys.size());
    return I.Method->IsConstructor ? N + 1 : N;
  }
  case Opcode::Dispatch:
    return static_cast<unsigned>(I.Method->ParamTys.size()) + 1;
  }
  return 0;
}

std::optional<PlaneKey> safetsa::operandPlane(const Instruction &I,
                                              unsigned Idx, PlaneContext &Ctx,
                                              std::string *Err) {
  auto Fail = [&](const std::string &Msg) -> std::optional<PlaneKey> {
    if (Err)
      *Err = Msg;
    return std::nullopt;
  };

  switch (I.Op) {
  case Opcode::Const:
  case Opcode::Param:
  case Opcode::GetStatic:
  case Opcode::New:
    return Fail("instruction takes no operands");

  case Opcode::Phi:
    // All operands on the result plane (strict type separation of phis).
    return I.DstSafe ? PlaneKey::safeRef(I.OpType)
                     : PlaneKey::base(I.OpType);

  case Opcode::Primitive:
  case Opcode::XPrimitive:
    if (Idx >= primOpArity(I.Prim))
      return Fail("primitive operand index out of range");
    return PlaneKey::base(primOpOperandType(I.Prim, Ctx));

  case Opcode::NullCheck:
    if (!I.OpType || !(I.OpType->isClass() || I.OpType->isArray()))
      return Fail("nullcheck requires a reference type");
    return PlaneKey::base(I.OpType);

  case Opcode::IndexCheck:
    if (!I.OpType || !I.OpType->isArray())
      return Fail("indexcheck requires an array type");
    if (Idx == 0)
      return PlaneKey::safeRef(I.OpType);
    return PlaneKey::base(Ctx.Types.getInt());

  case Opcode::Upcast:
    // The dynamic check inspects the object header, so the operand comes
    // from the most general plane.
    return PlaneKey::base(Ctx.objectType());

  case Opcode::Downcast:
    if (!I.AuxType)
      return Fail("downcast missing source type");
    return I.SrcSafe ? PlaneKey::safeRef(I.AuxType)
                     : PlaneKey::base(I.AuxType);

  case Opcode::GetField:
  case Opcode::SetField: {
    if (!I.Field || !I.OpType || !I.OpType->isClass())
      return Fail("field access requires a class type and field");
    if (!I.OpType->getClassSymbol()->isSubclassOf(I.Field->Owner))
      return Fail("field does not belong to the accessed class");
    if (I.Field->IsStatic)
      return Fail("instance field access names a static field");
    if (Idx == 0)
      return PlaneKey::safeRef(I.OpType);
    return PlaneKey::base(I.Field->Ty);
  }

  case Opcode::GetElt:
  case Opcode::SetElt: {
    if (!I.OpType || !I.OpType->isArray())
      return Fail("element access requires an array type");
    if (Idx == 0)
      return PlaneKey::safeRef(I.OpType);
    if (Idx == 1) {
      if (I.Operands.empty() || !I.Operands[0])
        return Fail("element access index decoded before its array");
      // The safe-index plane is anchored to the array VALUE (Appendix A);
      // this is what makes a stale or foreign index certificate
      // inexpressible.
      return PlaneKey::safeIndex(I.OpType, I.Operands[0]);
    }
    return PlaneKey::base(I.OpType->getElemType());
  }

  case Opcode::SetStatic:
    if (!I.Field || !I.Field->IsStatic)
      return Fail("setstatic requires a static field");
    return PlaneKey::base(I.Field->Ty);

  case Opcode::ArrayLength:
    if (!I.OpType || !I.OpType->isArray())
      return Fail("arraylength requires an array type");
    return PlaneKey::safeRef(I.OpType);

  case Opcode::NewArray:
    return PlaneKey::base(Ctx.Types.getInt());

  case Opcode::Call: {
    const MethodSymbol *M = I.Method;
    if (!M)
      return Fail("call missing method");
    unsigned ArgBase = 0;
    if (M->IsConstructor) {
      if (Idx == 0)
        return PlaneKey::base(Ctx.Types.getClass(M->Owner));
      ArgBase = 1;
    } else if (!M->IsStatic) {
      return Fail("xcall target must be static or a constructor");
    }
    unsigned ArgIdx = Idx - ArgBase;
    if (ArgIdx >= M->ParamTys.size())
      return Fail("call operand index out of range");
    return PlaneKey::base(M->ParamTys[ArgIdx]);
  }

  case Opcode::Dispatch: {
    const MethodSymbol *M = I.Method;
    if (!M || M->IsStatic || M->IsConstructor)
      return Fail("xdispatch target must be an instance method");
    if (M->VTableSlot < 0)
      return Fail("xdispatch target has no vtable slot");
    if (Idx == 0) {
      // The receiver must already be null-checked: dispatch dereferences
      // the object header, so it reads from the safe-ref plane.
      return PlaneKey::safeRef(Ctx.Types.getClass(M->Owner));
    }
    if (Idx - 1 >= M->ParamTys.size())
      return Fail("dispatch operand index out of range");
    return PlaneKey::base(M->ParamTys[Idx - 1]);
  }
  }
  return Fail("unknown opcode");
}

std::optional<PlaneKey> safetsa::resultPlane(const Instruction &I,
                                             PlaneContext &Ctx) {
  switch (I.Op) {
  case Opcode::Const: {
    return PlaneKey::base(I.OpType);
  }
  case Opcode::Param:
    return PlaneKey::base(I.OpType);
  case Opcode::Phi:
    return I.DstSafe ? PlaneKey::safeRef(I.OpType)
                     : PlaneKey::base(I.OpType);
  case Opcode::Primitive:
  case Opcode::XPrimitive:
    return PlaneKey::base(primOpResultType(I.Prim, Ctx));
  case Opcode::NullCheck:
    return PlaneKey::safeRef(I.OpType);
  case Opcode::IndexCheck:
    assert(!I.Operands.empty() && "indexcheck missing array operand");
    return PlaneKey::safeIndex(I.OpType, I.Operands[0]);
  case Opcode::Upcast:
    return PlaneKey::base(I.OpType);
  case Opcode::Downcast:
    return I.DstSafe ? PlaneKey::safeRef(I.OpType)
                     : PlaneKey::base(I.OpType);
  case Opcode::GetField:
    return PlaneKey::base(I.Field->Ty);
  case Opcode::GetElt:
    return PlaneKey::base(I.OpType->getElemType());
  case Opcode::GetStatic:
    return PlaneKey::base(I.Field->Ty);
  case Opcode::ArrayLength:
    return PlaneKey::base(Ctx.Types.getInt());
  case Opcode::New:
  case Opcode::NewArray:
    return PlaneKey::base(I.OpType);
  case Opcode::Call:
  case Opcode::Dispatch:
    if (I.Method->RetTy->isVoid())
      return std::nullopt;
    return PlaneKey::base(I.Method->RetTy);
  case Opcode::SetField:
  case Opcode::SetElt:
  case Opcode::SetStatic:
    return std::nullopt;
  }
  return std::nullopt;
}

std::string PlaneKey::str() const {
  std::string Base = Ty ? Ty->getName() : "<none>";
  switch (K) {
  case Kind::Base:
    return Base;
  case Kind::SafeRef:
    return "safe-" + Base;
  case Kind::SafeIndex:
    return "safe-index-" + Base;
  }
  return Base;
}
