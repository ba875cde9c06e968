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

namespace safetsa {

/// The one rule set for implied plane selection. Operands = false
/// computes only NumOperands and the result plane (resultPlane: no
/// validation, for instructions already known or reported); true also
/// validates the instruction's symbolic parameters once and records
/// every operand's plane (instructionPlanes).
template <bool Operands>
const char *planesOf(const Instruction &I, PlaneContext &Ctx,
                     InstPlanes &Out) {
  using Kind = PlaneKey::Kind;
  Out.NumOperands = 0;
  Out.HasResult = false;
  Out.Uniform = false;
  Out.NumLead = 0;
  auto Result = [&](Kind K, Type *Ty) {
    Out.HasResult = true;
    Out.ResultK = K;
    Out.ResultTy = Ty;
  };
  // Operand N (the next lead operand) is on plane (K, Ty); the call cases
  // add their parameters behind the leads.
  auto Lead = [&](Kind K, Type *Ty) {
    if constexpr (Operands) {
      Out.LeadK[Out.NumLead] = K;
      Out.LeadTy[Out.NumLead++] = Ty;
    }
  };

  switch (I.Op) {
  case Opcode::Const:
  case Opcode::Param:
  case Opcode::New:
    Result(Kind::Base, I.OpType);
    return nullptr;
  case Opcode::GetStatic:
    if (I.Field)
      Result(Kind::Base, I.Field->Ty);
    return nullptr;

  case Opcode::Phi: {
    // All operands on the result plane (strict type separation of phis).
    Kind K = I.DstSafe ? Kind::SafeRef : Kind::Base;
    Result(K, I.OpType);
    Out.NumOperands = static_cast<unsigned>(I.Operands.size());
    Lead(K, I.OpType);
    Out.Uniform = true;
    return nullptr;
  }

  case Opcode::Primitive:
  case Opcode::XPrimitive:
    Result(Kind::Base, primOpResultType(I.Prim, Ctx));
    Out.NumOperands = primOpArity(I.Prim);
    if constexpr (Operands) {
      Type *Ty = primOpOperandType(I.Prim, Ctx);
      for (unsigned K = 0; K != Out.NumOperands; ++K)
        Lead(Kind::Base, Ty);
    }
    return nullptr;

  case Opcode::NullCheck:
    Result(Kind::SafeRef, I.OpType);
    Out.NumOperands = 1;
    if (!I.OpType || !(I.OpType->isClass() || I.OpType->isArray()))
      return "nullcheck requires a reference type";
    Lead(Kind::Base, I.OpType);
    return nullptr;

  case Opcode::IndexCheck:
    // The certificate's plane is anchored to the array value (result()).
    Result(Kind::SafeIndex, I.OpType);
    Out.NumOperands = 2;
    if (!I.OpType || !I.OpType->isArray())
      return "indexcheck requires an array type";
    Lead(Kind::SafeRef, I.OpType);
    Lead(Kind::Base, Ctx.Types.getInt());
    return nullptr;

  case Opcode::Upcast:
    Result(Kind::Base, I.OpType);
    Out.NumOperands = 1;
    // The dynamic check inspects the object header, so the operand comes
    // from the most general plane.
    Lead(Kind::Base, Ctx.objectType());
    return nullptr;

  case Opcode::Downcast:
    Result(I.DstSafe ? Kind::SafeRef : Kind::Base, I.OpType);
    Out.NumOperands = 1;
    if (!I.AuxType)
      return "downcast missing source type";
    Lead(I.SrcSafe ? Kind::SafeRef : Kind::Base, I.AuxType);
    return nullptr;

  case Opcode::GetField:
  case Opcode::SetField:
    if (I.Op == Opcode::GetField && I.Field)
      Result(Kind::Base, I.Field->Ty);
    Out.NumOperands = I.Op == Opcode::GetField ? 1 : 2;
    if constexpr (Operands) {
      if (!I.Field || !I.OpType || !I.OpType->isClass())
        return "field access requires a class type and field";
      if (!I.OpType->getClassSymbol()->isSubclassOf(I.Field->Owner))
        return "field does not belong to the accessed class";
      if (I.Field->IsStatic)
        return "instance field access names a static field";
      Lead(Kind::SafeRef, I.OpType);
      Lead(Kind::Base, I.Field->Ty);
    }
    return nullptr;

  case Opcode::GetElt:
  case Opcode::SetElt:
    if (I.Op == Opcode::GetElt)
      Result(Kind::Base, I.OpType->getElemType());
    Out.NumOperands = I.Op == Opcode::GetElt ? 2 : 3;
    if constexpr (Operands) {
      if (!I.OpType || !I.OpType->isArray())
        return "element access requires an array type";
      // The safe-index plane is anchored to the array VALUE (Appendix A);
      // this is what makes a stale or foreign index certificate
      // inexpressible. operand() reads the anchor from Operands[0].
      Lead(Kind::SafeRef, I.OpType);
      Lead(Kind::SafeIndex, I.OpType);
      Lead(Kind::Base, I.OpType->getElemType());
    }
    return nullptr;

  case Opcode::SetStatic:
    Out.NumOperands = 1;
    if (!I.Field || !I.Field->IsStatic)
      return "setstatic requires a static field";
    Lead(Kind::Base, I.Field->Ty);
    return nullptr;

  case Opcode::ArrayLength:
    Result(Kind::Base, Ctx.Types.getInt());
    Out.NumOperands = 1;
    if (!I.OpType || !I.OpType->isArray())
      return "arraylength requires an array type";
    Lead(Kind::SafeRef, I.OpType);
    return nullptr;

  case Opcode::NewArray:
    Result(Kind::Base, I.OpType);
    Out.NumOperands = 1;
    Lead(Kind::Base, Ctx.Types.getInt());
    return nullptr;

  case Opcode::Call:
  case Opcode::Dispatch: {
    const MethodSymbol *M = I.Method;
    if (!M)
      return I.Op == Opcode::Call ? "call missing method"
                                  : "xdispatch target must be an instance "
                                    "method";
    if (!M->RetTy->isVoid())
      Result(Kind::Base, M->RetTy);
    bool Receiver = I.Op == Opcode::Dispatch || M->IsConstructor;
    Out.NumOperands = static_cast<unsigned>(M->ParamTys.size()) + Receiver;
    if constexpr (Operands) {
      if (I.Op == Opcode::Call) {
        if (!M->IsConstructor && !M->IsStatic)
          return "xcall target must be static or a constructor";
        if (M->IsConstructor)
          Lead(Kind::Base, Ctx.Types.getClass(M->Owner));
      } else {
        if (M->IsStatic || M->IsConstructor)
          return "xdispatch target must be an instance method";
        if (M->VTableSlot < 0)
          return "xdispatch target has no vtable slot";
        // The receiver must already be null-checked: dispatch
        // dereferences the object header, so it reads from the safe-ref
        // plane.
        Lead(Kind::SafeRef, Ctx.Types.getClass(M->Owner));
      }
      Out.Params = M->ParamTys.data();
    }
    return nullptr;
  }
  }
  return "unknown opcode";
}

} // namespace safetsa

const char *safetsa::instructionPlanes(const Instruction &I,
                                       PlaneContext &Ctx, InstPlanes &Out) {
  return planesOf<true>(I, Ctx, Out);
}

std::optional<PlaneKey> safetsa::resultPlane(const Instruction &I,
                                             PlaneContext &Ctx) {
  InstPlanes P;
  planesOf<false>(I, Ctx, P);
  return P.result(I);
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
