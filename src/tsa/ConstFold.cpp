//===- tsa/ConstFold.cpp --------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tsa/ConstFold.h"

#include <climits>
#include <cstdint>

using namespace safetsa;

bool safetsa::foldPrim(PrimOp Op, const ConstantValue &A,
                       const ConstantValue *B, ConstantValue &Out) {
  const int32_t X = static_cast<int32_t>(A.IntVal);
  const int32_t Y = B ? static_cast<int32_t>(B->IntVal) : 0;
  const double P = A.DblVal, Q = B ? B->DblVal : 0.0;
  // Int arithmetic runs in 64 bits and wraps to 32, as the JVM's does.
  auto Int = [&](int64_t V) {
    Out = ConstantValue::makeInt(static_cast<int32_t>(V));
    return true;
  };
  auto Dbl = [&](double V) {
    Out = ConstantValue::makeDouble(V);
    return true;
  };
  auto Bool = [&](bool V) {
    Out = ConstantValue::makeBool(V);
    return true;
  };
  switch (Op) {
  case PrimOp::AddI: return Int(int64_t(X) + Y);
  case PrimOp::SubI: return Int(int64_t(X) - Y);
  case PrimOp::MulI: return Int(int64_t(X) * Y);
  // A zero divisor keeps its run-time exception: no fold.
  case PrimOp::DivI: return Y != 0 && Int(X == INT32_MIN && Y == -1 ? X : X / Y);
  case PrimOp::RemI: return Y != 0 && Int(X == INT32_MIN && Y == -1 ? 0 : X % Y);
  case PrimOp::NegI: return Int(-int64_t(X));
  case PrimOp::AndI: return Int(X & Y);
  case PrimOp::OrI: return Int(X | Y);
  case PrimOp::XorI: return Int(X ^ Y);
  case PrimOp::ShlI: return Int(int64_t(X) << (Y & 31));
  case PrimOp::ShrI: return Int(X >> (Y & 31));
  case PrimOp::NotI: return Int(~X);
  case PrimOp::CmpLtI: return Bool(X < Y);
  case PrimOp::CmpLeI: return Bool(X <= Y);
  case PrimOp::CmpGtI: return Bool(X > Y);
  case PrimOp::CmpGeI: return Bool(X >= Y);
  case PrimOp::CmpEqI: return Bool(X == Y);
  case PrimOp::CmpNeI: return Bool(X != Y);
  case PrimOp::IntToDouble: return Dbl(X);
  case PrimOp::IntToChar:
    Out = ConstantValue::makeChar(static_cast<char>(X & 0xff));
    return true;
  case PrimOp::AddD: return Dbl(P + Q);
  case PrimOp::SubD: return Dbl(P - Q);
  case PrimOp::MulD: return Dbl(P * Q);
  case PrimOp::DivD: return Dbl(P / Q);
  case PrimOp::NegD: return Dbl(-P);
  case PrimOp::CmpLtD: return Bool(P < Q);
  case PrimOp::CmpLeD: return Bool(P <= Q);
  case PrimOp::CmpGtD: return Bool(P > Q);
  case PrimOp::CmpGeD: return Bool(P >= Q);
  case PrimOp::CmpEqD: return Bool(P == Q);
  case PrimOp::CmpNeD: return Bool(P != Q);
  case PrimOp::DoubleToInt: // NaN to 0, saturating at the int range.
    return Int(P != P                ? 0
               : P >= 2147483647.0  ? INT32_MAX
               : P <= -2147483648.0 ? INT32_MIN
                                    : static_cast<int32_t>(P));
  case PrimOp::CharToInt: return Int(X);
  case PrimOp::NotB: return Bool(A.IntVal == 0);
  case PrimOp::CmpEqB: return Bool((A.IntVal != 0) == (B->IntVal != 0));
  case PrimOp::CmpNeB: return Bool((A.IntVal != 0) != (B->IntVal != 0));
  default:
    return false; // Reference operations are not folded.
  }
}

PrimOp safetsa::binaryPrimOp(BinaryOp Op, bool IsDouble) {
  switch (Op) {
  case BinaryOp::Add:
    return IsDouble ? PrimOp::AddD : PrimOp::AddI;
  case BinaryOp::Sub:
    return IsDouble ? PrimOp::SubD : PrimOp::SubI;
  case BinaryOp::Mul:
    return IsDouble ? PrimOp::MulD : PrimOp::MulI;
  case BinaryOp::Div:
    return IsDouble ? PrimOp::DivD : PrimOp::DivI;
  case BinaryOp::Rem:
    return PrimOp::RemI;
  case BinaryOp::BitAnd:
    return PrimOp::AndI;
  case BinaryOp::BitOr:
    return PrimOp::OrI;
  case BinaryOp::BitXor:
    return PrimOp::XorI;
  case BinaryOp::Shl:
    return PrimOp::ShlI;
  case BinaryOp::Shr:
    return PrimOp::ShrI;
  case BinaryOp::Lt:
    return IsDouble ? PrimOp::CmpLtD : PrimOp::CmpLtI;
  case BinaryOp::Le:
    return IsDouble ? PrimOp::CmpLeD : PrimOp::CmpLeI;
  case BinaryOp::Gt:
    return IsDouble ? PrimOp::CmpGtD : PrimOp::CmpGtI;
  case BinaryOp::Ge:
    return IsDouble ? PrimOp::CmpGeD : PrimOp::CmpGeI;
  case BinaryOp::Eq:
    return IsDouble ? PrimOp::CmpEqD : PrimOp::CmpEqI;
  case BinaryOp::Ne:
    return IsDouble ? PrimOp::CmpNeD : PrimOp::CmpNeI;
  default:
    assert(false && "not an arithmetic operator");
    return PrimOp::AddI;
  }
}

namespace {

/// Folds \p E to a constant of its static type, lowering each operator
/// and conversion exactly as TSAGen does (genBinary, genUnary, genCast).
bool fold(const Expr &E, ConstantValue &Out) {
  auto Apply = [&](PrimOp Op, ConstantValue V) {
    return foldPrim(Op, V, nullptr, Out);
  };
  switch (E.Kind) {
  case ExprKind::IntLiteral:
    Out = ConstantValue::makeInt(static_cast<const IntLiteralExpr &>(E).Value);
    return true;
  case ExprKind::DoubleLiteral:
    Out = ConstantValue::makeDouble(
        static_cast<const DoubleLiteralExpr &>(E).Value);
    return true;
  case ExprKind::BoolLiteral:
    Out = ConstantValue::makeBool(static_cast<const BoolLiteralExpr &>(E).Value);
    return true;
  case ExprKind::CharLiteral:
    Out = ConstantValue::makeChar(static_cast<const CharLiteralExpr &>(E).Value);
    return true;
  case ExprKind::NullLiteral:
    Out = ConstantValue::makeNull();
    return true;
  case ExprKind::StringLiteral:
    Out = ConstantValue::makeString(
        static_cast<const StringLiteralExpr &>(E).Value);
    return true;
  case ExprKind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    ConstantValue V;
    if (!fold(*U.Operand, V))
      return false;
    switch (U.Op) {
    case UnaryOp::Neg:
      return Apply(U.Operand->Ty->isDouble() ? PrimOp::NegD : PrimOp::NegI, V);
    case UnaryOp::Not:
      return Apply(PrimOp::NotB, V);
    case UnaryOp::BitNot:
      return Apply(PrimOp::NotI, V);
    default:
      assert(false && "not a constant unary operator");
      return false;
    }
  }
  case ExprKind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    ConstantValue L, R;
    if (!fold(*B.Lhs, L))
      return false;
    // The right operand of && and || is evaluated only when it decides.
    if (B.Op == BinaryOp::LAnd || B.Op == BinaryOp::LOr) {
      if ((L.IntVal != 0) == (B.Op == BinaryOp::LOr)) {
        Out = L;
        return true;
      }
      return fold(*B.Rhs, Out);
    }
    if (!fold(*B.Rhs, R))
      return false;
    if (B.Op == BinaryOp::Eq || B.Op == BinaryOp::Ne) {
      if (B.Lhs->Ty->isRef() || B.Rhs->Ty->isRef()) {
        // Null is the only constant reference.
        Out = ConstantValue::makeBool(B.Op == BinaryOp::Eq);
        return true;
      }
      if (B.Lhs->Ty->isBoolean())
        return foldPrim(B.Op == BinaryOp::Eq ? PrimOp::CmpEqB
                                             : PrimOp::CmpNeB,
                        L, &R, Out);
    }
    return foldPrim(binaryPrimOp(B.Op, B.Lhs->Ty->isDouble()), L, &R, Out);
  }
  case ExprKind::Cast: {
    const auto &C = static_cast<const CastExpr &>(E);
    ConstantValue V;
    if (!fold(*C.Operand, V))
      return false;
    bool FromChar = C.Operand->Ty->isChar();
    switch (C.Lowering) {
    case CastLowering::IntToDouble:
      if (FromChar && !foldPrim(PrimOp::CharToInt, V, nullptr, V))
        return false;
      return Apply(PrimOp::IntToDouble, V);
    case CastLowering::CharToInt:
      if (!FromChar)
        break;
      return Apply(PrimOp::CharToInt, V);
    case CastLowering::DoubleToInt:
      return Apply(PrimOp::DoubleToInt, V);
    case CastLowering::IntToChar:
      if (FromChar)
        break;
      return Apply(PrimOp::IntToChar, V);
    case CastLowering::DoubleToChar:
      return foldPrim(PrimOp::DoubleToInt, V, nullptr, V) &&
             Apply(PrimOp::IntToChar, V);
    case CastLowering::Identity:
    case CastLowering::RefWiden:
    case CastLowering::RefNarrow:
      break;
    }
    Out = V;
    return true;
  }
  default:
    assert(false && "not a constant expression");
    return false;
  }
}

} // namespace

bool safetsa::foldStaticInit(const Expr &Init, ConstantValue &Out) {
  return fold(Init, Out);
}

bool safetsa::staticInitFits(const ConstantValue &C, const Type *FieldTy) {
  switch (C.K) {
  case ConstantValue::Kind::Int:
    return FieldTy->isInt();
  case ConstantValue::Kind::Double:
    return FieldTy->isDouble();
  case ConstantValue::Kind::Bool:
    return FieldTy->isBoolean();
  case ConstantValue::Kind::Char:
    return FieldTy->isChar();
  case ConstantValue::Kind::Null:
    return FieldTy->isClass() || FieldTy->isArray();
  case ConstantValue::Kind::String:
    return (FieldTy->isArray() && FieldTy->getElemType()->isChar()) ||
           (FieldTy->isClass() && !FieldTy->getClassSymbol()->Super);
  }
  return false;
}
