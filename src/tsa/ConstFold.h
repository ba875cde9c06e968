//===- tsa/ConstFold.h - Constant folding ---------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one constant folder: primitive operations over ConstantValues with
/// the evaluators' (Java's) semantics, and the static field initializers
/// of MJ source built from them. The optimizer's constant propagation,
/// TSAGen and the bytecode backend all fold through here, so a folded
/// constant is the value the program would compute at run time.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_TSA_CONSTFOLD_H
#define SAFETSA_TSA_CONSTFOLD_H

#include "ast/AST.h"
#include "tsa/Instruction.h"

namespace safetsa {

/// Folds \p Op over \p A and (for binary operations) \p B into \p Out.
/// Returns false when the operation would raise (integer division by
/// zero) or is not folded (reference operations).
bool foldPrim(PrimOp Op, const ConstantValue &A, const ConstantValue *B,
              ConstantValue &Out);

/// The primitive operation an arithmetic, bitwise or comparison operator
/// applies to operands of its promoted type (double when \p IsDouble).
PrimOp binaryPrimOp(BinaryOp Op, bool IsDouble);

/// Folds a static field initializer -- a constant expression that Sema
/// accepted and coerced to the field's type -- into \p Out, a constant of
/// exactly that type (a string's bytes stay in the AST). Returns false
/// when evaluating it would divide by zero.
bool foldStaticInit(const Expr &Init, ConstantValue &Out);

/// True when \p C may initialize a static field of type \p FieldTy: a
/// constant of the field's exact primitive type, null for a class or
/// array field, or a string for a char[] or Object field. Anything else
/// would let the executor read the field at the wrong representation.
bool staticInitFits(const ConstantValue &C, const Type *FieldTy);

} // namespace safetsa

#endif // SAFETSA_TSA_CONSTFOLD_H
