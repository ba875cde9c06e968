//===- tsa/Signature.h - Implied plane selection --------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for SafeTSA's implied plane selection: for
/// every instruction, which plane each operand is fetched from and which
/// plane the result lands on. Generator, verifier, codec, and evaluator
/// all consult these functions, so "type separation" (paper §3) cannot
/// drift between components.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_TSA_SIGNATURE_H
#define SAFETSA_TSA_SIGNATURE_H

#include "sema/ClassTable.h"
#include "tsa/Method.h"

#include <optional>
#include <string>

namespace safetsa {

/// Shared context for plane computations, plus the scratch storage that
/// numbering and CFG derivation reuse from method to method.
struct PlaneContext {
  PlaneContext(TypeContext &Types, ClassTable &Table)
      : Types(Types), Table(Table) {}

  TypeContext &Types;
  ClassTable &Table;
  PlaneNumbering Numbering;
  std::vector<uint32_t> Counts; ///< finalize()'s per-block plane counts.
  CFGScratch CFG;

  Type *objectType() { return Types.getClass(Table.getObjectClass()); }
};

/// Expected number of value operands of \p I (for calls this depends on
/// the method symbol; for phis, on the parent block's predecessor count,
/// which the caller must check separately — here phi returns its current
/// operand count).
unsigned expectedOperandCount(const Instruction &I);

/// Computes the plane operand \p Idx of \p I is fetched from. Operands
/// 0..Idx-1 must already be present (GetElt/SetElt index planes are
/// anchored to the decoded array operand). Returns std::nullopt and sets
/// \p Err when the instruction is malformed (e.g. field/type mismatch).
std::optional<PlaneKey> operandPlane(const Instruction &I, unsigned Idx,
                                     PlaneContext &Ctx, std::string *Err);

/// Computes the result plane of \p I, or std::nullopt when it produces no
/// value (stores, void calls).
std::optional<PlaneKey> resultPlane(const Instruction &I, PlaneContext &Ctx);

/// The plane an operation of \p Op reads its inputs from.
Type *primOpOperandType(PrimOp Op, PlaneContext &Ctx);
/// The plane an operation of \p Op writes its result to.
Type *primOpResultType(PrimOp Op, PlaneContext &Ctx);

const char *opcodeName(Opcode Op);

} // namespace safetsa

#endif // SAFETSA_TSA_SIGNATURE_H
