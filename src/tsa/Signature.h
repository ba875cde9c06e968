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

#include <cassert>
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

/// Every plane one instruction reads and writes, found in one pass over
/// the rule set (instructionPlanes): the decoder, the encoder's plane
/// check and TSAVerifier all read an instruction's planes from here, and
/// finalize() and the printer its result plane (resultPlane).
class InstPlanes {
public:
  /// Operands the instruction takes; a phi's is the operands it has
  /// (its predecessor count, checked by the verifier).
  unsigned NumOperands;

  /// The plane \p I defines its value on; nullopt when it defines none.
  /// \p I is the instruction these planes were computed for: an
  /// indexcheck's certificate plane is anchored to its array operand, so
  /// it is read from I.Operands[0], which must be set by then.
  std::optional<PlaneKey> result(const Instruction &I) const {
    if (!HasResult)
      return std::nullopt;
    if (ResultK != PlaneKey::Kind::SafeIndex)
      return PlaneKey{ResultK, ResultTy, nullptr};
    assert(!I.Operands.empty() && "indexcheck missing array operand");
    return PlaneKey::safeIndex(ResultTy, I.Operands[0]);
  }

  /// The plane operand \p K (< NumOperands) of \p I is read from. An
  /// element access's index plane is anchored to the array value its
  /// operand 0 names, so it is nullopt while I.Operands[0] is unset.
  std::optional<PlaneKey> operand(const Instruction &I, unsigned K) const {
    unsigned L = Uniform ? 0 : K;
    if (L >= NumLead)
      return PlaneKey::base(Params[K - NumLead]);
    if (LeadK[L] != PlaneKey::Kind::SafeIndex)
      return PlaneKey{LeadK[L], LeadTy[L], nullptr};
    if (I.Operands.empty() || !I.Operands[0])
      return std::nullopt;
    return PlaneKey::safeIndex(LeadTy[L], I.Operands[0]);
  }

private:
  template <bool Operands>
  friend const char *planesOf(const Instruction &I, PlaneContext &Ctx,
                              InstPlanes &Out);

  // No member initializers: planesOf sets what it reads, so the decoder
  // builds one per instruction for a few stores. A SafeIndex kind below
  // has no anchor yet: it is I.Operands[0].
  bool HasResult;
  /// Every operand is on lead plane 0 (a phi's, however many).
  bool Uniform;
  uint8_t NumLead; ///< Operands [0, NumLead) are on the lead planes.
  PlaneKey::Kind ResultK;
  PlaneKey::Kind LeadK[3];
  Type *ResultTy;
  Type *LeadTy[3];
  /// A call's parameter types: operands [NumLead, NumOperands) are read
  /// from their base planes.
  Type *const *Params;
};

/// Computes every plane \p I reads and writes in one switch over its
/// opcode, validating its symbolic parameters (field, method, operand
/// types) once. Returns null when \p I is well-formed, else the reason
/// it is not; Out.NumOperands is set either way.
const char *instructionPlanes(const Instruction &I, PlaneContext &Ctx,
                              InstPlanes &Out);

/// Computes the result plane of \p I, or std::nullopt when it produces no
/// value (stores, void calls): the result half of instructionPlanes,
/// without its validation.
std::optional<PlaneKey> resultPlane(const Instruction &I, PlaneContext &Ctx);

/// The plane an operation of \p Op reads its inputs from.
Type *primOpOperandType(PrimOp Op, PlaneContext &Ctx);
/// The plane an operation of \p Op writes its result to.
Type *primOpResultType(PrimOp Op, PlaneContext &Ctx);

const char *opcodeName(Opcode Op);

} // namespace safetsa

#endif // SAFETSA_TSA_SIGNATURE_H
