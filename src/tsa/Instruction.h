//===- tsa/Instruction.h - SafeTSA instructions ---------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SafeTSA instruction set and its register-plane model.
///
/// SafeTSA's "implied machine model" (paper §3) has a separate register
/// plane for every type and a complete set of planes per basic block.
/// Every instruction implicitly selects the planes of its operands and
/// result from its opcode and type parameters, so type safety is a
/// well-formedness property: a malicious encoder cannot make integer
/// addition consume a reference. In addition to the base plane of every
/// source type there is a safe-ref plane per reference type, populated
/// only by nullcheck (§4), and a safe-index plane per array *value*
/// (Appendix A), populated only by indexcheck. All memory operations
/// consume safe planes exclusively.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_TSA_INSTRUCTION_H
#define SAFETSA_TSA_INSTRUCTION_H

#include "sema/Symbols.h"
#include "support/Arena.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace safetsa {

class Instruction;
class BasicBlock;

/// Identifies one register plane of the machine model.
///
/// Base planes exist for every source type; SafeRef planes for every
/// reference type; SafeIndex planes are anchored to the specific array
/// SSA value they certify an index for (Appendix A of the paper: "safe-
/// index types are actually bound to array values rather than to their
/// static types").
struct PlaneKey {
  enum class Kind : uint8_t { Base, SafeRef, SafeIndex };

  Kind K = Kind::Base;
  Type *Ty = nullptr;                  // Underlying type (array type for
                                       // SafeIndex, for diagnostics).
  const Instruction *Anchor = nullptr; // SafeIndex only: the array value.

  static PlaneKey base(Type *Ty) { return {Kind::Base, Ty, nullptr}; }
  static PlaneKey safeRef(Type *Ty) { return {Kind::SafeRef, Ty, nullptr}; }
  static PlaneKey safeIndex(Type *ArrayTy, const Instruction *Anchor) {
    return {Kind::SafeIndex, ArrayTy, Anchor};
  }

  friend bool operator==(const PlaneKey &A, const PlaneKey &B) {
    return A.K == B.K && A.Ty == B.Ty && A.Anchor == B.Anchor;
  }

  std::string str() const;
};

/// SafeTSA opcodes. `primitive`/`xprimitive` carry a PrimOp selecting the
/// type-subordinate operation (paper §5); memory and call opcodes follow
/// §4 and §6. GetStatic/SetStatic extend the paper's getfield/setfield to
/// MJ's static fields (the paper routes globals through getfield/setfield
/// as well).
enum class Opcode : uint8_t {
  Const,      ///< Entry-block preloaded constant (not a "real" instruction).
  Param,      ///< Entry-block preloaded parameter.
  Phi,        ///< Merge; strictly type-separated (one plane in and out).
  Primitive,  ///< Non-raising type-subordinate operation.
  XPrimitive, ///< Raising type-subordinate operation (e.g. integer divide).
  NullCheck,  ///< ref -> safe-ref, with a runtime null test.
  IndexCheck, ///< (safe-ref array, int) -> safe-index, with a bounds test.
  Upcast,     ///< Checked cast (dynamic test; raises on failure).
  Downcast,   ///< Statically-safe cast; free at runtime (modeling only).
  GetField,   ///< (safe-ref) -> field value.
  SetField,   ///< (safe-ref, value); the only heap writers are SetField /
              ///< SetElt / SetStatic, constrained by the type table.
  GetElt,     ///< (safe-ref array, safe-index) -> element.
  SetElt,     ///< (safe-ref array, safe-index, value).
  GetStatic,  ///< () -> static field value.
  SetStatic,  ///< (value).
  ArrayLength,///< (safe-ref array) -> int.
  New,        ///< () -> fresh instance (fields zeroed).
  NewArray,   ///< (int length) -> fresh array; raises on negative length.
  Call,       ///< Statically-bound invocation (paper: xcall).
  Dispatch    ///< Vtable-dispatched invocation (paper: xdispatch).
};

/// Type-subordinate primitive operations. The suffix letter names the
/// owning type's plane: I = int, D = double, B = boolean, R = reference
/// (operations on the Object plane; operands of other static types reach
/// it via free downcasts). Conversions are operations of the source type.
enum class PrimOp : uint8_t {
  // int
  AddI,
  SubI,
  MulI,
  DivI, // xprimitive
  RemI, // xprimitive
  NegI,
  AndI,
  OrI,
  XorI,
  ShlI,
  ShrI,
  NotI,
  CmpLtI,
  CmpLeI,
  CmpGtI,
  CmpGeI,
  CmpEqI,
  CmpNeI,
  IntToDouble,
  IntToChar,
  // double
  AddD,
  SubD,
  MulD,
  DivD,
  NegD,
  CmpLtD,
  CmpLeD,
  CmpGtD,
  CmpGeD,
  CmpEqD,
  CmpNeD,
  DoubleToInt,
  // char
  CharToInt,
  // boolean
  NotB,
  CmpEqB,
  CmpNeB,
  // reference (Object plane)
  CmpEqR,
  CmpNeR,
  InstanceOf // AuxType = tested type.
};

const char *primOpName(PrimOp Op);
/// Number of value operands the primitive consumes.
unsigned primOpArity(PrimOp Op);
/// True when the op may raise and must be wrapped in xprimitive.
bool primOpMayRaise(PrimOp Op);

/// A literal preloaded into the entry block (the paper's constant pool),
/// or a static field's initial value. Plain data: a string constant's
/// bytes belong to whoever made it (the module's arena, for every
/// constant a TSAModule holds).
struct ConstantValue {
  enum class Kind : uint8_t { Int, Double, Bool, Char, Null, String };
  Kind K = Kind::Int;
  int64_t IntVal = 0;
  double DblVal = 0.0;
  std::string_view StrVal; // String constants have MJ type char[].

  static ConstantValue makeInt(int64_t V) {
    ConstantValue C;
    C.K = Kind::Int;
    C.IntVal = V;
    return C;
  }
  static ConstantValue makeDouble(double V) {
    ConstantValue C;
    C.K = Kind::Double;
    C.DblVal = V;
    return C;
  }
  static ConstantValue makeBool(bool V) {
    ConstantValue C;
    C.K = Kind::Bool;
    C.IntVal = V;
    return C;
  }
  static ConstantValue makeChar(char V) {
    ConstantValue C;
    C.K = Kind::Char;
    C.IntVal = static_cast<unsigned char>(V);
    return C;
  }
  static ConstantValue makeNull() {
    ConstantValue C;
    C.K = Kind::Null;
    return C;
  }
  static ConstantValue makeString(std::string_view V) {
    ConstantValue C;
    C.K = Kind::String;
    C.StrVal = V;
    return C;
  }

  friend bool operator==(const ConstantValue &A, const ConstantValue &B) {
    if (A.K != B.K)
      return false;
    switch (A.K) {
    case Kind::Int:
    case Kind::Bool:
    case Kind::Char:
      return A.IntVal == B.IntVal;
    case Kind::Double:
      // Bit comparison: constants fold deterministically, and -0.0 != 0.0
      // as pool entries.
      return A.DblVal == B.DblVal &&
             std::signbit(A.DblVal) == std::signbit(B.DblVal);
    case Kind::Null:
      return true;
    case Kind::String:
      return A.StrVal == B.StrVal;
    }
    return false;
  }
};

/// One SafeTSA instruction; also the SSA value it produces (if any).
///
/// A plain record in its module's arena. Operands hold direct Instruction
/// pointers in memory; the (l, r) dominator-relative encoding of the
/// paper (§2) is computed during externalization and regenerated during
/// decoding, so referential integrity is a property of the wire format
/// while the in-memory form stays convenient for optimization.
class Instruction {
public:
  Opcode Op = Opcode::Const;
  PrimOp Prim = PrimOp::AddI; ///< Primitive / XPrimitive.
  /// Source plane safety for Downcast (safe-ref -> ref erasure) and result
  /// safety for Downcast / Phi on safe-ref planes.
  bool SrcSafe = false;
  bool DstSafe = false;
  /// Dense per-method value number, assigned once by
  /// TSAMethod::createInst in creation order (0, 1, 2, ...) and never
  /// reused. Every producer (TSAGen, the optimizer, the decoder) creates
  /// nodes through that one helper, so per-value side tables (the
  /// prepare pass's frame-slot table) are flat vectors indexed by Id
  /// rather than pointer-keyed hash maps. Unlinked instructions keep
  /// their number, leaving a hole.
  uint32_t Id = 0;
  /// Primary type parameter; meaning depends on the opcode (constant type,
  /// primitive's owning type, checked type, class of field access, ...).
  Type *OpType = nullptr;
  /// The opcode's one symbolic parameter, if any.
  union {
    /// Secondary type: source type of Downcast, Object for Upcast, tested
    /// type of an InstanceOf primitive.
    Type *AuxType = nullptr;
    FieldSymbol *Field;   ///< Get/SetField, Get/SetStatic.
    MethodSymbol *Method; ///< Call / Dispatch.
    uint32_t ParamIndex;  ///< Param.
    uint32_t ConstIdx;    ///< Const: index into TSAMethod::Consts.
  };
  /// Exact-size in decoded code; a producer may append (phi operands).
  ArenaArray<Instruction *> Operands;

  BasicBlock *Parent = nullptr;
  /// Register number (r) on the result plane within the parent block;
  /// assigned by TSAMethod::finalize().
  uint32_t PlaneIndex = 0;
  /// Id of the result plane in the owning method's plane list
  /// (TSAMethod::Planes); NoPlane when the instruction produces no value.
  /// Assigned by TSAMethod::finalize().
  uint32_t PlaneId = NoPlane;

  static constexpr uint32_t NoPlane = ~0u;

  bool isPhi() const { return Op == Opcode::Phi; }
  bool isPreload() const {
    return Op == Opcode::Const || Op == Opcode::Param;
  }
  /// True when this instruction may raise a runtime exception.
  bool mayRaise() const;
  /// True when the instruction produces an SSA value.
  bool hasResult() const;
  /// True when the instruction writes memory or performs IO (and thus must
  /// not be removed by DCE even if unused).
  bool hasSideEffects() const;
};

static_assert(sizeof(Instruction) <= 64, "an Instruction fits a cache line");
static_assert(std::is_trivially_destructible_v<Instruction> &&
                  std::is_trivially_destructible_v<ConstantValue>,
              "IR records live in an arena that runs no destructors");

} // namespace safetsa

#endif // SAFETSA_TSA_INSTRUCTION_H
