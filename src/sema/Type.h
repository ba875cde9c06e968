//===- sema/Type.h - Canonical MJ types -----------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical source-level types, interned by TypeContext so Type* equality
/// is type equality. These source types later map 1:1 onto entries of the
/// SafeTSA type table (which adds the derived safe-ref planes).
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SEMA_TYPE_H
#define SAFETSA_SEMA_TYPE_H

#include "ast/AST.h"
#include "support/Arena.h"

#include <string>
#include <utility>
#include <vector>

namespace safetsa {

struct ClassSymbol;
struct SharedBuiltins;

/// Deepest array type the wire format can name. The shared builtin types
/// carry their array types up to this depth, so no decode ever writes to
/// shared state.
constexpr unsigned MaxWireArrayDepth = 32;

enum class TypeKind : uint8_t { Prim, Class, Array, Null, Void, Error };

/// A canonical type. Instances are owned and uniqued by TypeContext.
class Type {
public:
  const TypeKind Kind;

  bool isPrim() const { return Kind == TypeKind::Prim; }
  bool isPrim(PrimTypeKind K) const {
    return Kind == TypeKind::Prim && PrimK == K;
  }
  bool isInt() const { return isPrim(PrimTypeKind::Int); }
  bool isBoolean() const { return isPrim(PrimTypeKind::Boolean); }
  bool isDouble() const { return isPrim(PrimTypeKind::Double); }
  bool isChar() const { return isPrim(PrimTypeKind::Char); }
  bool isClass() const { return Kind == TypeKind::Class; }
  bool isArray() const { return Kind == TypeKind::Array; }
  bool isNull() const { return Kind == TypeKind::Null; }
  bool isVoid() const { return Kind == TypeKind::Void; }
  bool isError() const { return Kind == TypeKind::Error; }
  /// Reference types: classes, arrays, and the null type.
  bool isRef() const { return isClass() || isArray() || isNull(); }
  /// int, double, or char (the arithmetic types).
  bool isNumeric() const { return isInt() || isDouble() || isChar(); }

  PrimTypeKind getPrimKind() const {
    assert(isPrim() && "not a primitive type");
    return PrimK;
  }
  ClassSymbol *getClassSymbol() const {
    assert(isClass() && "not a class type");
    return Class;
  }
  Type *getElemType() const {
    assert(isArray() && "not an array type");
    return Elem;
  }

  /// Human-readable spelling ("int", "Foo", "double[]").
  std::string getName() const;

  /// Dense number of this type within its TypeContext: the shared
  /// builtin types are [0, TypeContext::numShared()), and each context
  /// numbers its own types from there. Per-type side tables (the plane
  /// numbering's) are flat arrays indexed by it.
  uint32_t Index = 0;

private:
  friend class TypeContext;
  friend struct SharedBuiltins;
  explicit Type(TypeKind Kind) : Kind(Kind) {}

  PrimTypeKind PrimK = PrimTypeKind::Int;
  ClassSymbol *Class = nullptr;
  Type *Elem = nullptr;
  /// The array type with this element type, once TypeContext::getArray
  /// has made it: interning is a pointer read, not a map probe. On a
  /// shared builtin type it is filled before the builtins are published
  /// and never written again.
  Type *ArrayOf = nullptr;
};

/// Owns and uniques all Types for one compilation.
///
/// The primitive types, the builtin classes' types and their array types
/// up to MaxWireArrayDepth are built once per process and shared,
/// immutable, by every context (see SharedBuiltins in ClassTable.cpp).
/// Uniqueness needs no lookup table: a class's type is cached on its
/// ClassSymbol and an array type on its element type, so getClass and
/// getArray are one pointer read after the first call. That relies on a
/// user ClassSymbol being used with one TypeContext only, which holds
/// because every ClassTable is built against (and lives beside) exactly
/// one. An array of a shared type deeper than the shared chain reaches
/// (only source text can name one) is this context's own, kept in a side
/// list rather than cached on the shared element.
class TypeContext {
public:
  TypeContext();

  Type *getInt() const { return Shared->Int; }
  Type *getBoolean() const { return Shared->Boolean; }
  Type *getDouble() const { return Shared->Double; }
  Type *getChar() const { return Shared->Char; }
  Type *getNull() const { return Shared->Null; }
  Type *getVoid() const { return Shared->Void; }
  Type *getError() const { return Shared->Error; }
  Type *getPrim(PrimTypeKind K) const;

  Type *getClass(ClassSymbol *Class);
  Type *getArray(Type *Elem);

  /// Bound on Type::Index over every type this context has handed out.
  uint32_t numTypes() const { return NextIndex; }

  /// The builtin types every context shares.
  struct SharedTypes {
    Type *Int, *Boolean, *Double, *Char, *Null, *Void, *Error;
    uint32_t NumShared;
  };

private:
  Type *make(TypeKind Kind) {
    Type *T = new (Types.allocate(sizeof(Type), alignof(Type))) Type(Kind);
    T->Index = NextIndex++;
    return T;
  }

  const SharedTypes *Shared;
  uint32_t NextIndex;
  /// This context's class and array types; a module has a few dozen.
  BumpArena Types{1024};
  /// Arrays of shared types past the shared chain: (element, array).
  std::vector<std::pair<Type *, Type *>> DeepArrays;
};

} // namespace safetsa

#endif // SAFETSA_SEMA_TYPE_H
