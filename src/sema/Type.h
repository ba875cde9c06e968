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

namespace safetsa {

struct ClassSymbol;

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

private:
  friend class TypeContext;
  explicit Type(TypeKind Kind) : Kind(Kind) {}

  PrimTypeKind PrimK = PrimTypeKind::Int;
  ClassSymbol *Class = nullptr;
  Type *Elem = nullptr;
  /// The array type with this element type, once TypeContext::getArray
  /// has made it: interning is a pointer read, not a map probe.
  Type *ArrayOf = nullptr;
};

/// Owns and uniques all Types for one compilation.
///
/// Uniqueness needs no lookup table: a class's type is cached on its
/// ClassSymbol and an array type on its element type, so getClass and
/// getArray are one pointer read after the first call. That relies on a
/// ClassSymbol being used with one TypeContext only, which holds because
/// every ClassTable is built against (and lives beside) exactly one.
class TypeContext {
public:
  TypeContext();

  Type *getInt() { return &IntTy; }
  Type *getBoolean() { return &BoolTy; }
  Type *getDouble() { return &DoubleTy; }
  Type *getChar() { return &CharTy; }
  Type *getNull() { return &NullTy; }
  Type *getVoid() { return &VoidTy; }
  Type *getError() { return &ErrorTy; }
  Type *getPrim(PrimTypeKind K);

  Type *getClass(ClassSymbol *Class);
  Type *getArray(Type *Elem);

private:
  Type *make(TypeKind Kind) {
    return new (Types.allocate(sizeof(Type), alignof(Type))) Type(Kind);
  }

  Type IntTy, BoolTy, DoubleTy, CharTy, NullTy, VoidTy, ErrorTy;
  /// Class and array types; a module has a few dozen at most.
  BumpArena Types;
};

} // namespace safetsa

#endif // SAFETSA_SEMA_TYPE_H
