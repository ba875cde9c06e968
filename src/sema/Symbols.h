//===- sema/Symbols.h - Declared entities ---------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbols for classes, fields, methods, and locals. The class table plays
/// the role of the paper's linking/type table: builtin entries ("imported
/// types" in the paper) are generated implicitly and are therefore
/// tamper-proof; user classes are declared by the mobile program.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SEMA_SYMBOLS_H
#define SAFETSA_SEMA_SYMBOLS_H

#include "sema/Type.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace safetsa {

struct ClassSymbol;
struct MethodDecl;
struct FieldDecl;

/// Symbols live in their ClassTable's arena (the shared builtins in a
/// process-wide one): the owning pointer runs the destructor and the
/// arena frees the bytes with the table, so a module's symbols cost a
/// slab, not an allocation each.
struct SymbolDestroy {
  template <typename T> void operator()(T *P) const { P->~T(); }
};
template <typename T> using SymbolPtr = std::unique_ptr<T, SymbolDestroy>;

/// Constructs a T in \p Arena, owned by the returned pointer.
template <typename T> SymbolPtr<T> makeSymbol(BumpArena &Arena) {
  return SymbolPtr<T>(new (Arena.allocate(sizeof(T), alignof(T))) T());
}

/// A field declared by some class (static or instance).
struct FieldSymbol {
  std::string Name;
  Type *Ty = nullptr;
  ClassSymbol *Owner = nullptr;
  bool IsStatic = false;
  bool IsFinal = false;
  /// For instance fields: slot in the full object layout (superclass
  /// fields first). For static fields: global static-storage slot.
  unsigned Slot = 0;
  FieldDecl *Decl = nullptr;
};

/// Identifies a runtime-provided (imported) method; the evaluators
/// implement these natively, mirroring the paper's "types imported from
/// the host environment's libraries".
enum class NativeMethod : uint8_t {
  None,
  PrintInt,
  PrintDouble,
  PrintChar,
  PrintBool,
  PrintStr,
  Println,
  Sqrt,
  AbsDouble,
  AbsInt,
  MinInt,
  MaxInt,
  MinDouble,
  MaxDouble,
  Pow,
  Floor
};

/// A method or constructor.
struct MethodSymbol {
  std::string Name;
  ClassSymbol *Owner = nullptr;
  Type *RetTy = nullptr;
  std::vector<Type *> ParamTys;
  bool IsStatic = false;
  bool IsConstructor = false;
  NativeMethod Native = NativeMethod::None;
  /// Slot in the owner's vtable; -1 for statics, constructors, natives.
  int VTableSlot = -1;
  /// The overridden superclass method, when this is an override.
  MethodSymbol *Overrides = nullptr;
  MethodDecl *Decl = nullptr;
  /// Dense id across the whole program (assigned by ClassTable), used for
  /// cross-references in encoded modules and by the evaluators.
  unsigned GlobalId = 0;

  bool isNative() const { return Native != NativeMethod::None; }

  /// "Owner.name(paramtypes)" for diagnostics.
  std::string signature() const;
};

/// A class: user-declared or builtin (Object, IO, Math).
struct ClassSymbol {
  std::string Name;
  ClassSymbol *Super = nullptr; // Null only for Object.
  ClassDecl *Decl = nullptr;    // Null for builtins.
  bool IsBuiltin = false;
  /// Dense id across the program; Object is 0.
  unsigned Id = 0;
  /// This class's type, cached by TypeContext::getClass.
  Type *AsType = nullptr;

  std::vector<SymbolPtr<FieldSymbol>> Fields;   // Own declarations.
  std::vector<SymbolPtr<MethodSymbol>> Methods; // Own declarations.

  /// Full instance layout, superclass fields first (computed).
  std::vector<FieldSymbol *> InstanceLayout;
  /// The InstanceLayout slots whose field type is a reference, ascending
  /// (computed with the layout): the collector scans exactly these.
  std::vector<uint32_t> RefFields;
  /// Virtual dispatch table: inherited slots first, overrides substituted.
  std::vector<MethodSymbol *> VTable;

  /// Walks the superclass chain, including this class.
  bool isSubclassOf(const ClassSymbol *Other) const {
    for (const ClassSymbol *C = this; C; C = C->Super)
      if (C == Other)
        return true;
    return false;
  }

  /// Finds a field by name in this class or a superclass; null if absent.
  FieldSymbol *findField(std::string_view Name) const {
    for (const ClassSymbol *C = this; C; C = C->Super)
      for (const auto &F : C->Fields)
        if (F->Name == Name)
          return F.get();
    return nullptr;
  }

  /// Sets \p Out to all methods named \p Name along the superclass chain
  /// (nearest first); overloads included, constructors excluded. \p Out
  /// is the caller's reused scratch list.
  void findMethods(std::string_view Name,
                   std::vector<MethodSymbol *> &Out) const;

  /// Sets \p Out to this class's constructors.
  void findConstructors(std::vector<MethodSymbol *> &Out) const;
};

} // namespace safetsa

#endif // SAFETSA_SEMA_SYMBOLS_H
