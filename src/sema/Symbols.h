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

#include <algorithm>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace safetsa {

struct ClassSymbol;
struct MethodDecl;
struct FieldDecl;

// Symbols are plain records in their ClassTable's arena (the shared
// builtins in a process-wide one): names are views of bytes in the same
// arena and member lists are ArenaArrays, so a module's symbols cost the
// table a slab, not an allocation each, and the table frees them with
// its arena. ClassTable's addField/addMethod build them, for sema and the
// decoder alike.

/// A field declared by some class (static or instance).
struct FieldSymbol {
  std::string_view Name;
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
  std::string_view Name;
  ClassSymbol *Owner = nullptr;
  Type *RetTy = nullptr;
  ArenaArray<Type *> ParamTys;
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

  /// True when \p O takes exactly this method's parameter types.
  bool sameParams(const MethodSymbol &O) const {
    return std::equal(ParamTys.begin(), ParamTys.end(), O.ParamTys.begin(),
                      O.ParamTys.end());
  }

  /// "Owner.name(paramtypes)" for diagnostics.
  std::string signature() const;
};

/// A class: user-declared or builtin (Object, IO, Math).
struct ClassSymbol {
  std::string_view Name;
  ClassSymbol *Super = nullptr; // Null only for Object.
  ClassDecl *Decl = nullptr;    // Null for builtins.
  bool IsBuiltin = false;
  /// Dense id across the program; Object is 0.
  unsigned Id = 0;
  /// This class's type, cached by TypeContext::getClass.
  Type *AsType = nullptr;

  ArenaArray<FieldSymbol *> Fields;   // Own declarations.
  ArenaArray<MethodSymbol *> Methods; // Own declarations.

  /// Full instance layout, superclass fields first (computed).
  ArenaArray<FieldSymbol *> InstanceLayout;
  /// The InstanceLayout slots whose field type is a reference, ascending
  /// (computed with the layout): the collector scans exactly these.
  ArenaArray<uint32_t> RefFields;
  /// Virtual dispatch table: inherited slots first, overrides substituted.
  ArenaArray<MethodSymbol *> VTable;

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
      for (FieldSymbol *F : C->Fields)
        if (F->Name == Name)
          return F;
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

static_assert(std::is_trivially_destructible_v<FieldSymbol> &&
                  std::is_trivially_destructible_v<MethodSymbol> &&
                  std::is_trivially_destructible_v<ClassSymbol>,
              "symbols live in an arena that runs no destructors");

} // namespace safetsa

#endif // SAFETSA_SEMA_SYMBOLS_H
