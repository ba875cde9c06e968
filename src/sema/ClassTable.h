//===- sema/ClassTable.h - Program-wide symbol table ----------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ClassTable owns all class symbols (builtins + user classes) and
/// computes object layouts and vtables. It is shared by sema, both code
/// generators, the SafeTSA verifier, and the evaluators.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SEMA_CLASSTABLE_H
#define SAFETSA_SEMA_CLASSTABLE_H

#include "sema/Symbols.h"
#include "support/Diagnostics.h"

#include <functional>
#include <string_view>
#include <unordered_map>

namespace safetsa {

/// Owns every ClassSymbol in a compilation, including the implicit
/// builtins: Object (the root), IO (native printing), Math (native math).
class ClassTable {
public:
  /// Creates the builtin classes. \p Types supplies canonical types for
  /// the native method signatures.
  explicit ClassTable(TypeContext &Types);

  ClassSymbol *getObjectClass() { return ObjectClass; }

  /// Looks a class up by name; null when absent.
  ClassSymbol *lookup(std::string_view Name) const {
    auto It = ByName.find(Name);
    return It == ByName.end() ? nullptr : It->second;
  }

  /// Registers a new user class; reports and returns null on name clash.
  ClassSymbol *declareClass(std::string_view Name, ClassDecl *Decl,
                            DiagnosticEngine &Diags);

  const std::vector<std::unique_ptr<ClassSymbol>> &getClasses() const {
    return Classes;
  }

  /// All methods in declaration order, indexed by MethodSymbol::GlobalId.
  const std::vector<MethodSymbol *> &getAllMethods() const {
    return AllMethods;
  }

  /// Assigns GlobalIds and records \p M in the method index.
  void registerMethod(MethodSymbol *M) {
    M->GlobalId = static_cast<unsigned>(AllMethods.size());
    AllMethods.push_back(M);
  }

  /// Total number of static-field slots allocated so far.
  unsigned getNumStaticSlots() const { return NumStaticSlots; }
  unsigned allocateStaticSlot() { return NumStaticSlots++; }

  /// Computes InstanceLayout and VTable for \p Class (and, recursively,
  /// its superclasses). Returns false via \p Err on an illegal override
  /// (an override that changes the return type). Shared by sema and the
  /// mobile-code decoder so producer and consumer always agree on object
  /// layouts and dispatch-table slots.
  static bool computeClassLayout(ClassSymbol *Class, std::string *Err);

private:
  ClassSymbol *addBuiltinClass(const std::string &Name, ClassSymbol *Super);
  MethodSymbol *addNativeMethod(ClassSymbol *Class, const std::string &Name,
                                NativeMethod Native, Type *RetTy,
                                std::vector<Type *> ParamTys);

  std::vector<std::unique_ptr<ClassSymbol>> Classes;
  /// Hashes names as string_views, so lookup takes a view without
  /// building a std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };
  std::unordered_map<std::string, ClassSymbol *, NameHash, std::equal_to<>>
      ByName;
  std::vector<MethodSymbol *> AllMethods;
  ClassSymbol *ObjectClass = nullptr;
  unsigned NumStaticSlots = 0;
};

} // namespace safetsa

#endif // SAFETSA_SEMA_CLASSTABLE_H
