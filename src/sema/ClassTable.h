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

/// Every ClassSymbol of a compilation: the implicit builtins -- Object
/// (the root), IO (native printing), Math (native math) -- followed by the
/// user classes this table owns. The builtins and their natives are built
/// once per process and shared, immutable, by every table, so a table
/// costs only its user classes.
class ClassTable {
public:
  /// Starts a table holding just the shared builtins. \p Types must be
  /// the context the table's user classes are typed in.
  explicit ClassTable(TypeContext &Types);

  ClassSymbol *getObjectClass() const { return Classes.front(); }

  /// Looks a class up by name; null when absent.
  ClassSymbol *lookup(std::string_view Name) const {
    for (size_t I = 0; I != NumBuiltinClasses; ++I)
      if (Classes[I]->Name == Name)
        return Classes[I];
    auto It = ByName.find(Name);
    return It == ByName.end() ? nullptr : It->second;
  }

  /// Registers a new user class; reports and returns null on name clash.
  ClassSymbol *declareClass(std::string_view Name, ClassDecl *Decl,
                            DiagnosticEngine &Diags);

  /// Makes room for \p N more user classes.
  void reserveClasses(size_t N) {
    Classes.reserve(Classes.size() + N);
    UserClasses.reserve(UserClasses.size() + N);
    ByName.reserve(ByName.size() + N);
  }

  /// A new member symbol in this table's arena; the caller adds it to
  /// its class.
  SymbolPtr<FieldSymbol> newField() { return makeSymbol<FieldSymbol>(Arena); }
  SymbolPtr<MethodSymbol> newMethod() {
    return makeSymbol<MethodSymbol>(Arena);
  }

  /// Every class, indexed by ClassSymbol::Id: the builtins first.
  const std::vector<ClassSymbol *> &getClasses() const { return Classes; }

  /// Object, IO and Math.
  static constexpr size_t NumBuiltinClasses = 3;

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
  /// The next static slot, for a field of type \p Ty; a reference slot
  /// also joins getStaticRefSlots().
  unsigned allocateStaticSlot(const Type *Ty) {
    if (Ty && Ty->isRef())
      StaticRefSlots.push_back(NumStaticSlots);
    return NumStaticSlots++;
  }
  /// The static slots that hold references, ascending: the collector's
  /// static roots (statics are untagged, DESIGN.md §13).
  const std::vector<unsigned> &getStaticRefSlots() const {
    return StaticRefSlots;
  }

  /// Computes InstanceLayout and VTable for \p Class (and, recursively,
  /// its superclasses). Returns false via \p Err on an illegal override
  /// (an override that changes the return type). Shared by sema and the
  /// mobile-code decoder so producer and consumer always agree on object
  /// layouts and dispatch-table slots.
  static bool computeClassLayout(ClassSymbol *Class, std::string *Err);

private:
  /// Holds every user symbol; declared first, so it outlives them.
  BumpArena Arena;
  std::vector<ClassSymbol *> Classes;
  std::vector<SymbolPtr<ClassSymbol>> UserClasses;
  /// User classes by name. Hashes names as string_views, so lookup takes
  /// a view without building a std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };
  std::unordered_map<std::string, ClassSymbol *, NameHash, std::equal_to<>>
      ByName;
  std::vector<MethodSymbol *> AllMethods;
  unsigned NumStaticSlots = 0;
  std::vector<unsigned> StaticRefSlots;
};

} // namespace safetsa

#endif // SAFETSA_SEMA_CLASSTABLE_H
