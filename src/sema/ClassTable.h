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

#include <string>
#include <string_view>

namespace safetsa {

/// Every ClassSymbol of a compilation: the implicit builtins -- Object
/// (the root), IO (native printing), Math (native math) -- followed by the
/// user classes this table owns. The builtins and their natives are built
/// once per process and shared, immutable, by every table, so a table
/// costs only its user classes. The table's own lists and every user
/// symbol, name and member list live in its one arena.
class ClassTable {
public:
  /// Starts a table holding just the shared builtins. \p Types must be
  /// the context the table's user classes are typed in.
  explicit ClassTable(TypeContext &Types);

  ClassSymbol *getObjectClass() const { return Classes.front(); }

  /// Looks a class up by name; null when absent.
  ClassSymbol *lookup(std::string_view Name) const;

  /// Registers a new user class; reports and returns null on name clash.
  ClassSymbol *declareClass(std::string_view Name, ClassDecl *Decl,
                            DiagnosticEngine &Diags);

  /// Makes room for \p N more user classes.
  void reserveClasses(size_t N);

  /// Makes room for \p NumFields own fields and \p NumMethods own methods
  /// of \p C, so adding that many moves no list.
  void reserveMembers(ClassSymbol *C, size_t NumFields, size_t NumMethods) {
    C->Fields.reserve(Arena, C->Fields.size() + NumFields);
    C->Methods.reserve(Arena, C->Methods.size() + NumMethods);
  }
  /// Appends a new field named \p Name to \p C; a static field also gets
  /// the next static slot.
  FieldSymbol *addField(ClassSymbol *C, std::string_view Name, Type *Ty,
                        bool IsStatic, bool IsFinal);
  /// Appends a new method named \p Name to \p C, with room for exactly
  /// \p NumParams parameter types (null until the caller sets them), and
  /// gives it the next GlobalId.
  MethodSymbol *addMethod(ClassSymbol *C, std::string_view Name,
                          size_t NumParams);

  /// Every class, indexed by ClassSymbol::Id: the builtins first.
  const ArenaArray<ClassSymbol *> &getClasses() const { return Classes; }

  /// Object, IO and Math.
  static constexpr size_t NumBuiltinClasses = 3;

  /// All methods in declaration order, indexed by MethodSymbol::GlobalId.
  const ArenaArray<MethodSymbol *> &getAllMethods() const {
    return AllMethods;
  }

  /// Total number of static-field slots allocated so far.
  unsigned getNumStaticSlots() const { return NumStaticSlots; }
  /// The static slots that hold references, ascending: the collector's
  /// static roots (statics are untagged, DESIGN.md §13).
  const ArenaArray<unsigned> &getStaticRefSlots() const {
    return StaticRefSlots;
  }

  /// Computes InstanceLayout and VTable for \p Class (and, recursively,
  /// its superclasses) into this table's arena. Returns false via \p Err
  /// on an illegal override (an override that changes the return type).
  /// Shared by sema and the mobile-code decoder so producer and consumer
  /// always agree on object layouts and dispatch-table slots.
  bool computeClassLayout(ClassSymbol *Class, std::string *Err);

  /// The arena holding this table's symbols (for its byte counts).
  const BumpArena &arena() const { return Arena; }

private:
  /// Grows ByName to hold \p Users user classes at most half full.
  void reserveNames(size_t Users);
  /// Inserts \p C into ByName, which has room for it.
  void insertName(ClassSymbol *C);

  /// Its first 4 KiB slab holds a pool module's symbols, names and
  /// member lists (2.0-3.7 KiB measured over the frozen pool).
  BumpArena Arena;
  ArenaArray<ClassSymbol *> Classes;
  /// User classes by name: open addressing over a power-of-two table at
  /// most half full, probed linearly from the name's hash.
  ArenaArray<ClassSymbol *> ByName;
  ArenaArray<MethodSymbol *> AllMethods;
  unsigned NumStaticSlots = 0;
  ArenaArray<unsigned> StaticRefSlots;
};

} // namespace safetsa

#endif // SAFETSA_SEMA_CLASSTABLE_H
