//===- sema/ClassTable.cpp ------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sema/ClassTable.h"

#include <bit>
#include <functional>
#include <initializer_list>
#include <sstream>

using namespace safetsa;

std::string Type::getName() const {
  switch (Kind) {
  case TypeKind::Prim:
    switch (PrimK) {
    case PrimTypeKind::Int:
      return "int";
    case PrimTypeKind::Boolean:
      return "boolean";
    case PrimTypeKind::Double:
      return "double";
    case PrimTypeKind::Char:
      return "char";
    }
    return "prim";
  case TypeKind::Class:
    return std::string(Class->Name);
  case TypeKind::Array:
    return Elem->getName() + "[]";
  case TypeKind::Null:
    return "null";
  case TypeKind::Void:
    return "void";
  case TypeKind::Error:
    return "<error>";
  }
  return "<type>";
}

namespace safetsa {

/// The builtin half of every type table: the primitive types, Object, IO
/// and Math with their natives, and the array types over all seven up to
/// MaxWireArrayDepth. Built once, on first use (a function-local static,
/// so the construction happens-before every use on every thread), and
/// never written afterwards: every lazily filled cache on these objects
/// (Type::ArrayOf, ClassSymbol::AsType, the builtin layouts) is filled
/// here, before publication.
struct SharedBuiltins {
  TypeContext::SharedTypes Types;
  BumpArena TypeStore, SymbolStore;
  uint32_t NextIndex = 0;
  std::vector<ClassSymbol *> Classes;
  std::vector<MethodSymbol *> Natives;

  Type *make(TypeKind Kind) {
    Type *T = new (TypeStore.allocate(sizeof(Type), alignof(Type)))
        Type(Kind);
    T->Index = NextIndex++;
    return T;
  }
  Type *prim(PrimTypeKind K) {
    Type *T = make(TypeKind::Prim);
    T->PrimK = K;
    return T;
  }
  ClassSymbol *addClass(const char *Name, ClassSymbol *Super) {
    ClassSymbol *C = SymbolStore.create<ClassSymbol>();
    C->Name = Name;
    C->Super = Super;
    C->IsBuiltin = true;
    C->Id = static_cast<unsigned>(Classes.size());
    C->AsType = make(TypeKind::Class);
    C->AsType->Class = C;
    Classes.push_back(C);
    return C;
  }
  void addNative(ClassSymbol *Class, const char *Name, NativeMethod Native,
                 Type *RetTy, std::initializer_list<Type *> ParamTys) {
    MethodSymbol *M = SymbolStore.create<MethodSymbol>();
    M->Name = Name;
    M->Owner = Class;
    M->RetTy = RetTy;
    M->ParamTys = SymbolStore.copyArray(ParamTys.begin(), ParamTys.size());
    M->IsStatic = true;
    M->Native = Native;
    M->GlobalId = static_cast<unsigned>(Natives.size());
    Natives.push_back(M);
    Class->Methods.push_back(SymbolStore, M);
  }

  SharedBuiltins() {
    Type *IntTy = Types.Int = prim(PrimTypeKind::Int);
    Type *BoolTy = Types.Boolean = prim(PrimTypeKind::Boolean);
    Type *DoubleTy = Types.Double = prim(PrimTypeKind::Double);
    Type *CharTy = Types.Char = prim(PrimTypeKind::Char);
    Type *VoidTy = Types.Void = make(TypeKind::Void);
    Types.Null = make(TypeKind::Null);
    Types.Error = make(TypeKind::Error);

    ClassSymbol *Object = addClass("Object", nullptr);
    ClassSymbol *IO = addClass("IO", Object);
    ClassSymbol *Math = addClass("Math", Object);

    // Every array type the wire can name over a builtin element type.
    for (Type *T : {IntTy, BoolTy, DoubleTy, CharTy, Object->AsType,
                    IO->AsType, Math->AsType})
      for (unsigned D = 0; D != MaxWireArrayDepth; ++D) {
        T->ArrayOf = make(TypeKind::Array);
        T->ArrayOf->Elem = T;
        T = T->ArrayOf;
      }
    Type *CharArrTy = CharTy->ArrayOf;

    // IO: the host environment's console, imported implicitly.
    addNative(IO, "printInt", NativeMethod::PrintInt, VoidTy, {IntTy});
    addNative(IO, "printDouble", NativeMethod::PrintDouble, VoidTy,
              {DoubleTy});
    addNative(IO, "printChar", NativeMethod::PrintChar, VoidTy, {CharTy});
    addNative(IO, "printBool", NativeMethod::PrintBool, VoidTy, {BoolTy});
    addNative(IO, "printStr", NativeMethod::PrintStr, VoidTy, {CharArrTy});
    addNative(IO, "println", NativeMethod::Println, VoidTy, {});

    // Math: enough of java.lang.Math for the Linpack-style benchmarks.
    addNative(Math, "sqrt", NativeMethod::Sqrt, DoubleTy, {DoubleTy});
    addNative(Math, "abs", NativeMethod::AbsDouble, DoubleTy, {DoubleTy});
    addNative(Math, "abs", NativeMethod::AbsInt, IntTy, {IntTy});
    addNative(Math, "min", NativeMethod::MinInt, IntTy, {IntTy, IntTy});
    addNative(Math, "max", NativeMethod::MaxInt, IntTy, {IntTy, IntTy});
    addNative(Math, "min", NativeMethod::MinDouble, DoubleTy,
              {DoubleTy, DoubleTy});
    addNative(Math, "max", NativeMethod::MaxDouble, DoubleTy,
              {DoubleTy, DoubleTy});
    addNative(Math, "pow", NativeMethod::Pow, DoubleTy, {DoubleTy, DoubleTy});
    addNative(Math, "floor", NativeMethod::Floor, DoubleTy, {DoubleTy});

    Types.NumShared = NextIndex;
  }
};

} // namespace safetsa

static SharedBuiltins &sharedBuiltins() {
  static SharedBuiltins S;
  return S;
}

TypeContext::TypeContext() : Shared(&sharedBuiltins().Types) {
  NextIndex = Shared->NumShared;
}

Type *TypeContext::getPrim(PrimTypeKind K) const {
  switch (K) {
  case PrimTypeKind::Int:
    return getInt();
  case PrimTypeKind::Boolean:
    return getBoolean();
  case PrimTypeKind::Double:
    return getDouble();
  case PrimTypeKind::Char:
    return getChar();
  }
  return getError();
}

Type *TypeContext::getClass(ClassSymbol *Class) {
  assert(Class && "null class symbol");
  if (!Class->AsType) {
    assert(!Class->IsBuiltin && "builtin class types are prebuilt");
    Class->AsType = make(TypeKind::Class);
    Class->AsType->Class = Class;
  }
  return Class->AsType;
}

Type *TypeContext::getArray(Type *Elem) {
  assert(Elem && !Elem->isVoid() && !Elem->isNull() && "bad element type");
  if (Type *A = Elem->ArrayOf)
    return A;
  if (Elem->Index < Shared->NumShared) {
    // Deeper than the shared chain: never write the shared element.
    for (auto [E, A] : DeepArrays)
      if (E == Elem)
        return A;
    Type *A = make(TypeKind::Array);
    A->Elem = Elem;
    DeepArrays.push_back({Elem, A});
    return A;
  }
  Elem->ArrayOf = make(TypeKind::Array);
  Elem->ArrayOf->Elem = Elem;
  return Elem->ArrayOf;
}

std::string MethodSymbol::signature() const {
  std::ostringstream OS;
  if (Owner)
    OS << Owner->Name << '.';
  OS << Name << '(';
  for (size_t I = 0; I != ParamTys.size(); ++I) {
    if (I)
      OS << ", ";
    OS << ParamTys[I]->getName();
  }
  OS << ')';
  return OS.str();
}

void ClassSymbol::findMethods(std::string_view Name,
                              std::vector<MethodSymbol *> &Out) const {
  Out.clear();
  for (const ClassSymbol *C = this; C; C = C->Super)
    for (MethodSymbol *M : C->Methods)
      if (!M->IsConstructor && M->Name == Name)
        Out.push_back(M);
}

void ClassSymbol::findConstructors(std::vector<MethodSymbol *> &Out) const {
  Out.clear();
  for (MethodSymbol *M : Methods)
    if (M->IsConstructor)
      Out.push_back(M);
}

ClassTable::ClassTable(TypeContext &Types) {
  (void)Types;
  const SharedBuiltins &B = sharedBuiltins();
  Classes = Arena.copyArray(B.Classes.data(), B.Classes.size());
  AllMethods = Arena.copyArray(B.Natives.data(), B.Natives.size());
}

static size_t hashName(std::string_view Name) {
  return std::hash<std::string_view>()(Name);
}

ClassSymbol *ClassTable::lookup(std::string_view Name) const {
  for (size_t I = 0; I != NumBuiltinClasses; ++I)
    if (Classes[I]->Name == Name)
      return Classes[I];
  if (ByName.empty())
    return nullptr;
  size_t Mask = ByName.size() - 1;
  for (size_t I = hashName(Name) & Mask;; I = (I + 1) & Mask) {
    ClassSymbol *C = ByName[I];
    if (!C || C->Name == Name)
      return C;
  }
}

void ClassTable::insertName(ClassSymbol *C) {
  size_t Mask = ByName.size() - 1;
  size_t I = hashName(C->Name) & Mask;
  while (ByName[I])
    I = (I + 1) & Mask;
  ByName[I] = C;
}

void ClassTable::reserveClasses(size_t N) {
  Classes.reserve(Arena, Classes.size() + N);
  reserveNames(Classes.size() - NumBuiltinClasses + N);
}

void ClassTable::reserveNames(size_t Users) {
  if (2 * Users <= ByName.size())
    return;
  // Rehash into a table at most half full with every user class in.
  ArenaArray<ClassSymbol *> Old = ByName;
  ByName = Arena.allocArray<ClassSymbol *>(
      std::max<size_t>(16, std::bit_ceil(2 * Users)));
  for (ClassSymbol *C : Old)
    if (C)
      insertName(C);
}

FieldSymbol *ClassTable::addField(ClassSymbol *C, std::string_view Name,
                                  Type *Ty, bool IsStatic, bool IsFinal) {
  FieldSymbol *F = Arena.create<FieldSymbol>();
  F->Name = Arena.copyString(Name);
  F->Ty = Ty;
  F->Owner = C;
  F->IsStatic = IsStatic;
  F->IsFinal = IsFinal;
  if (IsStatic) {
    if (Ty && Ty->isRef())
      StaticRefSlots.push_back(Arena, NumStaticSlots);
    F->Slot = NumStaticSlots++;
  }
  C->Fields.push_back(Arena, F);
  return F;
}

MethodSymbol *ClassTable::addMethod(ClassSymbol *C, std::string_view Name,
                                    size_t NumParams) {
  MethodSymbol *M = Arena.create<MethodSymbol>();
  M->Name = Arena.copyString(Name);
  M->Owner = C;
  M->ParamTys = Arena.allocArray<Type *>(NumParams);
  M->GlobalId = static_cast<unsigned>(AllMethods.size());
  AllMethods.push_back(Arena, M);
  C->Methods.push_back(Arena, M);
  return M;
}

bool ClassTable::computeClassLayout(ClassSymbol *Class, std::string *Err) {
  if (Class->IsBuiltin || !Class->InstanceLayout.empty() ||
      !Class->VTable.empty())
    return true; // Builtins have no layout; the rest is idempotent.
  if (Class->Super && !computeClassLayout(Class->Super, Err))
    return false;

  // Size every table once: inherited entries plus every own member that
  // could add one.
  size_t OwnFields = 0, OwnRefs = 0, OwnMethods = 0;
  for (FieldSymbol *F : Class->Fields)
    if (!F->IsStatic) {
      ++OwnFields;
      OwnRefs += F->Ty && F->Ty->isRef();
    }
  for (MethodSymbol *M : Class->Methods)
    OwnMethods += !(M->IsStatic || M->IsConstructor || M->isNative());
  if (ClassSymbol *Super = Class->Super) {
    Class->InstanceLayout = Arena.copyArray(Super->InstanceLayout.data(),
                                            Super->InstanceLayout.size());
    Class->RefFields =
        Arena.copyArray(Super->RefFields.data(), Super->RefFields.size());
    Class->VTable = Arena.copyArray(Super->VTable.data(), Super->VTable.size());
  }
  Class->InstanceLayout.reserve(Arena,
                                Class->InstanceLayout.size() + OwnFields);
  Class->RefFields.reserve(Arena, Class->RefFields.size() + OwnRefs);
  Class->VTable.reserve(Arena, Class->VTable.size() + OwnMethods);
  for (FieldSymbol *F : Class->Fields) {
    if (F->IsStatic)
      continue;
    F->Slot = static_cast<unsigned>(Class->InstanceLayout.size());
    if (F->Ty && F->Ty->isRef())
      Class->RefFields.push_back(Arena, F->Slot);
    Class->InstanceLayout.push_back(Arena, F);
  }
  for (MethodSymbol *M : Class->Methods) {
    if (M->IsStatic || M->IsConstructor || M->isNative())
      continue;
    MethodSymbol *Overridden = nullptr;
    for (MethodSymbol *Slot : Class->VTable)
      if (Slot->Name == M->Name && Slot->sameParams(*M)) {
        Overridden = Slot;
        break;
      }
    if (Overridden) {
      if (Overridden->RetTy != M->RetTy) {
        if (Err)
          *Err = "override of " + Overridden->signature() +
                 " changes the return type";
        return false;
      }
      M->VTableSlot = Overridden->VTableSlot;
      M->Overrides = Overridden;
      Class->VTable[M->VTableSlot] = M;
    } else {
      M->VTableSlot = static_cast<int>(Class->VTable.size());
      Class->VTable.push_back(Arena, M);
    }
  }
  return true;
}

ClassSymbol *ClassTable::declareClass(std::string_view Name, ClassDecl *Decl,
                                      DiagnosticEngine &Diags) {
  if (ClassSymbol *Existing = lookup(Name)) {
    std::string Quoted = "'" + std::string(Name) + "'";
    Diags.error(Decl ? Decl->Loc : SourceLoc(),
                Existing->IsBuiltin
                    ? "class " + Quoted + " conflicts with a builtin class"
                    : "duplicate class " + Quoted);
    return nullptr;
  }
  reserveNames(Classes.size() - NumBuiltinClasses + 1);
  ClassSymbol *Class = Arena.create<ClassSymbol>();
  Class->Name = Arena.copyString(Name);
  Class->Decl = Decl;
  Class->Id = static_cast<unsigned>(Classes.size());
  insertName(Class);
  Classes.push_back(Arena, Class);
  return Class;
}
