//===- sema/ClassTable.cpp ------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sema/ClassTable.h"

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
    return Class->Name;
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
  std::vector<SymbolPtr<ClassSymbol>> ClassStore;
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
    auto C = makeSymbol<ClassSymbol>(SymbolStore);
    C->Name = Name;
    C->Super = Super;
    C->IsBuiltin = true;
    C->Id = static_cast<unsigned>(Classes.size());
    C->AsType = make(TypeKind::Class);
    C->AsType->Class = C.get();
    Classes.push_back(C.get());
    ClassStore.push_back(std::move(C));
    return Classes.back();
  }
  void addNative(ClassSymbol *Class, const char *Name, NativeMethod Native,
                 Type *RetTy, std::vector<Type *> ParamTys) {
    auto M = makeSymbol<MethodSymbol>(SymbolStore);
    M->Name = Name;
    M->Owner = Class;
    M->RetTy = RetTy;
    M->ParamTys = std::move(ParamTys);
    M->IsStatic = true;
    M->Native = Native;
    M->GlobalId = static_cast<unsigned>(Natives.size());
    Natives.push_back(M.get());
    Class->Methods.push_back(std::move(M));
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
    for (const auto &M : C->Methods)
      if (!M->IsConstructor && M->Name == Name)
        Out.push_back(M.get());
}

void ClassSymbol::findConstructors(std::vector<MethodSymbol *> &Out) const {
  Out.clear();
  for (const auto &M : Methods)
    if (M->IsConstructor)
      Out.push_back(M.get());
}

ClassTable::ClassTable(TypeContext &Types) {
  (void)Types;
  const SharedBuiltins &B = sharedBuiltins();
  Classes = B.Classes;
  AllMethods = B.Natives;
}

bool ClassTable::computeClassLayout(ClassSymbol *Class, std::string *Err) {
  if (Class->IsBuiltin || !Class->InstanceLayout.empty() ||
      !Class->VTable.empty())
    return true; // Builtins have no layout; the rest is idempotent.
  if (Class->Super && !computeClassLayout(Class->Super, Err))
    return false;

  // Size both tables once: inherited entries plus every own member that
  // could add one.
  size_t OwnFields = 0, OwnMethods = 0;
  for (auto &F : Class->Fields)
    OwnFields += !F->IsStatic;
  for (auto &M : Class->Methods)
    OwnMethods += !(M->IsStatic || M->IsConstructor || M->isNative());
  if (Class->Super) {
    Class->InstanceLayout.reserve(Class->Super->InstanceLayout.size() +
                                  OwnFields);
    Class->InstanceLayout = Class->Super->InstanceLayout;
    Class->RefFields = Class->Super->RefFields;
    Class->VTable.reserve(Class->Super->VTable.size() + OwnMethods);
    Class->VTable = Class->Super->VTable;
  }
  for (auto &F : Class->Fields) {
    if (F->IsStatic)
      continue;
    F->Slot = static_cast<unsigned>(Class->InstanceLayout.size());
    if (F->Ty && F->Ty->isRef())
      Class->RefFields.push_back(F->Slot);
    Class->InstanceLayout.push_back(F.get());
  }
  for (auto &M : Class->Methods) {
    if (M->IsStatic || M->IsConstructor || M->isNative())
      continue;
    MethodSymbol *Overridden = nullptr;
    for (MethodSymbol *Slot : Class->VTable)
      if (Slot->Name == M->Name && Slot->ParamTys == M->ParamTys) {
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
      Class->VTable[M->VTableSlot] = M.get();
    } else {
      M->VTableSlot = static_cast<int>(Class->VTable.size());
      Class->VTable.push_back(M.get());
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
  auto Class = makeSymbol<ClassSymbol>(Arena);
  Class->Name = Name;
  Class->Decl = Decl;
  Class->Id = static_cast<unsigned>(Classes.size());
  ClassSymbol *Raw = Class.get();
  ByName.emplace(Name, Raw);
  Classes.push_back(Raw);
  UserClasses.push_back(std::move(Class));
  return Raw;
}
