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

TypeContext::TypeContext()
    : IntTy(TypeKind::Prim), BoolTy(TypeKind::Prim), DoubleTy(TypeKind::Prim),
      CharTy(TypeKind::Prim), NullTy(TypeKind::Null), VoidTy(TypeKind::Void),
      ErrorTy(TypeKind::Error) {
  IntTy.PrimK = PrimTypeKind::Int;
  BoolTy.PrimK = PrimTypeKind::Boolean;
  DoubleTy.PrimK = PrimTypeKind::Double;
  CharTy.PrimK = PrimTypeKind::Char;
}

Type *TypeContext::getPrim(PrimTypeKind K) {
  switch (K) {
  case PrimTypeKind::Int:
    return &IntTy;
  case PrimTypeKind::Boolean:
    return &BoolTy;
  case PrimTypeKind::Double:
    return &DoubleTy;
  case PrimTypeKind::Char:
    return &CharTy;
  }
  return &ErrorTy;
}

Type *TypeContext::getClass(ClassSymbol *Class) {
  assert(Class && "null class symbol");
  if (!Class->AsType) {
    Class->AsType = make(TypeKind::Class);
    Class->AsType->Class = Class;
  }
  return Class->AsType;
}

Type *TypeContext::getArray(Type *Elem) {
  assert(Elem && !Elem->isVoid() && !Elem->isNull() && "bad element type");
  if (!Elem->ArrayOf) {
    Elem->ArrayOf = make(TypeKind::Array);
    Elem->ArrayOf->Elem = Elem;
  }
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

ClassSymbol *ClassTable::addBuiltinClass(const std::string &Name,
                                         ClassSymbol *Super) {
  auto Class = std::make_unique<ClassSymbol>();
  Class->Name = Name;
  Class->Super = Super;
  Class->IsBuiltin = true;
  Class->Id = static_cast<unsigned>(Classes.size());
  ClassSymbol *Raw = Class.get();
  ByName.emplace(Name, Raw);
  Classes.push_back(std::move(Class));
  return Raw;
}

MethodSymbol *ClassTable::addNativeMethod(ClassSymbol *Class,
                                          const std::string &Name,
                                          NativeMethod Native, Type *RetTy,
                                          std::vector<Type *> ParamTys) {
  auto M = std::make_unique<MethodSymbol>();
  M->Name = Name;
  M->Owner = Class;
  M->RetTy = RetTy;
  M->ParamTys = std::move(ParamTys);
  M->IsStatic = true;
  M->Native = Native;
  MethodSymbol *Raw = M.get();
  registerMethod(Raw);
  Class->Methods.push_back(std::move(M));
  return Raw;
}

ClassTable::ClassTable(TypeContext &Types) {
  ObjectClass = addBuiltinClass("Object", nullptr);

  Type *IntTy = Types.getInt();
  Type *DoubleTy = Types.getDouble();
  Type *CharTy = Types.getChar();
  Type *BoolTy = Types.getBoolean();
  Type *VoidTy = Types.getVoid();
  Type *CharArrTy = Types.getArray(CharTy);

  // IO: the host environment's console, imported implicitly.
  ClassSymbol *IO = addBuiltinClass("IO", ObjectClass);
  addNativeMethod(IO, "printInt", NativeMethod::PrintInt, VoidTy, {IntTy});
  addNativeMethod(IO, "printDouble", NativeMethod::PrintDouble, VoidTy,
                  {DoubleTy});
  addNativeMethod(IO, "printChar", NativeMethod::PrintChar, VoidTy, {CharTy});
  addNativeMethod(IO, "printBool", NativeMethod::PrintBool, VoidTy, {BoolTy});
  addNativeMethod(IO, "printStr", NativeMethod::PrintStr, VoidTy, {CharArrTy});
  addNativeMethod(IO, "println", NativeMethod::Println, VoidTy, {});

  // Math: enough of java.lang.Math for the Linpack-style benchmarks.
  ClassSymbol *Math = addBuiltinClass("Math", ObjectClass);
  addNativeMethod(Math, "sqrt", NativeMethod::Sqrt, DoubleTy, {DoubleTy});
  addNativeMethod(Math, "abs", NativeMethod::AbsDouble, DoubleTy, {DoubleTy});
  addNativeMethod(Math, "abs", NativeMethod::AbsInt, IntTy, {IntTy});
  addNativeMethod(Math, "min", NativeMethod::MinInt, IntTy, {IntTy, IntTy});
  addNativeMethod(Math, "max", NativeMethod::MaxInt, IntTy, {IntTy, IntTy});
  addNativeMethod(Math, "min", NativeMethod::MinDouble, DoubleTy,
                  {DoubleTy, DoubleTy});
  addNativeMethod(Math, "max", NativeMethod::MaxDouble, DoubleTy,
                  {DoubleTy, DoubleTy});
  addNativeMethod(Math, "pow", NativeMethod::Pow, DoubleTy,
                  {DoubleTy, DoubleTy});
  addNativeMethod(Math, "floor", NativeMethod::Floor, DoubleTy, {DoubleTy});
}

bool ClassTable::computeClassLayout(ClassSymbol *Class, std::string *Err) {
  if (!Class->InstanceLayout.empty() || !Class->VTable.empty())
    return true; // Already computed (idempotent).
  if (Class->Super && !computeClassLayout(Class->Super, Err))
    return false;

  if (Class->Super) {
    Class->InstanceLayout = Class->Super->InstanceLayout;
    Class->VTable = Class->Super->VTable;
  }
  for (auto &F : Class->Fields) {
    if (F->IsStatic)
      continue;
    F->Slot = static_cast<unsigned>(Class->InstanceLayout.size());
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
  auto Class = std::make_unique<ClassSymbol>();
  Class->Name = Name;
  Class->Decl = Decl;
  Class->Id = static_cast<unsigned>(Classes.size());
  ClassSymbol *Raw = Class.get();
  ByName.emplace(Name, Raw);
  Classes.push_back(std::move(Class));
  return Raw;
}
