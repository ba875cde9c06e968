//===- sema/Sema.cpp ------------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sema/Sema.h"

#include <algorithm>
#include <sstream>

using namespace safetsa;

bool Sema::run(Program &P) {
  Arena = &P.Arena;
  declareClasses(P);
  resolveSupers(P);
  for (auto &C : P.Classes)
    if (C->Symbol)
      declareMembers(*C);
  for (auto &C : P.Classes)
    if (C->Symbol)
      computeLayout(C->Symbol);
  for (auto &C : P.Classes)
    if (C->Symbol)
      checkClassBodies(*C);
  return !Diags.hasErrors();
}

//===----------------------------------------------------------------------===//
// Declaration phases
//===----------------------------------------------------------------------===//

void Sema::declareClasses(Program &P) {
  Table.reserveClasses(P.Classes.size());
  for (auto &C : P.Classes)
    C->Symbol = Table.declareClass(C->Name, C, Diags);
}

void Sema::resolveSupers(Program &P) {
  for (auto &C : P.Classes) {
    if (!C->Symbol)
      continue;
    if (C->SuperName.empty()) {
      C->Symbol->Super = Table.getObjectClass();
      continue;
    }
    ClassSymbol *Super = Table.lookup(C->SuperName);
    if (!Super) {
      Diags.error(C->Loc,
                  "unknown superclass '" + std::string(C->SuperName) + "'");
      C->Symbol->Super = Table.getObjectClass();
      continue;
    }
    if (Super->IsBuiltin && Super != Table.getObjectClass()) {
      Diags.error(C->Loc, "cannot extend builtin class '" +
                              std::string(Super->Name) + "'");
      C->Symbol->Super = Table.getObjectClass();
      continue;
    }
    C->Symbol->Super = Super;
  }
  // Cycle detection: walking Super from any class must reach Object.
  for (auto &C : P.Classes) {
    if (!C->Symbol)
      continue;
    ClassSymbol *Slow = C->Symbol, *Fast = C->Symbol;
    while (Fast && Fast->Super) {
      Slow = Slow->Super;
      Fast = Fast->Super->Super;
      if (Slow == Fast && Slow) {
        Diags.error(C->Loc, "inheritance cycle involving class '" +
                                std::string(C->Name) + "'");
        C->Symbol->Super = Table.getObjectClass();
        break;
      }
    }
  }
}

void Sema::declareMembers(ClassDecl &Class) {
  ClassSymbol *Sym = Class.Symbol;
  Table.reserveMembers(Sym, Class.Fields.size(), Class.Methods.size());

  for (FieldDecl &F : Class.Fields) {
    for (const FieldSymbol *Prev : Sym->Fields)
      if (Prev->Name == F.Name) {
        Diags.error(F.Loc, "duplicate field '" + std::string(F.Name) +
                               "' in class '" + std::string(Class.Name) +
                               "'");
        break;
      }
    FieldSymbol *FS = Table.addField(Sym, F.Name, resolveTypeRef(F.DeclType),
                                     F.IsStatic, F.IsFinal);
    FS->Decl = &F;
    F.Symbol = FS;
  }

  for (auto &M : Class.Methods) {
    MethodSymbol *MS = Table.addMethod(Sym, M->Name, M->Params.size());
    MS->IsStatic = M->IsStatic;
    MS->IsConstructor = M->IsConstructor;
    MS->RetTy = M->IsConstructor ? Types.getVoid()
                                 : resolveTypeRef(M->ReturnType);
    for (size_t I = 0; I != M->Params.size(); ++I)
      MS->ParamTys[I] = resolveTypeRef(M->Params[I].DeclType);
    MS->Decl = M;

    // MS is the last of Sym->Methods: compare it with the ones before.
    for (const MethodSymbol *Prev : Sym->Methods) {
      if (Prev == MS)
        break;
      if (Prev->Name == MS->Name && Prev->IsConstructor == MS->IsConstructor &&
          Prev->sameParams(*MS)) {
        Diags.error(M->Loc, "duplicate method signature " + MS->signature());
        break;
      }
    }
    M->Symbol = MS;
  }
}

void Sema::computeLayout(ClassSymbol *Class) {
  std::string Err;
  if (!Table.computeClassLayout(Class, &Err))
    Diags.error(Class->Decl ? Class->Decl->Loc : SourceLoc(), Err);
}

//===----------------------------------------------------------------------===//
// Type utilities
//===----------------------------------------------------------------------===//

Type *Sema::resolveTypeRef(const TypeRef &Ref) {
  Type *Base = nullptr;
  switch (Ref.K) {
  case TypeRef::Kind::Prim:
    Base = Types.getPrim(Ref.Prim);
    break;
  case TypeRef::Kind::Named: {
    ClassSymbol *Class = Table.lookup(Ref.Name);
    if (!Class) {
      Diags.error(Ref.Loc, "unknown type '" + std::string(Ref.Name) + "'");
      return Types.getError();
    }
    Base = Types.getClass(Class);
    break;
  }
  case TypeRef::Kind::Void:
    if (Ref.ArrayDims != 0) {
      Diags.error(Ref.Loc, "array of void is not a type");
      return Types.getError();
    }
    return Types.getVoid();
  }
  for (unsigned I = 0; I != Ref.ArrayDims; ++I)
    Base = Types.getArray(Base);
  return Base;
}

bool Sema::isAssignable(Type *To, Type *From) const {
  if (To->isError() || From->isError())
    return true; // Avoid cascading diagnostics.
  if (To == From)
    return true;
  // Numeric widening: char -> int -> double.
  if (To->isInt() && From->isChar())
    return true;
  if (To->isDouble() && (From->isInt() || From->isChar()))
    return true;
  // null literal to any reference type.
  if (From->isNull() && (To->isClass() || To->isArray()))
    return true;
  // Reference widening.
  if (To->isClass() && From->isClass())
    return From->getClassSymbol()->isSubclassOf(To->getClassSymbol());
  if (To->isClass() && From->isArray())
    return To->getClassSymbol()->Super == nullptr; // Only Object.
  return false;
}

void Sema::coerce(ExprPtr &E, Type *To, const char *Context) {
  Type *From = E->Ty;
  assert(From && "coercing an unchecked expression");
  if (From == To || From->isError() || To->isError())
    return;
  if (!isAssignable(To, From)) {
    Diags.error(E->Loc, std::string("cannot convert '") + From->getName() +
                            "' to '" + To->getName() + "' " + Context);
    E->Ty = Types.getError();
    return;
  }
  // Reference widening and null are representation-free; only mark numeric
  // conversions, which need real instructions.
  CastLowering Lowering;
  if (From->isNull() || From->isRef())
    Lowering = CastLowering::RefWiden;
  else if (To->isDouble())
    Lowering = CastLowering::IntToDouble; // char widens via int first.
  else
    Lowering = CastLowering::CharToInt;
  // Implicit casts have no syntactic type reference.
  auto *Cast = Arena->create<CastExpr>(TypeRef(), E, E->Loc);
  Cast->Lowering = Lowering;
  Cast->Ty = To;
  E = Cast;
}

Type *Sema::promoteNumeric(ExprPtr &A, ExprPtr &B, SourceLoc Loc) {
  Type *TA = A->Ty, *TB = B->Ty;
  if (TA->isError() || TB->isError())
    return Types.getError();
  if (!TA->isNumeric() || !TB->isNumeric()) {
    Diags.error(Loc, "operands of arithmetic operator must be numeric (got '" +
                         TA->getName() + "' and '" + TB->getName() + "')");
    return Types.getError();
  }
  Type *Result =
      (TA->isDouble() || TB->isDouble()) ? Types.getDouble() : Types.getInt();
  coerce(A, Result, "in arithmetic promotion");
  coerce(B, Result, "in arithmetic promotion");
  return Result;
}

CastLowering Sema::classifyCast(Type *From, Type *To, SourceLoc Loc) {
  if (From->isError() || To->isError() || From == To)
    return CastLowering::Identity;
  if (From->isNumeric() && To->isNumeric()) {
    if (To->isDouble())
      return CastLowering::IntToDouble; // int/char -> double.
    if (To->isInt())
      return From->isDouble() ? CastLowering::DoubleToInt
                              : CastLowering::CharToInt;
    // To char.
    return From->isDouble() ? CastLowering::DoubleToChar
                            : CastLowering::IntToChar;
  }
  if (From->isRef() && (To->isClass() || To->isArray())) {
    if (isAssignable(To, From))
      return CastLowering::RefWiden;
    if (isAssignable(From, To))
      return CastLowering::RefNarrow;
    Diags.error(Loc, "cast between unrelated types '" + From->getName() +
                         "' and '" + To->getName() + "'");
    return CastLowering::Identity;
  }
  Diags.error(Loc, "invalid cast from '" + From->getName() + "' to '" +
                       To->getName() + "'");
  return CastLowering::Identity;
}

//===----------------------------------------------------------------------===//
// Scopes
//===----------------------------------------------------------------------===//

LocalSymbol *Sema::lookupLocal(std::string_view Name) const {
  // Innermost scope first; within a scope, in declaration order.
  size_t End = ScopeLocals.size();
  for (size_t S = ScopeStarts.size(); S-- != 0;) {
    for (size_t I = ScopeStarts[S]; I != End; ++I)
      if (ScopeLocals[I]->Name == Name)
        return ScopeLocals[I];
    End = ScopeStarts[S];
  }
  return nullptr;
}

LocalSymbol *Sema::declareLocal(std::string_view Name, Type *Ty,
                                SourceLoc Loc, bool IsParam) {
  if (lookupLocal(Name))
    Diags.error(Loc, "redeclaration of local variable '" + std::string(Name) +
                         "'");
  auto *L = Arena->create<LocalSymbol>();
  L->Name = Name;
  L->Ty = Ty;
  L->Loc = Loc;
  L->IsParam = IsParam;
  L->Index = static_cast<unsigned>(MethodLocals.size());
  MethodLocals.push_back(L);
  ScopeLocals.push_back(L);
  return L;
}

//===----------------------------------------------------------------------===//
// Bodies
//===----------------------------------------------------------------------===//

void Sema::checkClassBodies(ClassDecl &Class) {
  CurClass = Class.Symbol;
  for (FieldDecl &F : Class.Fields)
    checkFieldInit(Class, F);
  for (auto &M : Class.Methods)
    checkMethodBody(Class, *M);
  CurClass = nullptr;
}

void Sema::checkFieldInit(ClassDecl &Class, FieldDecl &Field) {
  if (!Field.Init || !Field.Symbol)
    return;
  CurMethod = nullptr;
  // Instance initializers may use `this` implicitly; we check them in a
  // pseudo-constructor context. Static initializers must be constant.
  MethodDecl Dummy;
  Dummy.IsStatic = Field.IsStatic;
  Dummy.IsConstructor = !Field.IsStatic;
  CurMethodDecl = &Dummy;
  pushScope();
  checkExpr(Field.Init);
  coerce(Field.Init, Field.Symbol->Ty, "in field initializer");
  if (Field.IsStatic && !isConstantExpr(*Field.Init))
    Diags.error(Field.Loc,
                "static field initializer must be a constant expression");
  popScope();
  CurMethodDecl = nullptr;
}

void Sema::checkMethodBody(ClassDecl &Class, MethodDecl &Method) {
  if (!Method.Symbol)
    return;
  CurMethod = Method.Symbol;
  CurMethodDecl = &Method;
  LoopDepth = 0;
  MethodLocals.clear();
  ScopeLocals.clear();
  ScopeStarts.clear();
  pushScope();

  for (size_t I = 0; I != Method.Params.size(); ++I) {
    ParamDecl &P = Method.Params[I];
    P.Symbol = declareLocal(P.Name, Method.Symbol->ParamTys[I], P.Loc,
                            /*IsParam=*/true);
  }

  checkBlock(*Method.Body);

  if (!Method.Symbol->RetTy->isVoid() && !alwaysReturns(*Method.Body))
    Diags.error(Method.Loc, "method '" + Method.Symbol->signature() +
                                "' may fall off the end without returning");

  Method.Locals = Arena->copyArray(MethodLocals.data(), MethodLocals.size());
  popScope();
  CurMethod = nullptr;
  CurMethodDecl = nullptr;
}

void Sema::checkBlock(BlockStmt &B) {
  pushScope();
  for (StmtPtr &S : B.Stmts)
    checkStmt(S);
  popScope();
}

void Sema::checkStmt(StmtPtr &S) {
  switch (S->Kind) {
  case StmtKind::Block:
    checkBlock(static_cast<BlockStmt &>(*S));
    return;
  case StmtKind::VarDecl: {
    auto &V = static_cast<VarDeclStmt &>(*S);
    Type *Ty = resolveTypeRef(V.DeclType);
    if (Ty->isVoid()) {
      Diags.error(V.Loc, "variable cannot have type 'void'");
      Ty = Types.getError();
    }
    if (V.Init) {
      checkExpr(V.Init);
      coerce(V.Init, Ty, "in initialization");
    }
    V.Symbol = declareLocal(V.Name, Ty, V.Loc, /*IsParam=*/false);
    return;
  }
  case StmtKind::Expr: {
    auto &E = static_cast<ExprStmt &>(*S);
    checkExpr(E.E);
    return;
  }
  case StmtKind::If: {
    auto &I = static_cast<IfStmt &>(*S);
    checkExpr(I.Cond);
    coerce(I.Cond, Types.getBoolean(), "in if condition");
    checkStmt(I.Then);
    if (I.Else)
      checkStmt(I.Else);
    return;
  }
  case StmtKind::While: {
    auto &W = static_cast<WhileStmt &>(*S);
    checkExpr(W.Cond);
    coerce(W.Cond, Types.getBoolean(), "in while condition");
    ++LoopDepth;
    checkStmt(W.Body);
    --LoopDepth;
    return;
  }
  case StmtKind::DoWhile: {
    auto &W = static_cast<DoWhileStmt &>(*S);
    ++LoopDepth;
    checkStmt(W.Body);
    --LoopDepth;
    checkExpr(W.Cond);
    coerce(W.Cond, Types.getBoolean(), "in do-while condition");
    return;
  }
  case StmtKind::For: {
    auto &F = static_cast<ForStmt &>(*S);
    pushScope(); // The init declaration scopes over the loop.
    if (F.Init)
      checkStmt(F.Init);
    if (F.Cond) {
      checkExpr(F.Cond);
      coerce(F.Cond, Types.getBoolean(), "in for condition");
    }
    if (F.Update)
      checkExpr(F.Update);
    ++LoopDepth;
    checkStmt(F.Body);
    --LoopDepth;
    popScope();
    return;
  }
  case StmtKind::Return: {
    auto &R = static_cast<ReturnStmt &>(*S);
    Type *Expected = CurMethod ? CurMethod->RetTy : Types.getVoid();
    if (R.Value) {
      if (Expected->isVoid()) {
        Diags.error(R.Loc, "void method cannot return a value");
        checkExpr(R.Value);
        return;
      }
      checkExpr(R.Value);
      coerce(R.Value, Expected, "in return statement");
    } else if (!Expected->isVoid()) {
      Diags.error(R.Loc, "non-void method must return a value");
    }
    return;
  }
  case StmtKind::Break:
    if (LoopDepth == 0)
      Diags.error(S->Loc, "'break' outside of a loop");
    return;
  case StmtKind::Continue:
    if (LoopDepth == 0)
      Diags.error(S->Loc, "'continue' outside of a loop");
    return;
  case StmtKind::Try: {
    auto &T = static_cast<TryStmt &>(*S);
    checkStmt(T.Body);
    checkStmt(T.Handler);
    return;
  }
  case StmtKind::Empty:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Control-flow predicates
//===----------------------------------------------------------------------===//

bool Sema::containsLoopBreak(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Break:
    return true;
  case StmtKind::Block: {
    const auto &B = static_cast<const BlockStmt &>(S);
    for (const StmtPtr &Child : B.Stmts)
      if (containsLoopBreak(*Child))
        return true;
    return false;
  }
  case StmtKind::If: {
    const auto &I = static_cast<const IfStmt &>(S);
    return containsLoopBreak(*I.Then) || (I.Else && containsLoopBreak(*I.Else));
  }
  case StmtKind::Try: {
    const auto &T = static_cast<const TryStmt &>(S);
    return containsLoopBreak(*T.Body) || containsLoopBreak(*T.Handler);
  }
  // Breaks inside nested loops bind to those loops.
  case StmtKind::While:
  case StmtKind::DoWhile:
  case StmtKind::For:
  default:
    return false;
  }
}

bool Sema::alwaysReturns(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Return:
    return true;
  case StmtKind::Block: {
    const auto &B = static_cast<const BlockStmt &>(S);
    for (const StmtPtr &Child : B.Stmts)
      if (alwaysReturns(*Child))
        return true;
    return false;
  }
  case StmtKind::If: {
    const auto &I = static_cast<const IfStmt &>(S);
    return I.Else && alwaysReturns(*I.Then) && alwaysReturns(*I.Else);
  }
  case StmtKind::While: {
    // `while (true)` without a break never falls through.
    const auto &W = static_cast<const WhileStmt &>(S);
    if (W.Cond->Kind == ExprKind::BoolLiteral &&
        static_cast<const BoolLiteralExpr &>(*W.Cond).Value)
      return !containsLoopBreak(*W.Body);
    return false;
  }
  case StmtKind::For: {
    const auto &F = static_cast<const ForStmt &>(S);
    if (!F.Cond)
      return !containsLoopBreak(*F.Body);
    return false;
  }
  case StmtKind::Try: {
    // An exception may transfer control to the handler at any point, so
    // both the body and the handler must return on all paths.
    const auto &T = static_cast<const TryStmt &>(S);
    return alwaysReturns(*T.Body) && alwaysReturns(*T.Handler);
  }
  case StmtKind::DoWhile:
  default:
    return false;
  }
}

bool Sema::isConstantExpr(const Expr &E) const {
  switch (E.Kind) {
  case ExprKind::IntLiteral:
  case ExprKind::DoubleLiteral:
  case ExprKind::BoolLiteral:
  case ExprKind::CharLiteral:
  case ExprKind::NullLiteral:
    return true;
  case ExprKind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    return (U.Op == UnaryOp::Neg || U.Op == UnaryOp::Not ||
            U.Op == UnaryOp::BitNot) &&
           isConstantExpr(*U.Operand);
  }
  case ExprKind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    return isConstantExpr(*B.Lhs) && isConstantExpr(*B.Rhs);
  }
  case ExprKind::Cast:
    return isConstantExpr(*static_cast<const CastExpr &>(E).Operand);
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Type *Sema::checkExpr(ExprPtr &E) {
  Type *Ty = Types.getError();
  switch (E->Kind) {
  case ExprKind::IntLiteral:
    Ty = Types.getInt();
    break;
  case ExprKind::DoubleLiteral:
    Ty = Types.getDouble();
    break;
  case ExprKind::BoolLiteral:
    Ty = Types.getBoolean();
    break;
  case ExprKind::CharLiteral:
    Ty = Types.getChar();
    break;
  case ExprKind::StringLiteral:
    Ty = Types.getArray(Types.getChar());
    break;
  case ExprKind::NullLiteral:
    Ty = Types.getNull();
    break;
  case ExprKind::Name:
    Ty = checkName(static_cast<NameExpr &>(*E));
    break;
  case ExprKind::This:
    if (!CurMethodDecl || CurMethodDecl->IsStatic) {
      Diags.error(E->Loc, "'this' cannot be used in a static context");
      Ty = Types.getError();
    } else {
      Ty = Types.getClass(CurClass);
    }
    break;
  case ExprKind::FieldAccess:
    Ty = checkFieldAccess(static_cast<FieldAccessExpr &>(*E));
    break;
  case ExprKind::Index:
    Ty = checkIndex(static_cast<IndexExpr &>(*E));
    break;
  case ExprKind::Call:
    Ty = checkCall(static_cast<CallExpr &>(*E));
    break;
  case ExprKind::NewObject:
    Ty = checkNewObject(static_cast<NewObjectExpr &>(*E));
    break;
  case ExprKind::NewArray: {
    auto &N = static_cast<NewArrayExpr &>(*E);
    Type *Elem = resolveTypeRef(N.ElemType);
    checkExpr(N.Length);
    coerce(N.Length, Types.getInt(), "as array length");
    Ty = Elem->isError() ? Elem : Types.getArray(Elem);
    break;
  }
  case ExprKind::Unary:
    Ty = checkUnary(static_cast<UnaryExpr &>(*E));
    break;
  case ExprKind::Binary:
    Ty = checkBinary(static_cast<BinaryExpr &>(*E));
    break;
  case ExprKind::Assign:
    Ty = checkAssign(static_cast<AssignExpr &>(*E));
    break;
  case ExprKind::Cast: {
    auto &C = static_cast<CastExpr &>(*E);
    Type *From = checkExpr(C.Operand);
    Type *To = resolveTypeRef(C.TargetType);
    C.Lowering = classifyCast(From, To, C.Loc);
    Ty = To;
    break;
  }
  case ExprKind::Instanceof: {
    auto &I = static_cast<InstanceofExpr &>(*E);
    Type *From = checkExpr(I.Operand);
    Type *Target = resolveTypeRef(I.TargetType);
    if (!From->isError() && !From->isRef())
      Diags.error(I.Loc, "instanceof requires a reference operand");
    if (!Target->isError() && !Target->isClass() && !Target->isArray())
      Diags.error(I.Loc, "instanceof requires a reference target type");
    I.ResolvedTarget = Target;
    Ty = Types.getBoolean();
    break;
  }
  }
  E->Ty = Ty;
  return Ty;
}

Type *Sema::checkName(NameExpr &E) {
  if (LocalSymbol *L = lookupLocal(E.Name)) {
    E.Resolution = NameResolution::Local;
    E.ResolvedLocal = L;
    return L->Ty;
  }
  if (CurClass) {
    if (FieldSymbol *F = CurClass->findField(E.Name)) {
      if (F->IsStatic) {
        E.Resolution = NameResolution::StaticField;
      } else {
        if (CurMethodDecl && CurMethodDecl->IsStatic) {
          Diags.error(E.Loc, "instance field '" + std::string(E.Name) +
                                 "' used in a static context");
          return Types.getError();
        }
        E.Resolution = NameResolution::FieldOfThis;
      }
      E.ResolvedField = F;
      return F->Ty;
    }
  }
  if (ClassSymbol *C = Table.lookup(E.Name)) {
    E.Resolution = NameResolution::ClassName;
    E.ResolvedClass = C;
    // A class name has no value type; it is only legal as the base of a
    // static member access or call, whose checkers set AllowClassName.
    if (!AllowClassName)
      Diags.error(E.Loc,
                  "class name '" + std::string(E.Name) + "' used as a value");
    return Types.getError();
  }
  Diags.error(E.Loc,
              "use of undeclared identifier '" + std::string(E.Name) + "'");
  return Types.getError();
}

Type *Sema::checkFieldAccess(FieldAccessExpr &E) {
  // ClassName.staticField
  if (E.Base->Kind == ExprKind::Name) {
    auto &Base = static_cast<NameExpr &>(*E.Base);
    AllowClassName = true;
    checkExpr(E.Base);
    AllowClassName = false;
    if (Base.Resolution == NameResolution::ClassName) {
      FieldSymbol *F = Base.ResolvedClass->findField(E.Name);
      if (!F || !F->IsStatic) {
        Diags.error(E.Loc, "class '" + std::string(Base.ResolvedClass->Name) +
                               "' has no static field '" +
                               std::string(E.Name) + "'");
        return Types.getError();
      }
      E.ResolvedField = F;
      return F->Ty;
    }
  } else {
    checkExpr(E.Base);
  }

  Type *BaseTy = E.Base->Ty;
  if (BaseTy->isError())
    return BaseTy;
  if (BaseTy->isArray()) {
    if (E.Name == "length") {
      E.IsArrayLength = true;
      return Types.getInt();
    }
    Diags.error(E.Loc,
                "array type has no field '" + std::string(E.Name) + "'");
    return Types.getError();
  }
  if (!BaseTy->isClass()) {
    Diags.error(E.Loc, "member access on non-object type '" +
                           BaseTy->getName() + "'");
    return Types.getError();
  }
  FieldSymbol *F = BaseTy->getClassSymbol()->findField(E.Name);
  if (!F) {
    Diags.error(E.Loc, "class '" +
                           std::string(BaseTy->getClassSymbol()->Name) +
                           "' has no field '" + std::string(E.Name) + "'");
    return Types.getError();
  }
  if (F->IsStatic) {
    Diags.error(E.Loc, "static field '" + std::string(E.Name) +
                           "' accessed through an instance; use '" +
                           std::string(F->Owner->Name) + "." +
                           std::string(E.Name) + "'");
    return Types.getError();
  }
  E.ResolvedField = F;
  return F->Ty;
}

Type *Sema::checkIndex(IndexExpr &E) {
  Type *BaseTy = checkExpr(E.Base);
  checkExpr(E.Index);
  coerce(E.Index, Types.getInt(), "as array index");
  if (BaseTy->isError())
    return BaseTy;
  if (!BaseTy->isArray()) {
    Diags.error(E.Loc, "subscripted value of type '" + BaseTy->getName() +
                           "' is not an array");
    return Types.getError();
  }
  return BaseTy->getElemType();
}

MethodSymbol *Sema::resolveOverload(ArenaArray<ExprPtr> Args,
                                    std::string_view Name, SourceLoc Loc) {
  // Drop signature duplicates, keeping the nearest (overriding) one.
  Unique.clear();
  for (MethodSymbol *M : Candidates) {
    bool Shadowed = false;
    for (MethodSymbol *Seen : Unique)
      if (Seen->Name == M->Name && Seen->sameParams(*M))
        Shadowed = true;
    if (!Shadowed)
      Unique.push_back(M);
  }

  Applicable.clear();
  for (MethodSymbol *M : Unique) {
    if (M->ParamTys.size() != Args.size())
      continue;
    bool Ok = true;
    for (size_t I = 0; I != Args.size(); ++I)
      if (!isAssignable(M->ParamTys[I], Args[I]->Ty))
        Ok = false;
    if (Ok)
      Applicable.push_back(M);
  }

  if (Applicable.empty()) {
    std::ostringstream OS;
    OS << "no applicable overload of '" << Name << "' for argument types (";
    for (size_t I = 0; I != Args.size(); ++I) {
      if (I)
        OS << ", ";
      OS << Args[I]->Ty->getName();
    }
    OS << ')';
    Diags.error(Loc, OS.str());
    return nullptr;
  }

  // Most specific: every parameter assignable to the other's parameter.
  auto MoreSpecific = [this](MethodSymbol *A, MethodSymbol *B) {
    for (size_t I = 0; I != A->ParamTys.size(); ++I)
      if (!isAssignable(B->ParamTys[I], A->ParamTys[I]))
        return false;
    return true;
  };
  MethodSymbol *Best = Applicable.front();
  for (MethodSymbol *M : Applicable)
    if (M != Best && MoreSpecific(M, Best))
      Best = M;
  for (MethodSymbol *M : Applicable)
    if (M != Best && !MoreSpecific(Best, M)) {
      Diags.error(Loc, "ambiguous call to overloaded '" + std::string(Name) +
                           "': " + Best->signature() + " vs " +
                           M->signature());
      return nullptr;
    }

  for (size_t I = 0; I != Args.size(); ++I)
    coerce(Args[I], Best->ParamTys[I], "in call argument");
  return Best;
}

Type *Sema::checkCall(CallExpr &E) {
  for (ExprPtr &Arg : E.Args)
    checkExpr(Arg);

  if (!E.Base) {
    // Unqualified call: methods of the enclosing class chain.
    if (!CurClass) {
      Diags.error(E.Loc, "call outside of a class context");
      return Types.getError();
    }
    CurClass->findMethods(E.Name, Candidates);
    if (Candidates.empty()) {
      Diags.error(E.Loc, "unknown method '" + std::string(E.Name) + "'");
      return Types.getError();
    }
    MethodSymbol *M = resolveOverload(E.Args, E.Name, E.Loc);
    if (!M)
      return Types.getError();
    if (!M->IsStatic) {
      if (CurMethodDecl && CurMethodDecl->IsStatic) {
        Diags.error(E.Loc, "instance method '" + M->signature() +
                               "' called from a static context");
        return Types.getError();
      }
      E.ImplicitThis = true;
      E.Dispatch = DispatchKind::Virtual;
    } else {
      E.Dispatch = DispatchKind::Static;
      E.BaseClass = M->Owner;
    }
    E.ResolvedMethod = M;
    return M->RetTy;
  }

  // Qualified call. ClassName.f(...) is a static call.
  if (E.Base->Kind == ExprKind::Name) {
    auto &Base = static_cast<NameExpr &>(*E.Base);
    AllowClassName = true;
    checkExpr(E.Base);
    AllowClassName = false;
    if (Base.Resolution == NameResolution::ClassName) {
      ClassSymbol *Class = Base.ResolvedClass;
      Class->findMethods(E.Name, Candidates);
      std::erase_if(Candidates,
                    [](MethodSymbol *M) { return !M->IsStatic; });
      if (Candidates.empty()) {
        Diags.error(E.Loc, "class '" + std::string(Class->Name) +
                               "' has no static method '" +
                               std::string(E.Name) + "'");
        return Types.getError();
      }
      MethodSymbol *M = resolveOverload(E.Args, E.Name, E.Loc);
      if (!M)
        return Types.getError();
      E.ResolvedMethod = M;
      E.Dispatch = DispatchKind::Static;
      E.BaseClass = Class;
      return M->RetTy;
    }
  } else {
    checkExpr(E.Base);
  }

  Type *BaseTy = E.Base->Ty;
  if (BaseTy->isError())
    return BaseTy;
  if (!BaseTy->isClass()) {
    Diags.error(E.Loc, "method call on non-object type '" +
                           BaseTy->getName() + "'");
    return Types.getError();
  }
  BaseTy->getClassSymbol()->findMethods(E.Name, Candidates);
  std::erase_if(Candidates, [](MethodSymbol *M) { return M->IsStatic; });
  if (Candidates.empty()) {
    Diags.error(E.Loc, "class '" +
                           std::string(BaseTy->getClassSymbol()->Name) +
                           "' has no method '" + std::string(E.Name) + "'");
    return Types.getError();
  }
  MethodSymbol *M = resolveOverload(E.Args, E.Name, E.Loc);
  if (!M)
    return Types.getError();
  E.ResolvedMethod = M;
  E.Dispatch = DispatchKind::Virtual;
  return M->RetTy;
}

Type *Sema::checkNewObject(NewObjectExpr &E) {
  for (ExprPtr &Arg : E.Args)
    checkExpr(Arg);
  ClassSymbol *Class = Table.lookup(E.ClassName);
  if (!Class) {
    Diags.error(E.Loc, "unknown class '" + std::string(E.ClassName) + "'");
    return Types.getError();
  }
  if (Class->IsBuiltin) {
    Diags.error(E.Loc, "cannot instantiate builtin class '" +
                           std::string(E.ClassName) + "'");
    return Types.getError();
  }
  E.ResolvedClass = Class;
  Class->findConstructors(Candidates);
  if (Candidates.empty()) {
    if (!E.Args.empty())
      Diags.error(E.Loc, "class '" + std::string(E.ClassName) +
                             "' has no constructors but arguments were given");
    return Types.getClass(Class);
  }
  MethodSymbol *Ctor = resolveOverload(E.Args, E.ClassName, E.Loc);
  if (!Ctor)
    return Types.getError();
  E.ResolvedCtor = Ctor;
  return Types.getClass(Class);
}

void Sema::checkAssignableTarget(Expr &Target, SourceLoc Loc) {
  FieldSymbol *F = nullptr;
  if (Target.Kind == ExprKind::Name)
    F = static_cast<NameExpr &>(Target).ResolvedField;
  else if (Target.Kind == ExprKind::FieldAccess) {
    auto &FA = static_cast<FieldAccessExpr &>(Target);
    if (FA.IsArrayLength) {
      Diags.error(Loc, "array 'length' is read-only");
      return;
    }
    F = FA.ResolvedField;
  } else if (Target.Kind == ExprKind::Index) {
    return;
  } else {
    Diags.error(Loc, "expression is not assignable");
    return;
  }
  if (F && F->IsFinal) {
    bool InOwnersCtor = CurMethodDecl && CurMethodDecl->IsConstructor &&
                        CurClass == F->Owner;
    bool InFieldInit = CurMethod == nullptr; // Field-initializer context.
    if (!InOwnersCtor && !InFieldInit)
      Diags.error(Loc, "assignment to final field '" +
                           std::string(F->Name) + "'");
  }
}

Type *Sema::checkAssign(AssignExpr &E) {
  Type *TargetTy = checkExpr(E.Target);
  checkExpr(E.Value);
  checkAssignableTarget(*E.Target, E.Loc);
  if (TargetTy->isError())
    return TargetTy;

  if (E.Op == AssignExpr::OpKind::None) {
    coerce(E.Value, TargetTy, "in assignment");
    return TargetTy;
  }

  // Compound assignment: type as the expanded form target = target op value,
  // requiring the operator result to be assignable without narrowing.
  Type *ValueTy = E.Value->Ty;
  if (!TargetTy->isNumeric() || !ValueTy->isNumeric()) {
    Diags.error(E.Loc, "compound assignment requires numeric operands");
    return Types.getError();
  }
  Type *ResultTy = (TargetTy->isDouble() || ValueTy->isDouble())
                       ? Types.getDouble()
                       : Types.getInt();
  if (!isAssignable(TargetTy, ResultTy)) {
    Diags.error(E.Loc, "compound assignment would narrow '" +
                           ResultTy->getName() + "' to '" +
                           TargetTy->getName() + "'");
    return Types.getError();
  }
  coerce(E.Value, ResultTy, "in compound assignment");
  return TargetTy;
}

Type *Sema::checkUnary(UnaryExpr &E) {
  Type *Ty = checkExpr(E.Operand);
  if (Ty->isError())
    return Ty;
  switch (E.Op) {
  case UnaryOp::Neg:
    if (!Ty->isNumeric()) {
      Diags.error(E.Loc, "unary '-' requires a numeric operand");
      return Types.getError();
    }
    if (Ty->isChar()) {
      coerce(E.Operand, Types.getInt(), "in unary promotion");
      return Types.getInt();
    }
    return Ty;
  case UnaryOp::Not:
    if (!Ty->isBoolean()) {
      Diags.error(E.Loc, "unary '!' requires a boolean operand");
      return Types.getError();
    }
    return Ty;
  case UnaryOp::BitNot:
    if (!Ty->isInt() && !Ty->isChar()) {
      Diags.error(E.Loc, "unary '~' requires an integer operand");
      return Types.getError();
    }
    coerce(E.Operand, Types.getInt(), "in unary promotion");
    return Types.getInt();
  case UnaryOp::PreInc:
  case UnaryOp::PreDec:
  case UnaryOp::PostInc:
  case UnaryOp::PostDec:
    if (!Ty->isNumeric()) {
      Diags.error(E.Loc, "'++'/'--' require a numeric operand");
      return Types.getError();
    }
    checkAssignableTarget(*E.Operand, E.Loc);
    return Ty;
  }
  return Types.getError();
}

Type *Sema::checkBinary(BinaryExpr &E) {
  Type *L = checkExpr(E.Lhs);
  Type *R = checkExpr(E.Rhs);
  if (L->isError() || R->isError())
    return Types.getError();

  switch (E.Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul:
  case BinaryOp::Div:
  case BinaryOp::Rem:
    return promoteNumeric(E.Lhs, E.Rhs, E.Loc);

  case BinaryOp::BitAnd:
  case BinaryOp::BitOr:
  case BinaryOp::BitXor:
  case BinaryOp::Shl:
  case BinaryOp::Shr:
    if ((!L->isInt() && !L->isChar()) || (!R->isInt() && !R->isChar())) {
      Diags.error(E.Loc, "bitwise operator requires integer operands");
      return Types.getError();
    }
    coerce(E.Lhs, Types.getInt(), "in bitwise operation");
    coerce(E.Rhs, Types.getInt(), "in bitwise operation");
    return Types.getInt();

  case BinaryOp::Lt:
  case BinaryOp::Gt:
  case BinaryOp::Le:
  case BinaryOp::Ge:
    if (promoteNumeric(E.Lhs, E.Rhs, E.Loc)->isError())
      return Types.getError();
    return Types.getBoolean();

  case BinaryOp::Eq:
  case BinaryOp::Ne:
    if (L->isNumeric() && R->isNumeric()) {
      if (promoteNumeric(E.Lhs, E.Rhs, E.Loc)->isError())
        return Types.getError();
      return Types.getBoolean();
    }
    if (L->isBoolean() && R->isBoolean())
      return Types.getBoolean();
    if (L->isRef() && R->isRef()) {
      if (!isAssignable(L, R) && !isAssignable(R, L)) {
        Diags.error(E.Loc, "comparison of unrelated reference types '" +
                               L->getName() + "' and '" + R->getName() + "'");
        return Types.getError();
      }
      return Types.getBoolean();
    }
    Diags.error(E.Loc, "invalid operands to equality comparison ('" +
                           L->getName() + "' and '" + R->getName() + "')");
    return Types.getError();

  case BinaryOp::LAnd:
  case BinaryOp::LOr:
    coerce(E.Lhs, Types.getBoolean(), "in logical operation");
    coerce(E.Rhs, Types.getBoolean(), "in logical operation");
    return Types.getBoolean();
  }
  return Types.getError();
}
