//===- sema/Sema.h - MJ semantic analysis ---------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis for MJ: class/member declaration, inheritance and
/// vtable layout, type checking, overload resolution, and insertion of
/// implicit conversions as explicit CastExpr nodes (so that both code
/// generators see a fully-resolved, fully-typed tree — the paper's
/// requirement that the *producer* resolves overloading and typing).
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SEMA_SEMA_H
#define SAFETSA_SEMA_SEMA_H

#include "ast/AST.h"
#include "sema/ClassTable.h"
#include "support/Diagnostics.h"

namespace safetsa {

/// Runs semantic analysis over a parsed Program, annotating the AST in
/// place. All symbol objects live in the ClassTable / MethodDecls, so the
/// Sema object itself may be discarded after run().
class Sema {
public:
  Sema(TypeContext &Types, ClassTable &Table, DiagnosticEngine &Diags)
      : Types(Types), Table(Table), Diags(Diags) {}

  /// Returns true when the program is well-typed (no errors reported).
  bool run(Program &P);

private:
  // Phases.
  void declareClasses(Program &P);
  void resolveSupers(Program &P);
  void declareMembers(ClassDecl &Class);
  void computeLayout(ClassSymbol *Class);
  void checkClassBodies(ClassDecl &Class);
  void checkMethodBody(ClassDecl &Class, MethodDecl &Method);
  void checkFieldInit(ClassDecl &Class, FieldDecl &Field);

  // Type utilities.
  Type *resolveTypeRef(const TypeRef &Ref);
  bool isAssignable(Type *To, Type *From) const;
  /// Wraps \p E in an explicit conversion to \p To when needed; reports an
  /// error if no implicit conversion exists.
  void coerce(ExprPtr &E, Type *To, const char *Context);
  /// Usual binary numeric promotion; returns the promoted type (int or
  /// double) and coerces both operands, or Error on non-numeric input.
  Type *promoteNumeric(ExprPtr &A, ExprPtr &B, SourceLoc Loc);
  CastLowering classifyCast(Type *From, Type *To, SourceLoc Loc);

  // Statements / expressions.
  void checkStmt(StmtPtr &S);
  void checkBlock(BlockStmt &B);
  Type *checkExpr(ExprPtr &E);
  Type *checkName(NameExpr &E);
  Type *checkFieldAccess(FieldAccessExpr &E);
  Type *checkIndex(IndexExpr &E);
  Type *checkCall(CallExpr &E);
  Type *checkNewObject(NewObjectExpr &E);
  Type *checkUnary(UnaryExpr &E);
  Type *checkBinary(BinaryExpr &E);
  Type *checkAssign(AssignExpr &E);

  /// Selects the unique most-specific applicable overload among
  /// Candidates; reports and returns null otherwise. Coerces arguments on
  /// success.
  MethodSymbol *resolveOverload(ArenaArray<ExprPtr> Args,
                                std::string_view Name, SourceLoc Loc);

  /// True if execution of \p S cannot fall through (all paths return).
  static bool alwaysReturns(const Stmt &S);
  /// True when \p S contains a break not enclosed in a nested loop of S.
  static bool containsLoopBreak(const Stmt &S);
  /// Legal static-field initializer: literals and operations on literals.
  bool isConstantExpr(const Expr &E) const;

  /// Checks that an lvalue expression may be assigned (final rules etc.).
  void checkAssignableTarget(Expr &Target, SourceLoc Loc);

  // Scope handling. The scopes are one stack of locals, cut into nested
  // scopes by ScopeStarts.
  void pushScope() { ScopeStarts.push_back(ScopeLocals.size()); }
  void popScope() {
    ScopeLocals.resize(ScopeStarts.back());
    ScopeStarts.pop_back();
  }
  LocalSymbol *lookupLocal(std::string_view Name) const;
  LocalSymbol *declareLocal(std::string_view Name, Type *Ty, SourceLoc Loc,
                            bool IsParam);

  TypeContext &Types;
  ClassTable &Table;
  DiagnosticEngine &Diags;
  /// The Program's arena: locals and implicit casts are allocated here.
  BumpArena *Arena = nullptr;

  // Per-method state.
  ClassSymbol *CurClass = nullptr;
  MethodSymbol *CurMethod = nullptr;
  MethodDecl *CurMethodDecl = nullptr;
  /// The current method's locals, in LocalSymbol::Index order; copied to
  /// MethodDecl::Locals when its body is done.
  std::vector<LocalSymbol *> MethodLocals;
  std::vector<LocalSymbol *> ScopeLocals;
  std::vector<size_t> ScopeStarts;
  unsigned LoopDepth = 0;
  /// Overload-resolution scratch, reused by every call. A call gathers
  /// its candidates only after checking its base and arguments, whose
  /// nested calls overwrite the lists, and resolves before checking
  /// anything else.
  std::vector<MethodSymbol *> Candidates, Unique, Applicable;
  /// Set while checking the base of a member access/call, where a bare
  /// class name is legal.
  bool AllowClassName = false;
};

} // namespace safetsa

#endif // SAFETSA_SEMA_SEMA_H
