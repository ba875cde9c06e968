//===- ast/AST.h - MJ abstract syntax trees -------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for MJ, the Java-subset source language (DESIGN.md §2). Nodes carry
/// a Kind tag for LLVM-style dispatch (no RTTI). Sema annotates expression
/// nodes in place (resolved types, symbols, dispatch kinds), and the
/// SafeTSA and bytecode generators both consume the annotated tree — the
/// AST plays the role of the paper's "Unified Abstract Syntax Tree".
///
/// The tree is flat data in one BumpArena that the Program owns: nodes are
/// trivially destructible, ExprPtr and StmtPtr are plain pointers, child
/// lists are exact-size ArenaArrays, and every name is a view of the
/// Program's own copy of the source. Destroying the Program releases the
/// slabs; no node has a destructor to run.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_AST_AST_H
#define SAFETSA_AST_AST_H

#include "support/Arena.h"
#include "support/SourceLoc.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace safetsa {

class Type;
struct ClassSymbol;
struct FieldSymbol;
struct MethodSymbol;

/// A local variable or parameter within one method body. Defined here (not
/// in sema) because MethodDecl lists its locals; sema allocates them in
/// the Program's arena.
struct LocalSymbol {
  std::string_view Name;
  Type *Ty = nullptr;
  SourceLoc Loc;
  bool IsParam = false;
  /// Dense index within the method (params first), used by the bytecode
  /// backend as the JVM-style local slot and by SSA renaming as the
  /// variable key.
  unsigned Index = 0;
};

//===----------------------------------------------------------------------===//
// Type references (syntactic, pre-sema)
//===----------------------------------------------------------------------===//

enum class PrimTypeKind : uint8_t { Int, Boolean, Double, Char };

/// A syntactic mention of a type: a primitive or class name plus array
/// dimensions. Sema resolves it to a canonical Type.
struct TypeRef {
  enum class Kind : uint8_t { Prim, Named, Void } K = Kind::Void;
  PrimTypeKind Prim = PrimTypeKind::Int;
  std::string_view Name;
  unsigned ArrayDims = 0;
  SourceLoc Loc;

  static TypeRef makePrim(PrimTypeKind P, SourceLoc Loc) {
    TypeRef T;
    T.K = Kind::Prim;
    T.Prim = P;
    T.Loc = Loc;
    return T;
  }
  static TypeRef makeNamed(std::string_view Name, SourceLoc Loc) {
    TypeRef T;
    T.K = Kind::Named;
    T.Name = Name;
    T.Loc = Loc;
    return T;
  }
  static TypeRef makeVoid(SourceLoc Loc) {
    TypeRef T;
    T.K = Kind::Void;
    T.Loc = Loc;
    return T;
  }
  bool isVoid() const { return K == Kind::Void && ArrayDims == 0; }
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  IntLiteral,
  DoubleLiteral,
  BoolLiteral,
  CharLiteral,
  StringLiteral,
  NullLiteral,
  Name,
  This,
  FieldAccess,
  Index,
  Call,
  NewObject,
  NewArray,
  Unary,
  Binary,
  Assign,
  Cast,
  Instanceof
};

/// Base of all expressions. Sema fills Ty with the canonical result type.
class Expr {
public:
  const ExprKind Kind;
  SourceLoc Loc;
  Type *Ty = nullptr; // Set by sema; Error type on failed analysis.

protected:
  Expr(ExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
};

/// A child expression; the Program's arena owns the node.
using ExprPtr = Expr *;

class IntLiteralExpr : public Expr {
public:
  int64_t Value;
  IntLiteralExpr(int64_t Value, SourceLoc Loc)
      : Expr(ExprKind::IntLiteral, Loc), Value(Value) {}
};

class DoubleLiteralExpr : public Expr {
public:
  double Value;
  DoubleLiteralExpr(double Value, SourceLoc Loc)
      : Expr(ExprKind::DoubleLiteral, Loc), Value(Value) {}
};

class BoolLiteralExpr : public Expr {
public:
  bool Value;
  BoolLiteralExpr(bool Value, SourceLoc Loc)
      : Expr(ExprKind::BoolLiteral, Loc), Value(Value) {}
};

class CharLiteralExpr : public Expr {
public:
  char Value;
  CharLiteralExpr(char Value, SourceLoc Loc)
      : Expr(ExprKind::CharLiteral, Loc), Value(Value) {}
};

/// A string literal; its MJ type is char[] (a fresh array per evaluation
/// would be wasteful, so both back ends materialize it as a constant-pool
/// char array that programs must not mutate — documented MJ restriction).
class StringLiteralExpr : public Expr {
public:
  std::string_view Value; ///< The unescaped body.
  StringLiteralExpr(std::string_view Value, SourceLoc Loc)
      : Expr(ExprKind::StringLiteral, Loc), Value(Value) {}
};

class NullLiteralExpr : public Expr {
public:
  explicit NullLiteralExpr(SourceLoc Loc) : Expr(ExprKind::NullLiteral, Loc) {}
};

/// How sema resolved a bare identifier.
enum class NameResolution : uint8_t {
  Unresolved,
  Local,       ///< A local variable or parameter (ResolvedLocal).
  FieldOfThis, ///< An instance field of the enclosing class (ResolvedField).
  StaticField, ///< A static field of the enclosing class (ResolvedField).
  ClassName    ///< A class name, legal only as a member-access base.
};

class NameExpr : public Expr {
public:
  std::string_view Name;
  NameResolution Resolution = NameResolution::Unresolved;
  LocalSymbol *ResolvedLocal = nullptr;
  FieldSymbol *ResolvedField = nullptr;
  ClassSymbol *ResolvedClass = nullptr;

  NameExpr(std::string_view Name, SourceLoc Loc)
      : Expr(ExprKind::Name, Loc), Name(Name) {}
};

class ThisExpr : public Expr {
public:
  explicit ThisExpr(SourceLoc Loc) : Expr(ExprKind::This, Loc) {}
};

/// `base.name`. Sema resolves to an instance field, a static field (when
/// the base is a class name), or the built-in array `length`.
class FieldAccessExpr : public Expr {
public:
  ExprPtr Base;
  std::string_view Name;
  FieldSymbol *ResolvedField = nullptr;
  bool IsArrayLength = false;

  FieldAccessExpr(ExprPtr Base, std::string_view Name, SourceLoc Loc)
      : Expr(ExprKind::FieldAccess, Loc), Base(Base), Name(Name) {}
};

class IndexExpr : public Expr {
public:
  ExprPtr Base;
  ExprPtr Index;

  IndexExpr(ExprPtr Base, ExprPtr Index, SourceLoc Loc)
      : Expr(ExprKind::Index, Loc), Base(Base), Index(Index) {}
};

/// How a resolved call will be dispatched; mirrors the paper's xcall
/// (static binding) vs. xdispatch (dynamic binding) split.
enum class DispatchKind : uint8_t {
  Static,  ///< Static method: no receiver (paper: xcall).
  Direct,  ///< Instance method bound statically, e.g. constructors (xcall).
  Virtual  ///< Instance method through the vtable (paper: xdispatch).
};

/// `base.name(args)` or `name(args)` (implicit this / static). Overloads
/// are resolved by sema, which also inserts implicit argument conversions,
/// matching the paper's requirement that "the code producer is required to
/// resolve overloaded methods".
class CallExpr : public Expr {
public:
  ExprPtr Base; // Null for unqualified calls.
  std::string_view Name;
  ArenaArray<ExprPtr> Args;
  MethodSymbol *ResolvedMethod = nullptr;
  DispatchKind Dispatch = DispatchKind::Virtual;
  /// For unqualified instance-method calls, sema marks that the receiver is
  /// the implicit `this`.
  bool ImplicitThis = false;
  /// When the base was a class name (static call), sema records it here.
  ClassSymbol *BaseClass = nullptr;

  CallExpr(ExprPtr Base, std::string_view Name, ArenaArray<ExprPtr> Args,
           SourceLoc Loc)
      : Expr(ExprKind::Call, Loc), Base(Base), Name(Name), Args(Args) {}
};

class NewObjectExpr : public Expr {
public:
  std::string_view ClassName;
  ArenaArray<ExprPtr> Args;
  ClassSymbol *ResolvedClass = nullptr;
  MethodSymbol *ResolvedCtor = nullptr; // Null when using the default ctor.

  NewObjectExpr(std::string_view ClassName, ArenaArray<ExprPtr> Args,
                SourceLoc Loc)
      : Expr(ExprKind::NewObject, Loc), ClassName(ClassName), Args(Args) {}
};

class NewArrayExpr : public Expr {
public:
  TypeRef ElemType;
  ExprPtr Length;

  NewArrayExpr(TypeRef ElemType, ExprPtr Length, SourceLoc Loc)
      : Expr(ExprKind::NewArray, Loc), ElemType(ElemType), Length(Length) {}
};

enum class UnaryOp : uint8_t {
  Neg,
  Not,
  BitNot,
  PreInc,
  PreDec,
  PostInc,
  PostDec
};

class UnaryExpr : public Expr {
public:
  UnaryOp Op;
  ExprPtr Operand;

  UnaryExpr(UnaryOp Op, ExprPtr Operand, SourceLoc Loc)
      : Expr(ExprKind::Unary, Loc), Op(Op), Operand(Operand) {}
};

enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  BitAnd,
  BitOr,
  BitXor,
  Shl,
  Shr,
  Lt,
  Gt,
  Le,
  Ge,
  Eq,
  Ne,
  LAnd, ///< Short-circuit; lowered to if-else per paper footnote 3.
  LOr   ///< Short-circuit; lowered to if-else per paper footnote 3.
};

class BinaryExpr : public Expr {
public:
  BinaryOp Op;
  ExprPtr Lhs;
  ExprPtr Rhs;

  BinaryExpr(BinaryOp Op, ExprPtr Lhs, ExprPtr Rhs, SourceLoc Loc)
      : Expr(ExprKind::Binary, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
};

/// Assignment, including compound forms. For `a op= b` sema checks the
/// expanded `a = a op b`; the generators expand it the same way.
class AssignExpr : public Expr {
public:
  /// Compound operator, or none for plain '='.
  enum class OpKind : uint8_t { None, Add, Sub, Mul, Div, Rem } Op;
  ExprPtr Target;
  ExprPtr Value;

  AssignExpr(OpKind Op, ExprPtr Target, ExprPtr Value, SourceLoc Loc)
      : Expr(ExprKind::Assign, Loc), Op(Op), Target(Target), Value(Value) {}
};

/// What a (T)expr cast means after sema; maps directly onto SafeTSA's
/// cast machinery (§4 of the paper).
enum class CastLowering : uint8_t {
  Identity,      ///< Same type; no code.
  IntToDouble,   ///< Numeric widening.
  CharToInt,     ///< Numeric widening.
  DoubleToInt,   ///< Numeric narrowing (truncation toward zero).
  IntToChar,     ///< Numeric narrowing (low 16 bits semantics; we use 8).
  DoubleToChar,  ///< Via int.
  RefWiden,      ///< Upcast in Java terms; SafeTSA downcast (free).
  RefNarrow      ///< Downcast in Java terms; SafeTSA upcast (checked).
};

class CastExpr : public Expr {
public:
  TypeRef TargetType;
  ExprPtr Operand;
  CastLowering Lowering = CastLowering::Identity;

  CastExpr(TypeRef TargetType, ExprPtr Operand, SourceLoc Loc)
      : Expr(ExprKind::Cast, Loc), TargetType(TargetType), Operand(Operand) {}
};

class InstanceofExpr : public Expr {
public:
  ExprPtr Operand;
  TypeRef TargetType;
  Type *ResolvedTarget = nullptr;

  InstanceofExpr(ExprPtr Operand, TypeRef TargetType, SourceLoc Loc)
      : Expr(ExprKind::Instanceof, Loc), Operand(Operand),
        TargetType(TargetType) {}
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t {
  Block,
  VarDecl,
  Expr,
  If,
  While,
  DoWhile,
  For,
  Return,
  Break,
  Continue,
  Try,
  Empty
};

class Stmt {
public:
  const StmtKind Kind;
  SourceLoc Loc;

protected:
  Stmt(StmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
};

/// A child statement; the Program's arena owns the node.
using StmtPtr = Stmt *;

class BlockStmt : public Stmt {
public:
  ArenaArray<StmtPtr> Stmts;

  BlockStmt(ArenaArray<StmtPtr> Stmts, SourceLoc Loc)
      : Stmt(StmtKind::Block, Loc), Stmts(Stmts) {}
};

class VarDeclStmt : public Stmt {
public:
  TypeRef DeclType;
  std::string_view Name;
  ExprPtr Init; // May be null.
  LocalSymbol *Symbol = nullptr;

  VarDeclStmt(TypeRef DeclType, std::string_view Name, ExprPtr Init,
              SourceLoc Loc)
      : Stmt(StmtKind::VarDecl, Loc), DeclType(DeclType), Name(Name),
        Init(Init) {}
};

class ExprStmt : public Stmt {
public:
  ExprPtr E;

  ExprStmt(ExprPtr E, SourceLoc Loc) : Stmt(StmtKind::Expr, Loc), E(E) {}
};

class IfStmt : public Stmt {
public:
  ExprPtr Cond;
  StmtPtr Then;
  StmtPtr Else; // May be null.

  IfStmt(ExprPtr Cond, StmtPtr Then, StmtPtr Else, SourceLoc Loc)
      : Stmt(StmtKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
};

class WhileStmt : public Stmt {
public:
  ExprPtr Cond;
  StmtPtr Body;

  WhileStmt(ExprPtr Cond, StmtPtr Body, SourceLoc Loc)
      : Stmt(StmtKind::While, Loc), Cond(Cond), Body(Body) {}
};

class DoWhileStmt : public Stmt {
public:
  StmtPtr Body;
  ExprPtr Cond;

  DoWhileStmt(StmtPtr Body, ExprPtr Cond, SourceLoc Loc)
      : Stmt(StmtKind::DoWhile, Loc), Body(Body), Cond(Cond) {}
};

class ForStmt : public Stmt {
public:
  StmtPtr Init;   // VarDeclStmt or ExprStmt; may be null.
  ExprPtr Cond;   // May be null (infinite loop).
  ExprPtr Update; // May be null.
  StmtPtr Body;

  ForStmt(StmtPtr Init, ExprPtr Cond, ExprPtr Update, StmtPtr Body,
          SourceLoc Loc)
      : Stmt(StmtKind::For, Loc), Init(Init), Cond(Cond), Update(Update),
        Body(Body) {}
};

class ReturnStmt : public Stmt {
public:
  ExprPtr Value; // May be null for void returns.

  ReturnStmt(ExprPtr Value, SourceLoc Loc)
      : Stmt(StmtKind::Return, Loc), Value(Value) {}
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(StmtKind::Break, Loc) {}
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(StmtKind::Continue, Loc) {}
};

/// `try Block catch Block`. MJ's catch is an untyped catch-all for the
/// runtime exceptions SafeTSA models (null, bounds, arithmetic, cast,
/// negative array size), including those unwinding out of callees; there
/// is no exception object, no user `throw`, and no `finally`.
class TryStmt : public Stmt {
public:
  StmtPtr Body;
  StmtPtr Handler;

  TryStmt(StmtPtr Body, StmtPtr Handler, SourceLoc Loc)
      : Stmt(StmtKind::Try, Loc), Body(Body), Handler(Handler) {}
};

class EmptyStmt : public Stmt {
public:
  explicit EmptyStmt(SourceLoc Loc) : Stmt(StmtKind::Empty, Loc) {}
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

struct ParamDecl {
  TypeRef DeclType;
  std::string_view Name;
  SourceLoc Loc;
  LocalSymbol *Symbol = nullptr;
};

struct FieldDecl {
  bool IsStatic = false;
  bool IsFinal = false;
  TypeRef DeclType;
  std::string_view Name;
  ExprPtr Init = nullptr; // May be null.
  SourceLoc Loc;
  FieldSymbol *Symbol = nullptr;
};

struct MethodDecl {
  bool IsStatic = false;
  bool IsConstructor = false;
  TypeRef ReturnType; // Void TypeRef for constructors and void methods.
  std::string_view Name;
  ArenaArray<ParamDecl> Params;
  BlockStmt *Body = nullptr;
  SourceLoc Loc;
  MethodSymbol *Symbol = nullptr;
  /// All locals of the body including parameters, in declaration order;
  /// created by sema. LocalSymbol::Index indexes this array.
  ArenaArray<LocalSymbol *> Locals;
};

struct ClassDecl {
  std::string_view Name;
  std::string_view SuperName; // Empty => implicit Object.
  ArenaArray<FieldDecl> Fields;
  ArenaArray<MethodDecl *> Methods;
  SourceLoc Loc;
  ClassSymbol *Symbol = nullptr;
};

/// One MJ compilation unit (a set of classes). The arena owns the whole
/// tree, the names (views of the arena's copy of the source) and the
/// locals sema adds, so the tree outlives the source string and the token
/// vector it was parsed from.
struct Program {
  BumpArena Arena;
  ArenaArray<ClassDecl *> Classes;

  Program() = default;
  /// Moving hands over the slabs; the source is left an empty program.
  Program(Program &&O) noexcept
      : Arena(std::move(O.Arena)), Classes(std::exchange(O.Classes, {})) {}
  Program &operator=(Program &&O) noexcept {
    if (this != &O) {
      Arena = std::move(O.Arena);
      Classes = std::exchange(O.Classes, {});
    }
    return *this;
  }
};

/// Textual dump of an annotated or unannotated AST, for tests and the
/// examples' --dump-ast mode.
std::string dumpAST(const Program &P);
std::string dumpExpr(const Expr &E);

} // namespace safetsa

#endif // SAFETSA_AST_AST_H
