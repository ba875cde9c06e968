//===- ast/AST.cpp - AST anchors and dumping ------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ast/AST.h"

#include <sstream>
#include <type_traits>

using namespace safetsa;

// The Program's arena runs no destructors, so no node may need one.
static_assert(std::is_trivially_destructible_v<CallExpr> &&
              std::is_trivially_destructible_v<NewObjectExpr> &&
              std::is_trivially_destructible_v<CastExpr> &&
              std::is_trivially_destructible_v<BlockStmt> &&
              std::is_trivially_destructible_v<VarDeclStmt> &&
              std::is_trivially_destructible_v<ForStmt> &&
              std::is_trivially_destructible_v<MethodDecl> &&
              std::is_trivially_destructible_v<ClassDecl> &&
              std::is_trivially_destructible_v<LocalSymbol>);

namespace {

/// Pretty-prints the AST as an indented s-expression-like tree.
class ASTDumper {
public:
  std::string dump(const Program &P) {
    for (const auto &C : P.Classes)
      dumpClass(*C);
    return OS.str();
  }

  std::string dump(const Expr &E) {
    dumpExpr(E);
    OS << '\n';
    return OS.str();
  }

private:
  std::ostringstream OS;
  unsigned Indent = 0;

  void line() {
    OS << '\n';
    for (unsigned I = 0; I != Indent; ++I)
      OS << "  ";
  }

  static std::string typeRefName(const TypeRef &T) {
    std::string S;
    switch (T.K) {
    case TypeRef::Kind::Prim:
      switch (T.Prim) {
      case PrimTypeKind::Int:
        S = "int";
        break;
      case PrimTypeKind::Boolean:
        S = "boolean";
        break;
      case PrimTypeKind::Double:
        S = "double";
        break;
      case PrimTypeKind::Char:
        S = "char";
        break;
      }
      break;
    case TypeRef::Kind::Named:
      S = T.Name;
      break;
    case TypeRef::Kind::Void:
      S = "void";
      break;
    }
    for (unsigned I = 0; I != T.ArrayDims; ++I)
      S += "[]";
    return S;
  }

  void dumpClass(const ClassDecl &C) {
    OS << "class " << C.Name;
    if (!C.SuperName.empty())
      OS << " extends " << C.SuperName;
    ++Indent;
    for (const FieldDecl &F : C.Fields) {
      line();
      OS << (F.IsStatic ? "static-field " : "field ") << typeRefName(F.DeclType)
         << ' ' << F.Name;
      if (F.Init) {
        OS << " = ";
        dumpExpr(*F.Init);
      }
    }
    for (const auto &M : C.Methods) {
      line();
      if (M->IsConstructor)
        OS << "constructor " << M->Name;
      else
        OS << (M->IsStatic ? "static-method " : "method ")
           << typeRefName(M->ReturnType) << ' ' << M->Name;
      OS << '(';
      for (size_t I = 0; I != M->Params.size(); ++I) {
        if (I)
          OS << ", ";
        OS << typeRefName(M->Params[I].DeclType) << ' ' << M->Params[I].Name;
      }
      OS << ')';
      ++Indent;
      dumpStmt(*M->Body);
      --Indent;
    }
    --Indent;
    OS << '\n';
  }

  void dumpStmt(const Stmt &S) {
    line();
    switch (S.Kind) {
    case StmtKind::Block: {
      OS << "block";
      ++Indent;
      for (const StmtPtr &Child : static_cast<const BlockStmt &>(S).Stmts)
        dumpStmt(*Child);
      --Indent;
      break;
    }
    case StmtKind::VarDecl: {
      const auto &V = static_cast<const VarDeclStmt &>(S);
      OS << "var " << typeRefName(V.DeclType) << ' ' << V.Name;
      if (V.Init) {
        OS << " = ";
        dumpExpr(*V.Init);
      }
      break;
    }
    case StmtKind::Expr:
      OS << "expr ";
      dumpExpr(*static_cast<const ExprStmt &>(S).E);
      break;
    case StmtKind::If: {
      const auto &I = static_cast<const IfStmt &>(S);
      OS << "if ";
      dumpExpr(*I.Cond);
      ++Indent;
      dumpStmt(*I.Then);
      --Indent;
      if (I.Else) {
        line();
        OS << "else";
        ++Indent;
        dumpStmt(*I.Else);
        --Indent;
      }
      break;
    }
    case StmtKind::While: {
      const auto &W = static_cast<const WhileStmt &>(S);
      OS << "while ";
      dumpExpr(*W.Cond);
      ++Indent;
      dumpStmt(*W.Body);
      --Indent;
      break;
    }
    case StmtKind::DoWhile: {
      const auto &W = static_cast<const DoWhileStmt &>(S);
      OS << "do-while ";
      dumpExpr(*W.Cond);
      ++Indent;
      dumpStmt(*W.Body);
      --Indent;
      break;
    }
    case StmtKind::For: {
      const auto &F = static_cast<const ForStmt &>(S);
      OS << "for";
      ++Indent;
      if (F.Init)
        dumpStmt(*F.Init);
      if (F.Cond) {
        line();
        OS << "cond ";
        dumpExpr(*F.Cond);
      }
      if (F.Update) {
        line();
        OS << "update ";
        dumpExpr(*F.Update);
      }
      dumpStmt(*F.Body);
      --Indent;
      break;
    }
    case StmtKind::Return: {
      const auto &R = static_cast<const ReturnStmt &>(S);
      OS << "return";
      if (R.Value) {
        OS << ' ';
        dumpExpr(*R.Value);
      }
      break;
    }
    case StmtKind::Break:
      OS << "break";
      break;
    case StmtKind::Continue:
      OS << "continue";
      break;
    case StmtKind::Try: {
      const auto &T = static_cast<const TryStmt &>(S);
      OS << "try";
      ++Indent;
      dumpStmt(*T.Body);
      --Indent;
      line();
      OS << "catch";
      ++Indent;
      dumpStmt(*T.Handler);
      --Indent;
      break;
    }
    case StmtKind::Empty:
      OS << "empty";
      break;
    }
  }

  static const char *unaryOpName(UnaryOp Op) {
    switch (Op) {
    case UnaryOp::Neg:
      return "-";
    case UnaryOp::Not:
      return "!";
    case UnaryOp::BitNot:
      return "~";
    case UnaryOp::PreInc:
      return "++pre";
    case UnaryOp::PreDec:
      return "--pre";
    case UnaryOp::PostInc:
      return "post++";
    case UnaryOp::PostDec:
      return "post--";
    }
    return "?";
  }

  static const char *binaryOpName(BinaryOp Op) {
    switch (Op) {
    case BinaryOp::Add:
      return "+";
    case BinaryOp::Sub:
      return "-";
    case BinaryOp::Mul:
      return "*";
    case BinaryOp::Div:
      return "/";
    case BinaryOp::Rem:
      return "%";
    case BinaryOp::BitAnd:
      return "&";
    case BinaryOp::BitOr:
      return "|";
    case BinaryOp::BitXor:
      return "^";
    case BinaryOp::Shl:
      return "<<";
    case BinaryOp::Shr:
      return ">>";
    case BinaryOp::Lt:
      return "<";
    case BinaryOp::Gt:
      return ">";
    case BinaryOp::Le:
      return "<=";
    case BinaryOp::Ge:
      return ">=";
    case BinaryOp::Eq:
      return "==";
    case BinaryOp::Ne:
      return "!=";
    case BinaryOp::LAnd:
      return "&&";
    case BinaryOp::LOr:
      return "||";
    }
    return "?";
  }

  void dumpExpr(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::IntLiteral:
      OS << static_cast<const IntLiteralExpr &>(E).Value;
      break;
    case ExprKind::DoubleLiteral:
      OS << static_cast<const DoubleLiteralExpr &>(E).Value;
      break;
    case ExprKind::BoolLiteral:
      OS << (static_cast<const BoolLiteralExpr &>(E).Value ? "true" : "false");
      break;
    case ExprKind::CharLiteral:
      OS << '\'' << static_cast<const CharLiteralExpr &>(E).Value << '\'';
      break;
    case ExprKind::StringLiteral:
      OS << '"' << static_cast<const StringLiteralExpr &>(E).Value << '"';
      break;
    case ExprKind::NullLiteral:
      OS << "null";
      break;
    case ExprKind::Name:
      OS << static_cast<const NameExpr &>(E).Name;
      break;
    case ExprKind::This:
      OS << "this";
      break;
    case ExprKind::FieldAccess: {
      const auto &F = static_cast<const FieldAccessExpr &>(E);
      OS << '(';
      dumpExpr(*F.Base);
      OS << '.' << F.Name << ')';
      break;
    }
    case ExprKind::Index: {
      const auto &I = static_cast<const IndexExpr &>(E);
      OS << '(';
      dumpExpr(*I.Base);
      OS << '[';
      dumpExpr(*I.Index);
      OS << "])";
      break;
    }
    case ExprKind::Call: {
      const auto &C = static_cast<const CallExpr &>(E);
      OS << '(';
      if (C.Base) {
        dumpExpr(*C.Base);
        OS << '.';
      }
      OS << C.Name << '(';
      for (size_t I = 0; I != C.Args.size(); ++I) {
        if (I)
          OS << ", ";
        dumpExpr(*C.Args[I]);
      }
      OS << "))";
      break;
    }
    case ExprKind::NewObject: {
      const auto &N = static_cast<const NewObjectExpr &>(E);
      OS << "(new " << N.ClassName << '(';
      for (size_t I = 0; I != N.Args.size(); ++I) {
        if (I)
          OS << ", ";
        dumpExpr(*N.Args[I]);
      }
      OS << "))";
      break;
    }
    case ExprKind::NewArray: {
      const auto &N = static_cast<const NewArrayExpr &>(E);
      OS << "(new " << typeRefName(N.ElemType) << '[';
      dumpExpr(*N.Length);
      OS << "])";
      break;
    }
    case ExprKind::Unary: {
      const auto &U = static_cast<const UnaryExpr &>(E);
      OS << '(' << unaryOpName(U.Op) << ' ';
      dumpExpr(*U.Operand);
      OS << ')';
      break;
    }
    case ExprKind::Binary: {
      const auto &B = static_cast<const BinaryExpr &>(E);
      OS << '(';
      dumpExpr(*B.Lhs);
      OS << ' ' << binaryOpName(B.Op) << ' ';
      dumpExpr(*B.Rhs);
      OS << ')';
      break;
    }
    case ExprKind::Assign: {
      const auto &A = static_cast<const AssignExpr &>(E);
      OS << '(';
      dumpExpr(*A.Target);
      switch (A.Op) {
      case AssignExpr::OpKind::None:
        OS << " = ";
        break;
      case AssignExpr::OpKind::Add:
        OS << " += ";
        break;
      case AssignExpr::OpKind::Sub:
        OS << " -= ";
        break;
      case AssignExpr::OpKind::Mul:
        OS << " *= ";
        break;
      case AssignExpr::OpKind::Div:
        OS << " /= ";
        break;
      case AssignExpr::OpKind::Rem:
        OS << " %= ";
        break;
      }
      dumpExpr(*A.Value);
      OS << ')';
      break;
    }
    case ExprKind::Cast: {
      const auto &C = static_cast<const CastExpr &>(E);
      OS << "((" << typeRefName(C.TargetType) << ") ";
      dumpExpr(*C.Operand);
      OS << ')';
      break;
    }
    case ExprKind::Instanceof: {
      const auto &I = static_cast<const InstanceofExpr &>(E);
      OS << '(';
      dumpExpr(*I.Operand);
      OS << " instanceof " << typeRefName(I.TargetType) << ')';
      break;
    }
    }
  }
};

} // namespace

std::string safetsa::dumpAST(const Program &P) { return ASTDumper().dump(P); }

std::string safetsa::dumpExpr(const Expr &E) { return ASTDumper().dump(E); }
