//===- parser/Parser.h - MJ parser ----------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MJ with panic-mode recovery, producing the
/// AST consumed by sema and both code generators. Every node, name and
/// child list goes into the arena of the Program being built.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_PARSER_PARSER_H
#define SAFETSA_PARSER_PARSER_H

#include "ast/AST.h"
#include "lexer/Token.h"
#include "support/Diagnostics.h"

#include <string_view>
#include <type_traits>
#include <vector>

namespace safetsa {

/// Parses a token stream into a Program. On syntax errors it reports a
/// diagnostic and recovers at the next statement/member boundary; callers
/// must check DiagnosticEngine::hasErrors() before using the tree.
///
/// \p Source is the buffer \p Tokens were lexed from. parseProgram copies
/// it into the Program's arena, and every name in the tree views that
/// copy, so neither the buffer nor the tokens need outlive the parse.
class Parser {
public:
  Parser(std::string_view Source, std::vector<Token> Tokens,
         DiagnosticEngine &Diags)
      : Source(Source), Tokens(std::move(Tokens)), Diags(Diags) {}

  Program parseProgram();

private:
  // Declarations.
  ClassDecl *parseClass();
  void parseMember(ClassDecl &Class);
  TypeRef parseType();
  ArenaArray<ParamDecl> parseParams();

  // Statements.
  StmtPtr parseStmt();
  BlockStmt *parseBlock();
  StmtPtr parseVarDeclRest(TypeRef DeclType, SourceLoc Loc);
  StmtPtr parseIf();
  StmtPtr parseWhile();
  StmtPtr parseDoWhile();
  StmtPtr parseFor();

  // Expressions, in decreasing binding order.
  ExprPtr parseExpr();
  ExprPtr parseAssignment();
  ExprPtr parseBinary(int MinPrec);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();
  ArenaArray<ExprPtr> parseArgs();

  /// True when the '(' at the current position begins a cast expression;
  /// uses bounded lookahead (the classic Java (Name) ambiguity).
  bool startsCast() const;
  /// True if \p Kind may begin a unary expression (used by startsCast).
  static bool startsUnaryExpr(TokenKind Kind);

  // Token plumbing.
  const Token &peek(unsigned Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  const Token &current() const { return peek(); }
  const Token &consume() {
    return Tokens[Pos < Tokens.size() - 1 ? Pos++ : Pos];
  }
  bool check(TokenKind K) const { return current().is(K); }
  bool accept(TokenKind K) {
    if (!check(K))
      return false;
    consume();
    return true;
  }
  /// Consumes a token of kind \p K or reports "expected X".
  bool expect(TokenKind K, const char *Context);
  void syncToStmtBoundary();
  void syncToMemberBoundary();

  // Arena plumbing.
  /// The unescaped body of string literal \p Tok, in the arena.
  std::string_view stringBody(const Token &Tok);
  /// The spelling of \p Tok in the Program's copy of the source.
  std::string_view name(const Token &Tok) const { return Tok.text(Text); }
  template <typename T, typename... Args> T *make(Args &&...A) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "AST nodes must not need destructors");
    return Arena->create<T>(std::forward<Args>(A)...);
  }
  /// Moves the entries of \p Stack above \p Mark into an exact-size
  /// arena array. The stacks are reused by every list in the parse, so a
  /// nested list pushes above its parent's entries and pops back to them.
  template <typename T>
  ArenaArray<T> takeList(std::vector<T> &Stack, size_t Mark) {
    ArenaArray<T> List =
        Arena->copyArray(Stack.data() + Mark, Stack.size() - Mark);
    Stack.resize(Mark);
    return List;
  }

  std::string_view Source;
  std::vector<Token> Tokens;
  DiagnosticEngine &Diags;
  size_t Pos = 0;

  BumpArena *Arena = nullptr; ///< The arena of the Program being built.
  std::string_view Text; ///< The arena's copy of Source.
  std::vector<StmtPtr> StmtStack;
  std::vector<ExprPtr> ExprStack;
  std::vector<ParamDecl> ParamStack;
  std::vector<FieldDecl> FieldStack;
  std::vector<MethodDecl *> MethodStack;
  std::vector<ClassDecl *> ClassStack;
};

} // namespace safetsa

#endif // SAFETSA_PARSER_PARSER_H
