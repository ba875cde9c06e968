//===- parser/Parser.cpp --------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "lexer/Lexer.h"

#include <sstream>

using namespace safetsa;

bool Parser::expect(TokenKind K, const char *Context) {
  if (accept(K))
    return true;
  std::ostringstream OS;
  OS << "expected " << tokenKindName(K) << ' ' << Context << ", found "
     << tokenKindName(current().Kind);
  Diags.error(current().Loc, OS.str());
  return false;
}

void Parser::syncToStmtBoundary() {
  while (!check(TokenKind::Eof)) {
    if (accept(TokenKind::Semi))
      return;
    if (check(TokenKind::RBrace) || check(TokenKind::LBrace))
      return;
    consume();
  }
}

void Parser::syncToMemberBoundary() {
  unsigned Depth = 0;
  while (!check(TokenKind::Eof)) {
    if (check(TokenKind::LBrace)) {
      ++Depth;
      consume();
      continue;
    }
    if (check(TokenKind::RBrace)) {
      if (Depth == 0)
        return;
      --Depth;
      consume();
      continue;
    }
    if (Depth == 0 && accept(TokenKind::Semi))
      return;
    consume();
  }
}

std::string_view Parser::stringBody(const Token &Tok) {
  std::string_view Spelling = name(Tok);
  size_t Length = static_cast<size_t>(Tok.IntValue);
  // Without escapes the body is its own spelling, minus the quote.
  if (Spelling.find('\\') == std::string_view::npos)
    return Spelling.substr(1, Length);
  char *Body = static_cast<char *>(Arena->allocate(Length, 1));
  unescapeStringLiteral(Spelling, Body);
  return std::string_view(Body, Length);
}

Program Parser::parseProgram() {
  Program P;
  Arena = &P.Arena;
  Text = P.Arena.copyString(Source);
  // Room for a typical module's deepest nesting, so the stacks rarely
  // regrow.
  StmtStack.reserve(64);
  ExprStack.reserve(32);
  ParamStack.reserve(16);
  FieldStack.reserve(16);
  MethodStack.reserve(32);
  ClassStack.reserve(8);
  size_t Mark = ClassStack.size();
  while (!check(TokenKind::Eof)) {
    if (check(TokenKind::KwClass)) {
      ClassDecl *C = parseClass();
      ClassStack.push_back(C);
      continue;
    }
    Diags.error(current().Loc, "expected 'class' at top level");
    consume();
  }
  P.Classes = takeList(ClassStack, Mark);
  return P;
}

ClassDecl *Parser::parseClass() {
  SourceLoc Loc = current().Loc;
  expect(TokenKind::KwClass, "to begin class declaration");
  auto *Class = make<ClassDecl>();
  Class->Loc = Loc;
  if (check(TokenKind::Identifier))
    Class->Name = name(consume());
  else
    expect(TokenKind::Identifier, "as class name");
  if (accept(TokenKind::KwExtends)) {
    if (check(TokenKind::Identifier))
      Class->SuperName = name(consume());
    else
      expect(TokenKind::Identifier, "as superclass name");
  }
  expect(TokenKind::LBrace, "to begin class body");
  size_t FieldMark = FieldStack.size(), MethodMark = MethodStack.size();
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof))
    parseMember(*Class);
  expect(TokenKind::RBrace, "to end class body");
  Class->Fields = takeList(FieldStack, FieldMark);
  Class->Methods = takeList(MethodStack, MethodMark);
  return Class;
}

TypeRef Parser::parseType() {
  SourceLoc Loc = current().Loc;
  TypeRef T;
  switch (current().Kind) {
  case TokenKind::KwInt:
    consume();
    T = TypeRef::makePrim(PrimTypeKind::Int, Loc);
    break;
  case TokenKind::KwBoolean:
    consume();
    T = TypeRef::makePrim(PrimTypeKind::Boolean, Loc);
    break;
  case TokenKind::KwDouble:
    consume();
    T = TypeRef::makePrim(PrimTypeKind::Double, Loc);
    break;
  case TokenKind::KwChar:
    consume();
    T = TypeRef::makePrim(PrimTypeKind::Char, Loc);
    break;
  case TokenKind::KwVoid:
    consume();
    T = TypeRef::makeVoid(Loc);
    break;
  case TokenKind::Identifier:
    T = TypeRef::makeNamed(name(consume()), Loc);
    break;
  default:
    Diags.error(Loc, std::string("expected type, found ") +
                         tokenKindName(current().Kind));
    T = TypeRef::makePrim(PrimTypeKind::Int, Loc);
    break;
  }
  while (check(TokenKind::LBracket) && peek(1).is(TokenKind::RBracket)) {
    consume();
    consume();
    ++T.ArrayDims;
  }
  return T;
}

ArenaArray<ParamDecl> Parser::parseParams() {
  size_t Mark = ParamStack.size();
  expect(TokenKind::LParen, "to begin parameter list");
  if (!check(TokenKind::RParen)) {
    do {
      ParamDecl P;
      P.Loc = current().Loc;
      P.DeclType = parseType();
      if (check(TokenKind::Identifier))
        P.Name = name(consume());
      else
        expect(TokenKind::Identifier, "as parameter name");
      ParamStack.push_back(P);
    } while (accept(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "to end parameter list");
  return takeList(ParamStack, Mark);
}

void Parser::parseMember(ClassDecl &Class) {
  SourceLoc Loc = current().Loc;
  bool IsStatic = false, IsFinal = false;
  while (true) {
    if (accept(TokenKind::KwStatic)) {
      IsStatic = true;
      continue;
    }
    if (accept(TokenKind::KwFinal)) {
      IsFinal = true;
      continue;
    }
    break;
  }

  // Constructor: ClassName '(' ... (no declared type).
  if (check(TokenKind::Identifier) && name(current()) == Class.Name &&
      peek(1).is(TokenKind::LParen)) {
    auto *M = make<MethodDecl>();
    M->Loc = Loc;
    M->IsConstructor = true;
    M->IsStatic = false;
    M->Name = name(consume());
    M->ReturnType = TypeRef::makeVoid(Loc);
    M->Params = parseParams();
    if (check(TokenKind::LBrace))
      M->Body = parseBlock();
    else {
      expect(TokenKind::LBrace, "to begin constructor body");
      syncToMemberBoundary();
      M->Body = make<BlockStmt>(ArenaArray<StmtPtr>(), Loc);
    }
    if (IsStatic)
      Diags.error(Loc, "constructor cannot be static");
    MethodStack.push_back(M);
    return;
  }

  TypeRef DeclType = parseType();
  if (!check(TokenKind::Identifier)) {
    expect(TokenKind::Identifier, "as member name");
    syncToMemberBoundary();
    return;
  }
  std::string_view Name = name(consume());

  if (check(TokenKind::LParen)) {
    auto *M = make<MethodDecl>();
    M->Loc = Loc;
    M->IsStatic = IsStatic;
    M->ReturnType = DeclType;
    M->Name = Name;
    M->Params = parseParams();
    if (check(TokenKind::LBrace))
      M->Body = parseBlock();
    else {
      expect(TokenKind::LBrace, "to begin method body");
      syncToMemberBoundary();
      M->Body = make<BlockStmt>(ArenaArray<StmtPtr>(), Loc);
    }
    MethodStack.push_back(M);
    return;
  }

  // Field declaration (single declarator).
  FieldDecl F;
  F.Loc = Loc;
  F.IsStatic = IsStatic;
  F.IsFinal = IsFinal;
  F.DeclType = DeclType;
  F.Name = Name;
  if (F.DeclType.isVoid())
    Diags.error(Loc, "field cannot have type 'void'");
  if (accept(TokenKind::Assign))
    F.Init = parseExpr();
  expect(TokenKind::Semi, "after field declaration");
  FieldStack.push_back(F);
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

BlockStmt *Parser::parseBlock() {
  SourceLoc Loc = current().Loc;
  expect(TokenKind::LBrace, "to begin block");
  size_t Mark = StmtStack.size();
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
    StmtPtr S = parseStmt();
    StmtStack.push_back(S);
  }
  expect(TokenKind::RBrace, "to end block");
  return make<BlockStmt>(takeList(StmtStack, Mark), Loc);
}

StmtPtr Parser::parseVarDeclRest(TypeRef DeclType, SourceLoc Loc) {
  std::string_view Name;
  if (check(TokenKind::Identifier))
    Name = name(consume());
  else
    expect(TokenKind::Identifier, "as variable name");
  ExprPtr Init = nullptr;
  if (accept(TokenKind::Assign))
    Init = parseExpr();
  expect(TokenKind::Semi, "after variable declaration");
  return make<VarDeclStmt>(DeclType, Name, Init, Loc);
}

StmtPtr Parser::parseStmt() {
  SourceLoc Loc = current().Loc;
  switch (current().Kind) {
  case TokenKind::LBrace:
    return parseBlock();
  case TokenKind::Semi:
    consume();
    return make<EmptyStmt>(Loc);
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwDo:
    return parseDoWhile();
  case TokenKind::KwFor:
    return parseFor();
  case TokenKind::KwReturn: {
    consume();
    ExprPtr Value = nullptr;
    if (!check(TokenKind::Semi))
      Value = parseExpr();
    expect(TokenKind::Semi, "after return statement");
    return make<ReturnStmt>(Value, Loc);
  }
  case TokenKind::KwTry: {
    consume();
    StmtPtr Body = nullptr;
    if (check(TokenKind::LBrace))
      Body = parseBlock();
    else {
      expect(TokenKind::LBrace, "after 'try'");
      Body = make<EmptyStmt>(Loc);
    }
    expect(TokenKind::KwCatch, "after try block");
    StmtPtr Handler = nullptr;
    if (check(TokenKind::LBrace))
      Handler = parseBlock();
    else {
      expect(TokenKind::LBrace, "after 'catch'");
      Handler = make<EmptyStmt>(Loc);
    }
    return make<TryStmt>(Body, Handler, Loc);
  }
  case TokenKind::KwBreak:
    consume();
    expect(TokenKind::Semi, "after 'break'");
    return make<BreakStmt>(Loc);
  case TokenKind::KwContinue:
    consume();
    expect(TokenKind::Semi, "after 'continue'");
    return make<ContinueStmt>(Loc);
  case TokenKind::KwInt:
  case TokenKind::KwBoolean:
  case TokenKind::KwDouble:
  case TokenKind::KwChar:
    return parseVarDeclRest(parseType(), Loc);
  case TokenKind::Identifier:
    // `Foo x` / `Foo[] x` are declarations; anything else is an expression.
    if (peek(1).is(TokenKind::Identifier) ||
        (peek(1).is(TokenKind::LBracket) && peek(2).is(TokenKind::RBracket)))
      return parseVarDeclRest(parseType(), Loc);
    break;
  default:
    break;
  }

  ExprPtr E = parseExpr();
  if (!expect(TokenKind::Semi, "after expression statement"))
    syncToStmtBoundary();
  return make<ExprStmt>(E, Loc);
}

StmtPtr Parser::parseIf() {
  SourceLoc Loc = current().Loc;
  consume(); // 'if'
  expect(TokenKind::LParen, "after 'if'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after if condition");
  StmtPtr Then = parseStmt();
  StmtPtr Else = nullptr;
  if (accept(TokenKind::KwElse))
    Else = parseStmt();
  return make<IfStmt>(Cond, Then, Else, Loc);
}

StmtPtr Parser::parseWhile() {
  SourceLoc Loc = current().Loc;
  consume(); // 'while'
  expect(TokenKind::LParen, "after 'while'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after while condition");
  StmtPtr Body = parseStmt();
  return make<WhileStmt>(Cond, Body, Loc);
}

StmtPtr Parser::parseDoWhile() {
  SourceLoc Loc = current().Loc;
  consume(); // 'do'
  StmtPtr Body = parseStmt();
  expect(TokenKind::KwWhile, "after do-while body");
  expect(TokenKind::LParen, "after 'while'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after do-while condition");
  expect(TokenKind::Semi, "after do-while statement");
  return make<DoWhileStmt>(Body, Cond, Loc);
}

StmtPtr Parser::parseFor() {
  SourceLoc Loc = current().Loc;
  consume(); // 'for'
  expect(TokenKind::LParen, "after 'for'");

  StmtPtr Init = nullptr;
  if (!accept(TokenKind::Semi)) {
    SourceLoc InitLoc = current().Loc;
    bool IsDecl = false;
    switch (current().Kind) {
    case TokenKind::KwInt:
    case TokenKind::KwBoolean:
    case TokenKind::KwDouble:
    case TokenKind::KwChar:
      IsDecl = true;
      break;
    case TokenKind::Identifier:
      IsDecl = peek(1).is(TokenKind::Identifier) ||
               (peek(1).is(TokenKind::LBracket) &&
                peek(2).is(TokenKind::RBracket));
      break;
    default:
      break;
    }
    if (IsDecl) {
      Init = parseVarDeclRest(parseType(), InitLoc); // Consumes the ';'.
    } else {
      ExprPtr E = parseExpr();
      expect(TokenKind::Semi, "after for-loop initializer");
      Init = make<ExprStmt>(E, InitLoc);
    }
  }

  ExprPtr Cond = nullptr;
  if (!check(TokenKind::Semi))
    Cond = parseExpr();
  expect(TokenKind::Semi, "after for-loop condition");

  ExprPtr Update = nullptr;
  if (!check(TokenKind::RParen))
    Update = parseExpr();
  expect(TokenKind::RParen, "after for-loop update");

  StmtPtr Body = parseStmt();
  return make<ForStmt>(Init, Cond, Update, Body, Loc);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ExprPtr Parser::parseExpr() { return parseAssignment(); }

static bool isAssignTarget(const Expr &E) {
  return E.Kind == ExprKind::Name || E.Kind == ExprKind::FieldAccess ||
         E.Kind == ExprKind::Index;
}

ExprPtr Parser::parseAssignment() {
  ExprPtr Lhs = parseBinary(0);
  AssignExpr::OpKind Op;
  switch (current().Kind) {
  case TokenKind::Assign:
    Op = AssignExpr::OpKind::None;
    break;
  case TokenKind::PlusAssign:
    Op = AssignExpr::OpKind::Add;
    break;
  case TokenKind::MinusAssign:
    Op = AssignExpr::OpKind::Sub;
    break;
  case TokenKind::StarAssign:
    Op = AssignExpr::OpKind::Mul;
    break;
  case TokenKind::SlashAssign:
    Op = AssignExpr::OpKind::Div;
    break;
  case TokenKind::PercentAssign:
    Op = AssignExpr::OpKind::Rem;
    break;
  default:
    return Lhs;
  }
  SourceLoc Loc = consume().Loc;
  if (!isAssignTarget(*Lhs))
    Diags.error(Loc, "left-hand side of assignment is not assignable");
  ExprPtr Rhs = parseAssignment(); // Right-associative.
  return make<AssignExpr>(Op, Lhs, Rhs, Loc);
}

namespace {
struct BinOpInfo {
  BinaryOp Op;
  int Prec;
};
} // namespace

/// Returns the binary operator for \p Kind, or precedence -1 when the token
/// is not a binary operator. instanceof is handled separately.
static BinOpInfo binOpInfo(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::PipePipe:
    return {BinaryOp::LOr, 1};
  case TokenKind::AmpAmp:
    return {BinaryOp::LAnd, 2};
  case TokenKind::Pipe:
    return {BinaryOp::BitOr, 3};
  case TokenKind::Caret:
    return {BinaryOp::BitXor, 4};
  case TokenKind::Amp:
    return {BinaryOp::BitAnd, 5};
  case TokenKind::EqualEqual:
    return {BinaryOp::Eq, 6};
  case TokenKind::NotEqual:
    return {BinaryOp::Ne, 6};
  case TokenKind::Less:
    return {BinaryOp::Lt, 7};
  case TokenKind::Greater:
    return {BinaryOp::Gt, 7};
  case TokenKind::LessEqual:
    return {BinaryOp::Le, 7};
  case TokenKind::GreaterEqual:
    return {BinaryOp::Ge, 7};
  case TokenKind::Shl:
    return {BinaryOp::Shl, 8};
  case TokenKind::Shr:
    return {BinaryOp::Shr, 8};
  case TokenKind::Plus:
    return {BinaryOp::Add, 9};
  case TokenKind::Minus:
    return {BinaryOp::Sub, 9};
  case TokenKind::Star:
    return {BinaryOp::Mul, 10};
  case TokenKind::Slash:
    return {BinaryOp::Div, 10};
  case TokenKind::Percent:
    return {BinaryOp::Rem, 10};
  default:
    return {BinaryOp::Add, -1};
  }
}

ExprPtr Parser::parseBinary(int MinPrec) {
  ExprPtr Lhs = parseUnary();
  while (true) {
    // instanceof sits at relational precedence, like Java.
    if (check(TokenKind::KwInstanceof) && 7 >= MinPrec) {
      SourceLoc Loc = consume().Loc;
      TypeRef Target = parseType();
      Lhs = make<InstanceofExpr>(Lhs, Target, Loc);
      continue;
    }
    BinOpInfo Info = binOpInfo(current().Kind);
    if (Info.Prec < 0 || Info.Prec < MinPrec)
      return Lhs;
    SourceLoc Loc = consume().Loc;
    ExprPtr Rhs = parseBinary(Info.Prec + 1); // Left-associative.
    Lhs = make<BinaryExpr>(Info.Op, Lhs, Rhs, Loc);
  }
}

bool Parser::startsUnaryExpr(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Identifier:
  case TokenKind::IntLiteral:
  case TokenKind::DoubleLiteral:
  case TokenKind::CharLiteral:
  case TokenKind::StringLiteral:
  case TokenKind::LParen:
  case TokenKind::Not:
  case TokenKind::Tilde:
  case TokenKind::KwNew:
  case TokenKind::KwThis:
  case TokenKind::KwNull:
  case TokenKind::KwTrue:
  case TokenKind::KwFalse:
    return true;
  default:
    return false;
  }
}

bool Parser::startsCast() const {
  assert(check(TokenKind::LParen) && "caller ensures '('");
  unsigned I = 1;
  switch (peek(I).Kind) {
  case TokenKind::KwInt:
  case TokenKind::KwBoolean:
  case TokenKind::KwDouble:
  case TokenKind::KwChar:
    break; // Primitive type: definitely a cast.
  case TokenKind::Identifier:
    // `(Name)` is a cast only when followed by something that begins a
    // unary expression but is not an operator; `(Name[])` always is.
    break;
  default:
    return false;
  }
  ++I;
  bool SawBrackets = false;
  while (peek(I).is(TokenKind::LBracket) &&
         peek(I + 1).is(TokenKind::RBracket)) {
    I += 2;
    SawBrackets = true;
  }
  if (!peek(I).is(TokenKind::RParen))
    return false;
  if (!peek(1).is(TokenKind::Identifier) || SawBrackets)
    return true; // Primitive or array cast is unambiguous.
  // `(expr)` vs `(ClassName) unary`: `-`/`+` after `)` means arithmetic.
  return startsUnaryExpr(peek(I + 1).Kind);
}

ExprPtr Parser::parseUnary() {
  SourceLoc Loc = current().Loc;
  switch (current().Kind) {
  case TokenKind::Minus:
    consume();
    return make<UnaryExpr>(UnaryOp::Neg, parseUnary(), Loc);
  case TokenKind::Not:
    consume();
    return make<UnaryExpr>(UnaryOp::Not, parseUnary(), Loc);
  case TokenKind::Tilde:
    consume();
    return make<UnaryExpr>(UnaryOp::BitNot, parseUnary(), Loc);
  case TokenKind::PlusPlus:
    consume();
    return make<UnaryExpr>(UnaryOp::PreInc, parseUnary(), Loc);
  case TokenKind::MinusMinus:
    consume();
    return make<UnaryExpr>(UnaryOp::PreDec, parseUnary(), Loc);
  case TokenKind::LParen:
    if (startsCast()) {
      consume(); // '('
      TypeRef Target = parseType();
      expect(TokenKind::RParen, "after cast type");
      ExprPtr Operand = parseUnary();
      return make<CastExpr>(Target, Operand, Loc);
    }
    break;
  default:
    break;
  }
  return parsePostfix();
}

ArenaArray<ExprPtr> Parser::parseArgs() {
  size_t Mark = ExprStack.size();
  expect(TokenKind::LParen, "to begin argument list");
  if (!check(TokenKind::RParen)) {
    do {
      ExprPtr Arg = parseExpr();
      ExprStack.push_back(Arg);
    } while (accept(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "to end argument list");
  return takeList(ExprStack, Mark);
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  while (true) {
    SourceLoc Loc = current().Loc;
    if (accept(TokenKind::Dot)) {
      std::string_view Name;
      if (check(TokenKind::Identifier))
        Name = name(consume());
      else
        expect(TokenKind::Identifier, "after '.'");
      if (check(TokenKind::LParen)) {
        ArenaArray<ExprPtr> Args = parseArgs();
        E = make<CallExpr>(E, Name, Args, Loc);
      } else {
        E = make<FieldAccessExpr>(E, Name, Loc);
      }
      continue;
    }
    if (accept(TokenKind::LBracket)) {
      ExprPtr Index = parseExpr();
      expect(TokenKind::RBracket, "after array index");
      E = make<IndexExpr>(E, Index, Loc);
      continue;
    }
    if (check(TokenKind::PlusPlus)) {
      consume();
      E = make<UnaryExpr>(UnaryOp::PostInc, E, Loc);
      continue;
    }
    if (check(TokenKind::MinusMinus)) {
      consume();
      E = make<UnaryExpr>(UnaryOp::PostDec, E, Loc);
      continue;
    }
    return E;
  }
}

ExprPtr Parser::parsePrimary() {
  SourceLoc Loc = current().Loc;
  switch (current().Kind) {
  case TokenKind::IntLiteral:
    return make<IntLiteralExpr>(consume().IntValue, Loc);
  case TokenKind::DoubleLiteral:
    return make<DoubleLiteralExpr>(consume().DoubleValue, Loc);
  case TokenKind::CharLiteral:
    return make<CharLiteralExpr>(static_cast<char>(consume().IntValue), Loc);
  case TokenKind::StringLiteral:
    return make<StringLiteralExpr>(stringBody(consume()), Loc);
  case TokenKind::KwTrue:
    consume();
    return make<BoolLiteralExpr>(true, Loc);
  case TokenKind::KwFalse:
    consume();
    return make<BoolLiteralExpr>(false, Loc);
  case TokenKind::KwNull:
    consume();
    return make<NullLiteralExpr>(Loc);
  case TokenKind::KwThis:
    consume();
    return make<ThisExpr>(Loc);
  case TokenKind::LParen: {
    consume();
    ExprPtr E = parseExpr();
    expect(TokenKind::RParen, "to close parenthesized expression");
    return E;
  }
  case TokenKind::KwNew: {
    consume();
    TypeRef BaseType;
    switch (current().Kind) {
    case TokenKind::KwInt:
      consume();
      BaseType = TypeRef::makePrim(PrimTypeKind::Int, Loc);
      break;
    case TokenKind::KwBoolean:
      consume();
      BaseType = TypeRef::makePrim(PrimTypeKind::Boolean, Loc);
      break;
    case TokenKind::KwDouble:
      consume();
      BaseType = TypeRef::makePrim(PrimTypeKind::Double, Loc);
      break;
    case TokenKind::KwChar:
      consume();
      BaseType = TypeRef::makePrim(PrimTypeKind::Char, Loc);
      break;
    case TokenKind::Identifier:
      BaseType = TypeRef::makeNamed(name(consume()), Loc);
      break;
    default:
      Diags.error(Loc, "expected type after 'new'");
      return make<NullLiteralExpr>(Loc);
    }
    if (check(TokenKind::LParen)) {
      if (BaseType.K != TypeRef::Kind::Named) {
        Diags.error(Loc, "cannot construct a primitive type with 'new'");
        return make<NullLiteralExpr>(Loc);
      }
      ArenaArray<ExprPtr> Args = parseArgs();
      return make<NewObjectExpr>(BaseType.Name, Args, Loc);
    }
    if (accept(TokenKind::LBracket)) {
      ExprPtr Length = parseExpr();
      expect(TokenKind::RBracket, "after array length");
      // Trailing `[]` pairs make the *element* type an array type.
      while (check(TokenKind::LBracket) && peek(1).is(TokenKind::RBracket)) {
        consume();
        consume();
        ++BaseType.ArrayDims;
      }
      return make<NewArrayExpr>(BaseType, Length, Loc);
    }
    Diags.error(current().Loc, "expected '(' or '[' after 'new' type");
    return make<NullLiteralExpr>(Loc);
  }
  case TokenKind::Identifier: {
    std::string_view Name = name(consume());
    if (check(TokenKind::LParen)) {
      ArenaArray<ExprPtr> Args = parseArgs();
      return make<CallExpr>(nullptr, Name, Args, Loc);
    }
    return make<NameExpr>(Name, Loc);
  }
  default:
    break;
  }
  Diags.error(Loc, std::string("expected expression, found ") +
                       tokenKindName(current().Kind));
  consume();
  return make<NullLiteralExpr>(Loc);
}
