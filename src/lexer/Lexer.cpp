//===- lexer/Lexer.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include <cstdlib>

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

// ASCII classification: MJ identifiers and numbers are ASCII, and these
// tests do not consult the C locale the way <cctype> does.
static bool isDigit(char C) { return static_cast<unsigned char>(C - '0') < 10; }
static bool isIdentStart(char C) {
  return static_cast<unsigned char>((C | 0x20) - 'a') < 26 || C == '_';
}
static bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }
static int hexDigitValue(char C) {
  if (isDigit(C))
    return C - '0';
  unsigned char Lower = static_cast<unsigned char>((C | 0x20) - 'a');
  return Lower < 6 ? Lower + 10 : -1;
}

/// The character the escape sequence backslash-E stands for. An unknown
/// escape stands for E itself (after the lexer has reported it).
static char escapedValue(char E) {
  switch (E) {
  case 'n':
    return '\n';
  case 't':
    return '\t';
  case 'r':
    return '\r';
  case '0':
    return '\0';
  default:
    return E;
  }
}

static bool isKnownEscape(char E) {
  switch (E) {
  case 'n':
  case 't':
  case 'r':
  case '0':
  case '\\':
  case '\'':
  case '"':
    return true;
  default:
    return false;
  }
}

/// Keyword lookup: a switch on the length, then at most six comparisons.
static TokenKind lookupKeyword(std::string_view S) {
  switch (S.size()) {
  case 2:
    if (S == "if")
      return TokenKind::KwIf;
    if (S == "do")
      return TokenKind::KwDo;
    break;
  case 3:
    if (S == "int")
      return TokenKind::KwInt;
    if (S == "for")
      return TokenKind::KwFor;
    if (S == "new")
      return TokenKind::KwNew;
    if (S == "try")
      return TokenKind::KwTry;
    break;
  case 4:
    if (S == "void")
      return TokenKind::KwVoid;
    if (S == "char")
      return TokenKind::KwChar;
    if (S == "else")
      return TokenKind::KwElse;
    if (S == "this")
      return TokenKind::KwThis;
    if (S == "null")
      return TokenKind::KwNull;
    if (S == "true")
      return TokenKind::KwTrue;
    break;
  case 5:
    if (S == "class")
      return TokenKind::KwClass;
    if (S == "final")
      return TokenKind::KwFinal;
    if (S == "while")
      return TokenKind::KwWhile;
    if (S == "break")
      return TokenKind::KwBreak;
    if (S == "false")
      return TokenKind::KwFalse;
    if (S == "catch")
      return TokenKind::KwCatch;
    break;
  case 6:
    if (S == "static")
      return TokenKind::KwStatic;
    if (S == "double")
      return TokenKind::KwDouble;
    if (S == "return")
      return TokenKind::KwReturn;
    break;
  case 7:
    if (S == "extends")
      return TokenKind::KwExtends;
    if (S == "boolean")
      return TokenKind::KwBoolean;
    break;
  case 8:
    if (S == "continue")
      return TokenKind::KwContinue;
    break;
  case 10:
    if (S == "instanceof")
      return TokenKind::KwInstanceof;
    break;
  default:
    break;
  }
  return TokenKind::Identifier;
}

std::vector<Token> Lexer::lexAll() {
  // MJ sources run 2.6-5.1 bytes per token, so half the source length is
  // room for every token: the vector is allocated once, never regrown.
  std::vector<Token> Tokens;
  Tokens.reserve(Text.size() / 2 + 1);
  while (true) {
    Tokens.push_back(lexToken());
    if (Tokens.back().is(TokenKind::Eof))
      break;
  }
  return Tokens;
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
  if (isIdentStart(C))
    return lexIdentifierOrKeyword();
  if (isDigit(C))
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
  while (isIdentChar(peek()))
    ++Pos;
  Token Tok = make(TokenKind::Identifier, Begin);
  Tok.Kind = lookupKeyword(Tok.text(Text));
  return Tok;
}

void Lexer::checkIntRange(Token &Tok, uint64_t Value, uint64_t Max) {
  Tok.IntValue = static_cast<int64_t>(Value);
  if (Value > Max)
    Diags.error(Tok.Loc, "integer literal too large for type 'int'");
}

Token Lexer::lexNumber() {
  size_t Begin = Pos;
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    Pos += 2;
    size_t DigitsBegin = Pos;
    // Accumulation stops once the value is out of range, so a long
    // literal cannot wrap back into it.
    uint64_t Value = 0;
    for (int D; (D = hexDigitValue(peek())) >= 0; ++Pos)
      if (Value <= 0xFFFFFFFFu)
        Value = Value * 16 + static_cast<unsigned>(D);
    Token Tok = make(TokenKind::IntLiteral, Begin);
    if (Pos == DigitsBegin) {
      Diags.error(Tok.Loc, "hexadecimal literal has no digits");
      return Tok;
    }
    // Java's rule: a hex literal names any 32-bit pattern, so
    // 0x80000000-0xFFFFFFFF are the negative ints.
    checkIntRange(Tok, Value, 0xFFFFFFFFu);
    return Tok;
  }

  while (isDigit(peek()))
    ++Pos;
  size_t IntEnd = Pos;

  bool IsDouble = false;
  if (peek() == '.' && isDigit(peek(1))) {
    IsDouble = true;
    ++Pos;
    while (isDigit(peek()))
      ++Pos;
  }
  if (peek() == 'e' || peek() == 'E') {
    size_t Mark = Pos;
    ++Pos;
    if (peek() == '+' || peek() == '-')
      ++Pos;
    if (isDigit(peek())) {
      IsDouble = true;
      while (isDigit(peek()))
        ++Pos;
    } else {
      Pos = Mark; // 'e' belongs to a following identifier, not the number.
    }
  }

  if (IsDouble) {
    Token Tok = make(TokenKind::DoubleLiteral, Begin);
    // The buffer is NUL-terminated and strtod stops exactly where the
    // scan above did: both follow digits [. digits] [e [+-] digits].
    Tok.DoubleValue = std::strtod(Text.c_str() + Begin, nullptr);
    return Tok;
  }
  Token Tok = make(TokenKind::IntLiteral, Begin);
  uint64_t Value = 0;
  for (size_t I = Begin; I != IntEnd; ++I)
    if (Value <= 2147483648u)
      Value = Value * 10 + static_cast<unsigned>(Text[I] - '0');
  // MJ int literals must fit in 32 bits (as a magnitude; '-' is a separate
  // unary operator, and 2147483648 is accepted so that -2147483648 works,
  // matching Java's rule loosely but keeping the lexer context-free).
  checkIntRange(Tok, Value, 2147483648u);
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
  if (!isKnownEscape(E))
    Diags.error(here(), std::string("invalid escape sequence '\\") + E + "'");
  Out = escapedValue(E);
  return true;
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
  int64_t Length = 0;
  char C = 0;
  while (lexEscapedChar('"', C))
    ++Length;
  bool Closed = match('"');
  Token Tok = make(TokenKind::StringLiteral, Begin);
  Tok.IntValue = Length;
  if (!Closed)
    Diags.error(Tok.Loc, "unterminated string literal");
  return Tok;
}

void safetsa::unescapeStringLiteral(std::string_view Spelling, char *Out) {
  // The same walk as Lexer::lexEscapedChar: stop at the closing quote, a
  // newline, the end, or a backslash with nothing after it.
  size_t I = 1;
  while (I < Spelling.size() && Spelling[I] != '"' && Spelling[I] != '\n') {
    char C = Spelling[I++];
    if (C != '\\') {
      *Out++ = C;
      continue;
    }
    if (I == Spelling.size())
      return;
    *Out++ = escapedValue(Spelling[I++]);
  }
}
