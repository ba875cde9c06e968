//===- lexer/Lexer.h - MJ lexer -------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for MJ. Produces the full token vector up front;
/// compilation units are small enough that streaming buys nothing.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_LEXER_LEXER_H
#define SAFETSA_LEXER_LEXER_H

#include "lexer/Token.h"
#include "support/Diagnostics.h"

#include <vector>

namespace safetsa {

/// Turns an MJ source buffer into tokens.
///
/// Malformed input produces diagnostics plus best-effort tokens (an Unknown
/// token per bad character), so the parser can keep going and report more.
class Lexer {
public:
  Lexer(const std::string &Text, DiagnosticEngine &Diags)
      : Text(Text), Diags(Diags) {}
  /// The buffer is held by reference and must outlive the Lexer.
  Lexer(std::string &&, DiagnosticEngine &) = delete;

  /// Lexes the whole buffer. The result always ends with an Eof token.
  std::vector<Token> lexAll();

private:
  Token lexToken();
  Token lexIdentifierOrKeyword();
  Token lexNumber();
  Token lexCharLiteral();
  Token lexStringLiteral();

  /// Decodes one (possibly escaped) character of a char/string literal
  /// body; reports bad escapes. Returns false at the closing quote or EOF.
  bool lexEscapedChar(char Quote, char &Out);
  /// Reports an integer literal beyond MJ's 32-bit range.
  void checkIntRange(Token &Tok, uint64_t Value, uint64_t Max);

  void skipWhitespaceAndComments();

  char peek(unsigned Ahead = 0) const {
    return Pos + Ahead < Text.size() ? Text[Pos + Ahead] : '\0';
  }
  char advance() { return Text[Pos++]; }
  bool match(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }
  SourceLoc here() const { return SourceLoc(static_cast<uint32_t>(Pos)); }
  bool atEnd() const { return Pos >= Text.size(); }

  Token make(TokenKind Kind, size_t Begin) const {
    Token Tok;
    Tok.Kind = Kind;
    Tok.Loc = SourceLoc(static_cast<uint32_t>(Begin));
    Tok.Length = static_cast<uint32_t>(Pos - Begin);
    return Tok;
  }

  const std::string &Text;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
};

/// Writes the unescaped body of a string literal whose spelling (opening
/// quote included) is \p Spelling to \p Out, which has room for the
/// token's IntValue bytes. The lexer has already reported any bad escape;
/// this repeats its decoding without diagnostics.
void unescapeStringLiteral(std::string_view Spelling, char *Out);

} // namespace safetsa

#endif // SAFETSA_LEXER_LEXER_H
