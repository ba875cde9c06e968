//===- lexer/Token.h - MJ tokens ------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds and the Token record produced by the MJ lexer. MJ is the
/// Java-subset source language of this reproduction (see DESIGN.md §2).
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_LEXER_TOKEN_H
#define SAFETSA_LEXER_TOKEN_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <string_view>

namespace safetsa {

enum class TokenKind : uint8_t {
  // Sentinels.
  Eof,
  Unknown,

  // Literals and identifiers.
  Identifier,
  IntLiteral,
  DoubleLiteral,
  CharLiteral,
  StringLiteral,

  // Keywords.
  KwClass,
  KwExtends,
  KwStatic,
  KwFinal,
  KwVoid,
  KwInt,
  KwBoolean,
  KwDouble,
  KwChar,
  KwIf,
  KwElse,
  KwWhile,
  KwDo,
  KwFor,
  KwReturn,
  KwBreak,
  KwContinue,
  KwNew,
  KwThis,
  KwNull,
  KwTrue,
  KwFalse,
  KwInstanceof,
  KwTry,
  KwCatch,

  // Punctuation.
  LBrace,
  RBrace,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Semi,
  Comma,
  Dot,

  // Operators.
  Assign,       // =
  Plus,         // +
  Minus,        // -
  Star,         // *
  Slash,        // /
  Percent,      // %
  Not,          // !
  Tilde,        // ~
  Less,         // <
  Greater,      // >
  LessEqual,    // <=
  GreaterEqual, // >=
  EqualEqual,   // ==
  NotEqual,     // !=
  AmpAmp,       // &&
  PipePipe,     // ||
  Amp,          // &
  Pipe,         // |
  Caret,        // ^
  Shl,          // <<
  Shr,          // >>
  PlusPlus,     // ++
  MinusMinus,   // --
  PlusAssign,   // +=
  MinusAssign,  // -=
  StarAssign,   // *=
  SlashAssign,  // /=
  PercentAssign // %=
};

/// Returns a human-readable spelling for diagnostics ("'{'", "identifier").
const char *tokenKindName(TokenKind Kind);

/// A single lexed token: its kind, its source span and a numeric payload.
///
/// The token is trivially copyable and carries no text of its own: an
/// identifier's or literal's spelling is text(Source), a view of the
/// buffer the lexer read. IntValue holds the value of an integer or char
/// literal and, for a string literal, the length of its unescaped body
/// (unescapeStringLiteral writes that body); DoubleValue holds the value
/// of a double literal.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  SourceLoc Loc;
  uint32_t Length = 0;
  union {
    int64_t IntValue = 0;
    double DoubleValue;
  };

  bool is(TokenKind K) const { return Kind == K; }

  /// The token's spelling in \p Source, the buffer it was lexed from.
  std::string_view text(std::string_view Source) const {
    return Source.substr(Loc.Offset, Length);
  }
};

} // namespace safetsa

#endif // SAFETSA_LEXER_TOKEN_H
