//===- support/SourceLoc.h - Source positions -----------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-offset source locations and the SourceManager that maps them back to
/// human-readable line/column pairs for diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SUPPORT_SOURCELOC_H
#define SAFETSA_SUPPORT_SOURCELOC_H

#include <cstdint>
#include <string>

namespace safetsa {

/// A position in a source buffer, as a byte offset.
///
/// Offset 0 is the first byte; an invalid location is represented by
/// SourceLoc() (offset == ~0u), which diagnostics print without position.
struct SourceLoc {
  uint32_t Offset = ~0u;

  SourceLoc() = default;
  explicit SourceLoc(uint32_t Offset) : Offset(Offset) {}

  bool isValid() const { return Offset != ~0u; }

  friend bool operator==(SourceLoc A, SourceLoc B) {
    return A.Offset == B.Offset;
  }
};

/// A half-open range [Begin, End) of source bytes.
struct SourceRange {
  SourceLoc Begin;
  SourceLoc End;

  SourceRange() = default;
  SourceRange(SourceLoc Begin, SourceLoc End) : Begin(Begin), End(End) {}
};

/// Owns a single source buffer and resolves SourceLocs to line/column.
///
/// The reproduction compiles one translation unit (a set of MJ classes in
/// one buffer) at a time, so a single-buffer manager suffices. Only a
/// rendered diagnostic asks for a line, so each query scans the text
/// rather than every compile building a line table.
class SourceManager {
public:
  SourceManager() = default;
  SourceManager(std::string Name, std::string Text)
      : BufferName(std::move(Name)), Text(std::move(Text)) {}

  const std::string &getBufferName() const { return BufferName; }
  const std::string &getText() const { return Text; }

  /// Returns the 1-based line number containing \p Loc.
  unsigned getLine(SourceLoc Loc) const;

  /// Returns the 1-based column number of \p Loc within its line.
  unsigned getColumn(SourceLoc Loc) const;

  /// Returns the full text of the 1-based line \p Line (without newline).
  std::string getLineText(unsigned Line) const;

private:
  std::string BufferName;
  std::string Text;
};

} // namespace safetsa

#endif // SAFETSA_SUPPORT_SOURCELOC_H
