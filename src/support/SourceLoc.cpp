//===- support/SourceLoc.cpp ----------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/SourceLoc.h"

#include <algorithm>
#include <cassert>

using namespace safetsa;

unsigned SourceManager::getLine(SourceLoc Loc) const {
  assert(Loc.isValid() && "querying line of invalid location");
  size_t End = std::min<size_t>(Loc.Offset, Text.size());
  return 1 + static_cast<unsigned>(
                 std::count(Text.begin(), Text.begin() + End, '\n'));
}

unsigned SourceManager::getColumn(SourceLoc Loc) const {
  assert(Loc.isValid() && "querying column of invalid location");
  size_t End = std::min<size_t>(Loc.Offset, Text.size());
  size_t NewLine = End ? Text.rfind('\n', End - 1) : std::string::npos;
  size_t LineStart = NewLine == std::string::npos ? 0 : NewLine + 1;
  return static_cast<unsigned>(Loc.Offset - LineStart + 1);
}

std::string SourceManager::getLineText(unsigned Line) const {
  assert(Line >= 1 && "line numbers are 1-based");
  size_t Begin = 0;
  for (unsigned L = 1; L < Line; ++L) {
    size_t NewLine = Text.find('\n', Begin);
    assert(NewLine != std::string::npos && "line out of range");
    Begin = NewLine + 1;
  }
  size_t End = Text.find('\n', Begin);
  return Text.substr(Begin, End == std::string::npos ? End : End - Begin);
}
