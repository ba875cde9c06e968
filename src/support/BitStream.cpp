//===- support/BitStream.cpp ----------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BitStream.h"

#include <algorithm>

using namespace safetsa;

unsigned safetsa::floorLog2(uint64_t X) {
  assert(X >= 1 && "floorLog2 of zero");
  return 63 - __builtin_clzll(X);
}

/// Reverses the low \p Len (1..64) bits of \p X.
static uint64_t reverseBits(uint64_t X, unsigned Len) {
  X = ((X >> 1) & 0x5555555555555555ULL) | ((X & 0x5555555555555555ULL) << 1);
  X = ((X >> 2) & 0x3333333333333333ULL) | ((X & 0x3333333333333333ULL) << 2);
  X = ((X >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((X & 0x0F0F0F0F0F0F0F0FULL) << 4);
  return __builtin_bswap64(X) >> (64 - Len);
}

void BitWriter::writeFixed(uint64_t Value, unsigned NumBits) {
  assert(NumBits <= 64 && "too many bits");
  if (NumBits == 0)
    return;
  if (NumBits < 64)
    Value &= (uint64_t(1) << NumBits) - 1;
  append(Value, NumBits);
}

void BitWriter::writeBounded(uint64_t Value, uint64_t Bound) {
  assert(Bound >= 1 && "empty alphabet");
  assert(Value < Bound && "symbol outside alphabet");
  if (Bound == 1)
    return;
  unsigned K = floorLog2(Bound);
  uint64_t Short = (uint64_t(1) << (K + 1)) - Bound; // Symbols using K bits.
  // The symbol's own bits go MSB-first so that the code is prefix-free: a
  // short symbol's K-bit code never collides with the first K bits of a
  // long symbol's (K+1)-bit code, because long codes are >= Short*2.
  uint64_t Code = Value < Short ? Value : Value + Short;
  unsigned Len = Value < Short ? K : K + 1;
  append(reverseBits(Code, Len), Len);
}

void BitWriter::writeVarUint(uint64_t Value) {
  // Each 8-bit group is the continuation bit, then 7 value bits.
  do {
    uint64_t Group = Value & 0x7f;
    Value >>= 7;
    append(Group << 1 | (Value != 0), 8);
  } while (Value != 0);
}

void BitWriter::writeString(std::string_view Str) {
  writeVarUint(Str.size());
  for (char C : Str)
    append(static_cast<uint8_t>(C), 8);
}

std::vector<uint8_t> BitWriter::take() {
  for (; BitCount > 0; BitCount -= std::min(BitCount, 8u)) {
    Bytes.push_back(static_cast<uint8_t>(BitBuf));
    BitBuf >>= 8;
  }
  BitBuf = 0;
  return std::move(Bytes);
}

namespace {

/// The thread's decode tables, by alphabet size, and the storage their
/// entries live in. Tables depend only on the alphabet size and are
/// immutable once built, so they are shared by every reader on the thread
/// (a batch consumer decodes many modules over the same few dozen
/// alphabet sizes).
struct TableCache {
  BitReader::PrefixTable Tables[BitReader::kMaxTableBound + 1];
  std::vector<uint32_t> Entries[BitReader::kMaxTableBound + 1];

  void build(uint64_t Bound) {
    unsigned K = floorLog2(Bound);
    uint64_t Short = (uint64_t(1) << (K + 1)) - Bound;
    // A power-of-two alphabet has only short (K-bit) codes. Truncated-
    // binary codes are complete, so every window is covered.
    unsigned MaxLen = Short >= Bound ? K : K + 1;
    std::vector<uint32_t> &E = Entries[Bound];
    E.assign(uint64_t(1) << MaxLen, 0);
    for (uint64_t V = 0; V != Bound; ++V) {
      uint64_t Code = V < Short ? V : V + Short;
      unsigned Len = V < Short ? K : K + 1;
      // writeBounded emits code bits MSB-first into an LSB-first-packed
      // stream, so in the reader's peek window the code's MSB is bit 0.
      // Mirror the code into window order, then replicate the entry
      // across every completion of the unused high window bits.
      uint64_t Pattern = 0;
      for (unsigned J = 0; J != Len; ++J)
        Pattern |= ((Code >> (Len - 1 - J)) & 1) << J;
      uint32_t Entry = static_cast<uint32_t>(V) << 8 | Len;
      for (uint64_t Hi = 0; Hi != (uint64_t(1) << (MaxLen - Len)); ++Hi)
        E[Pattern | (Hi << Len)] = Entry;
    }
    Tables[Bound] = {E.data(), MaxLen};
  }
};

thread_local TableCache Cache;

/// What a scalar reader looks tables up in: none is ever built.
const BitReader::PrefixTable NoTables[BitReader::kMaxTableBound + 1] = {};

} // namespace

void BitReader::initTables() { Tables = UseTables ? Cache.Tables : NoTables; }

void BitReader::refillTail() {
  while (BufBits <= 56 && BytePos != NumBytes) {
    Buf |= uint64_t(Data[BytePos++]) << BufBits;
    BufBits += 8;
  }
}

uint64_t BitReader::readFixed(unsigned NumBits) {
  assert(NumBits <= 64 && "too many bits");
  if (NumBits == 0)
    return 0;
  if (NumBits <= 32) {
    uint64_t Value = peek(NumBits);
    consume(NumBits);
    return Value;
  }
  uint64_t Lo = peek(32);
  consume(32);
  uint64_t Hi = peek(NumBits - 32);
  consume(NumBits - 32);
  return Lo | (Hi << 32);
}

uint64_t BitReader::readBoundedSlow(uint64_t Bound) {
  if (UseTables && Bound <= kMaxTableBound) {
    // First use of this alphabet on the thread; later reads take the
    // inline path.
    Cache.build(Bound);
    return readBounded(Bound);
  }
  // Scalar path: rare large alphabets (deep dominator chains, huge
  // blocks) and readers constructed with UseTables off take the direct
  // MSB-first accumulation walk.
  unsigned K = floorLog2(Bound);
  uint64_t Short = (uint64_t(1) << (K + 1)) - Bound;
  uint64_t Value = 0;
  for (unsigned I = 0; I != K; ++I)
    Value = (Value << 1) | readBit();
  if (Value < Short)
    return Value;
  // One more bit disambiguates the long codes; see writeBounded.
  Value = (Value << 1) | readBit();
  return Value - Short;
}

uint64_t BitReader::readVarUint() {
  // Fast path: most wire varuints (operand counts, small lengths) fit one
  // 8-bit group — continuation bit clear, 7 value bits.
  uint64_t First = peek(8);
  if ((First & 1) == 0) {
    consume(8);
    return First >> 1;
  }
  uint64_t Value = 0;
  unsigned Shift = 0;
  bool More = true;
  while (More && Shift < 64) {
    More = readBit();
    Value |= readFixed(7) << Shift;
    Shift += 7;
  }
  return Value;
}

std::string_view BitReader::readString(std::string &Buf) {
  uint64_t Size = readVarUint();
  Buf.clear();
  // Clamp against hostile length fields; the overrun flag will fire anyway
  // on truncated input, but avoid attempting a huge allocation first.
  if (Size > NumBits) {
    Overrun = true;
    return Buf;
  }
  Buf.reserve(Size);
  for (uint64_t I = 0; I != Size; ++I)
    Buf.push_back(static_cast<char>(readFixed(8)));
  return Buf;
}
