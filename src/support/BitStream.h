//===- support/BitStream.h - Bit-granular IO ------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-level writer/reader used by the SafeTSA externalization.
///
/// The paper externalizes a program as "a sequence of symbols, where each
/// symbol is chosen from a finite set determined only by the preceding
/// context", packed with "a simple prefix encoding, which is similar to
/// what would result from using Huffman encoding with fixed equal
/// probabilities for all symbols". A Huffman code over N equiprobable
/// symbols is exactly the truncated-binary code, which writeBounded /
/// readBounded implement: floor(log2 N) bits for the first few symbols and
/// one more for the rest, zero bits when N == 1.
///
/// The reader is built for the consumer load path: it keeps up to 64 bits
/// buffered in a register and decodes bounded symbols through precomputed
/// per-alphabet-size tables (one lookup per symbol) instead of one shift
/// per bit.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SUPPORT_BITSTREAM_H
#define SAFETSA_SUPPORT_BITSTREAM_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace safetsa {

/// Accumulates bits LSB-first into a byte vector.
///
/// Each write appends its whole code to a 64-bit accumulator (bounded
/// codes bit-reversed, since they go MSB-first), and the accumulator is
/// flushed as eight bytes whenever it fills, so a symbol costs a few
/// shifts instead of one call per bit.
class BitWriter {
public:
  void writeBit(bool Bit) { append(static_cast<uint64_t>(Bit), 1); }

  /// Writes the low \p NumBits bits of \p Value, LSB first. NumBits <= 64.
  void writeFixed(uint64_t Value, unsigned NumBits);

  /// Writes \p Value from the alphabet {0, ..., Bound-1} with the
  /// truncated-binary (equal-probability Huffman) code. Bound >= 1; when
  /// Bound == 1 nothing is emitted because the symbol carries no
  /// information.
  void writeBounded(uint64_t Value, uint64_t Bound);

  /// Writes an arbitrary unsigned value as bit-granular LEB128 (7 value
  /// bits + 1 continuation bit per group).
  void writeVarUint(uint64_t Value);

  /// Writes a length-prefixed byte string (for symbolic linking info).
  void writeString(std::string_view Str);

  /// Pads to a byte boundary with zero bits and returns the buffer.
  std::vector<uint8_t> take();

  /// Pre-sizes the output buffer for an expected payload of \p NumBytes,
  /// avoiding reallocation churn on the hot encode path.
  void reserve(size_t NumBytes) { Bytes.reserve(NumBytes); }

  /// Number of bits written so far.
  size_t getBitCount() const { return Bytes.size() * 8 + BitCount; }

private:
  /// Appends the \p NumBits (1..64) low bits of \p Bits, which has no
  /// bits above them, LSB first.
  void append(uint64_t Bits, unsigned NumBits) {
    BitBuf |= Bits << BitCount;
    BitCount += NumBits;
    if (BitCount < 64)
      return;
    flushWord();
    BitCount -= 64;
    // The bits that did not fit: the top BitCount of the NumBits.
    BitBuf = BitCount ? Bits >> (NumBits - BitCount) : 0;
  }

  void flushWord() {
    size_t Size = Bytes.size();
    Bytes.resize(Size + 8);
    for (unsigned I = 0; I != 8; ++I)
      Bytes[Size + I] = static_cast<uint8_t>(BitBuf >> (8 * I));
  }

  std::vector<uint8_t> Bytes;
  uint64_t BitBuf = 0;   ///< Pending bits, the oldest in the LSB.
  unsigned BitCount = 0; ///< Pending bits in BitBuf; always < 64.
};

/// A non-owning view of wire bytes. Batch drivers hand the decoder a span
/// into a shared receive buffer; nothing is copied.
struct ByteSpan {
  const uint8_t *Data = nullptr;
  size_t Size = 0;

  ByteSpan() = default;
  ByteSpan(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  /*implicit*/ ByteSpan(const std::vector<uint8_t> &Bytes)
      : Data(Bytes.data()), Size(Bytes.size()) {}

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
};

/// Decodes a bit stream produced by BitWriter.
///
/// Reads past the end of the buffer set a sticky overrun flag and yield
/// zeros; decoders check hasOverrun() instead of aborting, since truncated
/// input is an expected failure mode for mobile code.
///
/// Up to 64 bits of the stream are buffered in a register; refills load a
/// byte at a time, so the input needs no padding and truncation semantics
/// are exact. The reader does not own the bytes: the caller keeps the
/// buffer alive for the reader's lifetime.
class BitReader {
public:
  /// \p UseTables selects table-driven bounded-symbol decoding; pass
  /// false to force the scalar bit-at-a-time path (the pre-table decoder,
  /// kept as a benchmark baseline and as a differential oracle for the
  /// tables). Both paths consume identical bit counts and produce
  /// identical symbols on every stream, truncated ones included.
  explicit BitReader(ByteSpan Bytes, bool UseTables = true)
      : Data(Bytes.Data), NumBytes(Bytes.Size), NumBits(Bytes.Size * 8),
        UseTables(UseTables) {
    initTables();
  }

  bool readBit() {
    bool Bit = peek(1) != 0;
    consume(1);
    return Bit;
  }

  uint64_t readFixed(unsigned NumBits);

  /// Reads a symbol from the alphabet {0, ..., Bound-1}; inverse of
  /// BitWriter::writeBounded. Returns 0 without reading when Bound == 1.
  /// Alphabets up to kMaxTableBound decode inline with one table lookup
  /// once the thread has built the alphabet's table.
  uint64_t readBounded(uint64_t Bound) {
    assert(Bound >= 1 && "empty alphabet");
    if (Bound <= kMaxTableBound) {
      const PrefixTable &T = Tables[Bound];
      if (T.Entries) {
        uint32_t Entry = T.Entries[peek(T.MaxLen)];
        consume(Entry & 0xff);
        return Entry >> 8;
      }
    }
    return readBoundedSlow(Bound);
  }

  uint64_t readVarUint();
  /// Reads a length-prefixed byte string into \p Buf, replacing what it
  /// held, and returns a view of it.
  std::string_view readString(std::string &Buf);

  bool hasOverrun() const { return Overrun; }

  /// Bits of the stream not yet consumed: those not yet loaded into the
  /// buffer and those in it.
  size_t bitsLeft() const {
    return Overrun ? 0 : NumBits - 8 * BytePos + BufBits;
  }

  /// Largest alphabet decoded through a table; larger bounds fall back to
  /// the bit loop. Bounds this size need 2*Bound table entries, so the
  /// cap keeps the per-alphabet tables in cache.
  static constexpr uint64_t kMaxTableBound = 1024;

  /// The decode table of one truncated-binary alphabet: an entry for
  /// every window of MaxLen upcoming stream bits, giving the symbol that
  /// window starts with and its code length.
  struct PrefixTable {
    /// Symbol << 8 | code length; null until the thread builds it.
    const uint32_t *Entries = nullptr;
    unsigned MaxLen = 0;
  };

private:
  /// Builds the alphabet's table on first use, or reads scalar: bounds
  /// past kMaxTableBound and readers built without tables.
  uint64_t readBoundedSlow(uint64_t Bound);

  /// Returns the next \p N stream bits (LSB = next bit) without consuming
  /// them; bits past the end of the buffer read as zero. N <= 57.
  uint64_t peek(unsigned N) {
    if (BufBits < N)
      refill();
    return Buf & ((uint64_t(1) << N) - 1);
  }

  /// Advances by \p N bits, which the last peek made sure the buffer
  /// holds unless the stream ran out: crossing its end sets the sticky
  /// overrun flag. The consumed count is implicit (8 * BytePos - BufBits),
  /// so a symbol updates two fields.
  void consume(unsigned N) {
    if (N <= BufBits) {
      Buf >>= N;
      BufBits -= N;
    } else {
      // Only reachable when the stream is exhausted (refill tops the
      // buffer to >= 57 bits otherwise); the zero fill stands in for the
      // missing bits.
      Overrun = true;
      Buf = 0;
      BufBits = 0;
    }
  }

  void refill() {
    // Fast path: splat the next eight bytes over the buffer in one load.
    // Bits above BufBits that were already present are re-ORed with the
    // same stream bytes (BytePos only advances by whole bytes actually
    // accounted for), so the OR is idempotent and the buffer may hold a
    // few valid-but-uncounted bits — peek() masks them off.
    if constexpr (std::endian::native == std::endian::little) {
      if (BytePos + 8 <= NumBytes) {
        uint64_t Word;
        std::memcpy(&Word, Data + BytePos, 8);
        Buf |= Word << BufBits;
        BytePos += (63 - BufBits) >> 3;
        BufBits |= 56;
        return;
      }
    }
    refillTail();
  }
  /// Loads the last bytes of the stream a byte at a time.
  void refillTail();

  /// Binds this reader to the thread's shared prefix-table cache (or, for
  /// a scalar reader, to tables that are never built) so the hot symbol
  /// loop avoids a thread-local lookup per symbol.
  void initTables();

  const uint8_t *Data = nullptr;
  size_t NumBytes = 0;
  size_t NumBits = 0;
  size_t BytePos = 0;   ///< Next byte to load into the buffer.
  uint64_t Buf = 0;     ///< Unconsumed stream bits, next bit in the LSB.
  unsigned BufBits = 0; ///< Valid bits in Buf.
  bool Overrun = false;
  bool UseTables = true;
  /// The thread's decode tables by alphabet size (kMaxTableBound + 1 of
  /// them, built lazily), resolved once at construction instead of per
  /// readBounded call.
  const PrefixTable *Tables = nullptr;
};

/// Returns floor(log2(X)) for X >= 1.
unsigned floorLog2(uint64_t X);

} // namespace safetsa

#endif // SAFETSA_SUPPORT_BITSTREAM_H
