//===- tests/support_test.cpp - Support library tests ---------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BitStream.h"
#include "support/Diagnostics.h"
#include "support/ShardedCounter.h"
#include "support/SourceLoc.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace safetsa;

namespace {

//===----------------------------------------------------------------------===//
// BitStream
//===----------------------------------------------------------------------===//

TEST(BitStream, SingleBits) {
  BitWriter W;
  bool Pattern[] = {true, false, true, true, false, false, true, false,
                    true, true, true};
  for (bool B : Pattern)
    W.writeBit(B);
  std::vector<uint8_t> Bytes = W.take();
  BitReader R(Bytes);
  for (bool B : Pattern)
    EXPECT_EQ(R.readBit(), B);
  EXPECT_FALSE(R.hasOverrun());
}

TEST(BitStream, FixedFields) {
  BitWriter W;
  W.writeFixed(0xdeadbeefcafe1234ull, 64);
  W.writeFixed(0x2a, 7);
  W.writeFixed(1, 1);
  std::vector<uint8_t> Bytes = W.take();
  BitReader R(Bytes);
  EXPECT_EQ(R.readFixed(64), 0xdeadbeefcafe1234ull);
  EXPECT_EQ(R.readFixed(7), 0x2au);
  EXPECT_EQ(R.readFixed(1), 1u);
}

TEST(BitStream, BoundedIsPrefixFreeAndExact) {
  // Exhaustive check for small alphabets: every symbol round-trips, and
  // symbol sizes match the truncated-binary code lengths.
  for (uint64_t Bound = 1; Bound <= 40; ++Bound) {
    BitWriter W;
    for (uint64_t V = 0; V < Bound; ++V)
      W.writeBounded(V, Bound);
    std::vector<uint8_t> Bytes = W.take();
    BitReader R(Bytes);
    for (uint64_t V = 0; V < Bound; ++V)
      EXPECT_EQ(R.readBounded(Bound), V) << "bound " << Bound;
    EXPECT_FALSE(R.hasOverrun());
  }
}

TEST(BitStream, BoundedOneSymbolAlphabetIsFree) {
  BitWriter W;
  for (int I = 0; I < 1000; ++I)
    W.writeBounded(0, 1);
  EXPECT_EQ(W.getBitCount(), 0u);
}

TEST(BitStream, BoundedUsesFloorLog2Bits) {
  // A power-of-two alphabet uses exactly log2(N) bits per symbol.
  BitWriter W;
  for (uint64_t V = 0; V < 16; ++V)
    W.writeBounded(V, 16);
  EXPECT_EQ(W.getBitCount(), 16 * 4u);
}

TEST(BitStream, VarUintRoundTrip) {
  uint64_t Cases[] = {0,    1,    127,        128,
                      255,  300,  (1u << 14), (1ull << 35),
                      ~0ull};
  BitWriter W;
  for (uint64_t V : Cases)
    W.writeVarUint(V);
  std::vector<uint8_t> Bytes = W.take();
  BitReader R(Bytes);
  for (uint64_t V : Cases)
    EXPECT_EQ(R.readVarUint(), V);
}

TEST(BitStream, StringRoundTrip) {
  BitWriter W;
  W.writeString("hello");
  W.writeString("");
  W.writeString(std::string("emb\0edded", 9));
  std::vector<uint8_t> Bytes = W.take();
  BitReader R(Bytes);
  std::string Buf;
  EXPECT_EQ(R.readString(Buf), "hello");
  EXPECT_EQ(R.readString(Buf), "");
  EXPECT_EQ(R.readString(Buf), std::string("emb\0edded", 9));
}

TEST(BitStream, OverrunIsStickyAndSafe) {
  std::vector<uint8_t> Bytes = {0xff};
  BitReader R(Bytes);
  R.readFixed(8);
  EXPECT_FALSE(R.hasOverrun());
  R.readBit();
  EXPECT_TRUE(R.hasOverrun());
  // Further reads keep returning zeros without crashing.
  EXPECT_EQ(R.readFixed(64), 0u);
  EXPECT_TRUE(R.hasOverrun());
}

TEST(BitStream, HostileStringLengthDoesNotAllocate) {
  // A declared length far beyond the buffer must set overrun, not OOM.
  BitWriter W;
  W.writeVarUint(~0ull >> 8);
  std::vector<uint8_t> Bytes = W.take();
  BitReader R(Bytes);
  std::string Buf;
  EXPECT_TRUE(R.readString(Buf).empty());
  EXPECT_TRUE(R.hasOverrun());
  EXPECT_EQ(Buf.capacity(), std::string().capacity());
}

/// Property sweep: random (value, bound) sequences round-trip.
class BitStreamFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitStreamFuzz, RandomBoundedSequenceRoundTrips) {
  std::mt19937_64 Rng(GetParam());
  std::vector<std::pair<uint64_t, uint64_t>> Seq;
  BitWriter W;
  for (int I = 0; I < 500; ++I) {
    uint64_t Bound = 1 + Rng() % 1000;
    uint64_t V = Rng() % Bound;
    Seq.push_back({V, Bound});
    W.writeBounded(V, Bound);
  }
  std::vector<uint8_t> Bytes = W.take();
  BitReader R(Bytes);
  for (auto [V, Bound] : Seq)
    ASSERT_EQ(R.readBounded(Bound), V);
  EXPECT_FALSE(R.hasOverrun());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitStreamFuzz,
                         ::testing::Range(1u, 21u));

/// The bit-serial writer that BitWriter's word-at-a-time appends replaced,
/// kept as their reference model: one bit per step, bounded codes
/// MSB-first, floor(log2) by shifting.
class SerialBitWriter {
public:
  void writeBit(bool Bit) {
    Buf |= static_cast<uint8_t>(Bit) << Count;
    if (++Count == 8)
      flush();
  }
  void writeFixed(uint64_t Value, unsigned NumBits) {
    for (unsigned I = 0; I != NumBits; ++I)
      writeBit((Value >> I) & 1);
  }
  void writeBounded(uint64_t Value, uint64_t Bound) {
    if (Bound == 1)
      return;
    unsigned K = 0;
    while (Bound >> (K + 1))
      ++K;
    uint64_t Short = (uint64_t(1) << (K + 1)) - Bound;
    uint64_t Code = Value < Short ? Value : Value + Short;
    unsigned Len = Value < Short ? K : K + 1;
    for (unsigned I = Len; I != 0; --I)
      writeBit((Code >> (I - 1)) & 1);
  }
  void writeVarUint(uint64_t Value) {
    do {
      uint64_t Group = Value & 0x7f;
      Value >>= 7;
      writeBit(Value != 0);
      writeFixed(Group, 7);
    } while (Value != 0);
  }
  void writeString(const std::string &Str) {
    writeVarUint(Str.size());
    for (char C : Str)
      writeFixed(static_cast<uint8_t>(C), 8);
  }
  std::vector<uint8_t> take() {
    if (Count != 0)
      flush();
    return std::move(Bytes);
  }
  size_t getBitCount() const { return Bytes.size() * 8 + Count; }

private:
  void flush() {
    Bytes.push_back(Buf);
    Buf = 0;
    Count = 0;
  }
  std::vector<uint8_t> Bytes;
  uint8_t Buf = 0;
  unsigned Count = 0;
};

/// BitWriter against the serial model on random mixed sequences: single
/// bits, fixed fields of 0-64 bits (with junk above the field), bounded
/// symbols up to 2^40, varuints of every magnitude and strings.
TEST_P(BitStreamFuzz, WordWriterMatchesSerialModel) {
  std::mt19937_64 Rng(GetParam());
  BitWriter W;
  SerialBitWriter Ref;
  for (int I = 0; I < 3000; ++I) {
    switch (Rng() % 5) {
    case 0: {
      bool B = Rng() & 1;
      W.writeBit(B);
      Ref.writeBit(B);
      break;
    }
    case 1: {
      unsigned N = Rng() % 65;
      uint64_t V = Rng();
      W.writeFixed(V, N);
      Ref.writeFixed(V, N);
      break;
    }
    case 2: {
      uint64_t Bound = 1 + (Rng() >> (24 + Rng() % 40));
      uint64_t V = Rng() % Bound;
      W.writeBounded(V, Bound);
      Ref.writeBounded(V, Bound);
      break;
    }
    case 3: {
      uint64_t V = Rng() >> (Rng() % 64);
      W.writeVarUint(V);
      Ref.writeVarUint(V);
      break;
    }
    default: {
      std::string Str(Rng() % 40, '\0');
      for (char &C : Str)
        C = static_cast<char>(Rng());
      W.writeString(Str);
      Ref.writeString(Str);
      break;
    }
    }
    ASSERT_EQ(W.getBitCount(), Ref.getBitCount()) << "after op " << I;
  }
  EXPECT_EQ(W.take(), Ref.take());
}

TEST(BitStream, FloorLog2) {
  EXPECT_EQ(floorLog2(1), 0u);
  EXPECT_EQ(floorLog2(2), 1u);
  EXPECT_EQ(floorLog2(3), 1u);
  EXPECT_EQ(floorLog2(4), 2u);
  EXPECT_EQ(floorLog2(1023), 9u);
  EXPECT_EQ(floorLog2(1024), 10u);
  EXPECT_EQ(floorLog2(~0ull), 63u);
}

//===----------------------------------------------------------------------===//
// SourceManager
//===----------------------------------------------------------------------===//

TEST(SourceManager, LineAndColumn) {
  SourceManager SM("test.mj", "abc\ndef\n\nxy");
  EXPECT_EQ(SM.getLine(SourceLoc(0)), 1u);
  EXPECT_EQ(SM.getColumn(SourceLoc(0)), 1u);
  EXPECT_EQ(SM.getLine(SourceLoc(2)), 1u);
  EXPECT_EQ(SM.getColumn(SourceLoc(2)), 3u);
  EXPECT_EQ(SM.getLine(SourceLoc(4)), 2u); // 'd'
  EXPECT_EQ(SM.getColumn(SourceLoc(4)), 1u);
  EXPECT_EQ(SM.getLine(SourceLoc(8)), 3u); // empty line position
  EXPECT_EQ(SM.getLine(SourceLoc(9)), 4u); // 'x'
  EXPECT_EQ(SM.getColumn(SourceLoc(10)), 2u);
}

TEST(SourceManager, LineText) {
  SourceManager SM("t", "first\nsecond\nlast");
  EXPECT_EQ(SM.getLineText(1), "first");
  EXPECT_EQ(SM.getLineText(2), "second");
  EXPECT_EQ(SM.getLineText(3), "last");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CountsAndSeverities) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.warning(SourceLoc(0), "watch out");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(1), "boom");
  D.note(SourceLoc(2), "related");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.getNumErrors(), 1u);
  EXPECT_EQ(D.getDiagnostics().size(), 3u);
  EXPECT_TRUE(D.containsMessage("boom"));
  EXPECT_FALSE(D.containsMessage("quiet"));
}

TEST(Diagnostics, RenderWithCaret) {
  SourceManager SM("file.mj", "int x = ;\n");
  DiagnosticEngine D;
  D.error(SourceLoc(8), "expected expression");
  std::string Out = D.render(&SM);
  EXPECT_NE(Out.find("file.mj:1:9: error: expected expression"),
            std::string::npos);
  EXPECT_NE(Out.find("^"), std::string::npos);
}

TEST(Diagnostics, RenderWithoutLocation) {
  DiagnosticEngine D;
  D.error(SourceLoc(), "global problem");
  std::string Out = D.render(nullptr);
  EXPECT_EQ(Out, "error: global problem\n");
}

TEST(ShardedCounter, SingleThreadedSumIsExact) {
  ShardedCounter C;
  EXPECT_EQ(C.sum(), 0u);
  for (unsigned I = 0; I != 1000; ++I)
    C.add();
  C.add(42);
  EXPECT_EQ(C.sum(), 1042u);
}

// The exactness contract the STATS wire relies on: N threads x M adds
// (with varying deltas) sum to exactly the arithmetic total once the
// writers are joined — striping spreads contention but never loses or
// double-counts an increment.
TEST(ShardedCounter, ConcurrentAddsSumExactly) {
  constexpr unsigned kThreads = 8, kAdds = 10000;
  ShardedCounter C;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != kThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != kAdds; ++I)
        C.add(1 + (T + I) % 3);
    });
  for (auto &Thr : Threads)
    Thr.join();
  uint64_t Expected = 0;
  for (unsigned T = 0; T != kThreads; ++T)
    for (unsigned I = 0; I != kAdds; ++I)
      Expected += 1 + (T + I) % 3;
  EXPECT_EQ(C.sum(), Expected);
}

// Thread ordinals are stable within a thread and distinct enough that a
// fresh thread gets a fresh ordinal (the property Profile's stripe
// assignment shares).
TEST(ShardedCounter, ThreadStripeIsStablePerThread) {
  unsigned Here1 = ShardedCounter::threadStripe();
  unsigned Here2 = ShardedCounter::threadStripe();
  EXPECT_EQ(Here1, Here2);
  unsigned There = 0;
  std::thread([&] { There = ShardedCounter::threadStripe(); }).join();
  EXPECT_NE(Here1, There);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool Pool(4);
  std::atomic<int> Sum{0};
  for (int I = 1; I <= 100; ++I)
    Pool.submit([&Sum, I] { Sum += I; });
  Pool.wait();
  EXPECT_EQ(Sum.load(), 5050);
}

} // namespace
