//===- tests/codec_test.cpp - Wire-format tests ---------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encode/decode round trips, structural fidelity, and hostile-input
/// robustness: random mutations and truncations of wire images must never
/// crash the decoder and never produce an unverifiable module.
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "exec/TSAInterp.h"
#include "opt/Optimizer.h"
#include "support/ThreadPool.h"
#include "tsa/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <thread>

using namespace safetsa;

namespace {

std::unique_ptr<CompiledProgram> compile(const std::string &Src) {
  auto P = compileMJ("codec.mj", Src);
  EXPECT_TRUE(P->ok()) << P->renderDiagnostics();
  return P;
}

std::string runDecoded(const DecodedUnit &Unit) {
  Runtime RT(*Unit.Table);
  TSAInterpreter I(*Unit.Module, RT);
  ExecResult R = I.runMain();
  EXPECT_EQ(R.Err, RuntimeError::None) << runtimeErrorName(R.Err);
  return RT.getOutput();
}

const char *DemoSrc =
    "class Pair { int a; int b; Pair(int x, int y) { a = x; b = y; } "
    "  int sum() { return a + b; } } "
    "class Main { static double half = 0.5; "
    "  static void main() { Pair p = new Pair(3, 4); "
    "    int[] xs = new int[4]; "
    "    for (int i = 0; i < xs.length; i++) xs[i] = p.sum() * i; "
    "    IO.printInt(xs[3]); IO.printDouble(half); "
    "    IO.printStr(\"ok\"); } }";

TEST(Codec, RoundTripPreservesStructureAndBehaviour) {
  auto P = compile(DemoSrc);
  unsigned Insts = P->TSA->countInstructions();
  unsigned Phis = P->TSA->countOpcode(Opcode::Phi);
  unsigned Checks = P->TSA->countOpcode(Opcode::NullCheck);

  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  std::string Err;
  auto Unit = decodeModule(Wire, &Err);
  ASSERT_TRUE(Unit) << Err;

  EXPECT_EQ(Unit->Module->countInstructions(), Insts);
  EXPECT_EQ(Unit->Module->countOpcode(Opcode::Phi), Phis);
  EXPECT_EQ(Unit->Module->countOpcode(Opcode::NullCheck), Checks);
  EXPECT_EQ(Unit->Module->Methods.size(), P->TSA->Methods.size());

  TSAVerifier V(*Unit->Module);
  EXPECT_TRUE(V.verify());
  EXPECT_EQ(runDecoded(*Unit), "210.5ok");
}

TEST(Codec, EncodingIsDeterministic) {
  auto P1 = compile(DemoSrc);
  auto P2 = compile(DemoSrc);
  EXPECT_EQ(encodeModule(*P1->TSA), encodeModule(*P2->TSA));
}

TEST(Codec, ReEncodingDecodedModuleIsStable) {
  auto P = compile(DemoSrc);
  std::vector<uint8_t> Wire1 = encodeModule(*P->TSA);
  std::string Err;
  auto Unit = decodeModule(Wire1, &Err);
  ASSERT_TRUE(Unit) << Err;
  std::vector<uint8_t> Wire2 = encodeModule(*Unit->Module);
  EXPECT_EQ(Wire1, Wire2) << "decode/encode must be a fixpoint";
}

TEST(Codec, DecodedTableRebuildsLayoutsAndVTables) {
  auto P = compile(
      "class A { int x; int f() { return 1; } } "
      "class B extends A { int y; int f() { return 2; } "
      "int g() { return 3; } } "
      "class Main { static void main() { A a = new B(); "
      "IO.printInt(a.f()); } }");
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  std::string Err;
  auto Unit = decodeModule(Wire, &Err);
  ASSERT_TRUE(Unit) << Err;
  ClassSymbol *B = Unit->Table->lookup("B");
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->InstanceLayout.size(), 2u);
  EXPECT_EQ(B->VTable.size(), 2u);
  EXPECT_EQ(B->VTable[0]->Owner, B) << "override installed in slot 0";
  EXPECT_EQ(runDecoded(*Unit), "2");
}

TEST(Codec, StaticInitsSurviveTheTrip) {
  auto P = compile(
      "class K { static int a = 41; static char c = 'z'; "
      "static double d = 1.25; static boolean b = true; } "
      "class Main { static void main() { IO.printInt(K.a); "
      "IO.printChar(K.c); IO.printDouble(K.d); IO.printBool(K.b); } }");
  auto Unit = decodeModule(encodeModule(*P->TSA), nullptr);
  ASSERT_TRUE(Unit);
  EXPECT_EQ(runDecoded(*Unit), "41z1.25true");
}

/// A null static of a class with several fields, dereferenced as such:
/// the shape an ill-typed initializer would turn into a heap overflow.
const char *StaticProbeSrc =
    "class Foo { int a; int b; int c; int d; int e; int f; int g; int h; } "
    "class Main { static Foo p = null; static void main() { Foo q = p; "
    "if (q != null) { q.h = 12345; IO.printInt(q.h); } } }";

// A static initializer is stored into its field as is, so fused decode
// must reject one whose constant does not have the field's type: here a
// string planted in a Foo field, which would make the program's field
// writes land past the string's cell.
TEST(Codec, StaticInitMustHaveItsFieldsType) {
  auto P = compile(StaticProbeSrc);
  ASSERT_EQ(P->TSA->StaticInits.size(), 1u);
  std::string Err;
  ASSERT_TRUE(decodeModule(encodeModule(*P->TSA), &Err)) << Err;
  P->TSA->StaticInits[0].second = ConstantValue::makeString("x");
  auto Unit = decodeModule(encodeModule(*P->TSA), &Err);
  EXPECT_FALSE(Unit) << "fused decode accepted a string in a Foo field";
  EXPECT_NE(Err.find("static initializer"), std::string::npos) << Err;
  // An int in the same field is just as foreign.
  P->TSA->StaticInits[0].second = ConstantValue::makeInt(7);
  EXPECT_FALSE(decodeModule(encodeModule(*P->TSA), &Err));
}

// Shared builtin types are read, never written, by compiles and decodes:
// four threads at once each compile a module naming arrays of every
// builtin element type up to the wire's depth limit (no thread has named
// them before) and decode it repeatedly, and all get the same shared
// types. Under TSan (codec_test_tsan) this is the race check for the
// shared state: a cache written lazily on a shared type is a data race.
TEST(Codec, ConcurrentDecodesShareBuiltinArrayTypes) {
  std::string Dims;
  for (unsigned D = 0; D != MaxWireArrayDepth; ++D)
    Dims += "[]";
  std::string Src = "class Main { ";
  for (const char *Elem : {"int", "boolean", "double", "char", "Object"})
    Src += std::string("static ") + Elem + Dims + " f" + Elem + "; " +
           "static " + Elem + "[] g" + Elem + "; ";
  Src += "static void main() { IO.printInt(1); } }";

  constexpr unsigned Threads = 4, Rounds = 25;
  std::vector<std::vector<const Type *>> FieldTypes(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      auto P = compileMJ("codec.mj", Src);
      ASSERT_TRUE(P->ok()) << P->renderDiagnostics();
      std::vector<uint8_t> Wire = encodeModule(*P->TSA);
      for (unsigned R = 0; R != Rounds; ++R) {
        std::string Err;
        auto Unit = decodeModule(Wire, &Err);
        ASSERT_TRUE(Unit) << Err;
        if (R == 0)
          for (const auto &F : Unit->Table->lookup("Main")->Fields)
            FieldTypes[T].push_back(F->Ty);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  ASSERT_EQ(FieldTypes[0].size(), 10u);
  for (unsigned T = 1; T != Threads; ++T)
    EXPECT_EQ(FieldTypes[T], FieldTypes[0]) << "thread " << T;
}

TEST(Codec, OptimizedModulesRoundTrip) {
  for (const CorpusProgram &Prog :
       {*findCorpusProgram("BitSieve"), *findCorpusProgram("Parser")}) {
    auto P = compile(Prog.Source);
    optimizeModule(*P->TSA);
    std::string Err;
    auto Unit = decodeModule(encodeModule(*P->TSA), &Err);
    ASSERT_TRUE(Unit) << Err;
    TSAVerifier V(*Unit->Module);
    EXPECT_TRUE(V.verify());
  }
}

/// Compile, optionally optimize, encode in \p Mode and fused-decode one
/// corpus program; returns the wire bytes, empty when a stage failed.
std::vector<uint8_t> pipelineBytes(const CorpusProgram &Prog, CodecMode Mode,
                                   bool Optimize) {
  auto P = compileMJ(Prog.Name, Prog.Source);
  if (!P->ok())
    return {};
  if (Optimize)
    optimizeModule(*P->TSA);
  std::vector<uint8_t> Wire = encodeModule(*P->TSA, Mode);
  std::string Err;
  if (!decodeModule(Wire, &Err, Mode))
    return {};
  return Wire;
}

// Compilation units share no mutable state: each compile owns its
// tables and each decode builds private ones. So the corpus pushed
// through the pipeline on a 4-worker pool yields the bytes of a
// sequential run, in both codec modes, plain and optimized. Under TSan
// (codec_test_tsan) this is the race check for that path.
TEST(Codec, PooledPipelineMatchesSequentialBytes) {
  const std::vector<CorpusProgram> &Corpus = getCorpus();
  for (CodecMode Mode : {CodecMode::Prefix, CodecMode::Naive})
    for (bool Optimize : {false, true}) {
      std::vector<std::vector<uint8_t>> Pooled(Corpus.size());
      {
        ThreadPool Pool(4);
        for (size_t I = 0; I != Corpus.size(); ++I)
          Pool.submit([&, I] {
            Pooled[I] = pipelineBytes(Corpus[I], Mode, Optimize);
          });
        Pool.wait();
      }
      for (size_t I = 0; I != Corpus.size(); ++I) {
        std::vector<uint8_t> Sequential =
            pipelineBytes(Corpus[I], Mode, Optimize);
        ASSERT_FALSE(Sequential.empty()) << Corpus[I].Name;
        EXPECT_EQ(Pooled[I], Sequential)
            << Corpus[I].Name << (Mode == CodecMode::Naive ? " naive" : "")
            << (Optimize ? " optimized" : "");
      }
    }
}

TEST(Codec, PrefixModeIsSmallerThanNaive) {
  auto P = compile(DemoSrc);
  size_t Prefix = encodeModule(*P->TSA, CodecMode::Prefix).size();
  size_t Naive = encodeModule(*P->TSA, CodecMode::Naive).size();
  EXPECT_LT(Prefix, Naive);
}

//===----------------------------------------------------------------------===//
// Hostile inputs
//===----------------------------------------------------------------------===//

TEST(Codec, RejectsGarbageAndEmpty) {
  std::string Err;
  EXPECT_EQ(decodeModule({}, &Err), nullptr);
  EXPECT_EQ(decodeModule({0x00}, &Err), nullptr);
  std::vector<uint8_t> Junk(256, 0xA5);
  EXPECT_EQ(decodeModule(Junk, &Err), nullptr);
}

TEST(Codec, RejectsWrongMagicOrVersion) {
  auto P = compile(DemoSrc);
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  {
    std::vector<uint8_t> Bad = Wire;
    Bad[0] ^= 0xff;
    std::string Err;
    EXPECT_EQ(decodeModule(Bad, &Err), nullptr);
    EXPECT_EQ(Err, "bad magic");
  }
  {
    std::vector<uint8_t> Bad = Wire;
    Bad[4] ^= 0xff; // Version field (little-end bit order in stream).
    std::string Err;
    EXPECT_EQ(decodeModule(Bad, &Err), nullptr);
  }
}

TEST(Codec, TruncationAtEveryLengthIsHandled) {
  auto P = compile(DemoSrc);
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  for (size_t Len = 0; Len < Wire.size(); ++Len) {
    std::vector<uint8_t> Cut(Wire.begin(), Wire.begin() + Len);
    std::string Err;
    auto Unit = decodeModule(Cut, &Err);
    if (Unit) {
      // Decoding may succeed if the tail was padding; the module must
      // still verify.
      TSAVerifier V(*Unit->Module);
      EXPECT_TRUE(V.verify()) << "truncated-at-" << Len;
    }
  }
}

// Negative-path table: every hostile stream shape must be rejected
// *cleanly* — a typed (non-empty, human-readable) error, identical
// verdicts from the table-driven and scalar bit readers, and no
// allocation sized by attacker-controlled length fields. The last
// property is what the _asan variant of this test proves: a decoder
// that reserved `claimed count` elements up front would trip the
// sanitizer allocator long before the plausibility check fired.
TEST(CodecNegative, HostileStreamTableFailsCleanly) {
  auto P = compile(DemoSrc);
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  ASSERT_GT(Wire.size(), 16u);

  struct Case {
    std::string Name;
    std::vector<uint8_t> Bytes;
  };
  std::vector<Case> Cases;

  // Truncations at structurally interesting lengths: inside the magic,
  // right after the 6-byte header, mid-class-section, mid-bodies, and
  // one byte short of complete.
  for (size_t Len : {size_t(3), size_t(6), size_t(7), Wire.size() / 4,
                     Wire.size() / 2, Wire.size() - 1})
    Cases.push_back({"truncated-at-" + std::to_string(Len),
                     {Wire.begin(), Wire.begin() + long(Len)}});

  // Oversized length fields: stomp the bytes right after the header
  // (where the class-section counts live) with 0xFF so every varuint
  // reads as an enormous claimed count.
  for (size_t Stomp : {size_t(1), size_t(4), size_t(8)}) {
    Case C{"oversized-counts-" + std::to_string(Stomp), Wire};
    for (size_t I = 0; I != Stomp && 6 + I < C.Bytes.size(); ++I)
      C.Bytes[6 + I] = 0xFF;
    Cases.push_back(std::move(C));
  }
  // A header followed by nothing but 0xFF: maximal counts everywhere,
  // at every nesting level the decoder reaches.
  {
    Case C{"header-plus-ff", {Wire.begin(), Wire.begin() + 6}};
    C.Bytes.insert(C.Bytes.end(), 64, 0xFF);
    Cases.push_back(std::move(C));
  }

  for (const Case &C : Cases) {
    for (bool Table : {true, false}) {
      DecodeOptions DO;
      DO.TableDecode = Table;
      std::string Err;
      auto Unit = decodeModule(ByteSpan(C.Bytes), &Err, DO);
      if (Unit) {
        // A tail-only stomp can land in padding; the module must then be
        // fully intact (fused decode == verified) and re-encode stably.
        EXPECT_EQ(encodeModule(*Unit->Module),
                  encodeModule(*Unit->Module))
            << C.Name;
        continue;
      }
      EXPECT_FALSE(Err.empty())
          << C.Name << ": rejected without a typed error";
    }
    // Both readers must agree on the verdict (accept xor typed reject).
    std::string E1, E2;
    DecodeOptions Scalar;
    Scalar.TableDecode = false;
    bool A1 = decodeModule(ByteSpan(C.Bytes), &E1, DecodeOptions{}) != nullptr;
    bool A2 = decodeModule(ByteSpan(C.Bytes), &E2, Scalar) != nullptr;
    EXPECT_EQ(A1, A2) << C.Name << ": table=" << A1 << " scalar=" << A2;
  }
}

// A block may declare up to 2^20 instructions, but every instruction
// costs at least one bit of stream, so a count the rest of the stream
// cannot hold is rejected before anything is sized from it. Built on the
// byte-aligned Naive encoding of a method with two empty blocks: the
// second block's count becomes 2^20 - 1 and the stream ends there.
TEST(CodecNegative, HugeInstructionCountIsRejectedBeforeSizing) {
  auto P = compile("class Main { static void main() { } }");
  std::vector<uint8_t> Wire = encodeModule(*P->TSA, CodecMode::Naive);
  ASSERT_GE(Wire.size(), 2u);
  ASSERT_EQ(Wire[Wire.size() - 2], 0u); // Entry block: no instructions.
  ASSERT_EQ(Wire.back(), 0u);           // Body block: no instructions.
  Wire.pop_back();
  // LEB128 with the continuation flag in the low bit, 7 bits per byte.
  for (uint8_t B : {0xFF, 0xFF, 0x7E})
    Wire.push_back(B);
  DecodeOptions DO;
  DO.Mode = CodecMode::Naive;
  std::string Err;
  EXPECT_FALSE(decodeModule(ByteSpan(Wire), &Err, DO));
  EXPECT_EQ(Err, "implausible instruction count");
}

// An xcall names a static method or a constructor; one that names an
// instance method passes no receiver, so the callee would read `this`
// from whatever its frame slot 0 held. The plane rules reject it however
// many operands the call has -- also with none, when nothing else about
// the call is checked. Built on the byte-aligned Naive encoding: clearing
// `seven`'s static flag in the class section leaves main's xcall to it
// without a receiver; both decoders reject it.
TEST(CodecNegative, XcallOfAnInstanceMethodIsRejected) {
  auto P = compile("class Main { static int seven() { return 7; } "
                   "static void main() { IO.printInt(seven()); } }");
  std::vector<uint8_t> Wire = encodeModule(*P->TSA, CodecMode::Naive);
  // Name length 5, "seven", then the static flag (LEB128 1, 0 once
  // cleared).
  const uint8_t Decl[] = {0x0A, 's', 'e', 'v', 'e', 'n', 0x02};
  auto It = std::search(Wire.begin(), Wire.end(), std::begin(Decl),
                        std::end(Decl));
  ASSERT_NE(It, Wire.end());
  DecodeOptions DO;
  DO.Mode = CodecMode::Naive;
  std::string Err;
  ASSERT_TRUE(decodeModule(ByteSpan(Wire), &Err, DO)) << Err;
  It[sizeof(Decl) - 1] = 0x00;
  for (bool Fused : {true, false}) {
    DO.FusedVerify = Fused;
    EXPECT_FALSE(decodeModule(ByteSpan(Wire), &Err, DO));
    EXPECT_EQ(Err, "ill-typed instruction");
  }
}

// A module that grows the thread's decoder scratch past its cap leaves
// none of it behind; an ordinary one leaves its warm tables, under the
// cap, for the next decode.
TEST(CodecNegative, DecoderScratchStaysUnderItsCap) {
  constexpr size_t Cap = 256 * 1024;
  std::string Big = "class Main { static void main() { int x = 0; ";
  for (int I = 0; I != 4000; ++I)
    Big += "if (x > " + std::to_string(I) + ") { x = x + 1; } ";
  Big += "IO.printInt(x); } }";
  std::vector<uint8_t> Small = encodeModule(*compile(DemoSrc)->TSA);
  std::vector<uint8_t> Large = encodeModule(*compile(Big)->TSA);
  std::string Err;
  ASSERT_TRUE(decodeModule(Small, &Err)) << Err;
  size_t Warm = decoderScratchBytes();
  EXPECT_GT(Warm, 0u);
  EXPECT_LE(Warm, Cap);
  ASSERT_TRUE(decodeModule(Large, &Err)) << Err;
  EXPECT_LT(decoderScratchBytes(), Warm) << "the large decode kept its tables";
  ASSERT_TRUE(decodeModule(Small, &Err)) << Err;
  EXPECT_GT(decoderScratchBytes(), 0u);
  EXPECT_LE(decoderScratchBytes(), Cap);
}

// Trailing garbage after a complete module: the decoder stops at the
// end of the symbol stream, so appended bytes either land in ignored
// padding (the module must be byte-identical on re-encode) or break
// framing with a typed error. Never a crash, never a different module.
TEST(CodecNegative, TrailingGarbageNeverChangesTheModule) {
  auto P = compile(DemoSrc);
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  std::mt19937 Rng(424242);
  for (unsigned N : {1u, 2u, 8u, 64u, 4096u}) {
    std::vector<uint8_t> M = Wire;
    for (unsigned I = 0; I != N; ++I)
      M.push_back(static_cast<uint8_t>(Rng()));
    std::string Err;
    auto Unit = decodeModule(ByteSpan(M), &Err, DecodeOptions{});
    if (!Unit) {
      EXPECT_FALSE(Err.empty()) << "garbage+" << N;
      continue;
    }
    EXPECT_EQ(encodeModule(*Unit->Module), Wire)
        << "garbage+" << N << ": trailing bytes leaked into the module";
  }
}

/// Random multi-byte corruption; parameterized by seed.
class CodecFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(CodecFuzz, MutatedImagesNeverYieldUnsafeModules) {
  auto P = compile(DemoSrc);
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  std::mt19937 Rng(GetParam());
  for (int Round = 0; Round < 300; ++Round) {
    std::vector<uint8_t> Evil = Wire;
    unsigned Mutations = 1 + Rng() % 8;
    for (unsigned I = 0; I != Mutations; ++I) {
      size_t Pos = Rng() % Evil.size();
      Evil[Pos] = static_cast<uint8_t>(Rng());
    }
    std::string Err;
    auto Unit = decodeModule(Evil, &Err);
    if (!Unit)
      continue; // Rejected: fine.
    TSAVerifier V(*Unit->Module);
    EXPECT_TRUE(V.verify())
        << "decoder accepted a module the verifier rejects (seed "
        << GetParam() << ", round " << Round << "): "
        << (V.getErrors().empty() ? "" : V.getErrors().front());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range(100u, 112u));

} // namespace
