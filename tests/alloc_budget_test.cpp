//===- tests/alloc_budget_test.cpp - Cold-path allocations ------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Heap-allocation budget of the cold paths on both sides of the wire.
/// Optimizing, decoding and preparing a module should cost a renumber, not
/// a search (DESIGN.md §7, §8, §10): every per-value and per-block table
/// is a flat vector indexed by a dense id, and each pass's or decoder's
/// scratch is reused across a module's methods. Lexing should allocate
/// its token vector once, and the whole front end should build its AST in
/// one arena and its reaching definitions in flat arrays. This test counts
/// the allocations compileMJ, Lexer::lexAll, optimizeModule, decodeModule
/// and prepareModule make for each corpus module and fails when the mean
/// or the worst module exceeds its budget, so a pointer-keyed hash map, a
/// node-per-allocation tree or a per-method regrowth creeping back shows
/// up as a test failure rather than as a slower benchmark.
///
/// The count comes from a replaced global operator new, which is why the
/// test is its own executable and has no sanitizer variant.
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "exec/ExecUnit.h"
#include "lexer/Lexer.h"
#include "opt/Optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
std::atomic<size_t> Allocations{0};

void *countedAlloc(size_t Size, size_t Align) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  void *P = Align <= alignof(std::max_align_t)
                ? std::malloc(Size ? Size : 1)
                : std::aligned_alloc(Align, (Size + Align - 1) / Align * Align);
  if (!P)
    throw std::bad_alloc();
  return P;
}
} // namespace

void *operator new(size_t Size) { return countedAlloc(Size, 0); }
void *operator new[](size_t Size) { return countedAlloc(Size, 0); }
void *operator new(size_t Size, std::align_val_t A) {
  return countedAlloc(Size, static_cast<size_t>(A));
}
void *operator new[](size_t Size, std::align_val_t A) {
  return countedAlloc(Size, static_cast<size_t>(A));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}

using namespace safetsa;

namespace {

struct Budget {
  size_t Mean; ///< Bound on the per-module mean over the corpus.
  size_t Max;  ///< Bound on any single corpus module.
};

// Measured on the corpus (14 modules, mean wire size 774 bytes):
// compileMJ makes 335 allocations per module on average and 442 at most,
// optimizeModule 76 and 98, decode 205 and 250, prepare 77 and 112. Each
// bound allows at most 25 % on top of that, far below what pointer-keyed
// sets and maps cost: about 1270 and 1915 for a front end with a heap
// node per AST node, token string and local and a std::map of reaching
// definitions copied at every branch, about 1390 and 2360 for an
// optimizer that rewrites every use of each retired value, about 460 and
// 420 for a pointer-keyed map in prepare (one node per value) or
// regrowing per-method decoder tables. compileMJ's remainder is mostly
// the builtin class table (55), class and method symbols and the TSA IR.
// lexAll makes 1: the token vector, allocated once; a token vector that
// regrows from empty adds about 11 per module.
constexpr Budget CompileBudget{415, 550};
constexpr Budget LexBudget{3, 13};
constexpr Budget OptimizeBudget{94, 122};
constexpr Budget DecodeBudget{240, 290};
constexpr Budget PrepareBudget{95, 140};

TEST(AllocBudget, ColdPathStaysFlat) {
  size_t CompileSum = 0, CompileMax = 0, LexSum = 0, LexMax = 0;
  size_t OptSum = 0, OptMax = 0;
  size_t DecodeSum = 0, DecodeMax = 0, PrepareSum = 0, PrepareMax = 0;
  const auto &Corpus = getCorpus();
  for (const CorpusProgram &P : Corpus) {
    const std::string Source = P.Source;
    size_t Before = Allocations.load();
    auto C = compileMJ(P.Name, Source);
    size_t Compile = Allocations.load() - Before;
    ASSERT_TRUE(C->ok()) << P.Name;

    DiagnosticEngine Diags;
    Lexer L(Source, Diags);
    Before = Allocations.load();
    std::vector<Token> Tokens = L.lexAll();
    size_t Lex = Allocations.load() - Before;
    ASSERT_FALSE(Diags.hasErrors()) << P.Name;

    Before = Allocations.load();
    optimizeModule(*C->TSA);
    size_t Opt = Allocations.load() - Before;
    std::vector<uint8_t> Bytes = encodeModule(*C->TSA);

    std::string Err;
    Before = Allocations.load();
    std::unique_ptr<DecodedUnit> Unit = decodeModule(Bytes, &Err);
    size_t Decode = Allocations.load() - Before;
    ASSERT_TRUE(Unit) << P.Name << ": " << Err;

    Before = Allocations.load();
    std::unique_ptr<PreparedModule> PM = prepareModule(*Unit->Module);
    size_t Prepare = Allocations.load() - Before;
    ASSERT_TRUE(PM) << P.Name;

    std::printf("%-16s compile %4zu  lex %4zu  optimize %4zu  decode %4zu  "
                "prepare %4zu allocations\n",
                P.Name, Compile, Lex, Opt, Decode, Prepare);
    EXPECT_LE(Compile, CompileBudget.Max) << P.Name;
    EXPECT_LE(Lex, LexBudget.Max) << P.Name;
    EXPECT_LE(Opt, OptimizeBudget.Max) << P.Name;
    EXPECT_LE(Decode, DecodeBudget.Max) << P.Name;
    EXPECT_LE(Prepare, PrepareBudget.Max) << P.Name;
    CompileSum += Compile;
    LexSum += Lex;
    OptSum += Opt;
    DecodeSum += Decode;
    PrepareSum += Prepare;
    CompileMax = std::max(CompileMax, Compile);
    LexMax = std::max(LexMax, Lex);
    OptMax = std::max(OptMax, Opt);
    DecodeMax = std::max(DecodeMax, Decode);
    PrepareMax = std::max(PrepareMax, Prepare);
  }
  double N = static_cast<double>(Corpus.size());
  std::printf("mean per module: compile %.1f (max %zu), lex %.1f (max %zu), "
              "optimize %.1f (max %zu), decode %.1f (max %zu), prepare %.1f "
              "(max %zu)\n",
              CompileSum / N, CompileMax, LexSum / N, LexMax, OptSum / N,
              OptMax, DecodeSum / N, DecodeMax, PrepareSum / N, PrepareMax);
  EXPECT_LE(CompileSum / N, static_cast<double>(CompileBudget.Mean));
  EXPECT_LE(LexSum / N, static_cast<double>(LexBudget.Mean));
  EXPECT_LE(OptSum / N, static_cast<double>(OptimizeBudget.Mean));
  EXPECT_LE(DecodeSum / N, static_cast<double>(DecodeBudget.Mean));
  EXPECT_LE(PrepareSum / N, static_cast<double>(PrepareBudget.Mean));
}

} // namespace
