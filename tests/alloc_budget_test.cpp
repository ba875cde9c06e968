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
/// one arena and its reaching definitions in flat arrays; the TSA IR, on
/// either side, lives in one arena per module. This test counts
/// the allocations compileMJ, Lexer::lexAll, optimizeModule, encodeModule,
/// decodeModule and prepareModule make for each corpus module, and the
/// heap a decoded module holds, and fails when the mean or the worst
/// module exceeds its budget, so a pointer-keyed hash map, a
/// node-per-allocation tree, a rebuilt builtin table or a per-method
/// regrowth creeping back shows up as a test failure rather than as a
/// slower benchmark. A second case bounds what one tier-1 run of each
/// corpus module allocates (a constant plus a small fraction of the
/// cells it creates), and a third checks that a hostile instruction
/// count allocates nothing in proportion to the count.
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

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
std::atomic<size_t> Allocations{0};
std::atomic<size_t> AllocatedBytes{0};

void *countedAlloc(size_t Size, size_t Align) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  AllocatedBytes.fetch_add(Size, std::memory_order_relaxed);
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

// Measured on the corpus (14 modules, mean wire size 774 bytes), as mean
// and worst module: compileMJ 103 and 135 allocations, lexAll 1 and 1,
// optimizeModule 77 and 101, encodeModule 6 and 8, decode 12 and 42,
// prepare 8 and 20; a decoded module retains 48 KiB of heap on average
// and 88 KiB at most (malloc's in-use bytes while the unit lives). The
// worst decode and prepare are the first module's, which also build the
// thread's decoder and lowering scratch and the bit reader's prefix
// tables. Each bound allows about 25 % on top of that, far below what the
// designs these budgets rule out cost:
//  - compile: about 1270 and 1915 for a front end with a heap node per
//    AST node, token string and local and a std::map of reaching
//    definitions copied at every branch; 335 and 442 for one that
//    rebuilds the builtin class table per compile and allocates each IR
//    node's operand and child lists on the heap; 135 and 186 for one that
//    gives each symbol, name and member list its own allocation.
//  - optimize: about 1390 and 2360 for an optimizer that rewrites every
//    use of each retired value.
//  - encode: 66 mean for an encoder that re-derives and re-finalizes
//    every method and keeps its member indices in hash maps.
//  - decode: 205 and 250 for a decoder that rebuilds the builtin tables,
//    hashes plane keys into per-method interners and gives each symbol,
//    block list and operand list its own allocation; about 460 and 420
//    with regrowing per-method tables; 57 and 67 for one that gives each
//    symbol, name and member list its own allocation and rebuilds its
//    scratch tables per decode. Its decoded modules held 147 KiB on
//    average and 270 KiB at most, with 176-byte instructions.
//  - prepare: about 460 and 420 for a pointer-keyed map (one node per
//    value); 77 and 112 for a lowering that gives each unit and each of
//    its non-empty arrays its own allocation.
//  - lexAll makes 1: the token vector, allocated once; a token vector
//    that regrows from empty adds about 11 per module.
constexpr Budget CompileBudget{170, 235};
constexpr Budget LexBudget{3, 13};
constexpr Budget OptimizeBudget{94, 122};
constexpr Budget EncodeBudget{8, 10};
constexpr Budget DecodeBudget{16, 53};
constexpr Budget PrepareBudget{11, 25};
constexpr Budget RetainedKiB{60, 110};

/// Sum and maximum of one stage's count over the corpus.
struct Tally {
  const char *Name;
  Budget Bound;
  size_t Sum = 0, Max = 0;

  void add(const char *Program, size_t N) {
    EXPECT_LE(N, Bound.Max) << Name << ": " << Program;
    Sum += N;
    Max = std::max(Max, N);
  }
  void check(size_t Modules) {
    double Mean = static_cast<double>(Sum) / Modules;
    std::printf("  %-9s mean %7.1f  max %5zu\n", Name, Mean, Max);
    EXPECT_LE(Mean, static_cast<double>(Bound.Mean)) << Name;
  }
};

/// Slab bytes against used bytes of one kind of arena over the corpus:
/// how well its first-slab hint fits (reported, not bounded).
struct ArenaFit {
  const char *Name;
  size_t Slabs = 0, Used = 0;

  void add(const BumpArena &A) {
    Slabs += A.slabBytes();
    Used += A.usedBytes();
  }
  void print(size_t Modules) const {
    std::printf("  %-15s slabs %6.1f KiB  used %6.1f KiB per module\n", Name,
                Slabs / 1024.0 / Modules, Used / 1024.0 / Modules);
  }
};

TEST(AllocBudget, ColdPathStaysFlat) {
  Tally Compile{"compile", CompileBudget}, Lex{"lex", LexBudget},
      Opt{"optimize", OptimizeBudget}, Encode{"encode", EncodeBudget},
      Decode{"decode", DecodeBudget}, Prepare{"prepare", PrepareBudget},
      Retained{"KiB held", RetainedKiB};
  ArenaFit ModuleArena{"module arena"}, TableArena{"class table"},
      UnitArena{"prepared units"};
  const auto &Corpus = getCorpus();
  for (const CorpusProgram &P : Corpus) {
    const std::string Source = P.Source;
    size_t Before = Allocations.load();
    auto C = compileMJ(P.Name, Source);
    Compile.add(P.Name, Allocations.load() - Before);
    ASSERT_TRUE(C->ok()) << P.Name;

    DiagnosticEngine Diags;
    Lexer L(Source, Diags);
    Before = Allocations.load();
    std::vector<Token> Tokens = L.lexAll();
    Lex.add(P.Name, Allocations.load() - Before);
    ASSERT_FALSE(Diags.hasErrors()) << P.Name;

    Before = Allocations.load();
    optimizeModule(*C->TSA);
    Opt.add(P.Name, Allocations.load() - Before);

    Before = Allocations.load();
    std::vector<uint8_t> Bytes = encodeModule(*C->TSA);
    Encode.add(P.Name, Allocations.load() - Before);

    std::string Err;
    size_t HeapBefore = mallinfo2().uordblks;
    Before = Allocations.load();
    std::unique_ptr<DecodedUnit> Unit = decodeModule(Bytes, &Err);
    Decode.add(P.Name, Allocations.load() - Before);
    Retained.add(P.Name, (mallinfo2().uordblks - HeapBefore) / 1024);
    ASSERT_TRUE(Unit) << P.Name << ": " << Err;

    Before = Allocations.load();
    std::unique_ptr<PreparedModule> PM = prepareModule(*Unit->Module);
    Prepare.add(P.Name, Allocations.load() - Before);
    ASSERT_TRUE(PM) << P.Name;
    ModuleArena.add(Unit->Module->arena());
    TableArena.add(Unit->Table->arena());
    UnitArena.add(PM->arena());
  }
  std::printf("per corpus module (%zu modules):\n", Corpus.size());
  for (Tally *T : {&Compile, &Lex, &Opt, &Encode, &Decode, &Prepare,
                   &Retained})
    T->check(Corpus.size());
  for (const ArenaFit *A : {&ModuleArena, &TableArena, &UnitArena})
    A->print(Corpus.size());
}

// One tier-1 run of a module on a fresh Runtime — construction, runMain
// and teardown — should allocate a handful of growing tables (the cell
// table, payload chunks, the register stack, output, the string pool),
// not one block per heap cell: payloads come from chunks the collector
// owns (DESIGN.md §13). The bound is a constant plus one allocation per
// ExecCellsPerAlloc cells the run creates; a heap that gives every
// object or array its own block fails it on every module that allocates.
constexpr size_t ExecAllocBase = 40;
constexpr size_t ExecCellsPerAlloc = 16;

TEST(AllocBudget, ExecRunDoesNotAllocatePerCell) {
  size_t SumAllocs = 0, SumBytes = 0, SumCells = 0, MaxAllocs = 0;
  const auto &Corpus = getCorpus();
  for (const CorpusProgram &P : Corpus) {
    auto C = compileMJ(P.Name, P.Source);
    ASSERT_TRUE(C->ok()) << P.Name;
    auto T0 = prepareModule(*C->TSA);
    ASSERT_TRUE(T0) << P.Name;
    {
      Runtime RT(*C->Table);
      TSAExec X(*T0, RT);
      ASSERT_TRUE(X.runMain().ok()) << P.Name; // Gathers the profile.
    }
    auto T1 = reprepareModule(*T0);
    ASSERT_TRUE(T1) << P.Name;

    size_t Before = Allocations.load(), BytesBefore = AllocatedBytes.load();
    size_t Cells;
    {
      Runtime RT(*C->Table);
      TSAExec X(*T1, RT);
      ASSERT_TRUE(X.runMain().ok()) << P.Name;
      Cells = RT.heapCells() - 1 + RT.gcStats().CellsReclaimed;
    }
    size_t N = Allocations.load() - Before;
    EXPECT_LE(N, ExecAllocBase + Cells / ExecCellsPerAlloc)
        << P.Name << ": " << Cells << " cells";
    SumAllocs += N;
    SumBytes += AllocatedBytes.load() - BytesBefore;
    SumCells += Cells;
    MaxAllocs = std::max(MaxAllocs, N);
  }
  std::printf("tier-1 run per corpus module: mean %.1f allocations (max "
              "%zu), %.1f KiB, %.1f cells\n",
              double(SumAllocs) / Corpus.size(), MaxAllocs,
              double(SumBytes) / Corpus.size() / 1024,
              double(SumCells) / Corpus.size());
}

// A hostile block count must not size anything: a stream that declares
// 2^20 - 1 instructions in a block and then ends fails after a few
// kilobytes of allocation, not the 8 MiB an instruction list sized from
// the count would take.
TEST(AllocBudget, HostileCountSizesNothing) {
  auto C = compileMJ("m", "class Main { static void main() { } }");
  ASSERT_TRUE(C->ok());
  std::vector<uint8_t> Wire = encodeModule(*C->TSA, CodecMode::Naive);
  ASSERT_EQ(Wire.back(), 0u); // The last block's instruction count.
  Wire.pop_back();
  for (uint8_t B : {0xFF, 0xFF, 0x7E}) // 2^20 - 1 as a Naive varuint.
    Wire.push_back(B);
  DecodeOptions DO;
  DO.Mode = CodecMode::Naive;
  std::string Err;
  size_t Before = AllocatedBytes.load();
  EXPECT_FALSE(decodeModule(ByteSpan(Wire), &Err, DO));
  size_t Bytes = AllocatedBytes.load() - Before;
  std::printf("failed hostile decode allocated %zu bytes\n", Bytes);
  EXPECT_LT(Bytes, size_t(64) * 1024) << Err;
}

} // namespace
