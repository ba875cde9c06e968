//===- tests/batch_test.cpp - Parallel batch determinism ------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch pipeline's contract: running the whole corpus through
/// BatchCompiler produces encodings byte-identical to the sequential
/// compileMJ + encodeModule path, for every thread count and both codec
/// modes, with the consumer side (decode + verify) succeeding for every
/// unit. Run under TSan (SAFETSA_SANITIZE=thread) this also proves the
/// pool and the per-unit pipeline share no racy state.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/BatchCompiler.h"
#include "opt/Optimizer.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>

using namespace safetsa;

namespace {

std::vector<BatchJob> corpusJobs() {
  std::vector<BatchJob> Jobs;
  for (const CorpusProgram &P : getCorpus())
    Jobs.push_back({P.Name, P.Source});
  return Jobs;
}

/// Sequential reference encodings for one configuration.
std::vector<std::vector<uint8_t>> sequentialWires(CodecMode Mode,
                                                  bool Optimize) {
  std::vector<std::vector<uint8_t>> Wires;
  for (const CorpusProgram &P : getCorpus()) {
    auto C = compileMJ(P.Name, P.Source);
    EXPECT_TRUE(C->ok()) << P.Name;
    if (Optimize)
      optimizeModule(*C->TSA);
    Wires.push_back(encodeModule(*C->TSA, Mode));
  }
  return Wires;
}

class BatchDeterminism
    : public testing::TestWithParam<std::tuple<unsigned, CodecMode>> {};

TEST_P(BatchDeterminism, MatchesSequentialPipeline) {
  auto [Threads, Mode] = GetParam();

  BatchOptions Opts;
  Opts.Threads = Threads;
  Opts.Mode = Mode;
  BatchCompiler BC(Opts);
  std::vector<BatchResult> Results = BC.run(corpusJobs());

  std::vector<std::vector<uint8_t>> Expected =
      sequentialWires(Mode, /*Optimize=*/false);
  ASSERT_EQ(Results.size(), Expected.size());
  for (size_t I = 0; I != Results.size(); ++I) {
    const BatchResult &R = Results[I];
    EXPECT_TRUE(R.ok()) << R.Name << ": " << R.Error;
    EXPECT_TRUE(R.CompileOk) << R.Name;
    EXPECT_TRUE(R.DecodeOk) << R.Name;
    EXPECT_TRUE(R.VerifyOk) << R.Name;
    // Results arrive in input order...
    EXPECT_EQ(R.Name, getCorpus()[I].Name);
    // ...and the wire bytes are identical to the sequential path.
    EXPECT_EQ(R.Wire, Expected[I]) << R.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndModes, BatchDeterminism,
    testing::Combine(testing::Values(1u, 4u, 8u),
                     testing::Values(CodecMode::Prefix, CodecMode::Naive)),
    [](const testing::TestParamInfo<BatchDeterminism::ParamType> &Info) {
      return std::to_string(std::get<0>(Info.param)) + "threads_" +
             (std::get<1>(Info.param) == CodecMode::Prefix ? "prefix"
                                                           : "naive");
    });

TEST(Batch, OptimizedPipelineIsDeterministicToo) {
  BatchOptions Opts;
  Opts.Threads = 4;
  Opts.Optimize = true;
  std::vector<BatchResult> Results = BatchCompiler(Opts).run(corpusJobs());
  std::vector<std::vector<uint8_t>> Expected =
      sequentialWires(CodecMode::Prefix, /*Optimize=*/true);
  ASSERT_EQ(Results.size(), Expected.size());
  for (size_t I = 0; I != Results.size(); ++I) {
    EXPECT_TRUE(Results[I].ok()) << Results[I].Error;
    EXPECT_EQ(Results[I].Wire, Expected[I]) << Results[I].Name;
  }
}

/// Runs the corpus through run() and load() with \p Opts; true when every
/// unit compiled, decoded and verified on both entry points.
bool corpusVerifies(const BatchOptions &Opts) {
  BatchCompiler BC(Opts);
  std::vector<BatchResult> Results = BC.run(corpusJobs());
  std::vector<ByteSpan> Wires;
  bool Ok = Results.size() == getCorpus().size();
  for (const BatchResult &R : Results) {
    EXPECT_TRUE(R.ok()) << R.Name << ": " << R.Error;
    Ok = Ok && R.ok() && R.DecodeOk && R.VerifyOk;
    Wires.push_back(ByteSpan(R.Wire));
  }
  for (const BatchLoadResult &L : BC.load(Wires)) {
    EXPECT_TRUE(L.ok()) << L.Error;
    Ok = Ok && L.ok() && L.Unit;
  }
  return Ok;
}

// The paranoid oracle (standalone verifier + counter check after every
// fused decode) agrees with the fused verdict on the whole corpus.
TEST(Batch, ParanoidOracleVerifiesEveryUnit) {
  BatchOptions Opts;
  Opts.Threads = 4;
  Opts.Paranoid = true;
  EXPECT_TRUE(corpusVerifies(Opts));
}

// Same through SAFETSA_PARANOID, which is read once per process: the
// variable is set in a fresh child (threadsafe death-test style) before
// anything reads it.
TEST(Batch, ParanoidEnvVarVerifiesEveryUnit) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("SAFETSA_PARANOID", "1", 1);
        BatchOptions Opts;
        Opts.Threads = 4;
        std::exit(corpusVerifies(Opts) ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Batch, CompileErrorsAreIsolatedPerUnit) {
  std::vector<BatchJob> Jobs = corpusJobs();
  Jobs.insert(Jobs.begin() + 1, {"Broken", "class Broken { int"});
  BatchOptions Opts;
  Opts.Threads = 4;
  std::vector<BatchResult> Results = BatchCompiler(Opts).run(Jobs);
  ASSERT_EQ(Results.size(), Jobs.size());
  EXPECT_FALSE(Results[1].ok());
  EXPECT_FALSE(Results[1].CompileOk);
  for (size_t I = 0; I != Results.size(); ++I)
    if (I != 1)
      EXPECT_TRUE(Results[I].ok()) << Results[I].Name << Results[I].Error;
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool Pool(4);
  std::atomic<int> Sum{0};
  for (int I = 1; I <= 100; ++I)
    Pool.submit([&Sum, I] { Sum += I; });
  Pool.wait();
  EXPECT_EQ(Sum.load(), 5050);
}

TEST(ThreadPoolTest, AsyncReturnsResults) {
  ThreadPool Pool(2);
  std::vector<std::future<int>> Futs;
  for (int I = 0; I != 16; ++I)
    Futs.push_back(Pool.async([I] { return I * I; }));
  for (int I = 0; I != 16; ++I)
    EXPECT_EQ(Futs[I].get(), I * I);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool Pool(0);
  int X = 0;
  Pool.submit([&X] { X = 42; });
  EXPECT_EQ(X, 42); // Completed synchronously.
  Pool.wait();
  EXPECT_EQ(Pool.getNumThreads(), 0u);
}

} // namespace
