//===- tests/testgen_test.cpp - Differential generator tests --*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The grammar-aware differential test generator (DESIGN.md §15), proved
/// six ways:
///
///  1. Soak parity: a fixed seed range (default 200, SAFETSA_GEN_SEEDS
///     overrides) runs the full 19-configuration matrix — tree-walk
///     oracle vs tier 0 vs tier 1 (± fusion, ± inlining, budget-maxed,
///     inline caches masked), scalar, table and Naive-mode decode,
///     optimized vs not, GC stress, round-trip digest, and the stack
///     bytecode backend — with byte-exact output parity on every seed.
///  2. Corpus parity: every corpus program passes the same matrix and
///     runs to completion with output.
///  3. Determinism: the same seed yields byte-identical source and wire
///     bytes in-process and across two separate process runs (the
///     safetsa-gen binary, exercised over a pipe).
///  4. Replay: a failure on config K is reproduced byte-exactly by a
///     single-seed, single-config re-run (proved via the injected-
///     failure hook, so the machinery is tested without a compiler bug).
///  5. Reproducers: failures dump a self-contained .mj file (metadata as
///     comments, so it compiles as-is) and the greedy shrinker produces
///     a smaller program that still fails.
///  6. Coverage: the generated corpus actually contains the shapes the
///     matrix is meant to light up — inheritance, virtual calls, loops,
///     try/catch, arrays, instanceof/cast, allocation churn.
///
/// Plus the regression named after the first soak-found bug (seed 2229):
/// a `new int[huge]` from wrapped arithmetic must trap OutOfMemory
/// before committing host memory, identically in every tier.
///
/// Registered as `ctest -L gen` with _asan/_tsan variants.
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "support/Digest.h"
#include "testgen/DifferentialRunner.h"
#include "testgen/Generator.h"
#include "testgen/Shrinker.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <sys/wait.h>

using namespace safetsa;
using namespace safetsa::testgen;

namespace {

unsigned soakSeeds() {
  if (const char *Env = std::getenv("SAFETSA_GEN_SEEDS"))
    if (unsigned N = unsigned(std::strtoul(Env, nullptr, 10)))
      return N;
  return 200;
}

std::string tempDir(const char *Tag) {
  std::string D = (std::filesystem::temp_directory_path() /
                   (std::string("safetsa_testgen_") + Tag))
                      .string();
  std::filesystem::remove_all(D);
  return D;
}

std::string slurp(const std::string &Path) {
  std::ifstream F(Path);
  std::ostringstream SS;
  SS << F.rdbuf();
  return SS.str();
}

//===----------------------------------------------------------------------===//
// 1. Soak parity
//===----------------------------------------------------------------------===//

TEST(TestGenSoak, FixedSeedSweepFullMatrixParity) {
  const unsigned N = soakSeeds();
  DifferentialRunner Runner;
  unsigned Ok = 0, FuelSkipped = 0;
  for (unsigned S = 0; S != N; ++S) {
    SeedReport R = Runner.run(S);
    ASSERT_TRUE(R.CompileOk) << R.summary();
    if (R.FuelBound) {
      ++FuelSkipped;
      continue;
    }
    ASSERT_TRUE(R.ok()) << R.summary();
    EXPECT_EQ(R.ConfigsRun, DifferentialRunner::configCount());
    ++Ok;
  }
  // Fuel-bound programs are legal but must stay the exception, or the
  // sweep stops exercising the matrix.
  EXPECT_GE(Ok * 10, N * 9) << Ok << " ok / " << FuelSkipped
                            << " fuel-skipped of " << N;
}

//===----------------------------------------------------------------------===//
// 2. Corpus parity
//===----------------------------------------------------------------------===//

class CorpusMatrix : public ::testing::TestWithParam<CorpusProgram> {};

} // namespace

namespace safetsa {
// Names the program in a failure message instead of dumping its bytes.
void PrintTo(const CorpusProgram &P, std::ostream *OS) { *OS << P.Name; }
} // namespace safetsa

namespace {

TEST_P(CorpusMatrix, EveryConfigMatchesTheReference) {
  SeedReport R = DifferentialRunner().runSource(GetParam().Source);
  ASSERT_TRUE(R.ok()) << R.summary();
  ASSERT_FALSE(R.FuelBound);
  EXPECT_EQ(R.ConfigsRun, DifferentialRunner::configCount());
  EXPECT_EQ(R.Reference.Err, RuntimeError::None)
      << runtimeErrorName(R.Reference.Err);
  EXPECT_FALSE(R.Reference.Output.empty())
      << "corpus program produced no output";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorpusMatrix, ::testing::ValuesIn(getCorpus()),
    [](const ::testing::TestParamInfo<CorpusProgram> &Info) {
      return std::string(Info.param.Name);
    });

//===----------------------------------------------------------------------===//
// 3. Determinism
//===----------------------------------------------------------------------===//

TEST(TestGenDeterminism, SameSeedSameSourceInProcess) {
  for (uint64_t S : {0ull, 7ull, 42ull, 2229ull, 123456789ull}) {
    std::string A = generateProgram(S);
    std::string B = generateProgram(S);
    EXPECT_EQ(A, B) << "seed " << S;
    EXPECT_FALSE(A.empty());
  }
  EXPECT_NE(generateProgram(1), generateProgram(2));
}

TEST(TestGenDeterminism, SameSeedSameWireBytes) {
  for (uint64_t S : {3ull, 99ull}) {
    std::string Src = generateProgram(S);
    auto P1 = compileMJ("a.mj", Src);
    auto P2 = compileMJ("b.mj", Src);
    ASSERT_TRUE(P1->ok() && P2->ok()) << "seed " << S;
    std::vector<uint8_t> W1 = encodeModule(*P1->TSA);
    std::vector<uint8_t> W2 = encodeModule(*P2->TSA);
    EXPECT_EQ(W1, W2) << "seed " << S;
    EXPECT_EQ(digestOf(ByteSpan(W1)).hex(), digestOf(ByteSpan(W2)).hex());
  }
}

#ifdef SAFETSA_GEN_BIN
/// Runs safetsa-gen with \p Args and returns its stdout; \p ExitCode, when
/// given, receives the exit status (-1 if the process did not exit).
std::string runGen(const std::string &Args, int *ExitCode = nullptr) {
  std::string Cmd = std::string(SAFETSA_GEN_BIN) + " " + Args + " 2>/dev/null";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return "<popen failed>";
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof Buf, P)) > 0)
    Out.append(Buf, N);
  int Status = pclose(P);
  if (ExitCode)
    *ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return Out;
}

TEST(TestGenDeterminism, SameSeedSameBytesAcrossProcesses) {
  // Two independent process invocations: byte-identical source and wire
  // digest. This is the determinism contract scripts and CI rely on.
  std::string S1 = runGen("--seed 11 --emit-source");
  std::string S2 = runGen("--seed 11 --emit-source");
  ASSERT_FALSE(S1.empty());
  EXPECT_EQ(S1, S2);
  EXPECT_EQ(S1, generateProgram(11)) << "CLI and library disagree";

  std::string D1 = runGen("--seed 11 --emit-digest");
  std::string D2 = runGen("--seed 11 --emit-digest");
  ASSERT_FALSE(D1.empty());
  EXPECT_EQ(D1, D2);
}

// The CLI's soak mode, the documented entry point for long sweeps: seed
// range parsing, the rollup line and the exit status scripts rely on.
// The in-process soak above checks the parity itself.
TEST(TestGenSoak, CliSweepPrintsRollupAndExitsZero) {
  int Exit = -1;
  std::string Out =
      runGen("--seeds 2 --start 3 --dump " + tempDir("cli"), &Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("safetsa-gen: 2 seeds [3..5): "), std::string::npos)
      << Out;
  EXPECT_NE(Out.find(" fuel-skipped, 0 FAILED\n"), std::string::npos) << Out;

  runGen("--seeds many", &Exit);
  EXPECT_EQ(Exit, 2) << "a malformed count is a usage error";
}
#endif // SAFETSA_GEN_BIN

//===----------------------------------------------------------------------===//
// 4. Single-config replay
//===----------------------------------------------------------------------===//

TEST(TestGenReplay, InjectedFailureIsCaughtAndReplaysByConfig) {
  // Inject a divergence into config 9 (tier1/noinlining): the full
  // matrix must flag exactly that config, a single-config replay of 9
  // must reproduce it, and a replay of any other config must pass.
  RunnerOptions Opts;
  Opts.InjectFailure = 9;
  DifferentialRunner Full(Opts);
  SeedReport R = Full.run(5);
  ASSERT_TRUE(R.CompileOk);
  ASSERT_FALSE(R.FuelBound) << "pick a non-fuel-bound seed";
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Config, 9u);
  EXPECT_EQ(R.Failures[0].Name, "tier1/noinlining");

  Opts.OnlyConfig = 9;
  SeedReport Replay = DifferentialRunner(Opts).run(5);
  ASSERT_EQ(Replay.Failures.size(), 1u);
  EXPECT_EQ(Replay.Failures[0].Config, 9u);
  // Byte-exact: the replayed divergence renders identically.
  EXPECT_EQ(Replay.Failures[0].Detail, R.Failures[0].Detail);

  Opts.OnlyConfig = 8;
  EXPECT_TRUE(DifferentialRunner(Opts).run(5).ok());
}

TEST(TestGenReplay, DigestConfigInjection) {
  RunnerOptions Opts;
  Opts.InjectFailure = 13;
  SeedReport R = DifferentialRunner(Opts).run(5);
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Config, 13u);
  EXPECT_NE(R.Failures[0].Detail.find("digest"), std::string::npos);
}

TEST(TestGenReplay, ConfigTableIsFrozen) {
  // Reproducer files reference configs by index; renumbering breaks
  // every dumped replay command. Pin the table.
  ASSERT_EQ(DifferentialRunner::configCount(), 19u);
  EXPECT_STREQ(DifferentialRunner::configName(0), "treewalk/source");
  EXPECT_STREQ(DifferentialRunner::configName(2), "treewalk/decoded-scalar");
  EXPECT_STREQ(DifferentialRunner::configName(6), "tier0/gcstress");
  EXPECT_STREQ(DifferentialRunner::configName(7), "tier1");
  EXPECT_STREQ(DifferentialRunner::configName(10), "tier1/maxinline");
  EXPECT_STREQ(DifferentialRunner::configName(12), "tier1/optimized-decoded");
  EXPECT_STREQ(DifferentialRunner::configName(13), "roundtrip-digest");
  EXPECT_STREQ(DifferentialRunner::configName(14), "bytecode");
  EXPECT_STREQ(DifferentialRunner::configName(15), "tier1/noic");
  EXPECT_STREQ(DifferentialRunner::configName(16), "treewalk/gcstress");
  EXPECT_STREQ(DifferentialRunner::configName(17),
               "tier0/optimized-gcstress");
  EXPECT_STREQ(DifferentialRunner::configName(18),
               "treewalk/optimized-naive");
}

// A row that crashes instead of diverging still names its reproducer:
// the handler prints the row in flight and its replay command, then the
// process dies by the original signal.
TEST(TestGenReplay, CrashNamesSeedConfigAndReplayCommand) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        installCrashReporter();
        RowInFlight Row(7, 16);
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV),
      "safetsa-gen: crashed on seed 7, config 16 \\(treewalk/gcstress\\)\n"
      "replay: safetsa-gen --seed 7 --config 16\n");
  EXPECT_EXIT(
      {
        installCrashReporter();
        RowInFlight Row(~uint64_t(0), 0);
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT),
      "seed 18446744073709551615, config 0 \\(treewalk/source\\)\n"
      "replay: safetsa-gen --seed 18446744073709551615 --config 0\n");
}

//===----------------------------------------------------------------------===//
// 5. Reproducer dump + shrinker
//===----------------------------------------------------------------------===//

TEST(TestGenRepro, FailureDumpsCompilableReproducerAndShrinks) {
  std::string Dir = tempDir("repro");
  RunnerOptions Opts;
  Opts.InjectFailure = 7;
  Opts.DumpDir = Dir;
  Opts.Shrink = true;
  SeedReport R = DifferentialRunner(Opts).run(5);
  ASSERT_FALSE(R.Failures.empty());

  ASSERT_FALSE(R.ReproPath.empty());
  std::string Dump = slurp(R.ReproPath);
  EXPECT_NE(Dump.find("// seed: 5"), std::string::npos);
  EXPECT_NE(Dump.find("// failing config 7 (tier1)"), std::string::npos);
  EXPECT_NE(Dump.find("--seed 5 --config 7"), std::string::npos);
  // Self-contained: metadata rides as comments, the file compiles as-is.
  EXPECT_TRUE(compileMJ("repro.mj", Dump)->ok());

  // The injected failure reproduces on every program, so the shrinker
  // can strip the source down hard; what remains must still compile.
  ASSERT_FALSE(R.MinimizedPath.empty());
  std::string Min = slurp(R.MinimizedPath);
  EXPECT_LT(Min.size(), generateProgram(5).size());
  EXPECT_TRUE(compileMJ("min.mj", Min)->ok());

  std::filesystem::remove_all(Dir);
}

TEST(TestGenRepro, ShrinkerGreedyOnPlainPredicate) {
  // Shrinker unit contract, no runner involved: keep only what the
  // predicate pins. The marker line survives, unrelated statements and
  // whole unrelated regions go.
  std::string Src = "class A {\n"
                    "  int f;\n"
                    "  int g;\n"
                    "}\n"
                    "class Main {\n"
                    "  static void main() {\n"
                    "    int keep = 1;\n"
                    "    int drop1 = 2;\n"
                    "    if (true) {\n"
                    "      int drop2 = 3;\n"
                    "    }\n"
                    "  }\n"
                    "}\n";
  ShrinkStats Stats;
  std::string Min = shrinkSource(
      Src,
      [](const std::string &S) {
        return S.find("keep") != std::string::npos &&
               compileMJ("s.mj", S)->ok();
      },
      200, &Stats);
  EXPECT_NE(Min.find("keep"), std::string::npos);
  EXPECT_EQ(Min.find("drop1"), std::string::npos);
  EXPECT_EQ(Min.find("drop2"), std::string::npos);
  EXPECT_EQ(Min.find("class A"), std::string::npos);
  EXPECT_GT(Stats.Accepted, 0u);
  EXPECT_TRUE(compileMJ("m.mj", Min)->ok());
}

TEST(TestGenRepro, ShrinkerReturnsInputWhenNothingRemovable) {
  std::string Src = "class Main {\n  static void main() {\n  }\n}\n";
  std::string Min = shrinkSource(
      Src, [](const std::string &S) { return compileMJ("s.mj", S)->ok(); },
      50);
  EXPECT_TRUE(compileMJ("m.mj", Min)->ok());
}

//===----------------------------------------------------------------------===//
// 6. Grammar coverage
//===----------------------------------------------------------------------===//

TEST(TestGenCoverage, CorpusContainsEveryTargetShape) {
  std::string All;
  for (uint64_t S = 0; S != 100; ++S)
    All += generateProgram(S);
  // The shapes the matrix is built to light up: single inheritance and
  // overrides (inline caches, devirt guards), loops with back edges
  // (safepoints, re-quickening), try/catch (exception stubs), arrays and
  // index traps, instanceof/cast, null checks, allocation churn (GC),
  // static helper chains (speculative inlining).
  for (const char *Shape :
       {"extends", "try {", "} catch {", "for (", "while (", "new int[",
        "instanceof", "(C0)", "null", ".next", "static int s0",
        "IO.printInt", "IO.printDouble", "IO.printBool", "new C", "objs[",
        "int[] data", "/ (", "this"})
    EXPECT_NE(All.find(Shape), std::string::npos) << Shape;
}

TEST(TestGenCoverage, EveryEarlySeedCompilesAndVerifies) {
  for (uint64_t S = 0; S != 50; ++S) {
    auto P = compileMJ("gen.mj", generateProgram(S));
    ASSERT_TRUE(P->ok()) << "seed " << S << ":\n" << P->renderDiagnostics();
    ASSERT_NE(P->TSA, nullptr);
  }
}

//===----------------------------------------------------------------------===//
// Regression: seed 2229 (first 10k soak)
//===----------------------------------------------------------------------===//

TEST(TestGenRegression, Seed2229HugeArrayAllocTrapsBeforeCommitting) {
  // Seed 2229 feeds a wrapped-arithmetic int (~2 billion) into a risky
  // `new int[a]`; before the per-allocation budget cap this committed
  // tens of GB of host memory inside every configuration. The whole
  // matrix must now agree and terminate.
  SeedReport R = DifferentialRunner().run(2229);
  EXPECT_TRUE(R.ok() || R.FuelBound) << R.summary();
}

TEST(TestGenRegression, OutOfMemoryTrapsUniformlyAcrossTiers) {
  // Directly pin the new trap: an allocation that cannot fit the heap
  // budget raises OutOfMemoryError (uncatchable — no collection could
  // make room) without committing the backing store, in every
  // configuration alike.
  const std::string Src = "class Main {\n"
                          "  static void main() {\n"
                          "    int n = 2000000000;\n"
                          "    try { int[] a = new int[n]; IO.printInt(a.length); } catch {\n"
                          "      IO.printStr(\"caught\"); IO.println();\n"
                          "    }\n"
                          "    IO.printStr(\"after\"); IO.println();\n"
                          "  }\n"
                          "}\n";
  SeedReport R = DifferentialRunner().runSource(Src);
  ASSERT_TRUE(R.ok()) << R.summary();
  // Uncatchable: the catch block must NOT run.
  EXPECT_EQ(R.Reference, (Outcome{RuntimeError::OutOfMemory, ""}));
  EXPECT_FALSE(isCatchableError(RuntimeError::OutOfMemory));
  EXPECT_STREQ(runtimeErrorName(RuntimeError::OutOfMemory),
               "OutOfMemoryError");
}

//===----------------------------------------------------------------------===//
// Wire-level matrix (the fuzz_test survivor entry point)
//===----------------------------------------------------------------------===//

TEST(TestGenWire, CheckWireAcceptsGeneratedModules) {
  DifferentialRunner Runner;
  for (uint64_t S : {1ull, 9ull, 17ull}) {
    auto P = compileMJ("gen.mj", generateProgram(S));
    ASSERT_TRUE(P->ok());
    std::vector<uint8_t> Wire = encodeModule(*P->TSA);
    std::string Detail;
    EXPECT_TRUE(Runner.checkWire(Wire, "seed " + std::to_string(S), &Detail))
        << Detail;
  }
}

TEST(TestGenWire, CheckWireDumpsOnFailure) {
  // A wire image that fails to decode is reported with a detail string;
  // with a dump dir set, the bytes and the detail land on disk keyed by
  // content digest.
  std::string Dir = tempDir("wire");
  RunnerOptions Opts;
  Opts.DumpDir = Dir;
  DifferentialRunner Runner(Opts);
  std::vector<uint8_t> Junk = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  std::string Detail;
  EXPECT_FALSE(Runner.checkWire(Junk, "junk", &Detail));
  EXPECT_NE(Detail.find("junk"), std::string::npos);
  std::string Stem = Dir + "/wire_" + digestOf(ByteSpan(Junk)).hex();
  EXPECT_TRUE(std::filesystem::exists(Stem + ".bin"));
  EXPECT_TRUE(std::filesystem::exists(Stem + ".txt"));
  std::filesystem::remove_all(Dir);
}

} // namespace
