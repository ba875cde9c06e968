//===- testgen/DifferentialRunner.h - Cross-tier parity matrix -*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pushes one program (a generator seed, a raw MJ source, or a decoded
/// wire image) through every execution tier and codec path the repo has
/// and demands byte-exact output parity against the tree-walk oracle
/// (DESIGN.md §15). It is the one place the tests check that two engines
/// agree. The configuration matrix is a fixed, numbered table so any
/// failure is replayable by index:
///
///   0  treewalk/source      — the reference (definitional interpreter)
///   1  treewalk/decoded     — encode -> fused decode (table reader)
///   2  treewalk/decoded-scalar — fused decode, scalar bit reader
///   3  treewalk/optimized   — optimizeModule (re-verified), then tree-walk
///   4  tier0                — quickened register-frame streams
///   5  tier0/decoded        — tier 0 over the decoded module
///   6  tier0/gcstress       — tier 0, StressEveryNAllocs=1
///   7  tier1                — profile once, re-quicken (ICs + fusion +
///                             inlining, default budget)
///   8  tier1/nofusion       — tier 1 with superinstructions masked
///   9  tier1/noinlining     — tier 1 with InlineBudget 0 (no splicing)
///   10 tier1/maxinline      — tier 1 with InlineBudget maxed
///   11 tier1/gcstress       — tier 1, StressEveryNAllocs=1
///   12 tier1/optimized-decoded — optimize -> encode -> decode -> tier 1
///   13 roundtrip-digest     — decode -> re-encode digest stability
///   14 bytecode             — the stack-bytecode baseline compiled from
///                             the same AST: BCCompiler -> BCVerifier
///                             (must accept) -> BCInterpreter
///   15 tier1/noic           — tier 1 with inline caches masked
///   16 treewalk/gcstress    — tree-walk, StressEveryNAllocs=1
///   17 tier0/optimized-gcstress — tier 0 over the optimized module (its
///                             safe-ref phis included), StressEveryNAllocs=1
///   18 treewalk/optimized-naive — optimize -> Naive-mode encode ->
///                             Naive-mode decode -> tree-walk
///
/// Any divergence dumps a self-contained reproducer (seed + source +
/// failing config + replay command, as one compilable .mj file) into
/// RunnerOptions::DumpDir and, when asked, greedily minimizes it with
/// the program-level shrinker; a row that crashes instead is named on
/// stderr by installCrashReporter's handler. Single-config replay
/// (`--seed N --config K` in safetsa-gen, OnlyConfig here) re-runs the
/// reference plus exactly that configuration, byte-deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_TESTGEN_DIFFERENTIALRUNNER_H
#define SAFETSA_TESTGEN_DIFFERENTIALRUNNER_H

#include "exec/ExecUnit.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace safetsa {
namespace testgen {

/// Termination kind + captured output: the equality every configuration
/// must satisfy against the reference.
struct Outcome {
  RuntimeError Err = RuntimeError::Internal;
  std::string Output;

  bool operator==(const Outcome &O) const {
    return Err == O.Err && Output == O.Output;
  }
};

/// Lets gtest print an Outcome in a failed expectation.
void PrintTo(const Outcome &O, std::ostream *OS);

struct RunnerOptions {
  /// Reference fuel; non-reference configurations get 10x so near-
  /// boundary accounting differences cannot fake a divergence (fuel-
  /// bound references are skipped entirely, as in the mutation fuzzer).
  uint64_t Fuel = 20'000'000;
  /// When non-empty, any failure writes a reproducer file here (the
  /// directory is created on demand).
  std::string DumpDir;
  /// Greedily minimize a failing source with the shrinker and dump the
  /// reduced reproducer alongside the full one.
  bool Shrink = false;
  /// Run only this configuration (plus the reference); -1 = all.
  int OnlyConfig = -1;
  /// Test-only hook: force configuration K to report a divergence, so
  /// the dump/replay/shrink machinery is testable without a real
  /// compiler bug. -1 = off.
  int InjectFailure = -1;
};

struct ConfigFailure {
  unsigned Config = 0;
  std::string Name;
  std::string Detail;
};

struct SeedReport {
  uint64_t Seed = 0;
  bool CompileOk = false;
  /// Reference ran out of fuel; parity is not required (the
  /// interpreters count fuel differently), the seed is skipped.
  bool FuelBound = false;
  unsigned ConfigsRun = 0;
  /// What configuration 0 (the tree-walk oracle) did; every other
  /// configuration must match it byte for byte.
  Outcome Reference;
  std::vector<ConfigFailure> Failures;
  std::string ReproPath;     ///< Dump file, when one was written.
  std::string MinimizedPath; ///< Shrunk dump, when shrinking ran.

  bool ok() const { return CompileOk && Failures.empty(); }
  /// One-line human summary (soak-run logging).
  std::string summary() const;
};

class DifferentialRunner {
public:
  explicit DifferentialRunner(RunnerOptions Opts = {});

  /// Number of configurations in the matrix (reference included).
  static unsigned configCount();
  /// Stable name of configuration \p K (see the table above).
  static const char *configName(unsigned K);

  /// Generates the program for \p Seed and checks the full matrix.
  SeedReport run(uint64_t Seed);

  /// Checks \p Source (replay path: the reproducer's source, or any
  /// hand-written program). \p Seed is only recorded in the report.
  SeedReport runSource(const std::string &Source, uint64_t Seed = 0);

  /// Wire-level matrix for mutation survivors: decodes \p Bytes (fused,
  /// table reader) and checks every configuration that needs no source
  /// program — the rows without the optimized twin, the bytecode
  /// backend or the encoder's own wire image — against the tree-walk
  /// oracle on the decoded module. Returns true on parity (or when the
  /// reference is fuel-bound). On failure fills \p Detail and, when
  /// DumpDir is set, writes the wire image + detail there.
  bool checkWire(const std::vector<uint8_t> &Bytes, const std::string &What,
                 std::string *Detail);

  const RunnerOptions &options() const { return Opts; }

private:
  RunnerOptions Opts;

  SeedReport check(const std::string &Source, uint64_t Seed,
                   bool AllowDump);
  void dumpReproducer(SeedReport &Rep, const std::string &Source);
};

/// Marks configuration \p Config of \p Seed as the row in flight until
/// destroyed. DifferentialRunner wraps compiling and every row in one,
/// so the crash reporter can name the row that crashed.
class RowInFlight {
public:
  RowInFlight(uint64_t Seed, unsigned Config);
  ~RowInFlight();
  RowInFlight(const RowInFlight &) = delete;
  RowInFlight &operator=(const RowInFlight &) = delete;
};

/// Installs handlers for SIGSEGV, SIGBUS, SIGFPE, SIGILL and SIGABRT
/// (on their own stack) that write the row in flight to stderr as
///   safetsa-gen: crashed on seed N, config K (<name>)
///   replay: safetsa-gen --seed N --config K
/// using only async-signal-safe calls, then re-raise the signal with its
/// default action. safetsa-gen installs it, so an engine that crashes
/// instead of diverging still leaves a reproducer.
void installCrashReporter();

/// The outcome every configuration agrees on for \p Source, under default
/// options. When they disagree (or the source does not compile) the
/// result is RuntimeError::Internal with the report's summary as its
/// output, so one EXPECT_EQ against the expected outcome checks both
/// parity and the answer.
Outcome agreedOutcome(const std::string &Source);

//===----------------------------------------------------------------------===//
// Single-engine runs
//===----------------------------------------------------------------------===//
//
// The matrix's own building blocks, shared with the structural tests
// (IC state machine, replay fingerprints, splice shapes, GC
// reachability) that inspect one engine's prepared form.

/// Runtime's default fuel budget.
constexpr uint64_t kRunFuel = 200'000'000;

Outcome runTreeWalk(const TSAModule &Mod, ClassTable &Table,
                    uint64_t Fuel = kRunFuel, const GcOptions &Gc = {});

Outcome runPrepared(const PreparedModule &PM, ClassTable &Table,
                    uint64_t Fuel = kRunFuel, const GcOptions &Gc = {});

/// A fresh tier-0 preparation of \p Mod, run once to gather its profile,
/// then re-quickened with \p Policy: the protocol of every tier-1
/// configuration. Deterministic (exec_tier_test pins replay
/// determinism); null when \p Mod does not lower.
std::unique_ptr<PreparedModule> tier1For(const TSAModule &Mod,
                                         ClassTable &Table,
                                         const ExecPolicy &Policy = {},
                                         uint64_t Fuel = kRunFuel);

} // namespace testgen
} // namespace safetsa

#endif // SAFETSA_TESTGEN_DIFFERENTIALRUNNER_H
