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
/// (DESIGN.md §15). The configuration matrix is a fixed, numbered table
/// so any failure is replayable by index:
///
///   0  treewalk/source      — the reference (definitional interpreter)
///   1  treewalk/decoded     — encode -> fused decode (table reader)
///   2  treewalk/decoded-scalar — fused decode, scalar bit reader
///   3  treewalk/optimized   — optimizeModule, then tree-walk
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
///
/// Any divergence dumps a self-contained reproducer (seed + source +
/// failing config + replay command, as one compilable .mj file) into
/// RunnerOptions::DumpDir and, when asked, greedily minimizes it with
/// the program-level shrinker. Single-config replay (`--seed N
/// --config K` in safetsa-gen, OnlyConfig here) re-runs the reference
/// plus exactly that configuration, byte-deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_TESTGEN_DIFFERENTIALRUNNER_H
#define SAFETSA_TESTGEN_DIFFERENTIALRUNNER_H

#include "exec/Runtime.h"

#include <cstdint>
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
  SeedReport runSource(const std::string &Source, uint64_t Seed);

  /// Wire-level matrix for mutation survivors: decodes \p Bytes (fused,
  /// table reader) and checks every execution configuration — scalar
  /// decode, tier 0 (± GC stress), tier 1 (default / NoFusion /
  /// budget 0 / budget-maxed / GC stress) — against the tree-walk
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

} // namespace testgen
} // namespace safetsa

#endif // SAFETSA_TESTGEN_DIFFERENTIALRUNNER_H
