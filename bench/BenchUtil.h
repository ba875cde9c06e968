//===- bench/BenchUtil.h - Shared benchmark plumbing ----------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the benchmarks: compile a corpus program to all
/// representations and collect the static metrics the paper reports, the
/// machine-readable BENCH_<suite>.json emitter every bench writes, and the
/// one timing protocol every timed row and gate uses (timeWindow,
/// compareAB).
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_BENCH_BENCHUTIL_H
#define SAFETSA_BENCH_BENCHUTIL_H

#include "bytecode/BCCompiler.h"
#include "bytecode/BCFile.h"
#include "codec/Codec.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "opt/Optimizer.h"
#include "tsa/Verifier.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace safetsa {

/// SAFETSA_BENCH_SMOKE (run_benches.sh --smoke, the bench_smoke ctest
/// entry): tiny timing windows so every binary runs end to end in tier-1
/// verification; gates are reported but not enforced, because
/// millisecond windows are pure noise.
inline bool smokeMode() {
  const char *E = std::getenv("SAFETSA_BENCH_SMOKE");
  return E && *E && !(E[0] == '0' && E[1] == '\0');
}

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Seconds per call of \p Run over one timing window: it repeats \p Run
/// until the window has lasted at least 20 ms (1 ms in smoke mode), so a
/// short program is never timed over a window the clock and the
/// scheduler can distort, whatever a first run happened to cost.
template <typename Fn> double timeWindow(bool Smoke, Fn &&Run) {
  const double MinSeconds = Smoke ? 0.001 : 0.02;
  Clock::time_point Start = Clock::now();
  unsigned Calls = 0;
  double Elapsed;
  do {
    Run();
    ++Calls;
    Elapsed = secondsSince(Start);
  } while (Elapsed < MinSeconds);
  return Elapsed / Calls;
}

inline double median(std::vector<double> Xs) {
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

/// One A/B comparison: medians over the rounds of each side's seconds per
/// call and of the per-round ratio A / B.
struct ABTiming {
  double SecondsA = 0;
  double SecondsB = 0;
  double Ratio = 0;
};

/// EXPERIMENTS.md's leave-one-out protocol. Each of 11 rounds (1 in smoke
/// mode) times four windows in ABBA order, BAAB on odd rounds, and scores
/// the round by A's two windows over B's two, so drift in cache or
/// frequency state within a round charges both sides alike. The result is
/// the median over rounds: one disturbed round cannot move it, where a
/// best-of-N window or a single pair of windows follows whichever window
/// the host happened to favour.
template <typename FnA, typename FnB>
ABTiming compareAB(bool Smoke, FnA &&A, FnB &&B) {
  std::vector<double> SecondsA, SecondsB, Ratios;
  for (unsigned Round = 0, Rounds = Smoke ? 1 : 11; Round != Rounds;
       ++Round) {
    double SA = 0, SB = 0;
    if (Round % 2 == 0) {
      SA += timeWindow(Smoke, A);
      SB += timeWindow(Smoke, B);
      SB += timeWindow(Smoke, B);
      SA += timeWindow(Smoke, A);
    } else {
      SB += timeWindow(Smoke, B);
      SA += timeWindow(Smoke, A);
      SA += timeWindow(Smoke, A);
      SB += timeWindow(Smoke, B);
    }
    SecondsA.push_back(SA / 2);
    SecondsB.push_back(SB / 2);
    Ratios.push_back(SA / SB);
  }
  return {median(SecondsA), median(SecondsB), median(Ratios)};
}

/// Machine-readable benchmark sink: collects named metrics and writes
/// them as BENCH_<suite>.json (flat {"suite", "metrics": [{name, value,
/// unit}]}) into $SAFETSA_BENCH_DIR, or the working directory when unset.
/// Intentionally dependency-free — the trajectory tooling only needs
/// stable keys and numbers, not a JSON library.
class BenchJson {
public:
  explicit BenchJson(std::string Suite) : Suite(std::move(Suite)) {}

  void add(const std::string &Name, double Value,
           const std::string &Unit = "") {
    Metrics.push_back({Name, Unit, Value});
  }

  /// Writes BENCH_<suite>.json; returns the path ("" on I/O failure).
  std::string write() const {
    std::string Path;
    if (const char *Dir = std::getenv("SAFETSA_BENCH_DIR")) {
      Path = Dir;
      if (!Path.empty() && Path.back() != '/')
        Path += '/';
    }
    Path += "BENCH_" + Suite + ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return "";
    std::fprintf(F, "{\n  \"suite\": \"%s\",\n  \"metrics\": [",
                 escaped(Suite).c_str());
    for (size_t I = 0; I != Metrics.size(); ++I)
      std::fprintf(F, "%s\n    {\"name\": \"%s\", \"value\": %.6g, "
                      "\"unit\": \"%s\"}",
                   I ? "," : "", escaped(Metrics[I].Name).c_str(),
                   Metrics[I].Value, escaped(Metrics[I].Unit).c_str());
    std::fprintf(F, "\n  ]\n}\n");
    std::fclose(F);
    std::printf("\nwrote %s (%zu metrics)\n", Path.c_str(), Metrics.size());
    return Path;
  }

private:
  struct Metric {
    std::string Name, Unit;
    double Value;
  };

  static std::string escaped(const std::string &S) {
    std::string Out;
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out.push_back('\\');
      if (static_cast<unsigned char>(C) >= 0x20)
        Out.push_back(C);
    }
    return Out;
  }

  std::string Suite;
  std::vector<Metric> Metrics;
};

/// All static metrics for one corpus program.
struct ProgramMetrics {
  std::string Name;
  // Sizes in bytes.
  size_t BytecodeBytes = 0;
  size_t TSABytes = 0;
  size_t TSAOptBytes = 0;
  // Instruction counts.
  unsigned BytecodeInsts = 0;
  unsigned TSAInsts = 0;
  unsigned TSAOptInsts = 0;
  // Figure 6 counters.
  unsigned PhisBefore = 0, PhisAfter = 0;
  unsigned NullChecksBefore = 0, NullChecksAfter = 0;
  unsigned IndexChecksBefore = 0, IndexChecksAfter = 0;
  OptStats Opt;
};

inline ProgramMetrics measureProgram(const CorpusProgram &P,
                                     const OptOptions &Options = {}) {
  ProgramMetrics M;
  M.Name = P.Name;

  auto C = compileMJ(P.Name, P.Source);
  if (!C->ok()) {
    std::fprintf(stderr, "corpus program %s failed to compile:\n%s\n",
                 P.Name, C->renderDiagnostics().c_str());
    std::exit(1);
  }
  TSAVerifier V(*C->TSA);
  if (!V.verify()) {
    std::fprintf(stderr, "corpus program %s failed verification\n", P.Name);
    std::exit(1);
  }

  BCCompiler BCC(C->Types, *C->Table);
  auto BC = BCC.compile(C->AST);
  M.BytecodeInsts = BC->countInstructions();
  M.BytecodeBytes = writeBCModule(*BC).size();

  M.TSAInsts = C->TSA->countInstructions();
  M.TSABytes = encodeModule(*C->TSA).size();
  M.PhisBefore = C->TSA->countOpcode(Opcode::Phi);
  M.NullChecksBefore = C->TSA->countOpcode(Opcode::NullCheck);
  M.IndexChecksBefore = C->TSA->countOpcode(Opcode::IndexCheck);

  M.Opt = optimizeModule(*C->TSA, Options);
  M.TSAOptInsts = C->TSA->countInstructions();
  M.TSAOptBytes = encodeModule(*C->TSA).size();
  M.PhisAfter = C->TSA->countOpcode(Opcode::Phi);
  M.NullChecksAfter = C->TSA->countOpcode(Opcode::NullCheck);
  M.IndexChecksAfter = C->TSA->countOpcode(Opcode::IndexCheck);
  return M;
}

/// Percentage delta rendered like the paper's tables (negative = fewer).
inline int deltaPercent(unsigned Before, unsigned After) {
  if (Before == 0)
    return 0;
  return static_cast<int>(
      (static_cast<long>(After) - static_cast<long>(Before)) * 100 /
      static_cast<long>(Before));
}

} // namespace safetsa

#endif // SAFETSA_BENCH_BENCHUTIL_H
