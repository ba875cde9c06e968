//===- testgen/DifferentialRunner.cpp - Cross-tier parity matrix ----------===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "testgen/DifferentialRunner.h"

#include "codec/Codec.h"
#include "driver/Compiler.h"
#include "exec/ExecUnit.h"
#include "exec/TSAInterp.h"
#include "opt/Optimizer.h"
#include "support/Digest.h"
#include "testgen/Generator.h"
#include "testgen/Shrinker.h"
#include "tsa/Verifier.h"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace safetsa {
namespace testgen {

namespace {

//===----------------------------------------------------------------------===//
// The configuration matrix
//===----------------------------------------------------------------------===//

struct MatrixEntry {
  const char *Name;
  enum Engine { TreeWalk, Tier0, Tier1, Digest } E;
  bool Optimize = false; ///< optimizeModule before anything else.
  bool Decode = false;   ///< encode -> decode, run the decoded module.
  bool TableDecode = true;
  bool GcStress = false; ///< StressEveryNAllocs=1 on the measured run.
  ExecPolicy Policy = {}; ///< Tier-1 masks and inline budget.
};

// Indices are frozen: reproducers and replay commands reference them.
const MatrixEntry kMatrix[] = {
    /* 0*/ {"treewalk/source", MatrixEntry::TreeWalk},
    /* 1*/ {"treewalk/decoded", MatrixEntry::TreeWalk, false, true},
    /* 2*/
    {"treewalk/decoded-scalar", MatrixEntry::TreeWalk, false, true, false},
    /* 3*/ {"treewalk/optimized", MatrixEntry::TreeWalk, true},
    /* 4*/ {"tier0", MatrixEntry::Tier0},
    /* 5*/ {"tier0/decoded", MatrixEntry::Tier0, false, true},
    /* 6*/ {"tier0/gcstress", MatrixEntry::Tier0, false, false, true, true},
    /* 7*/ {"tier1", MatrixEntry::Tier1},
    /* 8*/
    {"tier1/nofusion", MatrixEntry::Tier1, false, false, true, false,
     {.NoFusion = true}},
    /* 9*/
    {"tier1/noinlining", MatrixEntry::Tier1, false, false, true, false,
     {.InlineBudget = 0}},
    /*10*/
    {"tier1/maxinline", MatrixEntry::Tier1, false, false, true, false,
     {.InlineBudget = 0x7fffffff}},
    /*11*/ {"tier1/gcstress", MatrixEntry::Tier1, false, false, true, true},
    /*12*/ {"tier1/optimized-decoded", MatrixEntry::Tier1, true, true},
    /*13*/ {"roundtrip-digest", MatrixEntry::Digest},
};
constexpr unsigned kNumConfigs = sizeof(kMatrix) / sizeof(kMatrix[0]);

GcOptions gcFor(const MatrixEntry &C) {
  GcOptions G;
  if (C.GcStress)
    G.StressEveryNAllocs = 1;
  return G;
}

Outcome internalOutcome(const char *What) {
  Outcome O;
  O.Err = RuntimeError::Internal;
  O.Output = std::string("<") + What + ">";
  return O;
}

Outcome runTreeWalk(const TSAModule &M, ClassTable &Table, uint64_t Fuel,
                    const GcOptions &Gc = {}) {
  Runtime RT(Table, Fuel, Gc);
  TSAInterpreter I(M, RT);
  ExecResult R = I.runMain();
  return {R.Err, RT.getOutput()};
}

Outcome runPrepared(const PreparedModule &PM, ClassTable &Table,
                    uint64_t Fuel, const GcOptions &Gc = {}) {
  Runtime RT(Table, Fuel, Gc);
  TSAExec X(PM, RT);
  ExecResult R = X.runMain();
  return {R.Err, RT.getOutput()};
}

/// Tier-1 protocol shared by every tier-1 configuration AND the replay
/// path: a fresh tier-0 preparation, exactly one profiling run of main,
/// then re-quickening. Deterministic (exec_tier_test pins replay
/// determinism), so a single-config replay reproduces the same stream.
std::unique_ptr<PreparedModule> tier1For(const TSAModule &M,
                                         ClassTable &Table, uint64_t Fuel,
                                         const ExecPolicy &Policy) {
  auto T0 = prepareModule(M);
  if (!T0)
    return nullptr;
  {
    Runtime RT(Table, Fuel);
    TSAExec X(*T0, RT);
    X.runMain();
  }
  return reprepareModule(*T0, Policy);
}

/// Runs one non-digest configuration against module \p M. \p Fuel is the
/// boosted (10x) budget.
Outcome runEngine(const MatrixEntry &C, const TSAModule &M, ClassTable &Table,
                  uint64_t Fuel) {
  switch (C.E) {
  case MatrixEntry::TreeWalk:
    return runTreeWalk(M, Table, Fuel, gcFor(C));
  case MatrixEntry::Tier0: {
    auto T0 = prepareModule(M);
    if (!T0)
      return internalOutcome("prepare failed");
    return runPrepared(*T0, Table, Fuel, gcFor(C));
  }
  case MatrixEntry::Tier1: {
    auto T1 = tier1For(M, Table, Fuel, C.Policy);
    if (!T1)
      return internalOutcome("reprepare failed");
    return runPrepared(*T1, Table, Fuel, gcFor(C));
  }
  case MatrixEntry::Digest:
    break;
  }
  return internalOutcome("bad engine");
}

std::string excerpt(const std::string &S, size_t At) {
  size_t Begin = At > 24 ? At - 24 : 0;
  std::string E = S.substr(Begin, 48);
  for (char &Ch : E)
    if (Ch == '\n')
      Ch = '/';
  return E;
}

std::string diffOutcome(const Outcome &Ref, const Outcome &Got) {
  std::ostringstream D;
  if (Got.Err != Ref.Err)
    D << "trap: got " << runtimeErrorName(Got.Err) << ", oracle "
      << runtimeErrorName(Ref.Err) << "; ";
  if (Got.Output != Ref.Output) {
    size_t P = 0;
    while (P < Got.Output.size() && P < Ref.Output.size() &&
           Got.Output[P] == Ref.Output[P])
      ++P;
    D << "output diverges at byte " << P << " (got " << Got.Output.size()
      << "B \"..." << excerpt(Got.Output, P) << "...\", oracle "
      << Ref.Output.size() << "B \"..." << excerpt(Ref.Output, P)
      << "...\")";
  }
  return D.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// DifferentialRunner
//===----------------------------------------------------------------------===//

DifferentialRunner::DifferentialRunner(RunnerOptions O) : Opts(std::move(O)) {}

unsigned DifferentialRunner::configCount() { return kNumConfigs; }

const char *DifferentialRunner::configName(unsigned K) {
  return K < kNumConfigs ? kMatrix[K].Name : "<bad config>";
}

SeedReport DifferentialRunner::run(uint64_t Seed) {
  return check(generateProgram(Seed), Seed, /*AllowDump=*/true);
}

SeedReport DifferentialRunner::runSource(const std::string &Source,
                                         uint64_t Seed) {
  return check(Source, Seed, /*AllowDump=*/true);
}

SeedReport DifferentialRunner::check(const std::string &Source, uint64_t Seed,
                                     bool AllowDump) {
  SeedReport Rep;
  Rep.Seed = Seed;

  auto P = compileMJ("testgen.mj", Source);
  if (!P->ok()) {
    // The generator's contract is that every program compiles; a
    // diagnostic here is a generator (or front-end) bug and is reported
    // as a failure of the reference configuration.
    Rep.Failures.push_back({0, kMatrix[0].Name,
                            "generated program failed to compile:\n" +
                                P->renderDiagnostics()});
    if (AllowDump)
      dumpReproducer(Rep, Source);
    return Rep;
  }
  {
    TSAVerifier V(*P->TSA);
    if (!V.verify()) {
      Rep.Failures.push_back(
          {0, kMatrix[0].Name,
           "generated module failed verification: " +
               (V.getErrors().empty() ? std::string("<no message>")
                                      : V.getErrors().front())});
      if (AllowDump)
        dumpReproducer(Rep, Source);
      return Rep;
    }
  }
  Rep.CompileOk = true;

  Outcome Ref = runTreeWalk(*P->TSA, *P->Table, Opts.Fuel);
  Rep.ConfigsRun = 1;
  if (Ref.Err == RuntimeError::OutOfFuel) {
    Rep.FuelBound = true;
    return Rep;
  }

  const uint64_t Boosted = Opts.Fuel * 10;
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);

  // The optimized twin is compiled lazily (a fresh front-end pass over
  // the same source, then optimizeModule) so the base program and its
  // wire image stay untouched — replay of any single config sees the
  // exact same inputs as the full-matrix run.
  std::unique_ptr<CompiledProgram> OptP;
  std::vector<uint8_t> OptWire;
  auto optimized = [&]() -> CompiledProgram * {
    if (!OptP) {
      OptP = compileMJ("testgen.mj", Source);
      if (OptP->ok())
        optimizeModule(*OptP->TSA);
    }
    return OptP->ok() ? OptP.get() : nullptr;
  };

  auto fail = [&](unsigned K, std::string Detail) {
    Rep.Failures.push_back({K, kMatrix[K].Name, std::move(Detail)});
  };

  for (unsigned K = 1; K != kNumConfigs; ++K) {
    if (Opts.OnlyConfig >= 0 && int(K) != Opts.OnlyConfig)
      continue;
    const MatrixEntry &C = kMatrix[K];
    ++Rep.ConfigsRun;

    if (C.E == MatrixEntry::Digest) {
      // Round-trip digest stability: decode -> re-encode must reproduce
      // the wire bytes (and stay a fixed point one trip further).
      std::string Err;
      auto U = decodeModule(ByteSpan(Wire), &Err, DecodeOptions{});
      if (!U) {
        fail(K, "decode of own encoding failed: " + Err);
        continue;
      }
      std::vector<uint8_t> W2 = encodeModule(*U->Module);
      bool Injected = Opts.InjectFailure == int(K);
      if (Injected)
        W2.push_back(0);
      if (digestOf(ByteSpan(W2)) != digestOf(ByteSpan(Wire))) {
        fail(K, "re-encoded digest drifted: " +
                    digestOf(ByteSpan(W2)).hex() + " vs " +
                    digestOf(ByteSpan(Wire)).hex());
        continue;
      }
      auto U2 = decodeModule(ByteSpan(W2), &Err, DecodeOptions{});
      if (!U2 || encodeModule(*U2->Module) != W2) {
        fail(K, "second round trip is not a fixed point");
        continue;
      }
      continue;
    }

    // Pick the module this configuration runs.
    Outcome Got;
    if (C.Decode) {
      const std::vector<uint8_t> *W = &Wire;
      if (C.Optimize) {
        CompiledProgram *OP = optimized();
        if (!OP) {
          fail(K, "optimized twin failed to compile");
          continue;
        }
        if (OptWire.empty())
          OptWire = encodeModule(*OP->TSA);
        W = &OptWire;
      }
      std::string Err;
      DecodeOptions DO;
      DO.TableDecode = C.TableDecode;
      auto U = decodeModule(ByteSpan(*W), &Err, DO);
      if (!U) {
        fail(K, std::string("decode failed (") +
                    (C.TableDecode ? "table" : "scalar") + "): " + Err);
        continue;
      }
      Got = runEngine(C, *U->Module, *U->Table, Boosted);
    } else if (C.Optimize) {
      CompiledProgram *OP = optimized();
      if (!OP) {
        fail(K, "optimized twin failed to compile");
        continue;
      }
      Got = runEngine(C, *OP->TSA, *OP->Table, Boosted);
    } else {
      Got = runEngine(C, *P->TSA, *P->Table, Boosted);
    }

    if (Opts.InjectFailure == int(K))
      Got.Output += "<injected divergence>";
    if (!(Got == Ref))
      fail(K, diffOutcome(Ref, Got));
  }

  if (!Rep.Failures.empty() && AllowDump)
    dumpReproducer(Rep, Source);
  return Rep;
}

void DifferentialRunner::dumpReproducer(SeedReport &Rep,
                                        const std::string &Source) {
  if (Opts.DumpDir.empty())
    return;
  std::error_code EC;
  std::filesystem::create_directories(Opts.DumpDir, EC);

  // Self-contained: the metadata rides as MJ comments, so the file both
  // documents the failure and compiles as-is for `--replay`.
  std::string Path =
      Opts.DumpDir + "/testgen_seed_" + std::to_string(Rep.Seed) +
      ".repro.mj";
  {
    std::ofstream F(Path);
    F << "// safetsa-gen reproducer\n";
    F << "// seed: " << Rep.Seed << "\n";
    for (const ConfigFailure &CF : Rep.Failures) {
      F << "// failing config " << CF.Config << " (" << CF.Name << ")\n";
      std::istringstream D(CF.Detail);
      std::string Line;
      while (std::getline(D, Line))
        F << "//   " << Line << "\n";
    }
    if (!Rep.Failures.empty())
      F << "// replay: safetsa-gen --seed " << Rep.Seed << " --config "
        << Rep.Failures.front().Config << "\n";
    F << Source;
  }
  Rep.ReproPath = Path;

  if (!Opts.Shrink || !Rep.CompileOk)
    return;

  // Minimize: a candidate still reproduces when it compiles, is not
  // fuel-bound, and at least one configuration diverges. Dump and
  // replay machinery stays off inside the predicate.
  RunnerOptions Sub = Opts;
  Sub.DumpDir.clear();
  Sub.Shrink = false;
  DifferentialRunner SubRunner(Sub);
  auto StillFails = [&](const std::string &S) {
    SeedReport R = SubRunner.check(S, Rep.Seed, /*AllowDump=*/false);
    return R.CompileOk && !R.FuelBound && !R.Failures.empty();
  };
  ShrinkStats Stats;
  std::string Min = shrinkSource(Source, StillFails, 400, &Stats);
  if (Min.size() >= Source.size())
    return;
  std::string MinPath =
      Opts.DumpDir + "/testgen_seed_" + std::to_string(Rep.Seed) +
      ".min.mj";
  std::ofstream F(MinPath);
  F << "// safetsa-gen minimized reproducer (seed " << Rep.Seed << ", "
    << Stats.Attempts << " attempts, " << Stats.Accepted << " reductions)\n";
  F << Min;
  Rep.MinimizedPath = MinPath;
}

//===----------------------------------------------------------------------===//
// Wire-level matrix (mutation survivors)
//===----------------------------------------------------------------------===//

bool DifferentialRunner::checkWire(const std::vector<uint8_t> &Bytes,
                                   const std::string &What,
                                   std::string *Detail) {
  auto report = [&](const std::string &D) {
    if (Detail)
      *Detail = What + ": " + D;
    if (!Opts.DumpDir.empty()) {
      std::error_code EC;
      std::filesystem::create_directories(Opts.DumpDir, EC);
      std::string Stem =
          Opts.DumpDir + "/wire_" + digestOf(ByteSpan(Bytes)).hex();
      std::ofstream Bin(Stem + ".bin", std::ios::binary);
      Bin.write(reinterpret_cast<const char *>(Bytes.data()),
                std::streamsize(Bytes.size()));
      std::ofstream Txt(Stem + ".txt");
      Txt << What << "\n" << D << "\n";
    }
    return false;
  };

  std::string Err;
  auto U = decodeModule(ByteSpan(Bytes), &Err, DecodeOptions{});
  if (!U)
    return report("fused decode failed: " + Err);

  Outcome Ref = runTreeWalk(*U->Module, *U->Table, Opts.Fuel);
  if (Ref.Err == RuntimeError::OutOfFuel)
    return true; // Fuel-bound: parity not required.
  const uint64_t Boosted = Opts.Fuel * 10;

  // Scalar decode must accept the same stream and behave identically.
  {
    DecodeOptions DO;
    DO.TableDecode = false;
    auto U2 = decodeModule(ByteSpan(Bytes), &Err, DO);
    if (!U2)
      return report("scalar decode rejected a table-accepted stream: " +
                    Err);
    Outcome O = runTreeWalk(*U2->Module, *U2->Table, Boosted);
    if (!(O == Ref))
      return report(std::string(kMatrix[2].Name) + ": " +
                    diffOutcome(Ref, O));
  }

  // Tier 0 (plain + GC stress) on one shared preparation.
  auto T0 = prepareModule(*U->Module);
  if (!T0)
    return report("prepareModule failed on a decoded module");
  for (bool Stress : {false, true}) {
    GcOptions Gc;
    if (Stress)
      Gc.StressEveryNAllocs = 1;
    Outcome O = runPrepared(*T0, *U->Table, Boosted, Gc);
    if (!(O == Ref))
      return report(std::string(Stress ? "tier0/gcstress" : "tier0") + ": " +
                    diffOutcome(Ref, O));
  }

  // Tier 1 variants from one controlled profile (a fresh tier-0
  // preparation plus exactly one profiling run, the deterministic-replay
  // protocol).
  auto T0p = prepareModule(*U->Module);
  if (!T0p)
    return report("prepareModule (profiling twin) failed");
  {
    Runtime RT(*U->Table, Boosted);
    TSAExec X(*T0p, RT);
    X.runMain();
  }
  // The tier-1 rows of the matrix (7-11), same names and policies.
  for (const MatrixEntry &C : kMatrix) {
    if (C.E != MatrixEntry::Tier1 || C.Optimize)
      continue;
    auto T1 = reprepareModule(*T0p, C.Policy);
    if (!T1)
      return report(std::string(C.Name) + ": reprepareModule failed");
    Outcome O = runPrepared(*T1, *U->Table, Boosted, gcFor(C));
    if (!(O == Ref))
      return report(std::string(C.Name) + ": " + diffOutcome(Ref, O));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// SeedReport
//===----------------------------------------------------------------------===//

std::string SeedReport::summary() const {
  std::ostringstream S;
  S << "seed " << Seed << ": ";
  if (!CompileOk)
    S << "FAILED (does not compile)";
  else if (FuelBound)
    S << "skipped (fuel-bound)";
  else if (Failures.empty())
    S << "ok (" << ConfigsRun << " configs)";
  else {
    S << "FAILED [" << Failures.front().Config << " "
      << Failures.front().Name << "] " << Failures.front().Detail;
    if (Failures.size() > 1)
      S << " (+" << (Failures.size() - 1) << " more)";
  }
  if (!ReproPath.empty())
    S << " -> " << ReproPath;
  return S.str();
}

} // namespace testgen
} // namespace safetsa
