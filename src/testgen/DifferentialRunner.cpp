//===- testgen/DifferentialRunner.cpp - Cross-tier parity matrix ----------===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "testgen/DifferentialRunner.h"

#include "bytecode/BCCompiler.h"
#include "bytecode/BCInterp.h"
#include "bytecode/BCVerifier.h"
#include "codec/Codec.h"
#include "driver/Compiler.h"
#include "exec/TSAInterp.h"
#include "opt/Optimizer.h"
#include "support/Digest.h"
#include "testgen/Generator.h"
#include "testgen/Shrinker.h"
#include "tsa/Verifier.h"

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include <unistd.h>

namespace safetsa {
namespace testgen {

namespace {

//===----------------------------------------------------------------------===//
// The configuration matrix
//===----------------------------------------------------------------------===//

struct MatrixEntry {
  const char *Name;
  enum Engine { TreeWalk, Tier0, Tier1, Bytecode, Digest } E;
  /// The module the engine runs. Everything from Optimized on is built
  /// from a second front-end pass over the source (the optimized twin).
  enum Input {
    Base,             ///< The compiled (or, for checkWire, decoded) module.
    Decoded,          ///< The wire image, fused table decode.
    DecodedScalar,    ///< The wire image, fused scalar decode.
    Optimized,        ///< The optimized twin.
    OptimizedDecoded, ///< The twin's wire image, fused table decode.
    OptimizedNaive,   ///< The twin, Naive-mode encode and decode.
  } In = Base;
  bool GcStress = false;  ///< StressEveryNAllocs=1 on the measured run.
  ExecPolicy Policy = {}; ///< Tier-1 masks and inline budget.

  /// Rows checkWire cannot run: the optimized twin and the bytecode
  /// backend need the source, and the digest round trip needs the
  /// encoder's own (canonical) wire image.
  bool needsSource() const {
    return In >= Optimized || E == Bytecode || E == Digest;
  }
};

using M = MatrixEntry;

// Indices are frozen: reproducers and replay commands reference them.
const MatrixEntry kMatrix[] = {
    /* 0*/ {"treewalk/source", M::TreeWalk},
    /* 1*/ {"treewalk/decoded", M::TreeWalk, M::Decoded},
    /* 2*/ {"treewalk/decoded-scalar", M::TreeWalk, M::DecodedScalar},
    /* 3*/ {"treewalk/optimized", M::TreeWalk, M::Optimized},
    /* 4*/ {"tier0", M::Tier0},
    /* 5*/ {"tier0/decoded", M::Tier0, M::Decoded},
    /* 6*/ {"tier0/gcstress", M::Tier0, M::Base, true},
    /* 7*/ {"tier1", M::Tier1},
    /* 8*/ {"tier1/nofusion", M::Tier1, M::Base, false, {.NoFusion = true}},
    /* 9*/
    {"tier1/noinlining", M::Tier1, M::Base, false, {.InlineBudget = 0}},
    /*10*/
    {"tier1/maxinline", M::Tier1, M::Base, false,
     {.InlineBudget = 0x7fffffff}},
    /*11*/ {"tier1/gcstress", M::Tier1, M::Base, true},
    /*12*/ {"tier1/optimized-decoded", M::Tier1, M::OptimizedDecoded},
    /*13*/ {"roundtrip-digest", M::Digest},
    /*14*/ {"bytecode", M::Bytecode},
    /*15*/
    {"tier1/noic", M::Tier1, M::Base, false, {.NoInlineCaches = true}},
    /*16*/ {"treewalk/gcstress", M::TreeWalk, M::Base, true},
    /*17*/ {"tier0/optimized-gcstress", M::Tier0, M::Optimized, true},
    /*18*/ {"treewalk/optimized-naive", M::TreeWalk, M::OptimizedNaive},
};
constexpr unsigned kNumConfigs = sizeof(kMatrix) / sizeof(kMatrix[0]);

//===----------------------------------------------------------------------===//
// Crash attribution
//===----------------------------------------------------------------------===//

// The row in flight. Lock-free atomics, so the signal handler may read
// them, sequentially consistent, so it never sees a new config with an
// old seed; config -1 = no row.
std::atomic<uint64_t> InFlightSeed{0};
std::atomic<int> InFlightConfig{-1};
static_assert(std::atomic<uint64_t>::is_always_lock_free &&
                  std::atomic<int>::is_always_lock_free,
              "the crash handler reads these");

constexpr int kCrashSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};

// Async-signal-safe formatting: plain stores into a stack buffer.
char *put(char *P, const char *S) {
  while (*S)
    *P++ = *S++;
  return P;
}

char *put(char *P, uint64_t V) {
  char Digits[20];
  int N = 0;
  do
    Digits[N++] = char('0' + V % 10);
  while (V /= 10);
  while (N)
    *P++ = Digits[--N];
  return P;
}

void reportCrash(int Sig) {
  int K = InFlightConfig;
  if (K >= 0) {
    uint64_t Seed = InFlightSeed;
    char Buf[256];
    char *P = put(Buf, "safetsa-gen: crashed on seed ");
    P = put(P, Seed);
    P = put(P, ", config ");
    P = put(P, uint64_t(K));
    P = put(P, " (");
    P = put(P, kMatrix[K].Name);
    P = put(P, ")\nreplay: safetsa-gen --seed ");
    P = put(P, Seed);
    P = put(P, " --config ");
    P = put(P, uint64_t(K));
    P = put(P, "\n");
    ssize_t Ignored = write(STDERR_FILENO, Buf, size_t(P - Buf));
    (void)Ignored;
  }
  // Die by the original signal, as if no handler had been installed.
  std::signal(Sig, SIG_DFL);
  std::raise(Sig);
}

GcOptions gcFor(const MatrixEntry &C) {
  GcOptions G;
  if (C.GcStress)
    G.StressEveryNAllocs = 1;
  return G;
}

std::string firstError(const std::vector<std::string> &Errors) {
  return Errors.empty() ? std::string("<no message>") : Errors.front();
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

/// A fresh tier-0 preparation of \p Mod after exactly one profiling run
/// of main: what every tier-1 configuration re-quickens.
std::unique_ptr<PreparedModule> profiledTier0(const TSAModule &Mod,
                                              ClassTable &Table,
                                              uint64_t Fuel) {
  auto T0 = prepareModule(Mod);
  if (T0)
    runPrepared(*T0, Table, Fuel);
  return T0;
}

/// One program on its way through the matrix. It holds the inputs the
/// rows share and builds the costly ones on first use, so a single-row
/// replay sees exactly the inputs of the full run: the optimized twin is
/// a fresh front-end pass over the same source (the base module and its
/// wire image stay untouched), and the tier-1 rows over the base module
/// re-quicken one shared profiled tier-0 preparation (reprepareModule
/// only reads it).
class Subject {
public:
  /// \p P and \p Source are null for a wire image (checkWire).
  Subject(CompiledProgram *P, const std::string *Source,
          const TSAModule &Base, ClassTable &BaseTable,
          const std::vector<uint8_t> &Wire, uint64_t Fuel)
      : P(P), Source(Source), Base(Base), BaseTable(BaseTable), Wire(Wire),
        Fuel(Fuel) {}

  /// Runs row \p C; returns why it diverged from \p Ref, or an empty
  /// string on parity. \p Inject appends a fake divergence.
  std::string check(const MatrixEntry &C, const Outcome &Ref, bool Inject);

private:
  CompiledProgram *P;
  const std::string *Source;
  const TSAModule &Base;
  ClassTable &BaseTable;
  const std::vector<uint8_t> &Wire;
  const uint64_t Fuel; ///< Boosted (10x) budget of every row.

  std::unique_ptr<CompiledProgram> OptP;
  std::string OptErr; ///< Why the twin is unusable, once built.
  std::vector<uint8_t> OptWire;
  std::unique_ptr<PreparedModule> BaseProfiled;

  CompiledProgram *optimized(std::string &Why);
  std::string checkDigest(bool Inject);
  Outcome runBytecode(const GcOptions &Gc, std::string &Why);
};

CompiledProgram *Subject::optimized(std::string &Why) {
  if (!OptP) {
    OptP = compileMJ("testgen.mj", *Source);
    if (!OptP->ok()) {
      OptErr = "optimized twin failed to compile";
    } else {
      optimizeModule(*OptP->TSA);
      TSAVerifier V(*OptP->TSA);
      if (!V.verify())
        OptErr = "optimized twin failed verification: " +
                 firstError(V.getErrors());
    }
  }
  Why = OptErr;
  return OptErr.empty() ? OptP.get() : nullptr;
}

std::string Subject::checkDigest(bool Inject) {
  // Round-trip digest stability: decode -> re-encode must reproduce the
  // wire bytes (and stay a fixed point one trip further).
  std::string Err;
  auto U = decodeModule(ByteSpan(Wire), &Err, DecodeOptions{});
  if (!U)
    return "decode of own encoding failed: " + Err;
  std::vector<uint8_t> W2 = encodeModule(*U->Module);
  if (Inject)
    W2.push_back(0);
  if (digestOf(ByteSpan(W2)) != digestOf(ByteSpan(Wire)))
    return "re-encoded digest drifted: " + digestOf(ByteSpan(W2)).hex() +
           " vs " + digestOf(ByteSpan(Wire)).hex();
  auto U2 = decodeModule(ByteSpan(W2), &Err, DecodeOptions{});
  if (!U2 || encodeModule(*U2->Module) != W2)
    return "second round trip is not a fixed point";
  return {};
}

Outcome Subject::runBytecode(const GcOptions &Gc, std::string &Why) {
  BCCompiler BCC(P->Types, *P->Table);
  auto BC = BCC.compile(P->AST);
  BCVerifier BV(*BC);
  if (!BV.verify()) {
    Why = "bytecode verifier rejected the program: " +
          firstError(BV.getErrors());
    return {};
  }
  Runtime RT(*P->Table, Fuel, Gc);
  BCInterpreter I(*BC, RT, P->Types);
  ExecResult R = I.runMain();
  return {R.Err, RT.getOutput()};
}

std::string Subject::check(const MatrixEntry &C, const Outcome &Ref,
                           bool Inject) {
  if (C.E == M::Digest)
    return checkDigest(Inject);

  // Pick the module this configuration runs; a decoded one lives in U.
  std::string Why;
  const TSAModule *Mod = &Base;
  ClassTable *Table = &BaseTable;
  std::unique_ptr<DecodedUnit> U;
  CompiledProgram *OP = nullptr;
  if (C.In >= M::Optimized) {
    OP = optimized(Why);
    if (!OP)
      return Why;
    Mod = OP->TSA.get();
    Table = OP->Table.get();
  }
  if (C.In != M::Base && C.In != M::Optimized) {
    DecodeOptions DO;
    DO.TableDecode = C.In != M::DecodedScalar;
    std::vector<uint8_t> NaiveWire;
    const std::vector<uint8_t> *W = &Wire;
    if (C.In == M::OptimizedNaive) {
      DO.Mode = CodecMode::Naive;
      NaiveWire = encodeModule(*OP->TSA, CodecMode::Naive);
      W = &NaiveWire;
    } else if (C.In == M::OptimizedDecoded) {
      if (OptWire.empty())
        OptWire = encodeModule(*OP->TSA);
      W = &OptWire;
    }
    U = decodeModule(ByteSpan(*W), &Why, DO);
    if (!U)
      return std::string("decode failed (") +
             (C.In == M::OptimizedNaive ? "naive"
              : DO.TableDecode          ? "table"
                                        : "scalar") +
             "): " + Why;
    Mod = U->Module.get();
    Table = U->Table.get();
  }

  Outcome Got;
  switch (C.E) {
  case M::TreeWalk:
    Got = runTreeWalk(*Mod, *Table, Fuel, gcFor(C));
    break;
  case M::Tier0: {
    auto T0 = prepareModule(*Mod);
    if (!T0)
      return "prepareModule failed";
    Got = runPrepared(*T0, *Table, Fuel, gcFor(C));
    break;
  }
  case M::Tier1: {
    std::unique_ptr<PreparedModule> Own;
    const PreparedModule *T0;
    if (C.In == M::Base) {
      if (!BaseProfiled)
        BaseProfiled = profiledTier0(*Mod, *Table, Fuel);
      T0 = BaseProfiled.get();
    } else {
      Own = profiledTier0(*Mod, *Table, Fuel);
      T0 = Own.get();
    }
    if (!T0)
      return "prepareModule failed";
    auto T1 = reprepareModule(*T0, C.Policy);
    if (!T1)
      return "reprepareModule failed";
    Got = runPrepared(*T1, *Table, Fuel, gcFor(C));
    break;
  }
  case M::Bytecode:
    Got = runBytecode(gcFor(C), Why);
    if (!Why.empty())
      return Why;
    break;
  case M::Digest:
    break;
  }

  if (Inject)
    Got.Output += "<injected divergence>";
  return Got == Ref ? std::string() : diffOutcome(Ref, Got);
}

} // namespace

//===----------------------------------------------------------------------===//
// Single-engine runs
//===----------------------------------------------------------------------===//

Outcome runTreeWalk(const TSAModule &Mod, ClassTable &Table, uint64_t Fuel,
                    const GcOptions &Gc) {
  Runtime RT(Table, Fuel, Gc);
  TSAInterpreter I(Mod, RT);
  ExecResult R = I.runMain();
  return {R.Err, RT.getOutput()};
}

Outcome runPrepared(const PreparedModule &PM, ClassTable &Table,
                    uint64_t Fuel, const GcOptions &Gc) {
  Runtime RT(Table, Fuel, Gc);
  TSAExec X(PM, RT);
  ExecResult R = X.runMain();
  return {R.Err, RT.getOutput()};
}

std::unique_ptr<PreparedModule> tier1For(const TSAModule &Mod,
                                         ClassTable &Table,
                                         const ExecPolicy &Policy,
                                         uint64_t Fuel) {
  auto T0 = profiledTier0(Mod, Table, Fuel);
  return T0 ? reprepareModule(*T0, Policy) : nullptr;
}

void PrintTo(const Outcome &O, std::ostream *OS) {
  *OS << runtimeErrorName(O.Err) << " after \"" << O.Output << "\"";
}

//===----------------------------------------------------------------------===//
// DifferentialRunner
//===----------------------------------------------------------------------===//

DifferentialRunner::DifferentialRunner(RunnerOptions O) : Opts(std::move(O)) {}

unsigned DifferentialRunner::configCount() { return kNumConfigs; }

const char *DifferentialRunner::configName(unsigned K) {
  return K < kNumConfigs ? kMatrix[K].Name : "<bad config>";
}

RowInFlight::RowInFlight(uint64_t Seed, unsigned Config) {
  InFlightSeed = Seed;
  InFlightConfig = int(Config);
}

RowInFlight::~RowInFlight() { InFlightConfig = -1; }

void installCrashReporter() {
  // Its own stack, so a crash that exhausted the main one still reports.
  static char AltStack[64 * 1024];
  stack_t SS = {};
  SS.ss_sp = AltStack;
  SS.ss_size = sizeof(AltStack);
  sigaltstack(&SS, nullptr);
  struct sigaction SA = {};
  SA.sa_handler = reportCrash;
  SA.sa_flags = SA_ONSTACK;
  sigemptyset(&SA.sa_mask);
  for (int Sig : kCrashSignals)
    sigaction(Sig, &SA, nullptr);
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
  // Compiling and the reference run count as config 0's.
  std::optional<RowInFlight> Row(std::in_place, Seed, 0u);

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
      Rep.Failures.push_back({0, kMatrix[0].Name,
                              "generated module failed verification: " +
                                  firstError(V.getErrors())});
      if (AllowDump)
        dumpReproducer(Rep, Source);
      return Rep;
    }
  }
  Rep.CompileOk = true;

  Rep.Reference = runTreeWalk(*P->TSA, *P->Table, Opts.Fuel);
  Rep.ConfigsRun = 1;
  if (Rep.Reference.Err == RuntimeError::OutOfFuel) {
    Rep.FuelBound = true;
    return Rep;
  }

  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  Subject S(P.get(), &Source, *P->TSA, *P->Table, Wire, Opts.Fuel * 10);
  for (unsigned K = 1; K != kNumConfigs; ++K) {
    if (Opts.OnlyConfig >= 0 && int(K) != Opts.OnlyConfig)
      continue;
    ++Rep.ConfigsRun;
    Row.emplace(Seed, K);
    std::string Detail =
        S.check(kMatrix[K], Rep.Reference, Opts.InjectFailure == int(K));
    if (!Detail.empty())
      Rep.Failures.push_back({K, kMatrix[K].Name, std::move(Detail)});
  }
  Row.reset();

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

Outcome agreedOutcome(const std::string &Source) {
  SeedReport R = DifferentialRunner().runSource(Source);
  if (R.ok())
    return R.Reference;
  return {RuntimeError::Internal, R.summary()};
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

  Subject S(nullptr, nullptr, *U->Module, *U->Table, Bytes, Opts.Fuel * 10);
  for (unsigned K = 1; K != kNumConfigs; ++K) {
    if (kMatrix[K].needsSource())
      continue;
    std::string D = S.check(kMatrix[K], Ref, /*Inject=*/false);
    if (!D.empty())
      return report(std::string(kMatrix[K].Name) + ": " + D);
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
