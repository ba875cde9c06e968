//===- bench/bench_exec.cpp - Tree-walk vs prepared execution -*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the quickened execution units against the tree-walking
/// interpreter over the corpus: per-program time for both interpreters
/// (outputs cross-checked first), the corpus geomean speedup (acceptance:
/// prepared >= 3x) and the one-time lowering cost that speedup has to
/// amortize. A second section re-quickens every profiled module to tier 1
/// (inline caches, devirtualization, superinstruction fusion, speculative
/// inlining) and times it against the tier-0 profiling interpreter; the
/// call-heavy subset — programs whose profile recorded at least one
/// virtual dispatch — carries its own geomean (acceptance: tier 1 >=
/// 1.25x), and no program may fall below 0.95x. A third section isolates
/// speculative inlining (DESIGN.md §14): the same profiled modules
/// re-quickened with splicing disabled versus the spliced forms; the
/// call-heavy subset here is picked by flattened-call density — at least
/// one dynamic call through a spliced site per 16 executed instructions
/// (spliced-site profile heat per tier-0 run over fuel-metered
/// instructions per run), with a 100k-instruction floor so the ratio
/// reflects steady-state interpretation rather than per-run VM setup —
/// and must show >= 1.15x. Every ratio is a compareAB median
/// (BenchUtil.h). Emits BENCH_exec.json.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "exec/ExecUnit.h"
#include "exec/TSAInterp.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

using namespace safetsa;

namespace {

struct ProgramRun {
  std::string Name;
  std::unique_ptr<CompiledProgram> Program;
  std::unique_ptr<PreparedModule> Prepared;
  std::unique_ptr<PreparedModule> Tier1; ///< Default (spliced) tier 1.
  /// Profiled tier-0 executions at the moment the spliced tier 1 was
  /// built: Tiering.InlinedHeat summed over this many runs, so dividing
  /// recovers per-run flattened-call counts for the density rule.
  uint64_t Tier0Runs = 0;
};

ExecResult runTree(const TSAModule &M, ClassTable &Table,
                   std::string *Output = nullptr) {
  Runtime RT(Table);
  TSAInterpreter Interp(M, RT);
  ExecResult R = Interp.runMain();
  if (Output)
    *Output = RT.getOutput();
  return R;
}

ExecResult runPrep(const PreparedModule &PM, ClassTable &Table,
                   std::string *Output = nullptr) {
  Runtime RT(Table);
  TSAExec Exec(PM, RT);
  ExecResult R = Exec.runMain();
  if (Output)
    *Output = RT.getOutput();
  return R;
}

} // namespace

int main() {
  const bool Smoke = smokeMode();
  std::printf("Execution: prepared units vs tree-walking interpreter%s\n\n",
              Smoke ? " [smoke]" : "");

  // Compile and lower every corpus program, timing the lowering itself —
  // that is the one-time cost the per-run speedup has to amortize.
  std::vector<ProgramRun> Runs;
  double PrepareSeconds = 0;
  size_t TotalCode = 0;
  for (const CorpusProgram &P : getCorpus()) {
    ProgramRun R;
    R.Name = P.Name;
    R.Program = compileMJ(P.Name, P.Source);
    if (!R.Program->ok()) {
      std::fprintf(stderr, "%s failed to compile:\n%s\n", P.Name,
                   R.Program->renderDiagnostics().c_str());
      return 1;
    }
    Clock::time_point Start = Clock::now();
    R.Prepared = prepareModule(*R.Program->TSA);
    PrepareSeconds += secondsSince(Start);
    if (!R.Prepared) {
      std::fprintf(stderr, "%s failed to lower\n", P.Name);
      return 1;
    }
    TotalCode += R.Prepared->totalCode();
    Runs.push_back(std::move(R));
  }

  // Cross-check before timing anything: both interpreters must agree on
  // the trap kind and every byte of output.
  for (ProgramRun &R : Runs) {
    std::string TreeOut, PrepOut;
    ExecResult TR = runTree(*R.Program->TSA, *R.Program->Table, &TreeOut);
    ExecResult PR = runPrep(*R.Prepared, *R.Program->Table, &PrepOut);
    if (TR.Err != PR.Err || TreeOut != PrepOut) {
      std::fprintf(stderr,
                   "%s diverged: tree-walk %s (%zu bytes), prepared %s "
                   "(%zu bytes)\n",
                   R.Name.c_str(), runtimeErrorName(TR.Err), TreeOut.size(),
                   runtimeErrorName(PR.Err), PrepOut.size());
      return 1;
    }
  }

  std::printf("%-20s | %10s %10s | %7s\n", "Program", "tree us", "prep us",
              "speedup");
  std::printf("---------------------+-----------------------+--------\n");

  BenchJson Json("exec");
  double LogSum = 0;
  for (ProgramRun &R : Runs) {
    ABTiming T = compareAB(
        Smoke, [&] { runTree(*R.Program->TSA, *R.Program->Table); },
        [&] { runPrep(*R.Prepared, *R.Program->Table); });
    double Speedup = T.Ratio;
    LogSum += std::log(Speedup);
    std::printf("%-20s | %10.1f %10.1f | %6.2fx\n", R.Name.c_str(),
                T.SecondsA * 1e6, T.SecondsB * 1e6, Speedup);
    Json.add("speedup/" + R.Name, Speedup, "x");
  }
  double Geomean = std::exp(LogSum / Runs.size());
  std::printf("---------------------+-----------------------+--------\n");
  std::printf("%-20s | %21s | %6.2fx  (acceptance: >= 3x)\n", "GEOMEAN", "",
              Geomean);

  std::printf("\nOne-time lowering cost: %zu prepared instructions in "
              "%.2fms (%.0f insts/ms)\n",
              TotalCode, PrepareSeconds * 1e3,
              TotalCode / (PrepareSeconds * 1e3));

  // Tier 1: every module was profiled by the timing loop above (tier 0
  // records receiver classes and invocation counts as it runs), so
  // re-quickening here resolves inline caches from a hot, settled
  // profile — exactly what ModuleCache does when a module crosses the
  // hot threshold. Parity is re-checked against the tree-walker before
  // any timing.
  std::printf("\nTier 1 (profile-guided re-quickening) vs tier 0:\n");
  std::printf("%-20s | %10s %10s | %7s\n", "Program", "t0 us", "t1 us",
              "speedup");
  std::printf("---------------------+-----------------------+--------\n");
  double ReprepareSeconds = 0;
  double T1LogSum = 0, CallLogSum = 0;
  unsigned CallCount = 0;
  uint64_t FusedTotal = 0, MonoTotal = 0, MonoGuardedTotal = 0,
           PolyTotal = 0, DevirtTotal = 0;
  uint64_t ICHitsTotal = 0, ICMissesTotal = 0;
  double MinSpeedup = 1e30;
  std::string MinProgram;
  for (ProgramRun &R : Runs) {
    const bool CallHeavy = R.Prepared->Profile &&
                           R.Prepared->Profile->totalDispatchSamples() > 0;
    if (R.Prepared->Profile && R.Prepared->MainUnit)
      R.Tier0Runs =
          R.Prepared->Profile->invocations(R.Prepared->MainUnit->Index);
    Clock::time_point Start = Clock::now();
    auto T1 = reprepareModule(*R.Prepared);
    ReprepareSeconds += secondsSince(Start);
    if (!T1) {
      std::fprintf(stderr, "%s failed to re-quicken\n", R.Name.c_str());
      return 1;
    }

    std::string TreeOut, T1Out;
    ExecResult TR = runTree(*R.Program->TSA, *R.Program->Table, &TreeOut);
    ExecResult PR = runPrep(*T1, *R.Program->Table, &T1Out);
    if (TR.Err != PR.Err || TreeOut != T1Out) {
      std::fprintf(stderr, "%s tier-1 diverged from tree-walk: %s vs %s\n",
                   R.Name.c_str(), runtimeErrorName(TR.Err),
                   runtimeErrorName(PR.Err));
      return 1;
    }

    // Tier 0 is timed again here, round by round against tier 1: the
    // ratio is what the gates check, and the table above ran under
    // different cache and frequency conditions.
    ABTiming T = compareAB(
        Smoke, [&] { runPrep(*R.Prepared, *R.Program->Table); },
        [&] { runPrep(*T1, *R.Program->Table); });
    double Speedup = T.Ratio;
    T1LogSum += std::log(Speedup);
    if (CallHeavy) {
      CallLogSum += std::log(Speedup);
      ++CallCount;
    }
    if (Speedup < MinSpeedup) {
      MinSpeedup = Speedup;
      MinProgram = R.Name;
    }
    std::printf("%-20s | %10.1f %10.1f | %6.2fx  %s%s\n", R.Name.c_str(),
                T.SecondsA * 1e6, T.SecondsB * 1e6, Speedup,
                CallHeavy ? "[call-heavy] " : "",
                renderTierSummary(*T1).c_str());
    Json.add("tier1_speedup/" + R.Name, Speedup, "x");

    for (unsigned Op = static_cast<unsigned>(XOp::BrCmpLtI);
         Op <= static_cast<unsigned>(XOp::MoveJmp); ++Op)
      FusedTotal += T1->countOp(static_cast<XOp>(Op));
    // Monomorphic sites are counted from the lowering-time
    // classification, not from one-way DispatchIC opcodes: on this
    // whole-program corpus closed-world devirtualization turns nearly
    // every single-receiver site into a guard-free CallUnit, so the
    // opcode count alone reads 0 (the old tier1_mono_sites artifact).
    MonoTotal += T1->Tiering.MonoLoweredDirect;
    MonoGuardedTotal += T1->Tiering.MonoICs;
    PolyTotal += T1->Tiering.PolyICs;
    DevirtTotal += T1->Tiering.DevirtCalls;
    ICHitsTotal += T1->ICHits.load();
    ICMissesTotal += T1->ICMisses.load();
    R.Tier1 = std::move(T1); // The inlining section below re-times it.
  }
  double T1Geomean = std::exp(T1LogSum / Runs.size());
  double CallGeomean =
      CallCount ? std::exp(CallLogSum / CallCount) : 1.0;
  std::printf("---------------------+-----------------------+--------\n");
  std::printf("%-20s | %21s | %6.2fx\n", "GEOMEAN (all)", "", T1Geomean);
  std::printf("%-20s | %21s | %6.2fx  (acceptance: >= 1.25x, %u programs)\n",
              "GEOMEAN (call-heavy)", "", CallGeomean, CallCount);
  std::printf("%-20s | %21s | %6.2fx  (%s; acceptance: >= 0.95x)\n",
              "MIN (per-unit gate)", "", MinSpeedup, MinProgram.c_str());
  std::printf("\nRe-quickening cost: %.2fms total; %llu mono (%llu guarded, "
              "rest devirted) + %llu poly sites, %llu devirt calls, "
              "%llu fused insts; %llu IC hits / %llu misses during timing\n",
              ReprepareSeconds * 1e3,
              static_cast<unsigned long long>(MonoTotal),
              static_cast<unsigned long long>(MonoGuardedTotal),
              static_cast<unsigned long long>(PolyTotal),
              static_cast<unsigned long long>(DevirtTotal),
              static_cast<unsigned long long>(FusedTotal),
              static_cast<unsigned long long>(ICHitsTotal),
              static_cast<unsigned long long>(ICMissesTotal));

  // Speculative inlining isolated: the same profiled modules
  // re-quickened with splicing disabled are the pre-inlining tier 1;
  // the section above already built (and parity-checked) the spliced
  // forms under the default budget.
  std::printf("\nTier-1 speculative inlining (spliced vs call-preserving "
              "tier 1):\n");
  std::printf("%-20s | %10s %10s | %7s\n", "Program", "off us", "on us",
              "speedup");
  std::printf("---------------------+-----------------------+--------\n");
  double InlLogSum = 0, InlCallLogSum = 0;
  unsigned InlCallCount = 0;
  uint64_t InlinedSitesTotal = 0, InlineGuardMissTotal = 0;
  double InlMinSpeedup = 1e30;
  std::string InlMinProgram;
  for (ProgramRun &R : Runs) {
    auto T1Off = reprepareModule(*R.Prepared, {.InlineBudget = 0});
    if (!T1Off) {
      std::fprintf(stderr, "%s failed to re-quicken (InlineBudget 0)\n",
                   R.Name.c_str());
      return 1;
    }
    std::string TreeOut, OffOut;
    ExecResult TR = runTree(*R.Program->TSA, *R.Program->Table, &TreeOut);
    ExecResult PR = runPrep(*T1Off, *R.Program->Table, &OffOut);
    if (TR.Err != PR.Err || TreeOut != OffOut) {
      std::fprintf(stderr,
                   "%s inline-free tier 1 diverged from tree-walk: "
                   "%s vs %s\n",
                   R.Name.c_str(), runtimeErrorName(TR.Err),
                   runtimeErrorName(PR.Err));
      return 1;
    }

    const uint32_t Spliced = R.Tier1->Tiering.InlinedSites;
    // Call-heavy membership is decided by flattened-call density, and
    // both inputs are deterministic: spliced-site profile heat divided
    // by the tier-0 runs that accumulated it gives dynamic calls per
    // run, and one fuel-metered execution of the splice-free tier 1
    // gives instructions per run. Short programs are floored out —
    // under ~100k instructions a run is mostly VM setup, which splicing
    // cannot touch, so the ratio would misclassify them.
    const uint64_t MeterFuel = 1'000'000'000;
    uint64_t InstsPerRun = 0;
    {
      Runtime RT(*R.Program->Table, MeterFuel);
      TSAExec Exec(*T1Off, RT);
      Exec.runMain();
      InstsPerRun = MeterFuel - RT.fuelLeft();
    }
    double HeatPerRun =
        static_cast<double>(R.Tier1->Tiering.InlinedHeat) /
        static_cast<double>(R.Tier0Runs ? R.Tier0Runs : 1);
    double CallsPerKilo =
        InstsPerRun ? 1e3 * HeatPerRun / static_cast<double>(InstsPerRun)
                    : 0.0;
    const bool InlCallHeavy =
        CallsPerKilo * 16 >= 1000 && InstsPerRun >= 100000;
    ABTiming T = compareAB(
        Smoke, [&] { runPrep(*T1Off, *R.Program->Table); },
        [&] { runPrep(*R.Tier1, *R.Program->Table); });
    double Speedup = T.Ratio;
    InlLogSum += std::log(Speedup);
    if (InlCallHeavy) {
      InlCallLogSum += std::log(Speedup);
      ++InlCallCount;
    }
    if (Speedup < InlMinSpeedup) {
      InlMinSpeedup = Speedup;
      InlMinProgram = R.Name;
    }
    std::printf("%-20s | %10.1f %10.1f | %6.2fx  %s%u site%s spliced, "
                "%.0f flattened calls/kinst\n",
                R.Name.c_str(), T.SecondsA * 1e6, T.SecondsB * 1e6, Speedup,
                InlCallHeavy ? "[call-heavy] " : "", Spliced,
                Spliced == 1 ? "" : "s", CallsPerKilo);
    Json.add("inline_speedup/" + R.Name, Speedup, "x");
    InlinedSitesTotal += Spliced;
    InlineGuardMissTotal += R.Tier1->InlineGuardMisses.load();
  }
  double InlGeomean = std::exp(InlLogSum / Runs.size());
  double InlCallGeomean =
      InlCallCount ? std::exp(InlCallLogSum / InlCallCount) : 1.0;
  std::printf("---------------------+-----------------------+--------\n");
  std::printf("%-20s | %21s | %6.2fx\n", "GEOMEAN (all)", "", InlGeomean);
  std::printf("%-20s | %21s | %6.2fx  (acceptance: >= 1.15x, %u programs)\n",
              "GEOMEAN (call-heavy)", "", InlCallGeomean, InlCallCount);
  std::printf("%-20s | %21s | %6.2fx  (%s)\n", "MIN", "", InlMinSpeedup,
              InlMinProgram.c_str());
  std::printf("\nSplices: %llu sites inlined corpus-wide; %llu receiver-"
              "guard misses during timing (misses fall back to the "
              "preserved one-way IC, no deoptimization)\n",
              static_cast<unsigned long long>(InlinedSitesTotal),
              static_cast<unsigned long long>(InlineGuardMissTotal));

  Json.add("geomean_speedup", Geomean, "x");
  Json.add("prepare_ms_total", PrepareSeconds * 1e3, "ms");
  Json.add("prepared_insts_total", static_cast<double>(TotalCode), "insts");
  Json.add("tier1_geomean", T1Geomean, "x");
  Json.add("tier1_geomean_callheavy", CallGeomean, "x");
  Json.add("tier1_callheavy_programs", static_cast<double>(CallCount), "");
  Json.add("reprepare_ms_total", ReprepareSeconds * 1e3, "ms");
  Json.add("tier1_mono_sites", static_cast<double>(MonoTotal), "sites");
  Json.add("tier1_mono_guarded", static_cast<double>(MonoGuardedTotal),
           "sites");
  Json.add("tier1_poly_sites", static_cast<double>(PolyTotal), "sites");
  Json.add("tier1_devirt_sites", static_cast<double>(DevirtTotal), "sites");
  Json.add("tier1_fused_insts", static_cast<double>(FusedTotal), "insts");
  Json.add("tier1_min_speedup", MinSpeedup, "x");
  Json.add("tier1_ic_hits", static_cast<double>(ICHitsTotal), "");
  Json.add("tier1_ic_misses", static_cast<double>(ICMissesTotal), "");
  Json.add("inline_geomean", InlGeomean, "x");
  Json.add("inline_geomean_callheavy", InlCallGeomean, "x");
  Json.add("inline_callheavy_programs",
           static_cast<double>(InlCallCount), "");
  Json.add("inline_min_speedup", InlMinSpeedup, "x");
  Json.add("inline_sites_total", static_cast<double>(InlinedSitesTotal),
           "sites");
  Json.add("inline_guard_misses",
           static_cast<double>(InlineGuardMissTotal), "");
  Json.write();

  if (Smoke) {
    std::printf("\n[smoke] gates reported, not enforced\n");
    return 0;
  }
  bool Failed = false;
  if (Geomean < 3.0) {
    std::fprintf(stderr, "FAIL: geomean speedup %.2fx below 3x target\n",
                 Geomean);
    Failed = true;
  }
  if (CallCount && CallGeomean < 1.25) {
    std::fprintf(stderr,
                 "FAIL: tier-1 call-heavy geomean %.2fx below 1.25x target\n",
                 CallGeomean);
    Failed = true;
  }
  // Per-program regression gate: tier 1 must not make any single program
  // materially slower than its own tier-0 form.
  if (MinSpeedup < 0.95) {
    std::fprintf(stderr,
                 "FAIL: tier-1 min speedup %.2fx (%s) below 0.95x gate\n",
                 MinSpeedup, MinProgram.c_str());
    Failed = true;
  }
  // Inlining gate: over the call-heavy subset (>= 1 flattened dynamic
  // call per 16 executed instructions, >= 100k instructions per run),
  // the spliced tier 1 must beat the call-preserving tier 1 by
  // >= 1.15x. An empty subset also fails: the corpus contains programs
  // built to qualify, so losing them means the splicer regressed.
  if (!InlCallCount || InlCallGeomean < 1.15) {
    std::fprintf(stderr,
                 "FAIL: inlining call-heavy geomean %.2fx below 1.15x "
                 "target (%u programs)\n",
                 InlCallGeomean, InlCallCount);
    Failed = true;
  }
  return Failed ? 1 : 0;
}
