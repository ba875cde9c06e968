//===- bench/bench_gc.cpp - GC overhead and reclaim throughput -*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cost of the precise collector (src/gc, DESIGN.md §13), two ways:
///
///  1. Mutator overhead: the full exec corpus timed with the collector
///     enabled at its default budget (safepoint polls + frame-chain
///     bookkeeping armed, no collection actually fires) vs.
///     GcOptions::Disable, as compareAB medians (BenchUtil.h).
///     Acceptance: gc_overhead_geomean <= 1.10 — safepoints must cost at
///     most 10% on ordinary code.
///
///  2. Collection throughput: an allocation-heavy churn workload run
///     under a tight budget so the collector fires continuously;
///     reports cycles, cells reclaimed, average stop-the-world pause,
///     and reclaim throughput, and checks the heap actually stayed
///     bounded.
///
///  3. Footprint: the bytes the heap holds (and charges against its
///     budget) for an int[1000], a three-field object and a 12-character
///     interned string, beside what the tagged layout it replaced held
///     for the same cells (a 40-byte header owning a std::vector of
///     24-byte tagged Values).
///
/// Emits BENCH_gc.json (wired into run_benches.sh and the bench_smoke
/// ctest entry; gates enforced only in full runs).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "exec/ExecUnit.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

using namespace safetsa;

namespace {

/// One prepared run under the given GC policy; returns the trap kind.
RuntimeError runOnce(const PreparedModule &PM, ClassTable &Table,
                     const GcOptions &G, std::string *Out = nullptr) {
  Runtime RT(Table, 200'000'000, G);
  TSAExec X(PM, RT);
  ExecResult R = X.runMain();
  if (Out)
    *Out = RT.getOutput();
  return R.Err;
}

/// Allocation-heavy churn: every iteration builds and drops a small
/// object graph, so a tight budget forces continuous collection.
const char *kChurnSrc =
    "class Box { int v; int[] payload; Box link; } "
    "class Main { static int work(int i) { "
    "Box a = new Box(); a.payload = new int[16]; "
    "Box b = new Box(); b.payload = new int[4]; "
    "a.link = b; b.v = i; a.payload[7] = i; "
    "return a.payload[7] + b.v; } "
    "static void main() { int i = 0; int s = 0; "
    "while (i < 30000) { s = s + work(i); i = i + 1; } "
    "IO.printInt(s); } }";

} // namespace

int main() {
  const bool Smoke = smokeMode();
  std::printf("GC: safepoint overhead and reclaim throughput%s\n\n",
              Smoke ? " [smoke]" : "");

  GcOptions GcOn;       // Defaults: enabled, budget never trips here.
  GcOptions GcOff;
  GcOff.Disable = true;

  BenchJson Json("gc");

  //===--------------------------------------------------------------===//
  // 1. Mutator overhead on the corpus: GC-armed vs. disabled.
  //===--------------------------------------------------------------===//

  std::printf("%-20s | %10s %10s | %8s\n", "Program", "gc-off us",
              "gc-on us", "overhead");
  std::printf("---------------------+-----------------------+---------\n");

  double LogSum = 0;
  size_t Programs = 0;
  double WorstOverhead = 0;
  std::string WorstProgram;
  for (const CorpusProgram &P : getCorpus()) {
    auto Program = compileMJ(P.Name, P.Source);
    if (!Program->ok()) {
      std::fprintf(stderr, "%s failed to compile:\n%s\n", P.Name,
                   Program->renderDiagnostics().c_str());
      return 1;
    }
    auto PM = prepareModule(*Program->TSA);
    if (!PM) {
      std::fprintf(stderr, "%s failed to lower\n", P.Name);
      return 1;
    }
    // Cross-check first: byte-identical output under both policies.
    std::string OffOut, OnOut;
    RuntimeError OffErr = runOnce(*PM, *Program->Table, GcOff, &OffOut);
    RuntimeError OnErr = runOnce(*PM, *Program->Table, GcOn, &OnOut);
    if (OffErr != OnErr || OffOut != OnOut) {
      std::fprintf(stderr, "%s diverged between GC on/off\n", P.Name);
      return 1;
    }

    ABTiming T = compareAB(
        Smoke, [&] { runOnce(*PM, *Program->Table, GcOn); },
        [&] { runOnce(*PM, *Program->Table, GcOff); });
    double Overhead = T.Ratio;
    LogSum += std::log(Overhead);
    ++Programs;
    if (Overhead > WorstOverhead) {
      WorstOverhead = Overhead;
      WorstProgram = P.Name;
    }
    std::printf("%-20s | %10.1f %10.1f | %7.3fx\n", P.Name,
                T.SecondsB * 1e6, T.SecondsA * 1e6, Overhead);
    Json.add(std::string("gc_overhead/") + P.Name, Overhead, "x");
  }
  double OverheadGeomean = std::exp(LogSum / Programs);
  std::printf("---------------------+-----------------------+---------\n");
  std::printf("%-20s | %21s | %7.3fx  (acceptance: <= 1.10x)\n",
              "GEOMEAN", "", OverheadGeomean);

  //===--------------------------------------------------------------===//
  // 2. Reclaim throughput under a tight budget.
  //===--------------------------------------------------------------===//

  auto Churn = compileMJ("churn.mj", kChurnSrc);
  if (!Churn->ok()) {
    std::fprintf(stderr, "churn failed to compile:\n%s\n",
                 Churn->renderDiagnostics().c_str());
    return 1;
  }
  auto ChurnPM = prepareModule(*Churn->TSA);
  if (!ChurnPM) {
    std::fprintf(stderr, "churn failed to lower\n");
    return 1;
  }
  GcOptions Tight;
  Tight.HeapBudget = 16u << 10; // ~16 KiB: collect every few hundred cells.
  Runtime RT(*Churn->Table, 200'000'000, Tight);
  {
    TSAExec X(*ChurnPM, RT);
    Clock::time_point Start = Clock::now();
    ExecResult R = X.runMain();
    double ChurnSec = secondsSince(Start);
    if (R.Err != RuntimeError::None) {
      std::fprintf(stderr, "churn trapped: %s\n", runtimeErrorName(R.Err));
      return 1;
    }
    const GcStats &S = RT.gcStats();
    double AvgPauseUs = S.Cycles ? S.PauseNs / 1e3 / S.Cycles : 0;
    double ReclaimPerSec =
        S.PauseNs ? S.CellsReclaimed / (S.PauseNs / 1e9) : 0;
    std::printf("\nChurn (tight budget): %llu cycles, %llu cells reclaimed, "
                "%.1fus avg pause, %.0f cells/s reclaim, %zu heap cells, "
                "%.1fms total\n",
                static_cast<unsigned long long>(S.Cycles),
                static_cast<unsigned long long>(S.CellsReclaimed),
                AvgPauseUs, ReclaimPerSec, RT.heapCells(), ChurnSec * 1e3);
    Json.add("gc_churn_cycles", static_cast<double>(S.Cycles), "");
    Json.add("gc_churn_cells_reclaimed",
             static_cast<double>(S.CellsReclaimed), "cells");
    Json.add("gc_churn_avg_pause_us", AvgPauseUs, "us");
    Json.add("gc_churn_reclaim_cells_per_s", ReclaimPerSec, "cells/s");
    Json.add("gc_churn_heap_cells", static_cast<double>(RT.heapCells()),
             "cells");
    if (!Smoke && S.Cycles == 0) {
      std::fprintf(stderr, "FAIL: tight-budget churn never collected\n");
      return 1;
    }
    // Bounded-memory proof at bench scale: 90000 allocations must not
    // leave anywhere near 90000 cells.
    if (RT.heapCells() > 10000) {
      std::fprintf(stderr, "FAIL: churn heap grew to %zu cells\n",
                   RT.heapCells());
      return 1;
    }
  }

  //===--------------------------------------------------------------===//
  // 3. Bytes held per cell, typed layout vs. the tagged one.
  //===--------------------------------------------------------------===//

  {
    Runtime Heap(*Churn->Table);
    const ClassSymbol *Box = nullptr;
    for (const ClassSymbol *C : Churn->Table->getClasses())
      if (C->Name == "Box")
        Box = C;
    TypeContext &Types = *Churn->TSA->Types;
    auto TaggedBytes = [](size_t Slots) { return 40 + 24 * Slots; };
    struct Row {
      const char *Name;
      size_t Slots;
      std::function<void()> Alloc;
    } Rows[] = {
        {"int[1000]", 1000, [&] { Heap.allocArray(Types.getInt(), 1000); }},
        {"object (3 fields)", Box->InstanceLayout.size(),
         [&] { Heap.allocObject(Box); }},
        {"string (12 chars)", 12,
         [&] { Heap.internString("hello, world", Types.getChar()); }},
    };
    const char *Keys[] = {"gc_bytes_int1000", "gc_bytes_object",
                          "gc_bytes_string"};
    std::printf("\n%-20s | %12s %12s\n", "Bytes held per cell", "typed",
                "tagged");
    for (size_t I = 0; I != std::size(Rows); ++I) {
      size_t Before = Heap.gcLiveBytes();
      Rows[I].Alloc();
      size_t Held = Heap.gcLiveBytes() - Before;
      std::printf("%-20s | %12zu %12zu\n", Rows[I].Name, Held,
                  TaggedBytes(Rows[I].Slots));
      Json.add(Keys[I], static_cast<double>(Held), "bytes");
      Json.add(std::string(Keys[I]) + "_tagged",
               static_cast<double>(TaggedBytes(Rows[I].Slots)), "bytes");
    }
  }

  Json.add("gc_overhead_geomean", OverheadGeomean, "x");
  Json.add("gc_overhead_worst", WorstOverhead, "x");
  Json.write();

  if (Smoke) {
    std::printf("\n[smoke] gates reported, not enforced\n");
    return 0;
  }
  if (OverheadGeomean > 1.10) {
    std::fprintf(stderr,
                 "FAIL: GC overhead geomean %.3fx above 1.10x gate "
                 "(worst %.3fx on %s)\n",
                 OverheadGeomean, WorstOverhead, WorstProgram.c_str());
    return 1;
  }
  return 0;
}
