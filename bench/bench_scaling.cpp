//===- bench/bench_scaling.cpp - Warm-path thread scaling -----*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures how the warm (paid-once, read-mostly) paths scale with
/// threads — the property the lock-free ModuleCache hit path and the
/// striped tier-0 profile counters exist to provide:
///
///   - Warm getPrepared hits: every thread loops loadPrepared over the
///     corpus, each module primed to tier 1 the way a served module
///     settles (snapshot probe + striped counter bump; never takes a
///     shard mutex). Reported as hits/sec at 1/2/4/8 threads, plus
///     warm_hit_scaling_8t = throughput(8t) / throughput(1t).
///   - Corpus exec sweeps: every thread executes the full corpus from
///     the SAME tier-0 PreparedModule objects (per-thread Runtime), so
///     always-on profiling is the only cross-thread traffic. Reported as
///     sweeps/sec at 1/2/4/8 threads plus exec_sweep_scaling_8t.
///
/// Acceptance (enforced only when the host actually has >= 8 hardware
/// threads — scaling cannot be demonstrated on fewer cores than the
/// thread count, so smaller hosts report the metrics without gating):
/// warm_hit_scaling_8t >= 4.0 and exec_sweep_scaling_8t >= 2.0.
/// Emits BENCH_scaling.json either way.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "exec/ExecUnit.h"
#include "serve/CodeServer.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace safetsa;

namespace {

/// Runs \p Work concurrently on \p NThreads for at least \p Seconds
/// (each worker re-checks the clock between work items) and returns
/// total completed items per second. One warm-up item per thread runs
/// untimed so first-touch costs (TLS stripe assignment, lazy pools) stay
/// out of the window.
template <typename WorkFn>
double throughputAt(unsigned NThreads, double Seconds, WorkFn &&Work) {
  std::vector<std::thread> Workers;
  std::atomic<uint64_t> Items{0};
  std::atomic<bool> Go{false};
  for (unsigned T = 0; T != NThreads; ++T)
    Workers.emplace_back([&] {
      Work();
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      Clock::time_point End =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(Seconds));
      uint64_t Mine = 0;
      do {
        Work();
        ++Mine;
      } while (Clock::now() < End);
      Items.fetch_add(Mine, std::memory_order_relaxed);
    });
  Clock::time_point Start = Clock::now();
  Go.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();
  return static_cast<double>(Items.load()) / secondsSince(Start);
}

} // namespace

int main() {
  const bool Smoke = smokeMode();
  const unsigned HW = std::thread::hardware_concurrency();
  std::printf("Warm-path thread scaling (%u hardware thread%s)%s\n\n", HW,
              HW == 1 ? "" : "s", Smoke ? " [smoke]" : "");

  // One server, corpus published and primed: every measured load below
  // is a pure warm hit on the settled tier-1 form, the lock-free fast
  // path, not tier escalation.
  CodeServer Server(CodeServerOptions{/*CacheBytes=*/256u << 20,
                                      /*CacheShards=*/8,
                                      /*Threads=*/4,
                                      /*StoreDir=*/""});
  std::vector<Digest> Digests;
  std::vector<std::unique_ptr<CompiledProgram>> Programs;
  std::vector<std::unique_ptr<PreparedModule>> Prepared;
  for (const CorpusProgram &P : getCorpus()) {
    auto C = compileMJ(P.Name, P.Source);
    if (!C->ok()) {
      std::fprintf(stderr, "%s failed to compile\n", P.Name);
      return 1;
    }
    std::vector<uint8_t> Wire = encodeModule(*C->TSA);
    std::string Err;
    Digests.push_back(Server.publish(ByteSpan(Wire), &Err));
    if (!Err.empty()) {
      std::fprintf(stderr, "publish failed: %s\n", Err.c_str());
      return 1;
    }
    auto PM = prepareModule(*C->TSA);
    if (!PM) {
      std::fprintf(stderr, "%s failed to lower\n", P.Name);
      return 1;
    }
    Prepared.push_back(std::move(PM));
    Programs.push_back(std::move(C));
  }
  // Prime each module the way served requests settle it: run what
  // loadPrepared returns until that is the tier-1 form.
  for (size_t I = 0; I != Digests.size(); ++I) {
    const char *Name = getCorpus()[I].Name;
    std::string Err;
    auto Unit = Server.load(Digests[I], &Err);
    for (unsigned Run = 0;; ++Run) {
      auto PM = Unit ? Server.loadPrepared(Digests[I], &Err) : nullptr;
      if (!PM || Run == 256) {
        std::fprintf(stderr, "%s: prime failed: %s\n", Name,
                     PM ? "never reached tier 1" : Err.c_str());
        return 1;
      }
      if (PM->Tier == 1)
        break;
      Runtime RT(*Unit->Table);
      TSAExec X(*PM, RT);
      if (X.runMain().Err != RuntimeError::None) {
        std::fprintf(stderr, "%s: tier-0 run failed\n", Name);
        return 1;
      }
    }
  }

  BenchJson Json("scaling");
  const double WarmSecs = Smoke ? 0.02 : 0.4;
  const double ExecSecs = Smoke ? 0.02 : 0.8;
  const unsigned ThreadCounts[] = {1, 2, 4, 8};

  // Section 1: warm getPrepared hits. One work item = one loadPrepared
  // over every corpus digest (so the per-item cost is big enough that
  // the duration check does not dominate).
  std::printf("Warm getPrepared hits (all %zu corpus digests per op):\n",
              Digests.size());
  double WarmTput[4] = {};
  for (unsigned I = 0; I != 4; ++I) {
    unsigned N = ThreadCounts[I];
    double OpsPerSec = throughputAt(N, WarmSecs, [&] {
      std::string Err;
      for (const Digest &D : Digests)
        if (!Server.loadPrepared(D, &Err))
          std::abort();
    });
    WarmTput[I] = OpsPerSec * static_cast<double>(Digests.size());
    std::printf("  %u thread%s: %12.0f hits/sec  (%.0f ns/hit)\n", N,
                N == 1 ? " " : "s", WarmTput[I],
                1e9 * N / WarmTput[I]);
    char Key[48];
    std::snprintf(Key, sizeof(Key), "warm_hits_per_sec/%u_threads", N);
    Json.add(Key, WarmTput[I], "hits/s");
  }
  double WarmScaling8 = WarmTput[3] / WarmTput[0];
  double Warm8v4 = WarmTput[3] / WarmTput[2];
  std::printf("  scaling 8t/1t: %.2fx   8t/4t: %.2fx\n", WarmScaling8,
              Warm8v4);
  Json.add("warm_hit_scaling_8t", WarmScaling8, "x");
  Json.add("warm_hit_8t_over_4t", Warm8v4, "x");

  // Section 2: corpus exec sweeps on shared tier-0 modules (always-on
  // profiling active — the cross-thread traffic the striped counters
  // were built for).
  std::printf("\nExec sweeps, shared tier-0 modules (corpus sweeps/sec):\n");
  double ExecTput[4] = {};
  for (unsigned I = 0; I != 4; ++I) {
    unsigned N = ThreadCounts[I];
    ExecTput[I] = throughputAt(N, ExecSecs, [&] {
      for (size_t P = 0; P != Prepared.size(); ++P) {
        Runtime RT(*Programs[P]->Table);
        TSAExec X(*Prepared[P], RT);
        if (X.runMain().Err != RuntimeError::None)
          std::abort();
      }
    });
    std::printf("  %u thread%s: %10.1f\n", N, N == 1 ? " " : "s",
                ExecTput[I]);
    char Key[48];
    std::snprintf(Key, sizeof(Key), "exec_sweeps_per_sec/%u_threads", N);
    Json.add(Key, ExecTput[I], "sweeps/s");
  }
  double ExecScaling8 = ExecTput[3] / ExecTput[0];
  std::printf("  scaling 8t/1t: %.2fx\n", ExecScaling8);
  Json.add("exec_sweep_scaling_8t", ExecScaling8, "x");
  Json.add("hardware_threads", static_cast<double>(HW), "threads");
  Json.write();

  if (Smoke) {
    std::printf("\n[smoke] gates reported, not enforced\n");
    return 0;
  }
  if (HW < 8) {
    std::printf("\nNOTE: %u hardware thread%s — 8-thread scaling gates "
                "(warm >= 4.0x, exec >= 2.0x) reported, not enforced.\n",
                HW, HW == 1 ? "" : "s");
    return 0;
  }
  bool Failed = false;
  if (WarmScaling8 < 4.0) {
    std::fprintf(stderr,
                 "FAIL: warm_hit_scaling_8t %.2fx below 4.0x gate\n",
                 WarmScaling8);
    Failed = true;
  }
  if (ExecScaling8 < 2.0) {
    std::fprintf(stderr,
                 "FAIL: exec_sweep_scaling_8t %.2fx below 2.0x gate\n",
                 ExecScaling8);
    Failed = true;
  }
  if (Warm8v4 < 0.90) {
    std::fprintf(stderr,
                 "FAIL: warm hits at 8 threads slower than at 4 "
                 "(%.2fx)\n",
                 Warm8v4);
    Failed = true;
  }
  return Failed ? 1 : 0;
}
