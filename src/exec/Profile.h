//===- exec/Profile.h - Tier-0 execution profiles -------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Side-table execution profiles gathered by tier-0 (profiling) execution
/// of a PreparedModule: per-method invocation counters and bounded
/// per-call-site receiver-class profiles for virtual dispatches.
///
/// The tables live *beside* the ExecInst streams, never inside them: the
/// prepared code stays immutable and shareable, and every counter is a
/// relaxed atomic, so any number of TSAExec instances can execute (and
/// profile) one PreparedModule concurrently with no races (TSan-proved
/// by the exec-tier tests).
///
/// Counters are *striped per thread* (ShardedCounter::threadStripe picks
/// the stripe, each stripe's arrays are cache-line-aligned allocations)
/// so always-on tier-0 profiling does not ping-pong one cache line
/// between executing threads: recordInvocation / recordDispatch touch
/// only the calling thread's stripe. The one shared piece is the
/// first-seen receiver-class table (Ways below), claimed by CAS exactly
/// as before — it is written at most kWays times per site ever, so
/// sharing it costs nothing, and it preserves the deterministic
/// first-seen recording order the replay tests assert (single-threaded
/// executions still yield identical tier-1 streams). Readers merge the
/// stripes on demand: site() returns a summed SiteSummary snapshot, the
/// flush/merge point reprepareModule() reads through when it consumes
/// the profile.
///
/// When a method crosses the hot threshold, reprepareModule() consumes
/// the profile and produces a tier-1 stream with inline caches,
/// speculative devirtualization, and superinstruction fusion (see
/// ExecUnit.h and DESIGN.md §11). The IC state machine is resolved at
/// re-preparation time from the recorded classes: one distinct receiver
/// class -> monomorphic cache, up to kWays -> polymorphic cache, more
/// (Overflow != 0) -> megamorphic demotion back to the plain vtable
/// dispatch.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_EXEC_PROFILE_H
#define SAFETSA_EXEC_PROFILE_H

#include "support/ShardedCounter.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace safetsa {

struct ClassSymbol;

/// The full profile side table for one tier-0 PreparedModule. Sized at
/// preparation time (one invocation slot per unit, one bounded
/// receiver-class profile per lowered Dispatch site, module-wide);
/// indices are baked into ExecUnit::Index and ExecInst::S so recording
/// is a stripe pick plus a direct array access.
class ProfileData {
public:
  /// Distinct receiver classes tracked per site; more overflow into the
  /// megamorphic tally. Must match ICEntry::kMaxWays (static_assert in
  /// ExecUnit.h).
  static constexpr unsigned kWays = 4;
  /// Counter stripes. A power of two; modest because each stripe carries
  /// full per-unit/per-site arrays.
  static constexpr unsigned kStripes = 8;
  /// Per-method invocation count at which a tier-0 module is hot and
  /// ModuleCache re-quickens it (DESIGN.md §11).
  static constexpr uint64_t kHotThreshold = 32;
  /// Saturation ceiling for every profile counter: adds stop here
  /// instead of wrapping, so no amount of tier-0 execution can ever
  /// wrap a hot tally around and demote the site/method below
  /// kHotThreshold. Low enough that a cross-stripe sum (kStripes x cap,
  /// plus bounded racing overshoot) cannot overflow u64 either.
  static constexpr uint64_t kSaturate = uint64_t(1) << 60;

  /// Merged read-side snapshot of one dispatch site: classes in
  /// first-seen claim order with per-class sample counts summed across
  /// all thread stripes.
  struct SiteSummary {
    const ClassSymbol *Classes[kWays] = {};
    uint64_t Counts[kWays] = {};
    uint64_t Overflow = 0;

    /// Number of distinct receiver classes recorded (<= kWays).
    unsigned distinct() const {
      unsigned N = 0;
      while (N != kWays && Classes[N])
        ++N;
      return N;
    }
    bool megamorphic() const { return Overflow != 0; }
    /// Total samples, including overflow.
    uint64_t total() const {
      uint64_t T = Overflow;
      for (uint64_t C : Counts)
        T += C;
      return T;
    }
  };

  ProfileData(size_t NumUnits, size_t NumSites);
  ~ProfileData();
  ProfileData(const ProfileData &) = delete;
  ProfileData &operator=(const ProfileData &) = delete;

  /// Records \p N activations of unit \p UnitIdx (N > 1 is the bulk
  /// form the saturation boundary tests use). Lock-free; touches only
  /// the calling thread's stripe; saturates at kSaturate.
  void recordInvocation(uint32_t UnitIdx, uint64_t N = 1) {
    satAdd(stripe().Inv[UnitIdx], N);
  }

  /// Records \p N dispatches at site \p SiteIdx with receiver class
  /// \p C. Lock-free; safe from any number of threads. The class way is
  /// claimed first-seen via CAS in the shared table; the sample count
  /// lands in the calling thread's stripe and saturates at kSaturate.
  void recordDispatch(uint32_t SiteIdx, const ClassSymbol *C,
                      uint64_t N = 1) {
    std::atomic<const ClassSymbol *> *Ways = &Classes[SiteIdx * kWays];
    Stripe &S = stripe();
    for (unsigned I = 0; I != kWays; ++I) {
      const ClassSymbol *Cur = Ways[I].load(std::memory_order_relaxed);
      if (Cur == nullptr) {
        // Claim the first free way; on a lost race fall through to
        // whatever the winner installed.
        if (Ways[I].compare_exchange_strong(Cur, C,
                                            std::memory_order_relaxed))
          Cur = C;
      }
      if (Cur == C) {
        satAdd(S.Cnt[SiteIdx * kCols + I], N);
        return;
      }
    }
    satAdd(S.Cnt[SiteIdx * kCols + kWays], N);
  }

  /// Activations of unit \p UnitIdx, summed across stripes.
  uint64_t invocations(uint32_t UnitIdx) const {
    uint64_t T = 0;
    for (const Stripe &S : Stripes)
      T += S.Inv[UnitIdx].load(std::memory_order_relaxed);
    return T;
  }

  /// Merged snapshot of site \p SiteIdx (the re-preparation flush/merge
  /// point; also what tests read).
  SiteSummary site(uint32_t SiteIdx) const {
    SiteSummary Out;
    const std::atomic<const ClassSymbol *> *Ways = &Classes[SiteIdx * kWays];
    for (unsigned I = 0; I != kWays; ++I)
      Out.Classes[I] = Ways[I].load(std::memory_order_relaxed);
    for (const Stripe &S : Stripes) {
      for (unsigned I = 0; I != kWays; ++I)
        Out.Counts[I] +=
            S.Cnt[SiteIdx * kCols + I].load(std::memory_order_relaxed);
      Out.Overflow +=
          S.Cnt[SiteIdx * kCols + kWays].load(std::memory_order_relaxed);
    }
    return Out;
  }

  size_t numUnits() const { return NUnits; }
  size_t numSites() const { return NSites; }

  /// True when any method has been entered at least \p Threshold times —
  /// the re-quickening trigger the cache polls.
  bool anyHot(uint64_t Threshold = kHotThreshold) const {
    for (size_t U = 0; U != NUnits; ++U)
      if (invocations(static_cast<uint32_t>(U)) >= Threshold)
        return true;
    return false;
  }

  /// Total recorded virtual-dispatch samples (call-heaviness metric).
  uint64_t totalDispatchSamples() const;

private:
  /// Columns per site in a stripe's count matrix: kWays class tallies
  /// plus the overflow (megamorphic) tally.
  static constexpr unsigned kCols = kWays + 1;

  /// Saturating relaxed add: once a counter reaches kSaturate it stops
  /// moving. The load-then-add race lets concurrent writers overshoot
  /// the cap by at most (writers - 1) * N, which the headroom between
  /// kSaturate and u64 max absorbs with room for the stripe sum; what
  /// can never happen is a wrap back toward zero.
  static void satAdd(std::atomic<uint64_t> &C, uint64_t N) {
    if (C.load(std::memory_order_relaxed) >= kSaturate)
      return;
    C.fetch_add(N, std::memory_order_relaxed);
  }

  /// One thread stripe: its own 64-byte-aligned atomic arrays inside
  /// Block, so two stripes never share a cache line.
  struct Stripe {
    std::atomic<uint64_t> *Inv = nullptr; ///< [NumUnits]
    std::atomic<uint64_t> *Cnt = nullptr; ///< [NumSites * kCols]
  };

  Stripe &stripe() {
    return Stripes[ShardedCounter::threadStripe() % kStripes];
  }

  size_t NUnits;
  size_t NSites;
  /// Shared first-seen class ways, [NumSites * kWays], CAS-claimed.
  std::vector<std::atomic<const ClassSymbol *>> Classes;
  /// Backing store of every stripe's counters (one allocation).
  std::atomic<uint64_t> *Block = nullptr;
  Stripe Stripes[kStripes];
};

} // namespace safetsa

#endif // SAFETSA_EXEC_PROFILE_H
