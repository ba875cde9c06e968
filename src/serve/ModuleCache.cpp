//===- serve/ModuleCache.cpp ----------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/ModuleCache.h"

#include "exec/ExecUnit.h"

#include <algorithm>
#include <atomic>

using namespace safetsa;

/// One cached (or in-flight) module. Waiters hold the shared_ptr, so an
/// entry outlives its eviction or a cache clear without dangling.
struct ModuleCache::Entry {
  size_t Charge = 0;
  std::shared_ptr<const DecodedUnit> Unit; ///< Null until ready / on failure.
  /// Execution-prepared form, lowered lazily on the first getPrepared()
  /// and cached beside the decoded unit (its deleter keeps Unit alive, so
  /// eviction order between the two can never dangle).
  std::shared_ptr<const PreparedModule> Prepared;
  /// Tier-1 (re-quickened) form, produced once the tier-0 profile goes
  /// hot; shares the entry so decoded unit, tier-0, and tier-1 code are
  /// evicted together and the tier-1 deleters keep their sources alive.
  std::shared_ptr<const PreparedModule> PreparedT1;
  std::string Error;
  bool Ready = false;
  bool Preparing = false; ///< A thread is lowering this entry right now.
  bool RepreparingT1 = false; ///< A thread is re-quickening right now.
  /// CLOCK second-chance bit. Set (relaxed, lock-free) by every hit;
  /// cleared by the evicting sweep under the shard lock. Starts false so
  /// an entry that is admitted and never re-referenced is first in line,
  /// which preserves the LRU-like victim order the eviction tests pin.
  std::atomic<bool> Touched{false};
};

/// One slot of a shard's published index: the digest, the entry (for the
/// Touched bit), and plain copies of the servable forms. Views are built
/// under the shard lock and immutable afterwards — readers only ever
/// copy these shared_ptrs, so no field is ever written concurrently with
/// a read.
struct ModuleCache::View {
  Digest D{0, 0};
  std::shared_ptr<Entry> E; ///< Null = empty slot.
  std::shared_ptr<const DecodedUnit> Unit;
  std::shared_ptr<const PreparedModule> Prepared;
  std::shared_ptr<const PreparedModule> PreparedT1;
};

/// Immutable open-addressed index of a shard's ready entries (linear
/// probing, power-of-two capacity, load factor <= 1/2 so a probe always
/// terminates on an empty slot).
struct ModuleCache::Snapshot {
  size_t Mask = 0;
  std::vector<View> Slots;

  const View *find(const Digest &D) const {
    for (size_t I = DigestHash()(D) & Mask;; I = (I + 1) & Mask) {
      const View &V = Slots[I];
      if (!V.E)
        return nullptr;
      if (V.D == D)
        return &V;
    }
  }
};

struct ModuleCache::Shard {
  /// Position in Shards; picks this shard's thread-local snapshot slot.
  unsigned Ordinal = 0;
  std::mutex M;
  std::condition_variable ReadyCV;
  /// Authoritative state (ready + in-flight entries). Guarded by M.
  std::unordered_map<Digest, std::shared_ptr<Entry>, DigestHash> Map;
  /// CLOCK ring of resident (ready) digests + the sweep hand. Guarded by
  /// M. Invariant: ring members are exactly the Ready entries of Map.
  std::vector<Digest> Clock;
  size_t Hand = 0;
  size_t Bytes = 0;
  /// Index publication (the lock-free read path's source of truth).
  /// Snap is guarded by PubM — a tiny critical section touched only by
  /// publishers (who already hold M) and by readers *refreshing a stale
  /// thread-local copy*; a reader whose cached SnapId still matches
  /// never takes any lock. SnapId values come from a process-global
  /// monotonic counter, so no two shards (even at a reused address)
  /// ever publish the same id — which is what makes the thread-local
  /// cache's (shard, id) match test sound.
  std::mutex PubM;
  std::shared_ptr<const Snapshot> Snap; ///< Guarded by PubM.
  std::atomic<uint64_t> SnapId{0};      ///< Globally unique; release-stored.
};

/// Process-global snapshot id allocator (never reused, never zero).
static std::atomic<uint64_t> NextSnapId{0};

ModuleCache::ModuleCache(size_t CapacityBytes, unsigned NumShards)
    : NumShards(std::max(1u, NumShards)),
      ShardCapacity(std::max<size_t>(1, CapacityBytes / this->NumShards)) {
  Shards.reserve(this->NumShards);
  for (unsigned I = 0; I != this->NumShards; ++I) {
    Shards.push_back(std::make_unique<Shard>());
    Shards.back()->Ordinal = I;
    // A fresh id even for the empty shard keeps ids unique per shard
    // instance, so a stale thread-local slot from a destroyed cache at
    // the same address can never false-match.
    Shards.back()->SnapId.store(NextSnapId.fetch_add(1) + 1,
                                std::memory_order_relaxed);
  }
}

ModuleCache::~ModuleCache() = default;

ModuleCache::Shard &ModuleCache::shardFor(const Digest &D) {
  // The digest is already uniformly mixed; any fold spreads shards well.
  return *Shards[static_cast<size_t>(D.Hi ^ D.Lo) % NumShards];
}

void ModuleCache::publishIndex(Shard &S) {
  size_t N = S.Clock.size();
  size_t Cap = 8;
  while (Cap < 2 * (N + 1))
    Cap <<= 1;
  auto Snap = std::make_shared<Snapshot>();
  Snap->Mask = Cap - 1;
  Snap->Slots.resize(Cap);
  for (const auto &KV : S.Map) {
    const std::shared_ptr<Entry> &E = KV.second;
    if (!E->Ready)
      continue; // In-flight: not servable, not published.
    size_t I = DigestHash()(KV.first) & Snap->Mask;
    while (Snap->Slots[I].E)
      I = (I + 1) & Snap->Mask;
    View &V = Snap->Slots[I];
    V.D = KV.first;
    V.E = E;
    V.Unit = E->Unit;
    V.Prepared = E->Prepared;
    V.PreparedT1 = E->PreparedT1;
  }
  // Publish under PubM, then release-store the new id. A reader either
  // (a) observes the new id via its acquire load, misses its
  // thread-local cache, and copies Snap under PubM (the mutex orders the
  // View contents), or (b) still observes the old id and keeps serving
  // its cached — fully constructed — old snapshot. Either way it never
  // sees a partially built index.
  uint64_t Id = NextSnapId.fetch_add(1) + 1;
  std::lock_guard<std::mutex> PubLock(S.PubM);
  S.Snap = std::move(Snap);
  S.SnapId.store(Id, std::memory_order_release);
}

const ModuleCache::Snapshot *ModuleCache::currentSnapshot(Shard &S) {
  // Per-thread direct-mapped cache of (shard, id) -> snapshot. The hot
  // path is one acquire load plus a TLS compare: no lock, no shared
  // atomic RMW (in particular no shared_ptr refcount ping-pong — the
  // reason this is not std::atomic<shared_ptr>; libstdc++ 12's
  // _Sp_atomic also unlocks its internal spinlock with a relaxed RMW on
  // load, which TSan rightly flags as racing the store side).
  //
  // The returned raw pointer stays valid until *this thread* next
  // refreshes the same slot, so callers must finish probing before any
  // nested call that might touch the same shard's snapshot.
  struct TLSlot {
    const void *Key = nullptr;
    uint64_t Id = 0;
    std::shared_ptr<const Snapshot> Snap;
  };
  // Indexed by shard ordinal, so the default 8 shards never share a slot
  // (heap addresses of equal-sized shards alias onto a few slots).
  static thread_local TLSlot Slots[8];
  TLSlot &Slot = Slots[S.Ordinal & 7];
  uint64_t Id = S.SnapId.load(std::memory_order_acquire);
  if (Slot.Key == &S && Slot.Id == Id)
    return Slot.Snap.get();
  // Stale (or foreign) slot: refresh under the publication mutex. Id and
  // Snap are copied together under PubM, so a slot id match always pairs
  // with that id's snapshot.
  std::lock_guard<std::mutex> PubLock(S.PubM);
  Slot.Key = &S;
  Slot.Id = S.SnapId.load(std::memory_order_relaxed);
  Slot.Snap = S.Snap;
  return Slot.Snap.get();
}

void ModuleCache::evictUnderLock(Shard &S, const Entry *JustAdmitted) {
  // CLOCK second chance: sweep the ring, clearing Touched bits; evict
  // the first candidate found untouched since the last sweep. Terminates
  // because each pass strips every second chance and the just-admitted
  // entry is the only permanent skip (guarded by size() > 1).
  while (S.Bytes > ShardCapacity && S.Clock.size() > 1) {
    if (S.Hand >= S.Clock.size())
      S.Hand = 0;
    auto It = S.Map.find(S.Clock[S.Hand]);
    Entry &E = *It->second;
    if (&E == JustAdmitted ||
        E.Touched.exchange(false, std::memory_order_relaxed)) {
      ++S.Hand;
      continue;
    }
    S.Bytes -= E.Charge;
    S.Map.erase(It);
    S.Clock.erase(S.Clock.begin() + static_cast<long>(S.Hand));
    Evictions.add();
  }
}

std::shared_ptr<const DecodedUnit>
ModuleCache::get(const Digest &D, const DecodeFn &Decode, std::string *Err) {
  Shard &S = shardFor(D);
  // Lock-free hit path: current snapshot, probe, touch, count.
  if (const Snapshot *Snap = currentSnapshot(S))
    if (const View *V = Snap->find(D)) {
      V->E->Touched.store(true, std::memory_order_relaxed);
      Hits.add();
      return V->Unit;
    }

  std::shared_ptr<Entry> E;
  {
    std::unique_lock<std::mutex> Lock(S.M);
    auto It = S.Map.find(D);
    if (It != S.Map.end()) {
      E = It->second;
      if (E->Ready) {
        // Admitted between our snapshot load and the lock: still a hit.
        E->Touched.store(true, std::memory_order_relaxed);
        Hits.add();
        return E->Unit;
      }
      // Single-flight: another thread is decoding this digest right now.
      // Wait for its verdict instead of decoding redundantly.
      Coalesced.add();
      S.ReadyCV.wait(Lock, [&] { return E->Ready; });
      if (!E->Unit && Err)
        *Err = E->Error;
      return E->Unit;
    }
    // Miss: claim the flight while still under the lock, then decode
    // outside it so other shard traffic keeps flowing.
    Misses.add();
    E = std::make_shared<Entry>();
    S.Map.emplace(D, E);
  }

  std::string DecodeErr;
  Admission A = Decode(&DecodeErr);
  std::unique_ptr<DecodedUnit> &Unit = A.Unit;

  std::lock_guard<std::mutex> Lock(S.M);
  if (A.Found)
    Decodes.add();
  // clear() may have dropped our in-flight mapping; re-inserting would
  // resurrect cleared state, so only admit while still the mapped flight.
  auto It = S.Map.find(D);
  bool StillMapped = It != S.Map.end() && It->second == E;

  if (!Unit) {
    if (A.Found)
      DecodeFailures.add();
    E->Error = DecodeErr.empty() ? "decode failed" : DecodeErr;
    E->Ready = true;
    // Failures are not cached: the next fetch of this digest retries.
    if (StillMapped)
      S.Map.erase(It);
    S.ReadyCV.notify_all();
    if (Err)
      *Err = E->Error;
    return nullptr;
  }

  E->Unit = std::shared_ptr<const DecodedUnit>(Unit.release());
  E->Charge = A.Charge;
  E->Ready = true;
  if (StillMapped) {
    S.Clock.push_back(D);
    S.Bytes += A.Charge;
    // Evict until back under budget; the entry just admitted is never
    // evicted even when alone over budget.
    evictUnderLock(S, E.get());
    publishIndex(S);
  }
  S.ReadyCV.notify_all();
  return E->Unit;
}

/// Shares \p PM under a deleter that keeps \p Source alive: a prepared
/// form points into its decoded unit's IR and type tables (tier 1 via
/// its tier-0 twin, whose own deleter keeps the unit), so it stays valid
/// for as long as any caller holds it, whatever the eviction order.
template <typename T>
static std::shared_ptr<const PreparedModule>
keepingAlive(std::unique_ptr<PreparedModule> PM, std::shared_ptr<T> Source) {
  if (!PM)
    return nullptr;
  return std::shared_ptr<const PreparedModule>(
      PM.release(), [Keep = std::move(Source)](const PreparedModule *P) {
        delete P;
      });
}

static const char kPrepareLimits[] = "module exceeds prepared-form limits";

std::shared_ptr<const PreparedModule>
ModuleCache::getPrepared(const Digest &D, const DecodeFn &Decode,
                         std::string *Err) {
  Shard &S = shardFor(D);
  // Lock-free warm hits: the settled states — tier 1 cached, or tier 0
  // cached and not (yet) hot — never take the lock. The hot-but-not-yet-
  // re-prepared window goes through the locked escalation below.
  std::shared_ptr<const PreparedModule> T0;
  if (const Snapshot *Snap = currentSnapshot(S))
    if (const View *V = Snap->find(D))
      if (V->PreparedT1 || V->Prepared) {
        V->E->Touched.store(true, std::memory_order_relaxed);
        Hits.add();
        if (V->PreparedT1)
          return V->PreparedT1;
        const ProfileData *Prof = V->Prepared->Profile.get();
        if (!Prof || !Prof->anyHot())
          return V->Prepared;
        T0 = V->Prepared;
      }

  if (!T0)
    T0 = getTier0(D, Decode, Err);
  if (!T0)
    return nullptr;

  std::shared_ptr<Entry> E;
  {
    std::unique_lock<std::mutex> Lock(S.M);
    auto It = S.Map.find(D);
    // Only escalate through the entry that holds our tier-0 form; if it
    // was evicted or cleared meanwhile there is nowhere to cache tier 1.
    if (It == S.Map.end() || It->second->Prepared != T0)
      return T0;
    E = It->second;
    if (E->PreparedT1)
      return E->PreparedT1; // Warm tier-1 hit.
    const ProfileData *Prof = T0->Profile.get();
    if (!Prof || !Prof->anyHot())
      return T0; // Not hot yet; keep profiling at tier 0.
    if (E->RepreparingT1)
      return T0; // A rival is re-quickening; never stall execution on it.
    E->RepreparingT1 = true;
  }

  std::shared_ptr<const PreparedModule> T1 =
      keepingAlive(reprepareModule(*T0), T0);

  std::lock_guard<std::mutex> Lock(S.M);
  Reprepares.add();
  E->RepreparingT1 = false;
  if (!T1) {
    // Failures are not cached: tier 0 keeps serving and the next hot
    // request retries the re-preparation.
    if (Err)
      *Err = kPrepareLimits;
    return T0;
  }
  E->PreparedT1 = T1;
  publishIndex(S);
  return T1;
}

std::shared_ptr<const PreparedModule>
ModuleCache::getTier0(const Digest &D, const DecodeFn &Decode,
                      std::string *Err) {
  std::shared_ptr<const DecodedUnit> Unit = get(D, Decode, Err);
  if (!Unit)
    return nullptr;

  Shard &S = shardFor(D);
  std::shared_ptr<Entry> E;
  {
    std::unique_lock<std::mutex> Lock(S.M);
    auto It = S.Map.find(D);
    // Only piggyback on the entry that actually holds our unit; if it was
    // evicted or cleared between get() and now, prepare uncached below.
    if (It != S.Map.end() && It->second->Ready && It->second->Unit == Unit) {
      E = It->second;
      if (E->Prepared)
        return E->Prepared; // Warm hit: zero re-lowering.
      // Single-flight, like decoding: wait out any in-progress lowering.
      S.ReadyCV.wait(Lock, [&] { return !E->Preparing; });
      if (E->Prepared)
        return E->Prepared;
      E->Preparing = true; // Claim (first flight, or retry after failure).
    }
  }

  std::shared_ptr<const PreparedModule> PM =
      keepingAlive(prepareModule(*Unit->Module), Unit);

  std::lock_guard<std::mutex> Lock(S.M);
  Prepares.add();
  if (E) {
    E->Preparing = false;
    if (PM) { // Failures are not cached; the next request retries.
      E->Prepared = PM;
      publishIndex(S);
    }
    S.ReadyCV.notify_all();
  }
  if (!PM && Err)
    *Err = kPrepareLimits;
  return PM;
}

CacheStats ModuleCache::stats() const {
  CacheStats Out;
  Out.Hits = Hits.sum();
  Out.Misses = Misses.sum();
  Out.Coalesced = Coalesced.sum();
  Out.Evictions = Evictions.sum();
  Out.Decodes = Decodes.sum();
  Out.DecodeFailures = DecodeFailures.sum();
  Out.Prepares = Prepares.sum();
  Out.Reprepares = Reprepares.sum();
  for (const auto &SP : Shards) {
    Shard &S = *SP;
    std::lock_guard<std::mutex> Lock(S.M);
    Out.Entries += S.Clock.size();
    Out.Bytes += S.Bytes;
    // IC tallies live on the tier-1 modules themselves (flushed there by
    // every executing TSAExec); aggregate what is resident.
    for (const auto &KV : S.Map)
      if (KV.second->PreparedT1) {
        Out.ICHits +=
            KV.second->PreparedT1->ICHits.load(std::memory_order_relaxed);
        Out.ICMisses +=
            KV.second->PreparedT1->ICMisses.load(std::memory_order_relaxed);
        Out.InlinedSites += KV.second->PreparedT1->Tiering.InlinedSites;
        Out.InlineGuardMisses +=
            KV.second->PreparedT1->InlineGuardMisses.load(
                std::memory_order_relaxed);
      }
  }
  return Out;
}

void ModuleCache::clear() {
  for (const auto &SP : Shards) {
    Shard &S = *SP;
    std::lock_guard<std::mutex> Lock(S.M);
    S.Map.clear(); // In-flight owners see themselves unmapped and skip
                   // admission; their waiters still get the result.
    S.Clock.clear();
    S.Hand = 0;
    S.Bytes = 0;
    publishIndex(S);
  }
}
