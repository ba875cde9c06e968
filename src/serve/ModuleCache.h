//===- serve/ModuleCache.h - Sharded verified-module cache ----*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An N-way sharded cache of *decoded+verified* modules, keyed by
/// content digest. Because the fused codec makes decode success mean
/// verified (DESIGN.md §8), and because the key is the digest of the
/// exact encoded bytes, a cache hit soundly skips both decoding and
/// verification: same digest, same bytes, same verdict. Verification is
/// paid once per distinct module, not once per fetch — the economics the
/// distribution layer is built on.
///
/// Concurrency (full memory-ordering argument in DESIGN.md §12):
///  - Lock-free hit path: each shard publishes an immutable
///    open-addressed index of its ready entries under a globally-unique
///    snapshot id; readers keep a per-thread (shard, id) -> snapshot
///    cache validated by one acquire load of the id. A warm
///    get()/getPrepared() whose cached id still matches is an id load,
///    a probe, a relaxed Touched store, and a striped counter bump — no
///    lock and no shared atomic RMW at all, so warm throughput scales
///    with cores instead of serializing on the shard mutex (a stale
///    thread-local copy refreshes under a tiny publication mutex that
///    hits otherwise never touch).
///  - Shards: the digest picks a shard; each shard has its own mutex
///    (misses only), index, and byte budget (Capacity / NumShards).
///  - Single-flight admission: unchanged lock+condvar protocol. The
///    first fetcher of a digest inserts an in-flight entry and decodes
///    OUTSIDE the shard lock; concurrent fetchers of the same digest
///    block on the shard's condvar until the entry is ready instead of
///    redundantly decoding (stats().Decodes counts exactly one decode
///    per storm; tests assert it under TSan).
///  - Failed decodes are not cached: the entry is removed after waiters
///    are released, so a transiently missing/corrupt byte provider does
///    not poison the digest forever.
///  - Counters are support/ShardedCounter (cache-line-padded per-thread
///    stripes): hits never contend on a stats word either, and stats()
///    still sums to exact totals for the STATS wire.
///
/// Eviction is CLOCK (second chance) by charged bytes — callers charge
/// the wire size, a stable, cheap proxy for decoded footprint. A hit
/// sets the entry's Touched bit (relaxed; no lock); the evicting thread
/// sweeps the shard's ring under the lock, clearing Touched bits and
/// evicting the first untouched entry. Recency is thus approximate — a
/// concurrent hit may land just after the sweep passed — but that only
/// staleness-ranks *eviction*, never contents: whatever snapshot a
/// reader holds keeps its entries alive through shared_ptr, and a hit
/// served from a just-evicted snapshot still returns the correct,
/// immutable module for that digest. In-flight entries are not
/// evictable; the entry just admitted survives even when it alone
/// exceeds the shard budget (an oversized module still serves, it just
/// evicts everything else in its shard).
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SERVE_MODULECACHE_H
#define SAFETSA_SERVE_MODULECACHE_H

#include "codec/Codec.h"
#include "support/Digest.h"
#include "support/ShardedCounter.h"

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace safetsa {

struct CacheStats {
  uint64_t Hits = 0;      ///< Ready entry found.
  uint64_t Misses = 0;    ///< Absent; the caller's thread decoded.
  uint64_t Coalesced = 0; ///< Waited on another thread's in-flight decode.
  uint64_t Evictions = 0;
  uint64_t Decodes = 0;        ///< Decode attempts actually run.
  uint64_t DecodeFailures = 0; ///< Attempts that returned null.
  uint64_t Prepares = 0;       ///< Execution-prep lowerings actually run.
  uint64_t Reprepares = 0;     ///< Tier-1 re-quickenings actually run.
  /// Inline-cache guard hits/misses summed over *resident* tier-1
  /// modules at read time (an evicted module takes its tallies with it).
  uint64_t ICHits = 0;
  uint64_t ICMisses = 0;
  /// Speculative-inlining telemetry over resident tier-1 modules:
  /// prepare-time spliced sites, and runtime GuardInline receiver
  /// misses that fell back to the out-of-line dispatch (DESIGN.md §14).
  uint64_t InlinedSites = 0;
  uint64_t InlineGuardMisses = 0;
  size_t Entries = 0;          ///< Resident modules right now.
  size_t Bytes = 0;            ///< Charged bytes right now.
};

class PreparedModule;

class ModuleCache {
public:
  /// What a miss produces for the digest being admitted.
  struct Admission {
    /// The decoded unit; null when the decode failed (or did not run).
    std::unique_ptr<DecodedUnit> Unit;
    /// Bytes to charge the entry (callers charge the wire size).
    size_t Charge = 0;
    /// False when the digest's bytes were not found: no decode ran, so
    /// the miss counts as neither a decode nor a decode failure.
    bool Found = true;
  };
  /// Fetches and decodes the digest being admitted; called at most once
  /// per digest per flight, outside all cache locks, so only a miss pays
  /// for the bytes. Sets the error string when it returns no unit.
  using DecodeFn = std::function<Admission(std::string *Err)>;

  /// \p CapacityBytes is split evenly across \p NumShards (each shard at
  /// least 1 byte so a zero/low capacity still admits-and-evicts sanely).
  /// getPrepared lowers tier 0 with prepareModule and tier 1 with
  /// reprepareModule's defaults.
  explicit ModuleCache(size_t CapacityBytes, unsigned NumShards = 8);
  ~ModuleCache();

  ModuleCache(const ModuleCache &) = delete;
  ModuleCache &operator=(const ModuleCache &) = delete;

  /// The cache's only read path: returns the decoded+verified module for
  /// \p D, fetching and decoding via \p Decode on a miss (charging what
  /// it reports). Null only when the bytes were not found or the decode
  /// failed, with *Err set. Safe from any number of threads; concurrent
  /// calls for one digest decode once. Warm calls are lock-free
  /// (snapshot probe; see file header).
  std::shared_ptr<const DecodedUnit> get(const Digest &D,
                                         const DecodeFn &Decode,
                                         std::string *Err);

  /// Like get(), but returns the *prepared* (directly executable) form.
  /// The first request lowers the decoded module to tier 0
  /// (prepareModule) and caches it on the same entry, so a warm hit does
  /// no re-decoding and no re-lowering (stats().Prepares counts
  /// lowerings actually run). Once the tier-0 profile crosses
  /// ProfileData::kHotThreshold, one request re-quickens it
  /// (reprepareModule, default policy) and the tier-1 form is served
  /// from then on. Lowering is single-flight per digest, like decoding.
  /// Re-preparation is single-flight per entry and NON-blocking for
  /// rivals: while one thread re-quickens, every other request keeps
  /// executing tier 0, so a storm of N threads on one hot module runs
  /// exactly one reprepare (stats().Reprepares; asserted under TSan) and
  /// nobody stalls on the optimizer. Warm tier-1 (and cold-profile
  /// tier-0) hits are lock-free. The returned module keeps its decoded
  /// unit alive. Null only on decode or prepare failure, with *Err set;
  /// a failed re-preparation keeps serving tier 0.
  std::shared_ptr<const PreparedModule> getPrepared(const Digest &D,
                                                    const DecodeFn &Decode,
                                                    std::string *Err);

  /// Aggregated over all shards. Exact: every get() lands in exactly one
  /// of Hits/Misses/Coalesced, and each counter is a ShardedCounter whose
  /// sum never loses or double-counts an increment.
  CacheStats stats() const;

  /// Drops every resident entry (in-flight decodes complete and are then
  /// dropped by their own admission path finding themselves unmapped).
  void clear();

private:
  struct Entry;
  struct View;
  struct Snapshot;
  struct Shard;

  Shard &shardFor(const Digest &D);
  /// Rebuilds and publishes \p S's snapshot index from its authoritative
  /// map under a fresh globally-unique id. Caller holds S.M.
  static void publishIndex(Shard &S);
  /// The calling thread's view of \p S's index (may be null for an empty
  /// shard): lock-free when the thread-local cached id is current,
  /// refreshed under S.PubM otherwise. The pointer stays valid until
  /// this thread next refreshes the same cache slot — finish probing
  /// before any nested call that may load a snapshot again.
  static const Snapshot *currentSnapshot(Shard &S);
  /// CLOCK sweep until the shard is back under \p Capacity (or only the
  /// just-admitted entry remains). Caller holds S.M; caller publishes.
  void evictUnderLock(Shard &S, const Entry *JustAdmitted);
  /// getPrepared's tier-0 step: the cached tier-0 form, lowered first
  /// when absent.
  std::shared_ptr<const PreparedModule>
  getTier0(const Digest &D, const DecodeFn &Decode,
           std::string *Err);

  const unsigned NumShards;
  const size_t ShardCapacity;
  std::vector<std::unique_ptr<Shard>> Shards;

  /// Striped event counters (lock-free add on hits; exact sums).
  ShardedCounter Hits, Misses, Coalesced, Evictions, Decodes,
      DecodeFailures, Prepares, Reprepares;
};

} // namespace safetsa

#endif // SAFETSA_SERVE_MODULECACHE_H
