//===- serve/CodeServer.h - PUBLISH/FETCH code distribution ---*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The distribution service tying the three layers together: a
/// content-addressed ModuleStore for encoded bytes, a sharded ModuleCache
/// of decoded+verified modules, and the framed protocol served over any
/// Transport, with connections dispatched onto a support/ThreadPool.
///
/// Trust model (paper + "The Meaning of Memory Safety"): the channel is
/// untrusted, the bytes are the unit of identity. PUBLISH verifies the
/// module by fused-decoding it once (through the cache, so the verdict is
/// remembered per digest) and refuses storage on failure — the store
/// never serves bytes that do not decode to a verified module. FETCH
/// returns the exact stored bytes; a consumer re-verifies for free by
/// fused-decoding them, or calls load() in-process to share the server's
/// cached decoded module without paying any decode at all on a warm hit.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SERVE_CODESERVER_H
#define SAFETSA_SERVE_CODESERVER_H

#include "serve/ModuleCache.h"
#include "serve/ModuleStore.h"
#include "serve/Protocol.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <memory>
#include <vector>

namespace safetsa {

/// Server-wide counters, also the STATS response payload: one
/// little-endian u64 per field, in list order. The list is the single
/// source of the struct, the wire codec and kServeStatsFields.
///  - Store/publish/fetch: resident modules and bytes, duplicate and
///    accepted publishes, fetches and their misses, and VerifyFailures
///    (PUBLISH payloads that failed decode).
///  - Cache*: the ModuleCache counters (CacheStats), including
///    CachePrepares/CacheReprepares (tier-0 lowerings and tier-1
///    re-quickenings actually run) and the IC guard hits/misses of
///    resident tier-1 modules.
///  - Gc*: process-wide GC telemetry (gc/GC.h gcCounters(), striped like
///    the profile counters): collections, cells reclaimed, and total
///    stop-the-world pause time across every Runtime this process ran.
///  - CacheInlinedSites/CacheInlineGuardMisses: speculative-inlining
///    telemetry over resident tier-1 modules (DESIGN.md §14) — call
///    sites spliced at re-preparation, and GuardInline receiver misses
///    that took the out-of-line fallback.
/// Append only: a new field changes the frame size, and decoders reject
/// frames of any other size rather than misparse them.
#define SAFETSA_SERVE_STATS_LIST(X)                                          \
  X(StoreModules) X(StoreBytes) X(DuplicatePublishes) X(Publishes)           \
  X(Fetches) X(FetchNotFound) X(VerifyFailures) X(CacheHits) X(CacheMisses)  \
  X(CacheCoalesced) X(CacheEvictions) X(CacheDecodes)                        \
  X(CacheDecodeFailures) X(CacheEntries) X(CacheBytes) X(CachePrepares)      \
  X(CacheReprepares) X(CacheICHits) X(CacheICMisses) X(GcCycles)             \
  X(GcCellsReclaimed) X(GcPauseNs) X(CacheInlinedSites)                      \
  X(CacheInlineGuardMisses)

struct ServeStats {
#define SAFETSA_STATS_FIELD(N) uint64_t N = 0;
  SAFETSA_SERVE_STATS_LIST(SAFETSA_STATS_FIELD)
#undef SAFETSA_STATS_FIELD
};

/// Number of u64 fields in the STATS payload.
#define SAFETSA_STATS_COUNT(N) +1
constexpr size_t kServeStatsFields =
    0 SAFETSA_SERVE_STATS_LIST(SAFETSA_STATS_COUNT);
#undef SAFETSA_STATS_COUNT

std::vector<uint8_t> encodeStats(const ServeStats &S);
bool decodeStats(ByteSpan Bytes, ServeStats &Out);

struct CodeServerOptions {
  /// Decoded-module cache budget, charged at wire size per module.
  size_t CacheBytes = 64u << 20;
  unsigned CacheShards = 8;
  /// Connection-dispatch pool size; 0 = hardware concurrency. Each
  /// attached connection occupies one worker for its lifetime.
  unsigned Threads = 0;
  /// Directory for persistent storage; empty = in-memory only.
  std::string StoreDir;
};

class CodeServer {
public:
  explicit CodeServer(const CodeServerOptions &Opts = {});
  ~CodeServer();

  //===------------------------------------------------------------------===//
  // In-process entry points (what the protocol handlers call; also the
  // integration surface for tests and benches).
  //===------------------------------------------------------------------===//

  /// Verifies and stores \p Bytes; returns their digest. On verification
  /// failure nothing is stored, \p Err is set, and the returned digest is
  /// still the content digest (callers may log it).
  Digest publish(ByteSpan Bytes, std::string *Err);

  /// The exact published bytes, or null when unknown.
  std::shared_ptr<const std::vector<uint8_t>> fetchBytes(const Digest &D);

  /// Cache-backed consumer load: the decoded+verified module for \p D.
  /// A warm hit probes only the cache: no store lock, no decoding
  /// (asserted by tests via getStats). Only a miss fetches the bytes.
  /// Null with \p Err set when the digest is unknown ("unknown digest
  /// <hex>") or its bytes fail decode.
  std::shared_ptr<const DecodedUnit> load(const Digest &D, std::string *Err);

  /// Cache-backed *executable* load: the prepared (quickened) form of the
  /// module for \p D, lowered once per resident cache entry. A warm hit
  /// does no decoding and no re-lowering — it returns directly executable
  /// code (stats().CachePrepares counts lowerings actually run). The
  /// returned module keeps its decoded unit alive internally. Once the
  /// module's tier-0 profile has crossed ProfileData::kHotThreshold, the
  /// cache re-quickens it with reprepareModule's defaults (once,
  /// single-flight; stats().CacheReprepares) and serves the tier-1 form
  /// thereafter. Every server tiers the same way; execution settings
  /// such as GC policy reach a run through its own Runtime.
  std::shared_ptr<const PreparedModule> loadPrepared(const Digest &D,
                                                     std::string *Err);

  ServeStats stats() const;

  ModuleStore &getStore() { return Store; }
  ModuleCache &getCache() { return Cache; }

  //===------------------------------------------------------------------===//
  // Protocol service
  //===------------------------------------------------------------------===//

  /// Serves one connection until clean EOF or a fatal framing error;
  /// blocking, callable from any thread.
  void serveConnection(Transport &T);

  /// Hands the connection to the dispatch pool and returns immediately.
  void attach(std::unique_ptr<Transport> T);

  /// Blocks until every attached connection has finished.
  void wait();

private:
  bool handleFrame(Transport &T, const Frame &F);
  /// The cache's miss path for \p D: fetch the stored bytes, then decode
  /// them, charging their size.
  ModuleCache::DecodeFn fetchAndDecode(const Digest &D);

  ModuleStore Store;
  ModuleCache Cache;
  ThreadPool Pool;
  std::atomic<uint64_t> Publishes{0};
  std::atomic<uint64_t> Fetches{0};
  std::atomic<uint64_t> FetchNotFound{0};
  std::atomic<uint64_t> VerifyFailures{0};
};

} // namespace safetsa

#endif // SAFETSA_SERVE_CODESERVER_H
