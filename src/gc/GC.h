//===- gc/GC.h - Precise mark-sweep heap management -----------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Precise, safepoint-based, non-moving mark-sweep collection over the
/// runtime's index-addressed heap (std::vector<HeapCell> in
/// exec/Runtime.h). See DESIGN.md §13.
///
/// The design follows from the representation: SafeTSA references are
/// heap *indices* (uint32_t), not pointers, so the collector never needs
/// to move or rewrite anything — a swept cell's index simply goes onto a
/// free list and the next allocation reuses it. Outstanding refs in
/// frames, statics, and other cells stay valid verbatim (the monotonic
/// stable-address discipline of Siek & Vitousek's monotonic references),
/// and precision comes for free from the verifier: the plane tables that
/// finalize() builds say exactly which SSA values are references, so
/// lowering emits an exact per-unit reference-slot map and root
/// enumeration scans only those slots — reclaiming exactly the
/// unreachable cells, the heap-safety property of "The Meaning of Memory
/// Safety".
///
/// Collections only run at safepoints: the allocation trigger merely sets
/// a relaxed pending flag, and the interpreters poll it on back edges and
/// call entry, where every live reference is in a mapped slot. That keeps
/// the mutator's hot path at one relaxed load + branch and means
/// Runtime-internal allocation sequences (e.g. interning a string and
/// then registering it in the pool) can never be interrupted mid-way.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_GC_GC_H
#define SAFETSA_GC_GC_H

#include "support/ShardedCounter.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace safetsa {

struct HeapCell;

/// Collector policy knobs, passed to the Runtime constructor (the only
/// way a run gets them). Defaults are safe for every existing workload: the
/// collector is on, but with a budget far above what any test or corpus
/// program allocates, so it never fires unless asked to.
struct GcOptions {
  /// Live-heap size (bytes of cell payload, slots * sizeof(Value) plus
  /// the cell header) at which the allocation trigger arms the pending
  /// flag. The next safepoint then collects.
  size_t HeapBudget = 64u << 20;
  /// Testing: arm the pending flag every N allocations regardless of the
  /// budget (1 = collect at every safepoint reachable after every
  /// allocation). 0 disables stress mode.
  uint64_t StressEveryNAllocs = 0;
  /// Kill switch: never collect (grow-only heap, the pre-GC behaviour).
  /// Differential runs compare a Disable run against a stressed run.
  bool Disable = false;
};

/// Per-heap collection statistics (single-threaded, exact). The global
/// cross-runtime aggregate lives in gcCounters().
struct GcStats {
  uint64_t Cycles = 0;         ///< Completed collections.
  uint64_t CellsReclaimed = 0; ///< Cells swept onto the free list.
  uint64_t PauseNs = 0;        ///< Total stop-the-world mark+sweep time.
};

/// Handed to root providers during marking; mark() greys a reference.
/// Out-of-range and null refs are ignored, so providers can mark every
/// ref-kinded Value they hold without pre-filtering.
class GcMarker {
public:
  void mark(uint32_t Ref) {
    if (Ref != 0 && Ref < Marks.size() && !Marks[Ref]) {
      Marks[Ref] = 1;
      Worklist.push_back(Ref);
    }
  }

private:
  friend class GcHeap;
  GcMarker(std::vector<uint8_t> &Marks, std::vector<uint32_t> &Worklist)
      : Marks(Marks), Worklist(Worklist) {}
  std::vector<uint8_t> &Marks;
  std::vector<uint32_t> &Worklist;
};

/// Anything holding references that must keep cells alive: the Runtime
/// itself (statics + interned strings) and each executing interpreter
/// (its active frame stack). Providers register with the heap they feed
/// and are enumerated at every collection.
class GcRootProvider {
public:
  virtual ~GcRootProvider() = default;
  virtual void enumerateRoots(GcMarker &M) = 0;
};

/// The collector state for one Runtime heap. Owns the mark bitmap, the
/// free list of reusable cell indices, the live-byte accounting that
/// drives the allocation trigger, and the root-provider registry.
/// Single-mutator per heap (a Runtime is single-threaded by contract);
/// only the pending flag is atomic, so polls stay race-free when stats
/// readers look across threads.
class GcHeap {
public:
  /// Binds the collector to \p HeapV (the Runtime's cell vector) with
  /// \p RuntimeRoots (the Runtime's own statics/strings provider).
  /// Called once from the Runtime constructor.
  void attach(std::vector<HeapCell> *HeapV, GcRootProvider *RuntimeRoots);

  void setOptions(const GcOptions &O);
  const GcOptions &options() const { return Opts; }
  bool enabled() const { return !Opts.Disable; }

  /// The safepoint poll reads this: one relaxed load.
  bool pending() const { return Pending.load(std::memory_order_relaxed); }

  /// Hands out a cell index for a new allocation: a recycled free-list
  /// index when one exists, else a fresh push_back. Never returns 0 (the
  /// null cell). The returned cell is empty; the caller populates it and
  /// then reports its payload via onAllocated().
  uint32_t acquireIndex();

  /// Accounting + trigger for a just-populated cell of \p PayloadSlots
  /// Value slots. Arms the pending flag when the live size crosses the
  /// budget (or on the stress cadence); the collection itself is
  /// deferred to the next safepoint.
  void onAllocated(size_t PayloadSlots);

  /// Paranoid-mode validity check: \p Ref names a live (allocated, not
  /// swept, not null) cell.
  bool isLive(uint32_t Ref) const {
    return Ref != 0 && Ref < State.size() && State[Ref] != 0;
  }

  void addRootProvider(GcRootProvider *P) { Providers.push_back(P); }
  void removeRootProvider(GcRootProvider *P);

  /// Stop-the-world mark + sweep. Clears the pending flag; returns the
  /// number of cells reclaimed. No-op (returns 0) when disabled.
  uint64_t collect();

  size_t liveCells() const;
  size_t liveBytes() const { return LiveBytes; }
  const GcStats &stats() const { return Stats; }

private:
  void armPending() { Pending.store(true, std::memory_order_relaxed); }

  std::vector<HeapCell> *Heap = nullptr;
  GcOptions Opts;
  /// 1 = allocated (live until proven unreachable), 0 = never allocated
  /// or on the free list. Index 0 (the null cell) is permanently 0.
  std::vector<uint8_t> State;
  std::vector<uint8_t> Marks;
  std::vector<uint32_t> Worklist;
  std::vector<uint32_t> FreeList;
  std::vector<GcRootProvider *> Providers;
  std::atomic<bool> Pending{false};
  size_t LiveBytes = 0;
  size_t NextTrigger = 0;
  uint64_t AllocsSinceStress = 0;
  GcStats Stats;
};

/// Process-wide GC telemetry fed by every collection on every Runtime:
/// the striped-counter aggregate the serve layer's STATS verb reports
/// (GcCycles / GcCellsReclaimed / GcPauseNs). Striped like ProfileData's
/// counters so concurrent serve workers never contend on a cache line.
struct GcCounters {
  ShardedCounter Cycles;
  ShardedCounter CellsReclaimed;
  ShardedCounter PauseNs;
};
GcCounters &gcCounters();

} // namespace safetsa

#endif // SAFETSA_GC_GC_H
