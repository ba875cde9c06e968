//===- gc/GC.h - Precise mark-sweep heap management -----------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Precise, safepoint-based, non-moving mark-sweep collection over the
/// runtime's typed, index-addressed heap. See DESIGN.md §13.
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
/// Nothing in the heap is tagged. A cell is a header (class or element
/// type, length) plus a payload of untagged Words carved from chunks the
/// collector owns; an object's class lists its reference fields
/// (ClassSymbol::RefFields) and an array's kind says whether its elements
/// are references, so the mark phase never asks a value what it is.
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

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace safetsa {

struct ClassSymbol;
class Type;

/// One untagged 8-byte register or heap slot: an int32 (bool and char
/// widen to it), a double, or a uint32 heap reference (0 = null). Which
/// member is live is known statically, from the value's plane or the
/// field or element type, so no tag is stored (DESIGN.md §10, §13).
/// Every write goes through one of the makers, which store all eight
/// bytes: a narrower store followed by an 8-byte Move of the same slot
/// would miss store-to-load forwarding.
union Word {
  uint64_t Bits;
  int32_t I;
  double D;
  uint32_t R;

  static Word makeInt(int32_t V) {
    Word W;
    W.Bits = static_cast<uint32_t>(V);
    return W;
  }
  static Word makeDouble(double V) {
    Word W;
    W.D = V;
    return W;
  }
  static Word makeRef(uint32_t Ref) {
    Word W;
    W.Bits = Ref;
    return W;
  }
};
static_assert(sizeof(Word) == 8 && std::is_trivially_copyable_v<Word>,
              "a register slot is one untagged 8-byte word");

/// What a heap cell holds; Free marks a swept or never-used index.
enum class CellKind : uint8_t { Free, Object, Array, RefArray };

/// One heap cell's header. The payload (fields in InstanceLayout order,
/// or elements) lives in storage the collector owns; the header says
/// which payload Words are references.
struct HeapCell {
  Word *Slots = nullptr; ///< Null when the cell has no payload.
  union {
    const ClassSymbol *Class = nullptr; ///< Object.
    Type *ArrayElemTy;                  ///< Array, RefArray.
  };
  uint32_t Len = 0; ///< Payload slots: fields or elements.
  CellKind Kind = CellKind::Free;

  bool isArray() const { return Kind >= CellKind::Array; }
};
static_assert(sizeof(HeapCell) == 24, "a cell header is 24 bytes");

/// Collector policy knobs, passed to the Runtime constructor (the only
/// way a run gets them). Defaults are safe for every existing workload: the
/// collector is on, but with a budget far above what any test or corpus
/// program allocates, so it never fires unless asked to.
struct GcOptions {
  /// Live-heap size (the bytes cells hold: header plus payload slots as
  /// stored, GcHeap::cellBytes) at which the allocation trigger arms the
  /// pending flag. The next safepoint then collects. It also caps one
  /// array at HeapBudget / sizeof(Word) elements (Runtime::
  /// arrayFitsBudget).
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
  /// Marked references that named no allocated cell. Always 0 while
  /// every root and payload scan reads only reference slots; a slot map
  /// that lets an integer through shows up here.
  uint64_t WildRefs = 0;
};

/// Handed to root providers during marking; mark() greys a reference.
/// Null refs are ignored; an out-of-range ref is counted as wild
/// (GcStats::WildRefs) and otherwise ignored.
class GcMarker {
public:
  void mark(uint32_t Ref) {
    if (Ref == 0)
      return;
    if (Ref >= Marks.size()) {
      ++Wild;
      return;
    }
    if (!Marks[Ref]) {
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
  uint64_t Wild = 0;
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

/// One Runtime's heap and its collector. Owns the cell headers, the
/// payload chunks and free lists, the mark bitmap, the free list of
/// reusable cell indices, the live-byte accounting that drives the
/// allocation trigger, and the root-provider registry. Single-mutator per
/// heap (a Runtime is single-threaded by contract); only the pending flag
/// is atomic, so polls stay race-free when stats readers look across
/// threads.
class GcHeap {
public:
  /// Payloads up to this many slots come from the collector's chunks,
  /// rounded up to a size class; larger ones get a block of their own.
  static constexpr uint32_t SmallMaxSlots = 512;

  /// Reserves cell 0 (the null reference, never allocated). \p
  /// RuntimeRoots is the Runtime's own statics/strings provider.
  explicit GcHeap(GcRootProvider *RuntimeRoots);
  ~GcHeap();
  GcHeap(const GcHeap &) = delete;
  GcHeap &operator=(const GcHeap &) = delete;

  void setOptions(const GcOptions &O);
  const GcOptions &options() const { return Opts; }
  bool enabled() const { return !Opts.Disable; }

  /// The safepoint poll reads this: one relaxed load.
  bool pending() const { return Pending.load(std::memory_order_relaxed); }

  /// Allocates a cell of \p Kind with \p Len zeroed payload slots (an
  /// all-zero Word is the zero of every type) and returns its index: a
  /// recycled one when the free list has one, never 0. \p Shape is the
  /// ClassSymbol of an object or the element Type of an array. Arms the
  /// pending flag when the live size crosses the budget (or on the stress
  /// cadence); the collection itself waits for the next safepoint.
  uint32_t allocate(CellKind Kind, const void *Shape, uint32_t Len);

  HeapCell &cell(uint32_t Ref) { return Cells[Ref]; }
  /// Cell-table size, the null cell included (a high-water mark).
  size_t numCells() const { return Cells.size(); }

  /// \p Ref names a live (allocated, not swept, not null) cell.
  bool isLive(uint32_t Ref) const {
    return Ref < Cells.size() && Cells[Ref].Kind != CellKind::Free;
  }

  /// The bytes a cell of \p Len payload slots holds: its header plus the
  /// payload as stored (small payloads rounded up to their size class).
  static size_t cellBytes(uint32_t Len);

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
  Word *allocPayload(uint32_t Len);
  void freePayload(Word *P, uint32_t Len);

  /// Payload storage: chunks carved by a bump pointer, and one intrusive
  /// free list per small size class, refilled by the sweep.
  struct Chunk {
    Chunk *Next;
  };
  static constexpr unsigned NumClasses = 36;
  Chunk *Chunks = nullptr;
  Word *Bump = nullptr;
  Word *BumpEnd = nullptr;
  size_t NextChunkSlots;
  std::array<Word *, NumClasses> FreePayloads{};

  std::vector<HeapCell> Cells;
  GcOptions Opts;
  std::vector<uint8_t> Marks;
  std::vector<uint32_t> Worklist;
  std::vector<uint32_t> FreeCells;
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
