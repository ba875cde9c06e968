//===- gc/GC.cpp - Precise mark-sweep collection --------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/GC.h"

#include "sema/Symbols.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>

using namespace safetsa;

GcCounters &safetsa::gcCounters() {
  static GcCounters C;
  return C;
}

//===----------------------------------------------------------------------===//
// Payload storage
//===----------------------------------------------------------------------===//
//
// Small payloads (up to SmallMaxSlots) are rounded up to one of 36 size
// classes: exact for 1..16 slots (objects and short arrays), then four
// classes per doubling up to 512, so rounding wastes at most a quarter.
// They are carved from chunks by a bump pointer; the sweep threads a
// dead payload onto its class's free list (the link lives in its first
// Word) and the next allocation of that class reuses it. Larger payloads
// get a calloc'd block of their own, freed by the sweep.

static constexpr size_t FirstChunkSlots = 1024;
static constexpr size_t MaxChunkSlots = 32768;

/// Size class of a small payload of \p Len (1..SmallMaxSlots) slots.
static unsigned sizeClass(uint32_t Len) {
  if (Len <= 16)
    return Len - 1;
  unsigned B = static_cast<unsigned>(std::bit_width(Len - 1)); // 5..9
  return 16 + (B - 5) * 4 + ((Len - 1) >> (B - 3)) - 4;
}

/// Slots a payload of \p Len slots occupies.
static size_t heldSlots(uint32_t Len) {
  if (Len <= 16 || Len > GcHeap::SmallMaxSlots)
    return Len;
  unsigned Shift = static_cast<unsigned>(std::bit_width(Len - 1)) - 3;
  return static_cast<size_t>(((Len - 1) >> Shift) + 1) << Shift;
}

size_t GcHeap::cellBytes(uint32_t Len) {
  return sizeof(HeapCell) + heldSlots(Len) * sizeof(Word);
}

Word *GcHeap::allocPayload(uint32_t Len) {
  if (Len > SmallMaxSlots) {
    void *P = std::calloc(Len, sizeof(Word));
    if (!P)
      throw std::bad_alloc();
    return static_cast<Word *>(P);
  }
  Word *&Head = FreePayloads[sizeClass(Len)];
  Word *P = Head;
  if (P) {
    Head = reinterpret_cast<Word *>(static_cast<uintptr_t>(P->Bits));
  } else {
    size_t Held = heldSlots(Len);
    if (static_cast<size_t>(BumpEnd - Bump) < Held) {
      // The old chunk's tail is abandoned; chunks double up to a cap.
      size_t N = NextChunkSlots;
      NextChunkSlots = std::min(N * 2, MaxChunkSlots);
      auto *C = static_cast<Chunk *>(
          ::operator new(sizeof(Chunk) + N * sizeof(Word)));
      C->Next = Chunks;
      Chunks = C;
      Bump = reinterpret_cast<Word *>(C + 1);
      BumpEnd = Bump + N;
    }
    P = Bump;
    Bump += Held;
  }
  std::memset(P, 0, Len * sizeof(Word));
  return P;
}

void GcHeap::freePayload(Word *P, uint32_t Len) {
  if (Len > SmallMaxSlots) {
    std::free(P);
    return;
  }
  Word *&Head = FreePayloads[sizeClass(Len)];
  P->Bits = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Head));
  Head = P;
}

//===----------------------------------------------------------------------===//
// Cells
//===----------------------------------------------------------------------===//

GcHeap::GcHeap(GcRootProvider *RuntimeRoots)
    : NextChunkSlots(FirstChunkSlots) {
  static_assert(sizeof(Chunk) % alignof(Word) == 0, "payloads stay aligned");
  Cells.reserve(64);
  Cells.emplace_back(); // Cell 0 is the never-used null slot.
  Providers.push_back(RuntimeRoots);
  NextTrigger = Opts.HeapBudget;
}

GcHeap::~GcHeap() {
  for (const HeapCell &C : Cells)
    if (C.Len > SmallMaxSlots)
      std::free(C.Slots);
  while (Chunks) {
    Chunk *Next = Chunks->Next;
    ::operator delete(Chunks);
    Chunks = Next;
  }
}

void GcHeap::setOptions(const GcOptions &O) {
  Opts = O;
  NextTrigger = std::max(Opts.HeapBudget, LiveBytes);
}

void GcHeap::removeRootProvider(GcRootProvider *P) {
  Providers.erase(std::remove(Providers.begin(), Providers.end(), P),
                  Providers.end());
}

uint32_t GcHeap::allocate(CellKind Kind, const void *Shape, uint32_t Len) {
  uint32_t Ref;
  if (!FreeCells.empty()) {
    Ref = FreeCells.back();
    FreeCells.pop_back();
  } else {
    Ref = static_cast<uint32_t>(Cells.size());
    Cells.emplace_back();
  }
  HeapCell &C = Cells[Ref];
  C.Slots = Len ? allocPayload(Len) : nullptr;
  if (Kind == CellKind::Object)
    C.Class = static_cast<const ClassSymbol *>(Shape);
  else
    C.ArrayElemTy = static_cast<Type *>(const_cast<void *>(Shape));
  C.Len = Len;
  C.Kind = Kind;

  LiveBytes += cellBytes(Len);
  if (!Opts.Disable) {
    if (LiveBytes >= NextTrigger)
      armPending();
    if (Opts.StressEveryNAllocs &&
        ++AllocsSinceStress >= Opts.StressEveryNAllocs) {
      AllocsSinceStress = 0;
      armPending();
    }
  }
  return Ref;
}

size_t GcHeap::liveCells() const {
  size_t N = 0;
  for (const HeapCell &C : Cells)
    N += C.Kind != CellKind::Free;
  return N;
}

uint64_t GcHeap::collect() {
  Pending.store(false, std::memory_order_relaxed);
  if (Opts.Disable)
    return 0;
  auto T0 = std::chrono::steady_clock::now();

  // Mark: grey every root, then drain the worklist through cell payloads.
  // Transitive marking is iterative (no recursion) so arbitrarily deep
  // object graphs cannot overflow the native stack. Payloads are
  // untagged: an object's class lists its reference fields, and a
  // RefArray's elements are all references.
  Marks.assign(Cells.size(), 0);
  Worklist.clear();
  GcMarker Marker(Marks, Worklist);
  for (GcRootProvider *P : Providers)
    P->enumerateRoots(Marker);
  while (!Worklist.empty()) {
    const HeapCell &C = Cells[Worklist.back()];
    Worklist.pop_back();
    switch (C.Kind) {
    case CellKind::Free:
      ++Marker.Wild; // Names a swept or never-allocated cell.
      break;
    case CellKind::Object:
      for (uint32_t F : C.Class->RefFields)
        Marker.mark(C.Slots[F].R);
      break;
    case CellKind::RefArray:
      for (uint32_t I = 0; I != C.Len; ++I)
        Marker.mark(C.Slots[I].R);
      break;
    case CellKind::Array:
      break;
    }
  }

  // Sweep, in index order (deterministic free-list layout): every
  // allocated-but-unmarked cell returns its payload to the collector's
  // storage and its index to the free list. Cells are never moved, so
  // every surviving uint32_t ref stays valid.
  uint64_t Reclaimed = 0;
  for (uint32_t Ref = 1; Ref < Cells.size(); ++Ref) {
    HeapCell &C = Cells[Ref];
    if (C.Kind == CellKind::Free || Marks[Ref])
      continue;
    if (C.Len)
      freePayload(C.Slots, C.Len);
    LiveBytes -= std::min(LiveBytes, cellBytes(C.Len));
    C = HeapCell();
    FreeCells.push_back(Ref);
    ++Reclaimed;
  }

  // Re-arm: keep headroom above the surviving live set so a workload
  // whose live heap legitimately exceeds the budget makes progress
  // between collections instead of collecting at every safepoint.
  NextTrigger = std::max(Opts.HeapBudget, LiveBytes + LiveBytes / 2);

  uint64_t Pause = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  ++Stats.Cycles;
  Stats.CellsReclaimed += Reclaimed;
  Stats.PauseNs += Pause;
  Stats.WildRefs += Marker.Wild;
  GcCounters &C = gcCounters();
  C.Cycles.add(1);
  C.CellsReclaimed.add(Reclaimed);
  C.PauseNs.add(Pause);
  return Reclaimed;
}
