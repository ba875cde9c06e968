//===- support/Arena.h - Bump-pointer arena allocation --------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena for the SafeTSA IR (Instruction, BasicBlock,
/// CSTNode). The consumer load path allocates tens of thousands of IR
/// nodes per module; per-node `new` was the dominant allocator traffic.
/// The arena hands out objects from large slabs, so allocation is a
/// pointer bump and teardown is one pass over the slab list instead of
/// one `free` per node.
///
/// Objects are never individually freed: passes that unlink nodes (DCE,
/// CSE) simply drop the pointers and the memory is reclaimed when the
/// owning method dies. Destructors of non-trivially-destructible types
/// are recorded and run at arena teardown, newest first.
///
/// The arena's own bookkeeping lives inside its slabs: each slab starts
/// with a link to the previous one, and each destructor record is bumped
/// from the slab right in front of its object. So the only heap traffic
/// an arena causes is one uninitialized allocation per slab — no side
/// vectors that regrow as a method's node count climbs.
///
/// The MJ front end builds its whole AST the same way: the Program owns
/// one arena holding every node, name and child list (ArenaArray), so AST
/// teardown is a slab release.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SUPPORT_ARENA_H
#define SAFETSA_SUPPORT_ARENA_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

namespace safetsa {

/// A fixed-length array whose storage lives in a BumpArena: the child
/// lists of arena-built trees. Trivially copyable, so the nodes holding it
/// stay trivially destructible. Elements are mutable through a const
/// ArenaArray, as through a std::span.
template <typename T> class ArenaArray {
public:
  ArenaArray() = default;
  ArenaArray(T *Data, size_t Size) : Data(Data), Size(Size) {}

  T *begin() const { return Data; }
  T *end() const { return Data + Size; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  T &operator[](size_t I) const {
    assert(I < Size && "ArenaArray index out of range");
    return Data[I];
  }
  T &at(size_t I) const {
    if (I >= Size)
      throw std::out_of_range("ArenaArray::at");
    return Data[I];
  }

private:
  T *Data = nullptr;
  size_t Size = 0;
};

/// Monotonic slab allocator. Not thread-safe; each owner (one TSAMethod
/// or TypeContext) is confined to one thread at a time by the batch
/// pipeline's design.
class BumpArena {
public:
  BumpArena() = default;
  BumpArena(BumpArena &&O) noexcept { *this = std::move(O); }
  BumpArena &operator=(BumpArena &&O) noexcept {
    if (this != &O) {
      reset();
      Head = std::exchange(O.Head, nullptr);
      Dtors = std::exchange(O.Dtors, nullptr);
      Cur = std::exchange(O.Cur, nullptr);
      End = std::exchange(O.End, nullptr);
      NextSlab = std::exchange(O.NextSlab, FirstSlab);
    }
    return *this;
  }
  BumpArena(const BumpArena &) = delete;
  BumpArena &operator=(const BumpArena &) = delete;

  ~BumpArena() { reset(); }

  /// Allocates \p Size bytes aligned to \p Align from the current slab,
  /// starting a new slab when it does not fit.
  void *allocate(size_t Size, size_t Align) {
    uintptr_t P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) &
                  ~(uintptr_t(Align) - 1);
    if (P + Size > reinterpret_cast<uintptr_t>(End)) {
      newSlab(Size + Align);
      P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) &
          ~(uintptr_t(Align) - 1);
    }
    Cur = reinterpret_cast<char *>(P + Size);
    return reinterpret_cast<void *>(P);
  }

  /// Constructs a T in the arena. The object lives until reset() or the
  /// arena is destroyed; there is no per-object destroy.
  template <typename T, typename... Args> T *create(Args &&...A) {
    if constexpr (std::is_trivially_destructible_v<T>) {
      return new (allocate(sizeof(T), alignof(T)))
          T(std::forward<Args>(A)...);
    } else {
      auto *D = static_cast<DtorRecord *>(
          allocate(sizeof(DtorRecord), alignof(DtorRecord)));
      T *Obj = new (allocate(sizeof(T), alignof(T)))
          T(std::forward<Args>(A)...);
      *D = {Dtors, Obj, [](void *P) { static_cast<T *>(P)->~T(); }};
      Dtors = D;
      return Obj;
    }
  }

  /// Copies \p N trivially copyable elements into an exact-size array.
  template <typename T> ArenaArray<T> copyArray(const T *Src, size_t N) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "arena arrays hold plain data");
    if (N == 0)
      return {};
    T *Dst = static_cast<T *>(allocate(sizeof(T) * N, alignof(T)));
    std::memcpy(static_cast<void *>(Dst), Src, sizeof(T) * N);
    return {Dst, N};
  }

  /// Copies \p S into the arena; the view lives as long as the arena.
  std::string_view copyString(std::string_view S) {
    if (S.empty())
      return {};
    char *Dst = static_cast<char *>(allocate(S.size(), 1));
    std::memcpy(Dst, S.data(), S.size());
    return {Dst, S.size()};
  }

  /// Runs pending destructors and releases every slab.
  void reset() {
    for (DtorRecord *D = Dtors; D; D = D->Prev)
      D->Destroy(D->Obj);
    Dtors = nullptr;
    while (Head) {
      SlabHeader *Prev = Head->Prev;
      ::operator delete(Head);
      Head = Prev;
    }
    Cur = End = nullptr;
    NextSlab = FirstSlab;
  }

private:
  /// Start of every slab: the chain walked by reset().
  struct SlabHeader {
    SlabHeader *Prev;
  };
  /// One pending destructor, bumped in front of its object; the chain
  /// runs newest first.
  struct DtorRecord {
    DtorRecord *Prev;
    void *Obj;
    void (*Destroy)(void *);
  };

  void newSlab(size_t AtLeast) {
    // Slabs double up to a cap so small methods stay small and large
    // modules amortize to a handful of mmaps. The memory is left
    // uninitialized: every object is constructed in place.
    size_t Size = std::max(NextSlab, AtLeast + sizeof(SlabHeader));
    NextSlab = std::min(NextSlab * 2, MaxSlab);
    auto *S = static_cast<SlabHeader *>(::operator new(Size));
    S->Prev = Head;
    Head = S;
    Cur = reinterpret_cast<char *>(S + 1);
    End = reinterpret_cast<char *>(S) + Size;
  }

  static constexpr size_t FirstSlab = 4096;
  static constexpr size_t MaxSlab = 256 * 1024;

  SlabHeader *Head = nullptr;
  DtorRecord *Dtors = nullptr;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextSlab = FirstSlab;
};

} // namespace safetsa

#endif // SAFETSA_SUPPORT_ARENA_H
