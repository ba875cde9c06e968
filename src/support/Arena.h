//===- support/Arena.h - Bump-pointer arena allocation --------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena for flat, trivially destructible records: the MJ
/// AST (one arena per Program) and the SafeTSA IR (one arena per
/// TSAModule, holding every method, block, instruction, CST node, operand
/// list and constant). Allocation is a pointer bump and teardown is one
/// pass over the slab list, with no destructor to run: the arena accepts
/// only trivially destructible types, so a node costs its bytes and
/// nothing else.
///
/// Objects are never individually freed: passes that unlink nodes (DCE,
/// CSE) simply drop the pointers and the memory is reclaimed when the
/// owning arena dies.
///
/// The arena's own bookkeeping lives inside its slabs: each slab starts
/// with a link to the previous one. So the only heap traffic an arena
/// causes is one uninitialized allocation per slab.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SUPPORT_ARENA_H
#define SAFETSA_SUPPORT_ARENA_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

namespace safetsa {

class BumpArena;

/// An array whose storage lives in a BumpArena: the child lists of
/// arena-built trees and graphs. Trivially copyable, so the nodes holding
/// it stay trivially destructible. Elements are mutable through a const
/// ArenaArray, as through a std::span.
///
/// An array built in one go (copyArray, allocArray) has exactly its size.
/// A producer that grows a list element by element uses push_back or
/// insert, which double the storage inside the arena when it is full; the
/// outgrown storage stays in the arena until it dies. Copies share
/// storage, so only one copy of a list may grow.
template <typename T> class ArenaArray {
public:
  ArenaArray() = default;
  ArenaArray(T *Data, size_t Size)
      : Data(Data), Size(static_cast<uint32_t>(Size)),
        Cap(static_cast<uint32_t>(Size)) {}

  T *begin() const { return Data; }
  T *end() const { return Data + Size; }
  T *data() const { return Data; }
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
  T &front() const { return (*this)[0]; }
  T &back() const { return (*this)[Size - 1]; }

  /// Appends \p V, moving to twice the storage in \p A when full.
  void push_back(BumpArena &A, T V);
  /// Makes room for \p N elements in all, so that many push_backs move
  /// nothing; storage grows to exactly \p N when it is too small.
  void reserve(BumpArena &A, size_t N);
  /// Inserts \p V before position \p Pos.
  void insert(BumpArena &A, size_t Pos, T V);
  /// Sets the size to \p N, keeping the first elements; storage grows to
  /// exactly \p N when it is too small.
  void resize(BumpArena &A, size_t N);
  /// Drops every element from \p N on; the storage stays.
  void truncate(size_t N) {
    assert(N <= Size && "truncating past the end");
    Size = static_cast<uint32_t>(N);
  }
  /// Removes the element at \p Pos, keeping the order of the rest.
  void erase(size_t Pos) {
    assert(Pos < Size && "erasing past the end");
    std::copy(Data + Pos + 1, Data + Size, Data + Pos);
    --Size;
  }
  void clear() { Size = 0; }

private:
  void grow(BumpArena &A);

  T *Data = nullptr;
  uint32_t Size = 0;
  uint32_t Cap = 0;
};

/// Monotonic slab allocator for trivially destructible records. Not
/// thread-safe; each owner (one Program, TSAModule or TypeContext) is
/// confined to one thread at a time.
class BumpArena {
public:
  BumpArena() = default;
  /// An arena whose first slab holds at least \p FirstSlabBytes: a
  /// producer that knows about how much it will build allocates once.
  explicit BumpArena(size_t FirstSlabBytes)
      : NextSlab(std::clamp(FirstSlabBytes, MinSlab, MaxSlab)) {}
  BumpArena(BumpArena &&O) noexcept { *this = std::move(O); }
  BumpArena &operator=(BumpArena &&O) noexcept {
    if (this != &O) {
      reset();
      Head = std::exchange(O.Head, nullptr);
      Cur = std::exchange(O.Cur, nullptr);
      End = std::exchange(O.End, nullptr);
      NextSlab = std::exchange(O.NextSlab, FirstSlab);
      Slabs = std::exchange(O.Slabs, 0);
      Stranded = std::exchange(O.Stranded, 0);
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
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(A)...);
  }

  /// An exact-size array of \p N value-initialized elements.
  template <typename T> ArenaArray<T> allocArray(size_t N) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "arena arrays hold plain data");
    if (N == 0)
      return {};
    T *Dst = static_cast<T *>(allocate(sizeof(T) * N, alignof(T)));
    std::uninitialized_value_construct_n(Dst, N);
    return {Dst, N};
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

  /// Makes sure the next \p Bytes of allocations (alignment padding
  /// included) fit the current slab, starting a slab of just that size
  /// when they do not: a producer that knows what it will copy in next
  /// gets it in one slab with nothing to spare.
  void reserve(size_t Bytes) {
    if (static_cast<size_t>(End - Cur) < Bytes)
      newSlab(Bytes, /*Exact=*/true);
  }

  /// Copies \p S into the arena; the view lives as long as the arena.
  std::string_view copyString(std::string_view S) {
    if (S.empty())
      return {};
    char *Dst = static_cast<char *>(allocate(S.size(), 1));
    std::memcpy(Dst, S.data(), S.size());
    return {Dst, S.size()};
  }

  /// Releases every slab.
  void reset() {
    while (Head) {
      SlabHeader *Prev = Head->Prev;
      ::operator delete(Head);
      Head = Prev;
    }
    Cur = End = nullptr;
    NextSlab = FirstSlab;
    Slabs = Stranded = 0;
  }

  /// Bytes of every slab this arena holds, headers included: what it
  /// costs the heap.
  size_t slabBytes() const { return Slabs; }
  /// Bytes handed out so far, alignment padding included: slabBytes()
  /// less the slab headers, the tails left behind when an allocation did
  /// not fit, and the room left in the current slab.
  size_t usedBytes() const {
    size_t Free = static_cast<size_t>(End - Cur);
    size_t Headers = 0;
    for (const SlabHeader *S = Head; S; S = S->Prev)
      Headers += sizeof(SlabHeader);
    return Slabs - Headers - Stranded - Free;
  }

private:
  /// Start of every slab: the chain walked by reset().
  struct SlabHeader {
    SlabHeader *Prev;
  };

  void newSlab(size_t AtLeast, bool Exact = false) {
    // Slabs double up to a cap so small owners stay small and large ones
    // amortize to a handful of allocations; a reserve() slab is just big
    // enough. The memory is left uninitialized: every object is
    // constructed in place.
    size_t Size = AtLeast + sizeof(SlabHeader);
    if (!Exact) {
      Size = std::max(NextSlab, Size);
      NextSlab = std::min(NextSlab * 2, MaxSlab);
    }
    Stranded += static_cast<size_t>(End - Cur);
    Slabs += Size;
    auto *S = static_cast<SlabHeader *>(::operator new(Size));
    S->Prev = Head;
    Head = S;
    Cur = reinterpret_cast<char *>(S + 1);
    End = reinterpret_cast<char *>(S) + Size;
  }

  static constexpr size_t MinSlab = 256;
  static constexpr size_t FirstSlab = 4096;
  static constexpr size_t MaxSlab = 256 * 1024;

  SlabHeader *Head = nullptr;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextSlab = FirstSlab;
  size_t Slabs = 0;    ///< Bytes of every slab, for slabBytes().
  size_t Stranded = 0; ///< Tails of earlier slabs, for usedBytes().
};

template <typename T> void ArenaArray<T>::grow(BumpArena &A) {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "arena arrays hold plain data");
  uint32_t NewCap = Cap ? Cap * 2 : 4;
  T *NewData = static_cast<T *>(A.allocate(sizeof(T) * NewCap, alignof(T)));
  if (Size)
    std::memcpy(static_cast<void *>(NewData), Data, sizeof(T) * Size);
  Data = NewData;
  Cap = NewCap;
}

template <typename T> void ArenaArray<T>::reserve(BumpArena &A, size_t N) {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "arena arrays hold plain data");
  if (N <= Cap)
    return;
  T *NewData = static_cast<T *>(A.allocate(sizeof(T) * N, alignof(T)));
  if (Size)
    std::memcpy(static_cast<void *>(NewData), Data, sizeof(T) * Size);
  Data = NewData;
  Cap = static_cast<uint32_t>(N);
}

template <typename T> void ArenaArray<T>::resize(BumpArena &A, size_t N) {
  reserve(A, N);
  if (N > Size)
    std::uninitialized_value_construct_n(Data + Size, N - Size);
  Size = static_cast<uint32_t>(N);
}

template <typename T> void ArenaArray<T>::push_back(BumpArena &A, T V) {
  if (Size == Cap)
    grow(A);
  Data[Size++] = V;
}

template <typename T>
void ArenaArray<T>::insert(BumpArena &A, size_t Pos, T V) {
  assert(Pos <= Size && "inserting past the end");
  if (Size == Cap)
    grow(A);
  std::copy_backward(Data + Pos, Data + Size, Data + Size + 1);
  Data[Pos] = V;
  ++Size;
}

} // namespace safetsa

#endif // SAFETSA_SUPPORT_ARENA_H
