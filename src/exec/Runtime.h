//===- exec/Runtime.h - Shared MJ runtime ---------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime substrate shared by the prepared engine, the SafeTSA tree
/// walker and the baseline bytecode interpreter: tagged values for the
/// latter two, a typed heap of objects and arrays (gc/GC.h), untagged
/// static-field storage, native (imported) methods, runtime exceptions,
/// and an execution-fuel budget so differential/property tests can bound
/// runaway programs deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_EXEC_RUNTIME_H
#define SAFETSA_EXEC_RUNTIME_H

#include "gc/GC.h"
#include "sema/ClassTable.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace safetsa {

struct ConstantValue;

/// A tagged runtime value: a kind and one 8-byte payload. Ref 0 is the
/// null reference. The tree walker and the bytecode interpreter compute
/// on these, so they stay oracles independent of the prepared engine's
/// untagged frames; the public call boundary (ExecResult) uses them too.
struct Value {
  enum class Kind : uint8_t { Int, Double, Bool, Char, Ref } K = Kind::Int;
  union {
    uint64_t Bits = 0;
    int32_t I;
    double D;
    uint32_t R;
  };

  static Value makeInt(int32_t V) {
    Value X;
    X.K = Kind::Int;
    X.I = V;
    return X;
  }
  static Value makeDouble(double V) {
    Value X;
    X.K = Kind::Double;
    X.D = V;
    return X;
  }
  static Value makeBool(bool V) {
    Value X;
    X.K = Kind::Bool;
    X.I = V;
    return X;
  }
  static Value makeChar(char V) {
    Value X;
    X.K = Kind::Char;
    X.I = static_cast<unsigned char>(V);
    return X;
  }
  static Value makeRef(uint32_t R) {
    Value X;
    X.K = Kind::Ref;
    X.R = R;
    return X;
  }
  static Value makeNull() { return makeRef(0); }

  /// The value of \p W read as type \p Ty (void or null: the default
  /// Value).
  static Value fromWord(Word W, const Type *Ty);
  /// The untagged payload.
  Word word() const {
    Word W;
    W.Bits = Bits;
    return W;
  }

  bool isNull() const { return K == Kind::Ref && R == 0; }

  /// Rendering used by both interpreters for differential comparison.
  std::string str() const;
};

/// Why execution stopped abnormally. These model Java's runtime
/// exceptions; with no try/catch in MJ they unwind to the top.
enum class RuntimeError : uint8_t {
  None,
  NullPointer,
  IndexOutOfBounds,
  DivisionByZero,
  ClassCast,
  NegativeArraySize,
  StackOverflow,
  OutOfFuel,
  OutOfMemory,
  Internal
};

const char *runtimeErrorName(RuntimeError E);

/// Runtime exceptions an MJ catch-all handler intercepts (the five Java
/// runtime exceptions MJ programs can raise); resource exhaustion and
/// interpreter-internal failures always unwind. Shared by the tree-walking
/// and prepared interpreters so trap catchability cannot drift.
bool isCatchableError(RuntimeError E);

/// Execution state shared across method activations. Owns the cell heap
/// and its collector (gc/GC.h); the Runtime itself is the root provider
/// for static fields and the interned-string pool, while interpreters
/// register additional providers for their active frame stacks.
///
/// Storage is untagged (Words). The prepared engine reads it raw through
/// cell() and staticSlot(); the tagged engines and tests go through the
/// typed accessors, which convert by field, element or parameter type.
class Runtime : public GcRootProvider {
public:
  explicit Runtime(ClassTable &Table, uint64_t Fuel = 200'000'000,
                   const GcOptions &GcOpts = {})
      : Table(Table), FuelLeft(Fuel), Gc(this), Paranoid(paranoidEnv()) {
    Statics.assign(Table.getNumStaticSlots(), Word{});
    Gc.setOptions(GcOpts);
  }

  ClassTable &getTable() { return Table; }

  /// Allocates a zero-initialized instance of \p Class.
  uint32_t allocObject(const ClassSymbol *Class);
  /// Allocates an array of \p Length elements of \p ElemTy, zeroed.
  uint32_t allocArray(Type *ElemTy, int32_t Length);

  /// Whether one array allocation of \p Length elements can fit the
  /// collector's heap budget at all. When it cannot, no collection could
  /// ever make room, so the interpreters trap OutOfMemory *before*
  /// touching the backing store — a mobile-code `new int[huge]` (e.g.
  /// from wrapped 32-bit arithmetic) must never commit host memory. This
  /// is a hard per-allocation cap, distinct from the collection trigger,
  /// and applies even with GcOptions::Disable.
  bool arrayFitsBudget(int32_t Length) const {
    return static_cast<size_t>(Length) * sizeof(Word) <=
           Gc.options().HeapBudget;
  }
  /// Interns a char[] for a string constant (one cell per distinct
  /// constant per runtime; MJ string literals are immutable by contract).
  /// \p CharTy is the canonical char type, recorded as the element type so
  /// dynamic casts treat the cell as a char[].
  uint32_t internString(std::string_view S, Type *CharTy);
  /// The value of constant \p C; strings are interned (\p CharTy types
  /// their cells).
  Value constant(const ConstantValue &C, Type *CharTy);

  HeapCell &cell(uint32_t Ref) {
    assert(Ref != 0 && Ref < Gc.numCells() && "bad heap reference");
    // Paranoid mode (SAFETSA_PARANOID set non-empty and not "0"): keep
    // the check in release builds and extend it to swept cells, trapping
    // hard instead of corrupting memory when hostile/fuzzed input slips a
    // bad ref through. The branch costs one predictable compare when off.
    if (Paranoid && !Gc.isLive(Ref))
      heapTrap(Ref);
    return Gc.cell(Ref);
  }

  /// Raw static storage, by ClassTable static slot.
  Word &staticSlot(unsigned Slot) { return Statics[Slot]; }

  /// --- Typed access for the tagged engines and tests ---

  Value getStatic(const FieldSymbol *F) const {
    return Value::fromWord(Statics[F->Slot], F->Ty);
  }
  void setStatic(const FieldSymbol *F, Value V) {
    Statics[F->Slot] = V.word();
  }
  /// Field \p F of the object \p Ref.
  Value getField(uint32_t Ref, const FieldSymbol *F) {
    return Value::fromWord(cell(Ref).Slots[F->Slot], F->Ty);
  }
  void setField(uint32_t Ref, const FieldSymbol *F, Value V) {
    cell(Ref).Slots[F->Slot] = V.word();
  }
  /// Element \p Index (in bounds) of the array \p Ref, read as the
  /// array's element type.
  Value getElt(uint32_t Ref, int32_t Index) {
    const HeapCell &C = cell(Ref);
    return Value::fromWord(C.Slots[Index], C.ArrayElemTy);
  }
  void setElt(uint32_t Ref, int32_t Index, Value V) {
    cell(Ref).Slots[Index] = V.word();
  }

  /// The largest arity of an imported method (Math.pow, min, max).
  static constexpr unsigned MaxNativeArgs = 2;
  /// Executes an imported method on untagged arguments; prints append
  /// to the captured output.
  Word callNative(NativeMethod M, const Word *Args);
  /// The tagged form: converts \p Args and the result by \p M's
  /// signature.
  Value callNative(const MethodSymbol *M, const std::vector<Value> &Args);

  /// Burns one unit of fuel; returns false when exhausted.
  bool burnFuel() { return FuelLeft == 0 ? false : (--FuelLeft, true); }

  /// Remaining fuel; initial fuel minus this is the executed-instruction
  /// count, which benchmarks use to classify programs by call density.
  uint64_t fuelLeft() const { return FuelLeft; }

  const std::string &getOutput() const { return Output; }

  /// --- Garbage collection (see gc/GC.h, DESIGN.md §13) ---

  bool gcEnabled() const { return Gc.enabled(); }

  /// The safepoint poll: one relaxed load. Interpreters branch to
  /// gcSafepoint() only when this is set.
  bool gcPending() const { return Gc.pending(); }
  /// Safepoint slow path: collect now. Only call where every live
  /// reference is in an enumerable root (frame slots, statics, interned
  /// strings) — i.e. at back edges and call entry.
  void gcSafepoint() { Gc.collect(); }
  /// Forces a full collection regardless of the pending flag (tests).
  /// Returns the number of cells reclaimed; 0 when GC is disabled.
  uint64_t collectNow() { return Gc.collect(); }

  void gcAddRootProvider(GcRootProvider &P) { Gc.addRootProvider(&P); }
  void gcRemoveRootProvider(GcRootProvider &P) { Gc.removeRootProvider(&P); }
  /// \p Ref names an allocated, unswept cell.
  bool gcIsLive(uint32_t Ref) const { return Gc.isLive(Ref); }

  /// Statics + interned string constants are this heap's baseline roots.
  void enumerateRoots(GcMarker &M) override;

  /// Introspection for tests/benches.
  size_t heapCells() const { return Gc.numCells(); }
  size_t gcLiveCells() const { return Gc.liveCells(); }
  size_t gcLiveBytes() const { return Gc.liveBytes(); }
  const GcStats &gcStats() const { return Gc.stats(); }
  struct InternedString {
    uint32_t Off, Len, Ref;
  };
  const std::vector<InternedString> &stringPool() const { return StringPool; }

private:
  /// Whether SAFETSA_PARANOID is on. Read from the environment on the
  /// first call and cached for the rest of the process, so constructing
  /// a Runtime per request costs no getenv; a variable set later is not
  /// seen.
  static bool paranoidEnv();
  /// Paranoid-mode hard stop on an invalid heap reference.
  [[noreturn]] static void heapTrap(uint32_t Ref);

  ClassTable &Table;
  std::vector<Word> Statics;
  /// Interned string constants: each entry's text is StringText[Off,
  /// Off + Len), kept apart from the cell, which the program may write.
  std::vector<InternedString> StringPool;
  std::string StringText;
  std::string Output;
  uint64_t FuelLeft;
  GcHeap Gc;
  bool Paranoid = false;
};

class TSAModule;

/// Applies \p Module's static-field initializers to \p RT. Shared by both
/// interpreters (and callable before either) so a prepared execution and
/// a tree-walk run of the same module start from identical static state.
void applyStaticInitializers(const TSAModule &Module, Runtime &RT);

/// The value of constant \p C, or null for a string (a string's cell
/// belongs to a Runtime: see Runtime::constant).
Value constantValue(const ConstantValue &C);

/// Result of running a method to completion.
struct ExecResult {
  RuntimeError Err = RuntimeError::None;
  Value Ret;
  bool ok() const { return Err == RuntimeError::None; }
};

} // namespace safetsa

#endif // SAFETSA_EXEC_RUNTIME_H
