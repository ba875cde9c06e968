//===- exec/Runtime.h - Shared MJ runtime ---------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime substrate shared by the SafeTSA evaluator and the baseline
/// bytecode interpreter: tagged values, a heap of objects and arrays,
/// static-field storage, native (imported) methods, runtime exceptions,
/// and an execution-fuel budget so differential/property tests can bound
/// runaway programs deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_EXEC_RUNTIME_H
#define SAFETSA_EXEC_RUNTIME_H

#include "exec/ExecPolicy.h"
#include "gc/GC.h"
#include "sema/ClassTable.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace safetsa {

struct ConstantValue;

/// A tagged runtime value. Ref 0 is the null reference.
struct Value {
  enum class Kind : uint8_t { Int, Double, Bool, Char, Ref } K = Kind::Int;
  int32_t I = 0;
  double D = 0.0;
  uint32_t R = 0;

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

/// One heap cell: either an object (Class != null) or an array.
struct HeapCell {
  const ClassSymbol *Class = nullptr; // Null for arrays.
  Type *ArrayElemTy = nullptr;        // Arrays only.
  std::vector<Value> Slots;           // Fields or elements.

  bool isArray() const { return Class == nullptr; }
};

/// Execution state shared across method activations. Owns the cell heap
/// and its collector (gc/GC.h); the Runtime itself is the root provider
/// for static fields and the interned-string pool, while interpreters
/// register additional providers for their active frame stacks.
class Runtime : public GcRootProvider {
public:
  explicit Runtime(ClassTable &Table, uint64_t Fuel = 200'000'000,
                   const GcOptions &GcOpts = {})
      : Table(Table), FuelLeft(Fuel), Paranoid(envSwitches().Paranoid) {
    Heap.emplace_back(); // Cell 0 is the never-used null slot.
    Statics.resize(Table.getNumStaticSlots());
    Gc.attach(&Heap, this);
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
    return static_cast<size_t>(Length) * sizeof(Value) <=
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
    assert(Ref != 0 && Ref < Heap.size() && "bad heap reference");
    // Paranoid mode (SAFETSA_PARANOID env): keep the check in release
    // builds and extend it to swept cells, trapping hard instead of
    // corrupting memory when hostile/fuzzed input slips a bad ref
    // through. The branch costs one predictable compare when off.
    if (Paranoid && !Gc.isLive(Ref))
      heapTrap(Ref);
    return Heap[Ref];
  }

  Value getStatic(unsigned Slot) const { return Statics[Slot]; }
  void setStatic(unsigned Slot, Value V) { Statics[Slot] = V; }

  /// Default (zero) value for a type.
  static Value zeroValue(const Type *Ty);

  /// Executes an imported method; prints go to the captured output.
  Value callNative(NativeMethod M, const std::vector<Value> &Args);

  /// Burns one unit of fuel; returns false when exhausted.
  bool burnFuel() { return FuelLeft == 0 ? false : (--FuelLeft, true); }

  /// Remaining fuel; initial fuel minus this is the executed-instruction
  /// count, which benchmarks use to classify programs by call density.
  uint64_t fuelLeft() const { return FuelLeft; }

  const std::string &getOutput() const { return Output; }
  void clearOutput() { Output.clear(); }

  /// --- Garbage collection (see gc/GC.h, DESIGN.md §13) ---

  const GcOptions &gcOptions() const { return Gc.options(); }
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

  /// Statics + interned string constants are this heap's baseline roots.
  void enumerateRoots(GcMarker &M) override;

  /// Introspection for tests/benches.
  size_t heapCells() const { return Heap.size(); }
  size_t gcLiveCells() const { return Gc.liveCells(); }
  const GcStats &gcStats() const { return Gc.stats(); }
  const std::vector<std::pair<std::string, uint32_t>> &stringPool() const {
    return StringPool;
  }

private:
  /// Paranoid-mode hard stop on an invalid heap reference.
  [[noreturn]] static void heapTrap(uint32_t Ref);

  ClassTable &Table;
  std::vector<HeapCell> Heap;
  std::vector<Value> Statics;
  std::vector<std::pair<std::string, uint32_t>> StringPool;
  std::string Output;
  uint64_t FuelLeft;
  GcHeap Gc;
  bool Paranoid = false;
};

class TSAModule;

/// Applies \p Module's static-field initializers to \p RT. Shared by both
/// interpreters (and callable before either) so a prepared execution and
/// its tree-walk oracle start from identical static state.
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
