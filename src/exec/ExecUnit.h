//===- exec/ExecUnit.h - Quickened SafeTSA execution units ----*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prepared (quickened) execution form of a SafeTSA module and the
/// register-frame interpreter that runs it.
///
/// The paper's (l, r)/plane reference scheme makes every SSA value's
/// position statically resolvable, so value references do not need to be
/// hashed at run time: a one-time preparation pass (Prepare.cpp) lowers
/// each method's CST/SSA graph into a linear, branch-resolved instruction
/// stream in which every operand is a dense slot index into a flat
/// register frame. Slots are assigned per method in block order x
/// plane-position order — exactly the order finalize() enumerates the
/// plane tables — with the entry block's Param preloads pinned to the
/// reserved argument region [0, NumArgs). Phis disappear into block-edge
/// move lists (emitted sequentially in phi order, the same update order
/// the definitional tree-walker uses), field/element accesses carry
/// pre-resolved layout offsets, statically-bound calls carry direct
/// ExecUnit* targets, and exception edges become per-raising-site handler
/// continuations. TSAExec executes the stream with token-threaded dispatch
/// (computed goto under GCC/Clang, a switch fallback elsewhere). The
/// tree-walking TSAInterpreter stays the definitional semantics; the
/// differential matrix (testgen/DifferentialRunner.h) compares every
/// tier against it. See DESIGN.md §10.
///
/// An ExecUnit is immutable after preparation, so one PreparedModule may
/// be executed concurrently by any number of TSAExec instances (each with
/// its own Runtime); the serve layer caches prepared units alongside the
/// decoded modules they were lowered from.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_EXEC_EXECUNIT_H
#define SAFETSA_EXEC_EXECUNIT_H

#include "exec/Profile.h"
#include "exec/Runtime.h"
#include "tsa/Method.h"

#include <atomic>
#include <memory>
#include <type_traits>
#include <vector>

namespace safetsa {

/// Prepared opcodes. The list is an X-macro so the interpreter's
/// computed-goto label table stays mechanically in sync with the enum.
/// Phi, Param, and Downcast have no prepared form (edge moves, argument
/// slots, and a plain Move respectively); Primitive/XPrimitive quicken to
/// one opcode per PrimOp so dispatch selects the operation directly.
///
/// The trailing block is the tier-1 vocabulary (DESIGN.md §11): the
/// inline-cached dispatch (DispatchIC, 1 to 4 ways, indexing
/// ExecUnit::ICs via ExecInst::S) and superinstructions fused from the
/// hottest static pairs. BrCmp*I keeps the six-compare order of the
/// Cmp*I block so fusion is a constant opcode offset; the memory
/// superinstructions fuse a check with the access it guards (the check's
/// certificate slot is still written, so every fused form is bit-identical
/// in effect to its two-instruction expansion — no liveness analysis
/// needed); Move2/MoveJmp collapse the flat-frame phi-edge copy chains.
/// Fused forms MUST stay contiguous from BrCmpLtI through MoveJmp — the
/// shadow-slot accounting in countOp range-checks that interval.
///
/// After the fused block comes the speculative-inlining vocabulary
/// (DESIGN.md §14): GuardInline (receiver-class check guarding an inlined
/// one-way-IC body, branch to the out-of-line fallback on miss),
/// EnterInline / LeaveInline (activation-depth bookkeeping so an inlined
/// frame still counts against MaxDepth exactly like the tree-walker's
/// recursive call), and InlineRet (the callee's RetVal rewritten to a
/// result move + jump to the continuation).
#define SAFETSA_XOP_LIST(X)                                                  \
  X(Move) X(LoadConst) X(LoadStr) X(Jmp) X(BrFalse) X(RetVoid) X(RetVal)     \
  X(AddI) X(SubI) X(MulI) X(DivI) X(RemI) X(NegI) X(AndI) X(OrI) X(XorI)     \
  X(ShlI) X(ShrI) X(NotI) X(CmpLtI) X(CmpLeI) X(CmpGtI) X(CmpGeI)            \
  X(CmpEqI) X(CmpNeI) X(IntToDouble) X(IntToChar) X(AddD) X(SubD) X(MulD)    \
  X(DivD) X(NegD) X(CmpLtD) X(CmpLeD) X(CmpGtD) X(CmpGeD) X(CmpEqD)          \
  X(CmpNeD) X(DoubleToInt) X(CharToInt) X(NotB) X(CmpEqB) X(CmpNeB)          \
  X(CmpEqR) X(CmpNeR) X(InstanceOf) X(NullCheck) X(IndexCheck) X(Upcast)     \
  X(GetField) X(SetField) X(GetElt) X(SetElt) X(GetStatic) X(SetStatic)      \
  X(ArrayLength) X(New) X(NewArray) X(CallUnit) X(CallNative) X(Dispatch)    \
  X(DispatchIC)                                                              \
  X(BrCmpLtI) X(BrCmpLeI) X(BrCmpGtI) X(BrCmpGeI) X(BrCmpEqI) X(BrCmpNeI)    \
  X(NullGetField) X(NullSetField) X(IdxGetElt) X(IdxSetElt)                   \
  X(Move2) X(MoveJmp)                                                        \
  X(GuardInline) X(EnterInline) X(LeaveInline) X(InlineRet)

enum class XOp : uint8_t {
#define SAFETSA_XOP_ENUM(N) N,
  SAFETSA_XOP_LIST(SAFETSA_XOP_ENUM)
#undef SAFETSA_XOP_ENUM
};

const char *xopName(XOp Op);

class ExecUnit;

/// One prepared instruction. All value references are frame-slot indices;
/// everything an opcode needs at run time is pre-resolved into the
/// immediate fields, so execution never touches the CST/SSA graph.
struct ExecInst {
  /// Slot sentinel: the instruction produces no stored result.
  static constexpr uint16_t NoSlot = 0xffff;

  XOp Op = XOp::Move;
  uint8_t N = 0;          ///< Call argument count.
  uint16_t A = 0;         ///< First operand slot.
  uint16_t B = 0;         ///< Second operand slot.
  uint16_t C = 0;         ///< Third operand slot (SetElt value).
  uint16_t Dst = NoSlot;  ///< Result slot; NoSlot when none.
  /// Branch target (code index), constant/argument pool index, or
  /// pre-resolved field/static slot — meaning depends on Op.
  int32_t X = 0;
  /// Catchable-trap continuation: code index of the exception-edge stub
  /// (phi moves, then the handler), or -1 when a trap here unwinds.
  int32_t Handler = -1;
  /// Site index (fills alignment padding, so it is free): for a tier-0
  /// Dispatch, the module-wide profile site in ProfileData::site(); for
  /// DispatchIC, the index into ExecUnit::ICs. -1 = no site (unprofiled /
  /// megamorphic-demoted dispatch).
  int32_t S = -1;
  /// Direct target: callee ExecUnit (CallUnit), MethodSymbol (CallNative /
  /// Dispatch), Type (InstanceOf / Upcast / NewArray), or ClassSymbol
  /// (New).
  const void *P = nullptr;
};

/// One resolved inline cache (tier 1): receiver-class guards with direct
/// callee units, plus the statically-named method for the vtable fallback
/// on a guard miss. Ways is 1 for a profiled-monomorphic site and
/// 2..ProfileData::kWays for a polymorphic one; sites whose profile
/// overflowed are demoted to the plain Dispatch vtable path. Immutable
/// after re-preparation, like all prepared state.
struct ICEntry {
  static constexpr unsigned kMaxWays = 4;
  static_assert(kMaxWays == ProfileData::kWays,
                "IC ways must match the profile's tracked ways");
  const ClassSymbol *Classes[kMaxWays] = {};
  const ExecUnit *Targets[kMaxWays] = {};
  uint8_t Ways = 0;
  /// The module-wide profile site this cache was built from: the
  /// inliner reads the site's heat through it (ExecInst::S of a
  /// DispatchIC indexes ExecUnit::ICs instead).
  uint32_t Site = 0;
  const MethodSymbol *Method = nullptr; ///< Fallback vtable lookup key.
};

/// One method lowered to executable form. Immutable after preparation;
/// references (types, symbols, string constants) point into the source
/// TSAModule, which must outlive the unit. The unit and each of its
/// arrays are plain data in its PreparedModule's arena, every array
/// allocated once at its final size.
class ExecUnit {
public:
  const TSAMethod *Method = nullptr;
  const MethodSymbol *Symbol = nullptr;
  /// Position in PreparedModule::Units; doubles as the method's profile
  /// slot (ProfileData::invocations) and the stable identity the replay
  /// tests compare cross-preparation unit pointers through.
  uint32_t Index = 0;
  /// Frame size in Word slots: the reserved argument region [0, NumArgs)
  /// followed by one slot per non-Param SSA value (plane-table layout).
  uint32_t NumSlots = 0;
  /// Receiver (for instance methods) + declared parameters.
  uint32_t NumArgs = 0;

  ArenaArray<ExecInst> Code;
  /// Flattened call-argument slot lists; ExecInst::X indexes the first of
  /// ExecInst::N slots.
  ArenaArray<uint16_t> ArgPool;
  /// Pre-materialized non-string constants (LoadConst payload).
  ArenaArray<Word> ConstPool;
  /// String constants; interned into the Runtime at first load per
  /// activation (LoadStr payload), exactly like the tree-walker.
  ArenaArray<std::string_view> StrPool;
  /// Tier-1 inline caches (DispatchIC sites, by ExecInst::S); empty in
  /// tier 0.
  ArenaArray<ICEntry> ICs;

  /// The unit's GC slot map: every frame slot that holds a reference,
  /// ascending. Derived at lowering time from the verifier's plane
  /// tables (a slot is a ref iff its plane is SafeRef, or Base over a
  /// ref type) plus the signature for the argument region — the same
  /// plane walk that assigned the slots, so the map is exact, not
  /// conservative — and, at tier 1, the whole ref region of the inline
  /// frame extension (DESIGN.md §14). Frames are untagged, so a listed
  /// slot must only ever hold a reference. Root enumeration scans
  /// exactly these slots of each active frame; no stack map compression
  /// is needed at this scale.
  ArenaArray<uint16_t> RefSlots;
  /// Leading RefSlots entries that fall in the argument region
  /// [0, NumArgs). Arguments are written by the caller before entry, so
  /// frame setup only nulls RefSlots[NumRefArgs..] (the not-yet-defined
  /// body slots, which must not leak stale refs into a root scan).
  uint32_t NumRefArgs = 0;
};

static_assert(std::is_trivially_destructible_v<ExecUnit>,
              "units live in an arena that runs no destructors");

/// A module lowered for execution. Holds no ownership of the source
/// TSAModule; pair it with the owning CompiledProgram/DecodedUnit (the
/// serve layer's cache keeps both together). Owns one arena holding
/// every unit, every unit's arrays and the two tables below, so a
/// module's prepared form costs a slab or two, not an allocation per
/// unit or array.
class PreparedModule {
public:
  /// A module whose arena starts with room for about \p ArenaBytes.
  explicit PreparedModule(size_t ArenaBytes) : Arena(ArenaBytes) {}

  const TSAModule *Module = nullptr;
  /// One unit per method with a body, in TSAModule::Methods order.
  ArenaArray<ExecUnit *> Units;
  /// MethodSymbol::GlobalId -> unit; null for natives and bodyless
  /// methods. Dispatch resolves vtable targets through this table.
  ArenaArray<const ExecUnit *> ByGlobalId;
  const ExecUnit *MainUnit = nullptr; ///< `static main()`, when present.
  /// Execution tier this module was lowered at: 0 = profiling tier
  /// (plain PR-4 streams + side profile), 1 = optimized tier (inline
  /// caches, devirtualization, superinstruction fusion).
  uint32_t Tier = 0;
  /// Tier-0 only: the side profile every executing TSAExec feeds
  /// (allocated by prepareModule; null at tier 1). The pointee is
  /// mutable-by-design — all counters are relaxed atomics — so profiling
  /// works through the const module the cache shares.
  std::unique_ptr<ProfileData> Profile;
  /// How tier-1 lowering classified the module's dispatch sites — the
  /// prepare-time truth the benches report. Runtime opcode counts alone
  /// cannot see this: closed-world devirtualization turns most
  /// profiled-monomorphic sites into plain CallUnit, indistinguishable
  /// from static calls, which is why countICs(1) reads 0 on a
  /// whole-program corpus (every single-receiver site is also
  /// single-implementation). Zeroed at tier 0.
  struct TierStats {
    uint32_t ProfiledMono = 0;   ///< Sites whose profile saw one class.
    uint32_t ProfiledPoly = 0;   ///< 2..kWays classes, no overflow.
    uint32_t Megamorphic = 0;    ///< Overflowed; stay on the vtable.
    uint32_t DevirtCalls = 0;    ///< Closed-world guard-free direct calls.
    uint32_t MonoICs = 0;        ///< One-way ICs (one-guard direct call).
    uint32_t PolyICs = 0;        ///< 2..kWays-way ICs (bounded PIC).
    uint32_t VtableSites = 0;    ///< Left on the generic Dispatch path.
    /// Profiled-monomorphic sites that ended as a direct call — guarded
    /// (one-way IC) or guard-free (devirtualized). The bench's
    /// tier1_mono_sites metric.
    uint32_t MonoLoweredDirect = 0;
    /// Call sites (devirtualized CallUnit or one-way DispatchIC) whose
    /// callee body was spliced into the caller's stream (DESIGN.md §14).
    uint32_t InlinedSites = 0;
    /// Profile heat summed over the spliced sites: how many dynamic
    /// calls the profiling run sent through them. Divided by the
    /// profiling run's executed-instruction count (Runtime::fuelLeft)
    /// this gives the flattened-call density benches use to pick the
    /// call-heavy corpus subset.
    uint64_t InlinedHeat = 0;
  };
  TierStats Tiering;

  /// Tier-1 runtime counters: guard hits / vtable fallbacks across every
  /// executing thread (TSAExec flushes per-call local tallies here).
  /// Cache-line-padded: these are the only shared mutable words on a
  /// tier-1 module, and they must not false-share with the adjacent
  /// immutable fields every executing thread reads.
  alignas(64) mutable std::atomic<uint64_t> ICHits{0};
  alignas(64) mutable std::atomic<uint64_t> ICMisses{0};
  /// GuardInline receiver-class misses (fell back to the out-of-line
  /// one-way IC, which then also tallies an ICHit/ICMiss).
  alignas(64) mutable std::atomic<uint64_t> InlineGuardMisses{0};

  const ExecUnit *unitFor(const MethodSymbol *M) const {
    return M && M->GlobalId < ByGlobalId.size() ? ByGlobalId[M->GlobalId]
                                                : nullptr;
  }

  /// Total prepared instructions across all units (footprint metric).
  size_t totalCode() const {
    size_t N = 0;
    for (const auto &U : Units)
      N += U->Code.size();
    return N;
  }

  /// Executed instructions with opcode \p Op across all units (tier
  /// introspection for tests/benches; skips the dead shadow slot behind
  /// each fused superinstruction).
  size_t countOp(XOp Op) const;

  /// DispatchIC instructions whose cache has exactly \p Ways ways (a
  /// guarded splice's out-of-line fallback included).
  size_t countICs(unsigned Ways) const;

  /// The arena the units and their arrays live in.
  BumpArena &arena() { return Arena; }
  const BumpArena &arena() const { return Arena; }

private:
  BumpArena Arena;
};

/// Lowers every method of \p Module once into prepared form. Requires a
/// generated-or-decoded (i.e. verified) module whose CFG has been derived.
/// Returns null only when a method exceeds the prepared-form limits
/// (65534 frame slots or 255 call arguments) — impossible for realistic
/// programs, checked rather than assumed because decoded modules cross a
/// trust boundary.
/// The result is tier 0: plain streams plus the side profile tier 1
/// consumes.
std::unique_ptr<PreparedModule> prepareModule(const TSAModule &Module);

/// What reprepareModule may do beyond its defaults (DESIGN.md §11). Each
/// field masks one tier-1 transform, so the differential matrix can pin
/// it (DifferentialRunner rows 8-10 and 15) and bench_exec can time
/// inlining against its absence. Servers always use the defaults.
struct ExecPolicy {
  /// Skip superinstruction fusion.
  bool NoFusion = false;
  /// Skip inline caches and closed-world devirtualization; dispatches
  /// stay on the vtable path.
  bool NoInlineCaches = false;
  /// Speculative-inlining callee size ceiling in ExecInsts (DESIGN.md
  /// §14); 0 splices nothing.
  uint32_t InlineBudget = 24;
};

/// Re-quickens a (hot) tier-0 module into tier 1 using its own gathered
/// profile: profiled dispatch sites get an inline cache with one guard
/// per recorded receiver class (one to four), megamorphic ones stay
/// on the vtable, small hot callees are spliced in, and the hottest
/// static instruction pairs fuse into superinstructions, each as far
/// as \p Policy allows. Depends only on its arguments: the same module
/// with the same profile and policy yields the same tier-1 streams.
std::unique_ptr<PreparedModule> reprepareModule(const PreparedModule &T0,
                                                const ExecPolicy &Policy = {});

/// One-line tier/IC/fusion summary (bench + debugging aid).
std::string renderTierSummary(const PreparedModule &PM);

/// Register-frame interpreter for prepared modules. One instance per
/// executing thread; the PreparedModule itself is shared and const.
/// Registers with the Runtime's collector as the root provider for its
/// active frame chain (deregistered on destruction).
class TSAExec : public GcRootProvider {
public:
  TSAExec(const PreparedModule &PM, Runtime &RT);
  ~TSAExec() override;

  /// Marks every reference slot of every active frame (GC root scan;
  /// only runs inside a safepoint collection).
  void enumerateRoots(GcMarker &M) override;

  /// Applies the module's static-field initializers.
  void initializeStatics();

  /// Runs \p Unit with \p Args (instance methods expect the receiver
  /// first). Returns the result or the runtime exception that unwound.
  /// The boundary is tagged: arguments enter the frame as their Words,
  /// and the result Word is read as the method's return type.
  ExecResult call(const ExecUnit *Unit, const std::vector<Value> &Args);

  /// Symbol-addressed convenience (mirrors TSAInterpreter::call).
  ExecResult call(const MethodSymbol *Method, const std::vector<Value> &Args);

  /// Convenience: runs statics then `static main()`.
  ExecResult runMain();

private:
  RuntimeError execute(const ExecUnit &U, size_t Base);

  const PreparedModule &PM;
  Runtime &RT;
  /// Tier-0 profile sink (null at tier 1); shared across threads, all
  /// writes relaxed-atomic.
  ProfileData *Prof = nullptr;
  /// Tier-1 IC tallies, kept thread-local during execution and flushed
  /// to PM.ICHits/ICMisses once per top-level call (keeps the hot loop
  /// free of shared-cacheline traffic).
  uint64_t LocalICHits = 0;
  uint64_t LocalICMisses = 0;
  /// GuardInline miss tally, flushed to PM.InlineGuardMisses per call.
  uint64_t LocalInlineGuardMisses = 0;
  /// Active-frame bookkeeping for precise root enumeration: one entry
  /// per live activation, innermost last. Maintained (and the frame's
  /// body ref slots nulled at entry) only when the Runtime's collector
  /// is enabled; GcOn caches that decision out of the hot path.
  struct GcFrame {
    const ExecUnit *U;
    size_t Base;
  };
  std::vector<GcFrame> FrameChain;
  bool GcOn = false;
  /// Contiguous register stack of untagged Words; frames are
  /// [Base, Base + NumSlots) windows re-anchored after nested calls
  /// (growth may reallocate).
  std::vector<Word> RegStack;
  unsigned Depth = 0;
  Word RetVal{};
  /// Same activation-depth budget as the tree-walker, so StackOverflow
  /// traps at the same call site in both interpreters.
  static constexpr unsigned MaxDepth = 400;
};

} // namespace safetsa

#endif // SAFETSA_EXEC_EXECUNIT_H
