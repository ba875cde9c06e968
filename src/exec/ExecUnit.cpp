//===- exec/ExecUnit.cpp - Register-frame threaded interpreter -*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TSAExec: executes prepared units with token-threaded dispatch. Under
/// GCC/Clang the dispatch is a computed goto through a label table kept
/// in sync with XOp by the SAFETSA_XOP_LIST X-macro; elsewhere the same
/// handler bodies compile into a switch driven by a dispatch label. Every
/// handler mirrors the corresponding tree-walker case in TSAInterp.cpp
/// bit for bit (Java 32-bit wrap arithmetic, DivI/RemI INT_MIN edge
/// cases, DoubleToInt saturation, trap catchability) — the tree-walker is
/// the definitional semantics the differential matrix compares against.
///
//===----------------------------------------------------------------------===//

#include "exec/ExecUnit.h"

#include <cmath>
#include <limits>

using namespace safetsa;

#if defined(__GNUC__) || defined(__clang__)
#define SAFETSA_COMPUTED_GOTO 1
#else
#define SAFETSA_COMPUTED_GOTO 0
#endif

const char *safetsa::xopName(XOp Op) {
  switch (Op) {
#define SAFETSA_XOP_NAME(N)                                                  \
  case XOp::N:                                                               \
    return #N;
    SAFETSA_XOP_LIST(SAFETSA_XOP_NAME)
#undef SAFETSA_XOP_NAME
  }
  return "xop";
}

static int32_t wrap32(int64_t V) { return static_cast<int32_t>(V); }

TSAExec::TSAExec(const PreparedModule &PM, Runtime &RT)
    : PM(PM), RT(RT), Prof(PM.Profile.get()) {
  GcOn = RT.gcEnabled();
  if (GcOn)
    RT.gcAddRootProvider(*this);
  // RegStack starts empty: call() sizes it for the entry frame and every
  // invoke grows it (re-anchoring R) before the callee frame is used.
}

TSAExec::~TSAExec() {
  if (GcOn)
    RT.gcRemoveRootProvider(*this);
}

void TSAExec::enumerateRoots(GcMarker &M) {
  // Precision comes straight from the lowering: each frame's RefSlots is
  // the plane-derived slot map, and a spliced callee's refs live in the
  // extension's ref region (DESIGN.md §14), so every listed slot only
  // ever holds a reference (or the null its entry nulling wrote) and no
  // integer can masquerade as one.
  for (const GcFrame &F : FrameChain) {
    const Word *R = RegStack.data() + F.Base;
    for (uint16_t S : F.U->RefSlots) {
      assert((R[S].R == 0 || RT.gcIsLive(R[S].R)) &&
             "a reference slot names no live cell");
      M.mark(R[S].R);
    }
  }
}

void TSAExec::initializeStatics() { applyStaticInitializers(*PM.Module, RT); }

ExecResult TSAExec::call(const ExecUnit *Unit, const std::vector<Value> &Args) {
  ExecResult R;
  if (!Unit || Args.size() != Unit->NumArgs) {
    R.Err = RuntimeError::Internal;
    return R;
  }
  if (RegStack.size() < Unit->NumSlots)
    RegStack.resize(std::max(RegStack.size() * 2,
                             static_cast<size_t>(Unit->NumSlots)));
  // The public boundary is tagged; frames are not.
  for (size_t I = 0; I != Args.size(); ++I)
    RegStack[I] = Args[I].word();
  RetVal = Word{};
  Depth = 1;
  R.Err = execute(*Unit, 0);
  Depth = 0;
  if (GcOn)
    FrameChain.pop_back(); // Matches execute()'s entry push.
  // IC tallies stay thread-local while executing and publish once per
  // top-level call, keeping shared-cacheline traffic out of the hot loop.
  if (LocalICHits || LocalICMisses) {
    PM.ICHits.fetch_add(LocalICHits, std::memory_order_relaxed);
    PM.ICMisses.fetch_add(LocalICMisses, std::memory_order_relaxed);
    LocalICHits = LocalICMisses = 0;
  }
  if (LocalInlineGuardMisses) {
    PM.InlineGuardMisses.fetch_add(LocalInlineGuardMisses,
                                   std::memory_order_relaxed);
    LocalInlineGuardMisses = 0;
  }
  if (R.ok())
    R.Ret = Value::fromWord(RetVal, Unit->Symbol->RetTy);
  return R;
}

ExecResult TSAExec::call(const MethodSymbol *Method,
                         const std::vector<Value> &Args) {
  if (Method && Method->isNative()) {
    ExecResult R;
    R.Ret = RT.callNative(Method, Args);
    return R;
  }
  return call(PM.unitFor(Method), Args);
}

ExecResult TSAExec::runMain() {
  initializeStatics();
  if (PM.MainUnit)
    return call(PM.MainUnit, {});
  ExecResult R;
  R.Err = RuntimeError::Internal;
  return R;
}

RuntimeError TSAExec::execute(const ExecUnit &U, size_t Base) {
  // Tier 0: one relaxed counter bump per activation feeds the hotness
  // trigger (ModuleCache polls ProfileData::anyHot). Null at tier 1.
  if (Prof)
    Prof->recordInvocation(U.Index);
  const ExecInst *Code = U.Code.data();
  Word *R = RegStack.data() + Base;
  size_t PC = 0;
  const ExecInst *In = nullptr;
  Type *CharTy = PM.Module->Types->getChar();
  // Inlined activations currently live in THIS frame (EnterInline minus
  // LeaveInline). Each contributes one Depth tick; an unwinding trap
  // must strip this frame's contribution so Depth stays exact for the
  // enclosing activations (DESIGN.md §14).
  unsigned InlineLive = 0;

  // Call-entry safepoint work (GC only; both callers pop FrameChain).
  // Body ref slots are nulled so a root scan before their first
  // definition cannot resurrect stale refs left by a dead frame that
  // occupied this RegStack window; argument slots were just written by
  // the caller and are skipped. Then poll: with the frame registered,
  // every live ref is scannable here.
  if (GcOn) {
    for (size_t I = U.NumRefArgs, E = U.RefSlots.size(); I != E; ++I)
      R[U.RefSlots[I]] = Word{};
    FrameChain.push_back({&U, Base});
    if (RT.gcPending())
      RT.gcSafepoint();
  }

// Backward-transfer safepoint poll: loops are the only unbounded work
// between call entries, and every loop back edge in lowered code is a
// backward Jmp/MoveJmp (conditionals branch forward), so polling on
// backward targets bounds the collector's latency. The handlers are
// shared by the tier-0 and tier-1 streams (same X-macro table), so both
// tiers poll identically. Cost on the hot path: an always-predicted
// compare, plus one relaxed load only on actual back edges.
#define SAFETSA_BACKEDGE_POLL()                                              \
  do {                                                                       \
    if (PC <= static_cast<size_t>(In - Code) && RT.gcPending())              \
      RT.gcSafepoint();                                                      \
  } while (0)

// Shared call sequence for every direct/dispatched unit call: frame
// push, recursive execute, frame pop, trap propagation, result store.
// Expects a non-null callee.
#define SAFETSA_INVOKE(CALLEE)                                               \
  do {                                                                       \
    const ExecUnit *Callee_ = (CALLEE);                                      \
    if (Depth >= MaxDepth)                                                   \
      SAFETSA_TRAP(RuntimeError::StackOverflow);                             \
    size_t CB = Base + U.NumSlots;                                           \
    if (RegStack.size() < CB + Callee_->NumSlots) {                          \
      RegStack.resize(std::max(RegStack.size() * 2,                          \
                               CB + static_cast<size_t>(Callee_->NumSlots)));\
      R = RegStack.data() + Base;                                            \
    }                                                                        \
    const uint16_t *As_ = U.ArgPool.data() + In->X;                          \
    for (unsigned I_ = 0; I_ != In->N; ++I_)                                 \
      RegStack[CB + I_] = R[As_[I_]];                                        \
    ++Depth;                                                                 \
    RuntimeError E_ = execute(*Callee_, CB);                                 \
    --Depth;                                                                 \
    if (GcOn)                                                                \
      FrameChain.pop_back(); /* Matches execute()'s entry push. */           \
    R = RegStack.data() + Base; /* Callee may have grown the stack. */       \
    if (E_ != RuntimeError::None)                                            \
      SAFETSA_TRAP(E_); /* Callee traps surface at this call site. */        \
    if (In->Dst != ExecInst::NoSlot)                                         \
      R[In->Dst] = RetVal;                                                   \
  } while (0)

// A trap transfers to the raising site's pre-resolved handler stub when
// the error is one an MJ catch-all intercepts; otherwise it unwinds.
#define SAFETSA_TRAP(E)                                                      \
  do {                                                                       \
    RuntimeError TrapE = (E);                                                \
    if (In->Handler >= 0 && isCatchableError(TrapE)) {                       \
      PC = static_cast<size_t>(In->Handler);                                 \
      SAFETSA_NEXT();                                                        \
    }                                                                        \
    Depth -= InlineLive; /* Inlined frames unwind with this frame. */        \
    return TrapE;                                                            \
  } while (0)

#if SAFETSA_COMPUTED_GOTO
  static const void *const Labels[] = {
#define SAFETSA_XOP_LABEL(N) &&Lbl_##N,
      SAFETSA_XOP_LIST(SAFETSA_XOP_LABEL)
#undef SAFETSA_XOP_LABEL
  };
#define SAFETSA_CASE(N) Lbl_##N:
#define SAFETSA_NEXT()                                                       \
  do {                                                                       \
    if (!RT.burnFuel())                                                      \
      return RuntimeError::OutOfFuel;                                        \
    In = &Code[PC++];                                                        \
    goto *Labels[static_cast<unsigned>(In->Op)];                             \
  } while (0)
  SAFETSA_NEXT();
#else
#define SAFETSA_CASE(N) case XOp::N:
#define SAFETSA_NEXT() goto DispatchLoop
DispatchLoop:
  if (!RT.burnFuel())
    return RuntimeError::OutOfFuel;
  In = &Code[PC++];
  switch (In->Op) {
#endif

  SAFETSA_CASE(Move) { R[In->Dst] = R[In->A]; }
  SAFETSA_NEXT();
  SAFETSA_CASE(LoadConst) { R[In->Dst] = U.ConstPool[In->X]; }
  SAFETSA_NEXT();
  SAFETSA_CASE(LoadStr) {
    R[In->Dst] = Word::makeRef(RT.internString(U.StrPool[In->X], CharTy));
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(Jmp) {
    PC = static_cast<size_t>(In->X);
    SAFETSA_BACKEDGE_POLL();
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(BrFalse) {
    if (R[In->A].I == 0) {
      PC = static_cast<size_t>(In->X);
      SAFETSA_BACKEDGE_POLL();
    }
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(RetVoid) {
    RetVal = Word{};
    return RuntimeError::None;
  }
  SAFETSA_CASE(RetVal) {
    RetVal = R[In->A];
    return RuntimeError::None;
  }

  SAFETSA_CASE(AddI) {
    R[In->Dst] = Word::makeInt(
        wrap32(static_cast<int64_t>(R[In->A].I) + R[In->B].I));
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(SubI) {
    R[In->Dst] = Word::makeInt(
        wrap32(static_cast<int64_t>(R[In->A].I) - R[In->B].I));
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(MulI) {
    R[In->Dst] = Word::makeInt(
        wrap32(static_cast<int64_t>(R[In->A].I) * R[In->B].I));
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(DivI) {
    int32_t B = R[In->B].I;
    if (B == 0)
      SAFETSA_TRAP(RuntimeError::DivisionByZero);
    int32_t A = R[In->A].I;
    R[In->Dst] = Word::makeInt(
        A == std::numeric_limits<int32_t>::min() && B == -1 ? A : A / B);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(RemI) {
    int32_t B = R[In->B].I;
    if (B == 0)
      SAFETSA_TRAP(RuntimeError::DivisionByZero);
    int32_t A = R[In->A].I;
    R[In->Dst] = Word::makeInt(
        A == std::numeric_limits<int32_t>::min() && B == -1 ? 0 : A % B);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(NegI) {
    R[In->Dst] = Word::makeInt(wrap32(-static_cast<int64_t>(R[In->A].I)));
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(AndI) { R[In->Dst] = Word::makeInt(R[In->A].I & R[In->B].I); }
  SAFETSA_NEXT();
  SAFETSA_CASE(OrI) { R[In->Dst] = Word::makeInt(R[In->A].I | R[In->B].I); }
  SAFETSA_NEXT();
  SAFETSA_CASE(XorI) { R[In->Dst] = Word::makeInt(R[In->A].I ^ R[In->B].I); }
  SAFETSA_NEXT();
  SAFETSA_CASE(ShlI) {
    R[In->Dst] = Word::makeInt(
        wrap32(static_cast<int64_t>(R[In->A].I) << (R[In->B].I & 31)));
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(ShrI) {
    R[In->Dst] = Word::makeInt(R[In->A].I >> (R[In->B].I & 31));
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(NotI) { R[In->Dst] = Word::makeInt(~R[In->A].I); }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpLtI) {
    R[In->Dst] = Word::makeInt(R[In->A].I < R[In->B].I);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpLeI) {
    R[In->Dst] = Word::makeInt(R[In->A].I <= R[In->B].I);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpGtI) {
    R[In->Dst] = Word::makeInt(R[In->A].I > R[In->B].I);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpGeI) {
    R[In->Dst] = Word::makeInt(R[In->A].I >= R[In->B].I);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpEqI) {
    R[In->Dst] = Word::makeInt(R[In->A].I == R[In->B].I);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpNeI) {
    R[In->Dst] = Word::makeInt(R[In->A].I != R[In->B].I);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(IntToDouble) {
    R[In->Dst] = Word::makeDouble(static_cast<double>(R[In->A].I));
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(IntToChar) {
    R[In->Dst] = Word::makeInt(R[In->A].I & 0xff);
  }
  SAFETSA_NEXT();

  SAFETSA_CASE(AddD) {
    R[In->Dst] = Word::makeDouble(R[In->A].D + R[In->B].D);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(SubD) {
    R[In->Dst] = Word::makeDouble(R[In->A].D - R[In->B].D);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(MulD) {
    R[In->Dst] = Word::makeDouble(R[In->A].D * R[In->B].D);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(DivD) {
    R[In->Dst] = Word::makeDouble(R[In->A].D / R[In->B].D);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(NegD) { R[In->Dst] = Word::makeDouble(-R[In->A].D); }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpLtD) {
    R[In->Dst] = Word::makeInt(R[In->A].D < R[In->B].D);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpLeD) {
    R[In->Dst] = Word::makeInt(R[In->A].D <= R[In->B].D);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpGtD) {
    R[In->Dst] = Word::makeInt(R[In->A].D > R[In->B].D);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpGeD) {
    R[In->Dst] = Word::makeInt(R[In->A].D >= R[In->B].D);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpEqD) {
    R[In->Dst] = Word::makeInt(R[In->A].D == R[In->B].D);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpNeD) {
    R[In->Dst] = Word::makeInt(R[In->A].D != R[In->B].D);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(DoubleToInt) {
    double D = R[In->A].D;
    int32_t V;
    if (std::isnan(D))
      V = 0;
    else if (D >= 2147483647.0)
      V = std::numeric_limits<int32_t>::max();
    else if (D <= -2147483648.0)
      V = std::numeric_limits<int32_t>::min();
    else
      V = static_cast<int32_t>(D);
    R[In->Dst] = Word::makeInt(V);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CharToInt) { R[In->Dst] = Word::makeInt(R[In->A].I); }
  SAFETSA_NEXT();

  SAFETSA_CASE(NotB) { R[In->Dst] = Word::makeInt(R[In->A].I == 0); }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpEqB) {
    R[In->Dst] = Word::makeInt((R[In->A].I != 0) == (R[In->B].I != 0));
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpNeB) {
    R[In->Dst] = Word::makeInt((R[In->A].I != 0) != (R[In->B].I != 0));
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpEqR) {
    R[In->Dst] = Word::makeInt(R[In->A].R == R[In->B].R);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(CmpNeR) {
    R[In->Dst] = Word::makeInt(R[In->A].R != R[In->B].R);
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(InstanceOf) {
    uint32_t Ref = R[In->A].R;
    if (Ref == 0) {
      R[In->Dst] = Word::makeInt(false);
    } else {
      const HeapCell &Cell = RT.cell(Ref);
      Type *T = static_cast<Type *>(const_cast<void *>(In->P));
      bool Is;
      if (T->isArray())
        Is = Cell.isArray() && Cell.ArrayElemTy == T->getElemType();
      else
        Is = !Cell.isArray() && Cell.Class->isSubclassOf(T->getClassSymbol());
      R[In->Dst] = Word::makeInt(Is);
    }
  }
  SAFETSA_NEXT();

  SAFETSA_CASE(NullCheck) {
    Word V = R[In->A];
    if (V.R == 0)
      SAFETSA_TRAP(RuntimeError::NullPointer);
    R[In->Dst] = V;
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(IndexCheck) {
    Word Idx = R[In->B];
    const HeapCell &Cell = RT.cell(R[In->A].R);
    if (Idx.I < 0 || static_cast<size_t>(Idx.I) >= Cell.Len)
      SAFETSA_TRAP(RuntimeError::IndexOutOfBounds);
    R[In->Dst] = Idx;
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(Upcast) {
    Word V = R[In->A];
    if (V.R == 0) {
      R[In->Dst] = V; // (T)null succeeds, as in Java.
    } else {
      const HeapCell &Cell = RT.cell(V.R);
      Type *T = static_cast<Type *>(const_cast<void *>(In->P));
      bool Is;
      if (T->isArray())
        Is = Cell.isArray() && Cell.ArrayElemTy == T->getElemType();
      else
        Is = !Cell.isArray() && Cell.Class->isSubclassOf(T->getClassSymbol());
      if (!Is)
        SAFETSA_TRAP(RuntimeError::ClassCast);
      R[In->Dst] = V;
    }
  }
  SAFETSA_NEXT();

  SAFETSA_CASE(GetField) {
    R[In->Dst] = RT.cell(R[In->A].R).Slots[In->X];
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(SetField) {
    RT.cell(R[In->A].R).Slots[In->X] = R[In->B];
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(GetElt) {
    R[In->Dst] = RT.cell(R[In->A].R).Slots[R[In->B].I];
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(SetElt) {
    RT.cell(R[In->A].R).Slots[R[In->B].I] = R[In->C];
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(GetStatic) {
    R[In->Dst] = RT.staticSlot(static_cast<unsigned>(In->X));
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(SetStatic) {
    RT.staticSlot(static_cast<unsigned>(In->X)) = R[In->A];
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(ArrayLength) {
    R[In->Dst] =
        Word::makeInt(static_cast<int32_t>(RT.cell(R[In->A].R).Len));
  }
  SAFETSA_NEXT();

  SAFETSA_CASE(New) {
    R[In->Dst] = Word::makeRef(
        RT.allocObject(static_cast<const ClassSymbol *>(In->P)));
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(NewArray) {
    int32_t Len = R[In->A].I;
    if (Len < 0)
      SAFETSA_TRAP(RuntimeError::NegativeArraySize);
    if (!RT.arrayFitsBudget(Len))
      SAFETSA_TRAP(RuntimeError::OutOfMemory);
    R[In->Dst] = Word::makeRef(RT.allocArray(
        static_cast<Type *>(const_cast<void *>(In->P)), Len));
  }
  SAFETSA_NEXT();

  SAFETSA_CASE(CallUnit) {
    const ExecUnit *Callee = static_cast<const ExecUnit *>(In->P);
    if (!Callee)
      SAFETSA_TRAP(RuntimeError::Internal); // No body; unwinds (uncatchable).
    SAFETSA_INVOKE(Callee);
  }
  SAFETSA_NEXT();

  SAFETSA_CASE(CallNative) {
    const MethodSymbol *MS = static_cast<const MethodSymbol *>(In->P);
    const uint16_t *As = U.ArgPool.data() + In->X;
    Word Args[Runtime::MaxNativeArgs]; // Prepare bounds N.
    for (unsigned I = 0; I != In->N; ++I)
      Args[I] = R[As[I]];
    Word Ret = RT.callNative(MS->Native, Args);
    if (In->Dst != ExecInst::NoSlot)
      R[In->Dst] = Ret;
  }
  SAFETSA_NEXT();

  SAFETSA_CASE(Dispatch) {
    const MethodSymbol *MS = static_cast<const MethodSymbol *>(In->P);
    const uint16_t *As = U.ArgPool.data() + In->X;
    const HeapCell &Cell = RT.cell(R[As[0]].R);
    assert(!Cell.isArray() && "dispatch on an array");
    assert(MS->VTableSlot >= 0 &&
           static_cast<size_t>(MS->VTableSlot) < Cell.Class->VTable.size() &&
           "bad vtable slot");
    // Tier 0: feed the receiver-class profile for this site (striped per
    // thread, so concurrent profiling never shares a counter line).
    if (Prof && In->S >= 0)
      Prof->recordDispatch(static_cast<uint32_t>(In->S), Cell.Class);
    const MethodSymbol *Target = Cell.Class->VTable[MS->VTableSlot];
    const ExecUnit *Callee = PM.unitFor(Target);
    if (!Callee)
      SAFETSA_TRAP(RuntimeError::Internal); // Vtables never hold natives.
    SAFETSA_INVOKE(Callee);
  }
  SAFETSA_NEXT();

  SAFETSA_CASE(DispatchIC) {
    // Tier 1, profiled site: bounded linear guard scan in profile order
    // (hottest-first in the common first-seen-hottest case); one way for
    // a monomorphic site. A miss falls back to the vtable and counts.
    const ICEntry &E = U.ICs[In->S];
    const uint16_t *As = U.ArgPool.data() + In->X;
    const HeapCell &Cell = RT.cell(R[As[0]].R);
    const ExecUnit *Callee = nullptr;
    for (unsigned W = 0; W != E.Ways; ++W)
      if (Cell.Class == E.Classes[W]) {
        Callee = E.Targets[W];
        break;
      }
    if (Callee) {
      ++LocalICHits;
    } else {
      ++LocalICMisses;
      Callee = PM.unitFor(Cell.Class->VTable[E.Method->VTableSlot]);
      if (!Callee)
        SAFETSA_TRAP(RuntimeError::Internal);
    }
    SAFETSA_INVOKE(Callee);
  }
  SAFETSA_NEXT();

// Superinstructions (tier 1). Each fused handler performs both fused
// operations — including the first member's Dst write, so the effect is
// bit-identical to the two-instruction expansion — then steps over the
// dead shadow slot holding the pair's second member. One fuel unit per
// fused pair (OutOfFuel is already excluded from oracle comparisons).
// Each arm takes a real conditional branch and re-dispatches on its own
// (two indirect jumps per opcode under computed goto): a `PC = T ? a : b`
// select would compile to a cmov whose result feeds the next instruction
// fetch, serializing the dispatch chain and costing more than the two
// unfused instructions it replaces on branch-dense code.
#define SAFETSA_BRCMP(CMP)                                                   \
  {                                                                          \
    bool T_ = (CMP);                                                         \
    R[In->Dst] = Word::makeInt(T_);                                        \
    if (T_) {                                                                \
      ++PC; /* Skip the shadow slot. */                                      \
      SAFETSA_NEXT();                                                        \
    }                                                                        \
    PC = static_cast<size_t>(In->X);                                         \
    SAFETSA_BACKEDGE_POLL();                                                 \
  }                                                                          \
  SAFETSA_NEXT()

  SAFETSA_CASE(BrCmpLtI) SAFETSA_BRCMP(R[In->A].I < R[In->B].I);
  SAFETSA_CASE(BrCmpLeI) SAFETSA_BRCMP(R[In->A].I <= R[In->B].I);
  SAFETSA_CASE(BrCmpGtI) SAFETSA_BRCMP(R[In->A].I > R[In->B].I);
  SAFETSA_CASE(BrCmpGeI) SAFETSA_BRCMP(R[In->A].I >= R[In->B].I);
  SAFETSA_CASE(BrCmpEqI) SAFETSA_BRCMP(R[In->A].I == R[In->B].I);
  SAFETSA_CASE(BrCmpNeI) SAFETSA_BRCMP(R[In->A].I != R[In->B].I);
#undef SAFETSA_BRCMP

  SAFETSA_CASE(Move2) {
    // Phi-edge parallel copy pair, in source order (the second copy may
    // read the first's destination).
    R[In->Dst] = R[In->A];
    R[In->B] = R[In->C];
    ++PC; // Skip the shadow slot.
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(MoveJmp) {
    R[In->Dst] = R[In->A];
    PC = static_cast<size_t>(In->X); // Shadow Jmp is never reached.
    SAFETSA_BACKEDGE_POLL();
  }
  SAFETSA_NEXT();

  SAFETSA_CASE(NullGetField) {
    Word V = R[In->A];
    if (V.R == 0)
      SAFETSA_TRAP(RuntimeError::NullPointer); // Before the cert write.
    R[In->Dst] = V; // Certificate slot, as the unfused pair writes it.
    R[In->C] = RT.cell(V.R).Slots[In->X];
    ++PC; // Skip the shadow slot.
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(NullSetField) {
    Word V = R[In->A];
    if (V.R == 0)
      SAFETSA_TRAP(RuntimeError::NullPointer);
    R[In->Dst] = V;
    RT.cell(V.R).Slots[In->X] = R[In->C];
    ++PC;
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(IdxGetElt) {
    Word Idx = R[In->B];
    const HeapCell &Cell = RT.cell(R[In->A].R);
    if (Idx.I < 0 || static_cast<size_t>(Idx.I) >= Cell.Len)
      SAFETSA_TRAP(RuntimeError::IndexOutOfBounds);
    R[In->Dst] = Idx; // Certificate slot.
    R[In->C] = Cell.Slots[Idx.I];
    ++PC;
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(IdxSetElt) {
    Word Idx = R[In->B];
    HeapCell &Cell = RT.cell(R[In->A].R);
    if (Idx.I < 0 || static_cast<size_t>(Idx.I) >= Cell.Len)
      SAFETSA_TRAP(RuntimeError::IndexOutOfBounds);
    R[In->Dst] = Idx;
    Cell.Slots[Idx.I] = R[In->C];
    ++PC;
  }
  SAFETSA_NEXT();

  // Speculative inlining (tier 1, DESIGN.md §14). A spliced site runs
  // GuardInline (one-way IC sites) or EnterInline (direct sites),
  // optional arg Moves, then the callee body renumbered into the
  // caller-frame extension; every exit from the body carries the ledger
  // decrement itself (InlineRet for value returns, a jumping LeaveInline
  // for void returns and the trap trampoline), so the common path pays
  // no separate continuation instruction. The receiver slot is a
  // safe-ref certificate (a NullCheck dominates every dispatch), so the
  // guard reads the cell header without a null test, exactly like
  // DispatchIC.
  SAFETSA_CASE(GuardInline) {
    // Class hit doubles as the splice's EnterInline (one dispatch, not
    // two); a mismatch — or an activation ledger already at the limit —
    // takes the out-of-line one-way IC fallback instead, which traps
    // StackOverflow exactly where the un-inlined call would.
    const HeapCell &Cell = RT.cell(R[In->A].R);
    if (Cell.Class != static_cast<const ClassSymbol *>(In->P)) {
      ++LocalInlineGuardMisses;
      PC = static_cast<size_t>(In->X); // Out-of-line fallback (forward).
    } else if (Depth >= MaxDepth) {
      PC = static_cast<size_t>(In->X); // Not a speculation miss.
    } else {
      ++Depth;
      ++InlineLive;
    }
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(EnterInline) {
    // The flattened frame still costs one activation tick, so
    // StackOverflow traps at the same call site as the tree-walker's
    // recursive call (the trap is uncatchable and unwinds).
    if (Depth >= MaxDepth)
      SAFETSA_TRAP(RuntimeError::StackOverflow);
    ++Depth;
    ++InlineLive;
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(LeaveInline) {
    // Ledger decrement + unconditional transfer: the callee's RetVoid
    // (X = the site continuation) and the trap trampoline (X = the
    // caller's handler stub) both leave in one dispatch. Polled like any
    // other unconditional jump so a backward handler cannot extend the
    // collector's latency bound.
    --Depth;
    --InlineLive;
    PC = static_cast<size_t>(In->X);
    SAFETSA_BACKEDGE_POLL();
  }
  SAFETSA_NEXT();
  SAFETSA_CASE(InlineRet) {
    // Callee RetVal, flattened: result move + ledger decrement + jump
    // past the splice (always forward — the continuation follows the
    // spliced body, so no back-edge poll is needed).
    if (In->Dst != ExecInst::NoSlot)
      R[In->Dst] = R[In->A];
    --Depth;
    --InlineLive;
    PC = static_cast<size_t>(In->X);
  }
  SAFETSA_NEXT();

#if !SAFETSA_COMPUTED_GOTO
  }
  return RuntimeError::Internal; // Unreachable: all opcodes handled.
#endif

#undef SAFETSA_CASE
#undef SAFETSA_NEXT
#undef SAFETSA_TRAP
#undef SAFETSA_INVOKE
#undef SAFETSA_BACKEDGE_POLL
}
