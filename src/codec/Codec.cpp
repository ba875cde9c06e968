//===- codec/Codec.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"

#include "support/BitStream.h"
#include "tsa/ConstFold.h"
#include "tsa/Signature.h"
#include "tsa/Verifier.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <span>

using namespace safetsa;

namespace {

constexpr uint32_t Magic = 0x53545341; // "STSA"
constexpr uint16_t Version = 1;
constexpr uint64_t NumOpcodes = static_cast<uint64_t>(Opcode::Dispatch) + 1;
constexpr uint64_t NumPrimOps = static_cast<uint64_t>(PrimOp::InstanceOf) + 1;
constexpr uint64_t NumConstKinds =
    static_cast<uint64_t>(ConstantValue::Kind::String) + 1;

// Hostile-input resource caps.
constexpr uint64_t MaxClasses = 4096;
constexpr uint64_t MaxMembers = 1 << 16;
constexpr uint64_t MaxInstsPerBlock = 1 << 20;
constexpr unsigned MaxCSTDepth = 512;
/// Class and member lists are reserved up to this many entries from their
/// declared count; a hostile count past it grows the list only as entries
/// decode.
constexpr uint64_t MaxMemberReserve = 64;

// CST production symbols (phase 1 alphabet).
enum CSTSym : uint64_t {
  SymBasic = 0,
  SymIf,
  SymLoop,
  SymReturn,
  SymBreak,
  SymContinue,
  SymTry,
  SymEnd,
  NumCSTSyms
};

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}
int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

/// Symbol emitter abstracting Prefix vs Naive packing.
class SymSink {
public:
  explicit SymSink(CodecMode Mode) : Mode(Mode) {}

  void sym(uint64_t V, uint64_t Bound) {
    assert(Bound >= 1 && V < Bound && "symbol outside its alphabet");
    if (Mode == CodecMode::Prefix)
      W.writeBounded(V, Bound);
    else
      W.writeVarUint(V);
  }
  void bit(bool B) {
    if (Mode == CodecMode::Prefix)
      W.writeBit(B);
    else
      W.writeVarUint(B);
  }
  void reserve(size_t NumBytes) { W.reserve(NumBytes); }
  void varuint(uint64_t V) { W.writeVarUint(V); }
  void varint(int64_t V) { W.writeVarUint(zigzag(V)); }
  void bits64(uint64_t V) { W.writeFixed(V, 64); }
  void bits(uint64_t V, unsigned N) { W.writeFixed(V, N); }
  void str(std::string_view S) { W.writeString(S); }

  std::vector<uint8_t> take() { return W.take(); }

private:
  CodecMode Mode;
  BitWriter W;
};

/// Symbol reader with a sticky failure flag.
class SymSource {
public:
  SymSource(ByteSpan Bytes, CodecMode Mode, bool TableDecode)
      : Mode(Mode), R(Bytes, TableDecode) {}

  bool failed() const { return Failed || R.hasOverrun(); }
  void fail(const char *Why) {
    if (!Failed)
      Reason = Why;
    Failed = true;
  }
  const char *reason() const { return Reason; }

  uint64_t sym(uint64_t Bound) {
    if (Bound == 0) {
      // An empty alphabet means the producer could not have emitted any
      // symbol here: the reference is inexpressible.
      fail("reference into an empty register plane");
      return 0;
    }
    if (Mode == CodecMode::Prefix)
      return R.readBounded(Bound);
    uint64_t V = R.readVarUint();
    if (V >= Bound) {
      fail("symbol outside its alphabet");
      return 0;
    }
    return V;
  }
  bool bit() {
    if (Mode == CodecMode::Prefix)
      return R.readBit();
    return R.readVarUint() != 0;
  }
  uint64_t varuint() { return R.readVarUint(); }
  int64_t varint() { return unzigzag(R.readVarUint()); }
  uint64_t bits64() { return R.readFixed(64); }
  uint64_t bits(unsigned N) { return R.readFixed(N); }
  std::string str() { return R.readString(); }
  size_t bitsLeft() const { return R.bitsLeft(); }

private:
  CodecMode Mode;
  BitReader R;
  bool Failed = false;
  const char *Reason = "truncated stream";
};

//===----------------------------------------------------------------------===//
// Encoder
//===----------------------------------------------------------------------===//

class Encoder {
public:
  Encoder(const TSAModule &Module, CodecMode Mode)
      : Module(Module), Classes(Module.Table->getClasses()),
        Ctx(*Module.Types, *Module.Table), S(Mode) {}

  std::vector<uint8_t> encode() {
    // Each member's position among its owner's methods or static fields,
    // by MethodSymbol::GlobalId and by static slot, so wire references
    // are O(1) instead of a member scan per reference. Classes need no
    // table: ClassSymbol::Id is the position in getClasses().
    MethodIdx.resize(Module.Table->getAllMethods().size());
    StaticIdx.resize(Module.Table->getNumStaticSlots());
    NumStatics.resize(Classes.size());
    for (ClassSymbol *C : Classes) {
      uint32_t MIdx = 0;
      for (const auto &M : C->Methods)
        MethodIdx[M->GlobalId] = MIdx++;
      for (const auto &F : C->Fields)
        if (F->IsStatic)
          StaticIdx[F->Slot] = NumStatics[C->Id]++;
    }

    // Capacity hint: symbols are a handful of bits each; preloads, types,
    // and strings push the per-instruction average to a few bytes.
    size_t NumInsts = 0;
    for (const TSAMethod *M : Module.Methods)
      for (const BasicBlock *BB : M->Blocks)
        NumInsts += BB->Insts.size();
    S.reserve(NumInsts * 3 + Classes.size() * 32 + 64);

    S.bits(Magic, 32);
    S.bits(Version, 16);

    encodeClassSection();
    encodeStaticInits();

    S.varuint(Module.Methods.size());
    for (const TSAMethod *M : Module.Methods) {
      encodeMethodRef(M->Symbol);
      encodeBody(*M);
    }
    return S.take();
  }

private:
  const TSAModule &Module;
  const std::vector<ClassSymbol *> &Classes;
  PlaneContext Ctx; ///< The debug plane check's.
  SymSink S;
  std::vector<uint32_t> MethodIdx;  ///< By MethodSymbol::GlobalId.
  std::vector<uint32_t> StaticIdx;  ///< By static FieldSymbol::Slot.
  std::vector<uint32_t> NumStatics; ///< By ClassSymbol::Id.
  std::vector<unsigned> Running;

  uint64_t numClasses() const { return Classes.size(); }

  void encodeStaticRef(const FieldSymbol *F) {
    S.sym(F->Owner->Id, numClasses());
    // Index within the owner's own static fields.
    S.sym(StaticIdx[F->Slot], NumStatics[F->Owner->Id]);
  }

  void encodeTypeRef(Type *T) {
    unsigned Depth = 0;
    while (T->isArray()) {
      T = T->getElemType();
      ++Depth;
    }
    S.varuint(Depth);
    if (T->isPrim()) {
      S.bit(false);
      S.sym(static_cast<uint64_t>(T->getPrimKind()), 4);
    } else {
      assert(T->isClass() && "unexpected type in wire format");
      S.bit(true);
      S.sym(T->getClassSymbol()->Id, numClasses());
    }
  }

  void encodeMethodRef(const MethodSymbol *M) {
    S.sym(M->Owner->Id, numClasses());
    S.sym(MethodIdx[M->GlobalId], M->Owner->Methods.size());
  }

  void encodeConstant(const ConstantValue &C, Type *OpType) {
    S.sym(static_cast<uint64_t>(C.K), NumConstKinds);
    switch (C.K) {
    case ConstantValue::Kind::Int:
      S.varint(C.IntVal);
      break;
    case ConstantValue::Kind::Double: {
      uint64_t Bits;
      static_assert(sizeof(Bits) == sizeof(C.DblVal));
      std::memcpy(&Bits, &C.DblVal, sizeof(Bits));
      S.bits64(Bits);
      break;
    }
    case ConstantValue::Kind::Bool:
      S.bit(C.IntVal != 0);
      break;
    case ConstantValue::Kind::Char:
      S.bits(static_cast<uint64_t>(C.IntVal) & 0xff, 8);
      break;
    case ConstantValue::Kind::Null:
      encodeTypeRef(OpType); // Null constants carry their plane type.
      break;
    case ConstantValue::Kind::String:
      S.str(C.StrVal);
      break;
    }
  }

  void encodeClassSection() {
    // User classes follow the builtins in getClasses().
    std::span<ClassSymbol *const> Users =
        std::span(Classes).subspan(ClassTable::NumBuiltinClasses);
    S.varuint(Users.size());
    for (ClassSymbol *C : Users)
      S.str(C->Name);
    for (ClassSymbol *C : Users) {
      S.sym(C->Super->Id, numClasses());
      unsigned NumFields = static_cast<unsigned>(C->Fields.size());
      S.varuint(NumFields);
      for (const auto &F : C->Fields) {
        S.str(F->Name);
        S.bit(F->IsStatic);
        S.bit(F->IsFinal);
        encodeTypeRef(F->Ty);
      }
      S.varuint(C->Methods.size());
      for (const auto &M : C->Methods) {
        S.str(M->Name);
        S.bit(M->IsStatic);
        S.bit(M->IsConstructor);
        bool IsVoid = M->RetTy->isVoid();
        S.bit(IsVoid);
        if (!IsVoid)
          encodeTypeRef(M->RetTy);
        S.varuint(M->ParamTys.size());
        for (Type *P : M->ParamTys)
          encodeTypeRef(P);
      }
    }
  }

  void encodeStaticInits() {
    S.varuint(Module.StaticInits.size());
    for (const auto &[F, C] : Module.StaticInits) {
      encodeStaticRef(F);
      encodeConstant(C, F->Ty);
    }
  }

  //===--------------------------------------------------------------------===//
  // Phase 1: CST productions
  //===--------------------------------------------------------------------===//

  /// \p TryDepth counts enclosing try bodies; inside one, every Basic
  /// node carries its exception-edge flag so producer and consumer derive
  /// identical CFGs (the flag is part of the CST grammar).
  void encodeSeq(const CSTSeq &Seq, unsigned TryDepth) {
    for (const auto &Node : Seq) {
      switch (Node->K) {
      case CSTNode::Kind::Basic:
        S.sym(SymBasic, NumCSTSyms);
        if (TryDepth > 0)
          S.bit(Node->RaisesToCatch);
        break;
      case CSTNode::Kind::If:
        S.sym(SymIf, NumCSTSyms);
        S.bit(!Node->Else.empty());
        encodeSeq(Node->Then, TryDepth);
        if (!Node->Else.empty())
          encodeSeq(Node->Else, TryDepth);
        break;
      case CSTNode::Kind::Try:
        S.sym(SymTry, NumCSTSyms);
        encodeSeq(Node->Then, TryDepth + 1); // Protected body.
        encodeSeq(Node->Else, TryDepth);     // Handler raises outward.
        break;
      case CSTNode::Kind::Loop:
        S.sym(SymLoop, NumCSTSyms);
        encodeSeq(Node->Header, TryDepth);
        encodeSeq(Node->Body, TryDepth);
        break;
      case CSTNode::Kind::Return:
        S.sym(SymReturn, NumCSTSyms);
        S.bit(Node->RetVal != nullptr);
        break;
      case CSTNode::Kind::Break:
        S.sym(SymBreak, NumCSTSyms);
        break;
      case CSTNode::Kind::Continue:
        S.sym(SymContinue, NumCSTSyms);
        break;
      }
    }
    S.sym(SymEnd, NumCSTSyms);
  }

  //===--------------------------------------------------------------------===//
  // Phase 2: blocks, instructions, non-phi operands
  //===--------------------------------------------------------------------===//

  /// Emits the (l, r) reference for \p Def used from \p UseBlock. The
  /// reference plane is Def's result plane (the module is verified, so
  /// operand and result planes agree); its interned id indexes the flat
  /// per-block counters directly. \p Running gives same-block bounds in
  /// phase 2 (values emitted so far); null => final counts (phase 3).
  void encodeRef(const Instruction *Def, const BasicBlock *UseBlock,
                 const std::vector<unsigned> *Running) {
    const BasicBlock *D = Def->Parent;
    assert(UseBlock->DomDepth >= D->DomDepth && "operand does not dominate");
    uint64_t L = UseBlock->DomDepth - D->DomDepth;
    S.sym(L, UseBlock->DomDepth + 1);
    uint32_t Plane = Def->PlaneId;
    assert(Plane != Instruction::NoPlane && "reference to a value-less def");
    uint64_t Bound;
    if (Running && D == UseBlock)
      Bound = Plane < Running->size() ? (*Running)[Plane] : 0;
    else
      Bound = D->planeCount(Plane);
    assert(Def->PlaneIndex < Bound && "register number out of range");
    S.sym(Def->PlaneIndex, Bound);
  }

  /// Encodes a finalized method: the planes finalize() numbered are the
  /// ones the (l, r) references count on.
  void encodeBody(const TSAMethod &M) {
    encodeSeq(M.Root, 0);

    for (const BasicBlock *BB : M.Blocks) {
      S.varuint(BB->Insts.size());
      Running.assign(M.Planes.size(), 0);
      for (const Instruction *I : BB->Insts) {
        encodeInstruction(M, *BB, *I, Running);
        if (I->PlaneId != Instruction::NoPlane)
          ++Running[I->PlaneId];
      }
    }

    encodePhase3(M);
  }

  void encodeInstruction(const TSAMethod &M, const BasicBlock &BB,
                         const Instruction &I,
                         const std::vector<unsigned> &Running) {
    S.sym(static_cast<uint64_t>(I.Op), NumOpcodes);
    switch (I.Op) {
    case Opcode::Const:
      encodeConstant(M.constant(I), I.OpType);
      break;
    case Opcode::Param: {
      unsigned Shift = M.Symbol->IsStatic ? 0 : 1;
      S.sym(I.ParamIndex, M.Symbol->ParamTys.size() + Shift);
      break;
    }
    case Opcode::Phi:
      encodeTypeRef(I.OpType);
      S.bit(I.DstSafe);
      return; // Operands follow in phase 3.
    case Opcode::Primitive:
    case Opcode::XPrimitive:
      S.sym(static_cast<uint64_t>(I.Prim), NumPrimOps);
      if (I.Prim == PrimOp::InstanceOf)
        encodeTypeRef(I.AuxType);
      break;
    case Opcode::NullCheck:
    case Opcode::IndexCheck:
    case Opcode::Upcast:
    case Opcode::ArrayLength:
    case Opcode::NewArray:
    case Opcode::GetElt:
    case Opcode::SetElt:
      encodeTypeRef(I.OpType);
      break;
    case Opcode::Downcast:
      encodeTypeRef(I.AuxType);
      S.bit(I.SrcSafe);
      encodeTypeRef(I.OpType);
      S.bit(I.DstSafe);
      break;
    case Opcode::GetField:
    case Opcode::SetField: {
      encodeTypeRef(I.OpType);
      // The field is named by its slot in the accessed class's layout —
      // bounded, so a field outside the class is inexpressible.
      ClassSymbol *C = I.OpType->getClassSymbol();
      S.sym(I.Field->Slot, C->InstanceLayout.size());
      break;
    }
    case Opcode::GetStatic:
    case Opcode::SetStatic:
      encodeStaticRef(I.Field);
      break;
    case Opcode::New:
      S.sym(I.OpType->getClassSymbol()->Id, numClasses());
      break;
    case Opcode::Call:
    case Opcode::Dispatch:
      encodeMethodRef(I.Method);
      break;
    }

    for (unsigned K = 0; K != I.Operands.size(); ++K) {
#ifndef NDEBUG
      std::optional<PlaneKey> Plane = operandPlane(I, K, Ctx, nullptr);
      assert(Plane && "encoding an ill-typed instruction");
      assert(I.Operands[K]->PlaneId < M.Planes.size() &&
             M.Planes[I.Operands[K]->PlaneId] == *Plane &&
             "operand plane disagrees with its definition (is the module "
             "finalized?)");
#endif
      encodeRef(I.Operands[K], &BB, &Running);
    }
  }

  //===--------------------------------------------------------------------===//
  // Phase 3: phi operands and CST value references
  //===--------------------------------------------------------------------===//

  void encodePhase3(const TSAMethod &M) {
    for (const BasicBlock *BB : M.Blocks) {
      for (const Instruction *I : BB->Insts) {
        if (!I->isPhi())
          continue;
        assert(I->Operands.size() == BB->Preds.size());
        for (size_t K = 0; K != I->Operands.size(); ++K)
          encodeRef(I->Operands[K], BB->Preds[K], nullptr);
      }
    }
    encodeCSTRefs(M, M.Root, nullptr);
  }

  const BasicBlock *encodeCSTRefs(const TSAMethod &M, const CSTSeq &Seq,
                                  const BasicBlock *Cur) {
    for (const auto &Node : Seq) {
      switch (Node->K) {
      case CSTNode::Kind::Basic:
        Cur = Node->BB;
        break;
      case CSTNode::Kind::If:
        encodeRef(Node->Cond, Cur, nullptr);
        encodeCSTRefs(M, Node->Then, Cur);
        if (!Node->Else.empty())
          encodeCSTRefs(M, Node->Else, Cur);
        Cur = nullptr;
        break;
      case CSTNode::Kind::Loop: {
        const BasicBlock *Decision = encodeCSTRefs(M, Node->Header, Cur);
        encodeRef(Node->Cond, Decision, nullptr);
        encodeCSTRefs(M, Node->Body, Decision);
        Cur = nullptr;
        break;
      }
      case CSTNode::Kind::Try:
        encodeCSTRefs(M, Node->Then, Cur);
        encodeCSTRefs(M, Node->Else, nullptr);
        Cur = nullptr;
        break;
      case CSTNode::Kind::Return:
        if (Node->RetVal)
          encodeRef(Node->RetVal, Cur, nullptr);
        break;
      case CSTNode::Kind::Break:
      case CSTNode::Kind::Continue:
        break;
      }
    }
    return Cur;
  }
};

//===----------------------------------------------------------------------===//
// Decoder
//===----------------------------------------------------------------------===//

/// The open block's values by (plane id, register number), growable
/// without a heap allocation per plane: row P's entry R sits in chunk
/// K = log2(R / 8 + 1) of the row, chunk K holding 8 << K entries carved
/// from one pool shared by every row. The pool and the chunk tables keep
/// their storage from block to block.
class OpenRows {
public:
  /// Empties every row (the block closed).
  void clear() {
    std::fill(Count.begin(), Count.begin() + Used, 0);
    Used = 0;
    Pool.clear();
  }
  uint32_t count(uint32_t P) const { return P < Used ? Count[P] : 0; }
  /// Makes room for \p Planes rows and \p Values values.
  void reserve(uint32_t Planes, uint32_t Values) {
    Count.resize(Planes, 0);
    Chunks.resize(size_t(Planes) * MaxChunks);
    Pool.reserve(Values);
  }
  /// Rows [0, used()) may hold values; the rest are empty.
  uint32_t used() const { return Used; }
  void push(uint32_t P, Instruction *V) {
    if (P >= Count.size()) {
      Count.resize(P + 1, 0);
      Chunks.resize(size_t(P + 1) * MaxChunks);
    }
    Used = std::max(Used, P + 1);
    uint32_t R = Count[P]++;
    auto [K, Off] = locate(R);
    uint32_t &Start = Chunks[size_t(P) * MaxChunks + K];
    if (Off == 0) {
      Start = static_cast<uint32_t>(Pool.size());
      Pool.resize(Pool.size() + (size_t(8) << K));
    }
    Pool[Start + Off] = V;
  }
  Instruction *get(uint32_t P, uint32_t R) const {
    auto [K, Off] = locate(R);
    return Pool[Chunks[size_t(P) * MaxChunks + K] + Off];
  }

private:
  /// Enough chunks for MaxInstsPerBlock values on one plane.
  static constexpr uint32_t MaxChunks = 18;
  static std::pair<uint32_t, uint32_t> locate(uint32_t R) {
    uint32_t K = std::bit_width(R / 8 + 1) - 1;
    return {K, R - 8 * ((1u << K) - 1)};
  }

  std::vector<uint32_t> Count;  ///< By plane id.
  std::vector<uint32_t> Chunks; ///< Pool offset of chunk K of row P.
  std::vector<Instruction *> Pool;
  uint32_t Used = 0;
};

class Decoder {
public:
  Decoder(ByteSpan Bytes, const DecodeOptions &Opts)
      : S(Bytes, Opts.Mode, Opts.TableDecode), Fused(Opts.FusedVerify),
        WireBytes(Bytes.Size) {
    // Scratch tables shared by every body, sized for a typical method
    // so they seldom grow while a module decodes.
    SeqStack.reserve(64);
    BodyBlocks.reserve(32);
    Consts.reserve(32);
    Vals.reserve(256);
    RowStart.reserve(128);
    BlockRows.reserve(32);
    Open.reserve(32, 256);
  }

  std::unique_ptr<DecodedUnit> decode(std::string *Err) {
    auto Fail = [&](const char *Why) -> std::unique_ptr<DecodedUnit> {
      if (Err)
        *Err = Why;
      return nullptr;
    };

    if (S.bits(32) != Magic)
      return Fail("bad magic");
    if (S.bits(16) != Version)
      return Fail("unsupported version");

    auto Unit = std::make_unique<DecodedUnit>();
    Unit->Types = std::make_unique<TypeContext>();
    Types = Unit->Types.get();
    Unit->Table = std::make_unique<ClassTable>(*Types);
    Table = Unit->Table.get();
    // A decoded module's IR takes about this many bytes per wire byte, so
    // most modules fit the arena's first slab.
    Unit->Module = std::make_unique<TSAModule>(WireBytes * ArenaBytesPerWireByte);
    Module = Unit->Module.get();
    Module->Types = Types;
    Module->Table = Table;
    Ctx.emplace(*Types, *Table);
    Ctx->Numbering.reserve(Types->numTypes() + 64, 256);

    if (!decodeClassSection())
      return Fail(S.reason());
    if (!decodeStaticInits())
      return Fail(S.reason());

    uint64_t NumBodies = S.varuint();
    if (NumBodies > MaxMembers || S.failed())
      return Fail("implausible body count");
    // Which methods already have a body, by MethodSymbol::GlobalId.
    std::vector<bool> Seen(Table->getAllMethods().size());
    Module->Methods.reserve(std::min<uint64_t>(NumBodies, Seen.size()));
    for (uint64_t I = 0; I != NumBodies; ++I) {
      MethodSymbol *M = decodeMethodRef();
      if (!M || M->isNative() || M->Owner->IsBuiltin) {
        S.fail("body for a builtin or native method");
        return Fail(S.reason());
      }
      if (Seen[M->GlobalId]) {
        S.fail("duplicate method body");
        return Fail(S.reason());
      }
      Seen[M->GlobalId] = true;
      if (!decodeBody(*Module->createMethod(M)))
        return Fail(S.reason());
    }
    if (S.failed())
      return Fail(S.reason());

    // Completeness: every declared non-native user method has a body, so
    // dispatch can never land in a missing implementation.
    for (ClassSymbol *C : classes()) {
      if (C->IsBuiltin)
        continue;
      for (const auto &M : C->Methods)
        if (!Seen[M->GlobalId]) {
          if (Err)
            *Err = "method declared without a body";
          return nullptr;
        }
    }
    return Unit;
  }

private:
  /// Measured over the frozen pool, a decoded module's IR takes 14-16
  /// bytes per wire byte; this hint fits most modules in one slab.
  static constexpr size_t ArenaBytesPerWireByte = 20;

  SymSource S;
  /// Fused decode+verify: enforce the residual verifier-only rules
  /// (downcast legality, return-value presence, static initializer
  /// types) during decoding, making a successful decode equivalent to
  /// decode + TSAVerifier.
  bool Fused;
  size_t WireBytes;
  TypeContext *Types = nullptr;
  ClassTable *Table = nullptr;
  TSAModule *Module = nullptr;
  /// Holds the plane numbering and the CFG scratch every body reuses.
  std::optional<PlaneContext> Ctx;
  /// Every class's static fields, grouped by class: class C's are
  /// Statics[StaticsStart[C->Id] .. StaticsStart[C->Id + 1]), so
  /// static-field wire references are O(1), not a member scan.
  std::vector<FieldSymbol *> Statics;
  std::vector<uint32_t> StaticsStart;
  DiagnosticEngine ScratchDiags;
  /// Nodes of the CST sequences being decoded, innermost on top; reused
  /// by every method body.
  std::vector<CSTNode *> SeqStack;
  /// The blocks of the body being decoded, in phase-1 order.
  std::vector<BasicBlock *> BodyBlocks;
  /// The constant pool of the entry block being decoded.
  std::vector<ConstantValue> Consts;

  const std::vector<ClassSymbol *> &classes() const {
    return Table->getClasses();
  }
  uint64_t numClasses() const { return classes().size(); }
  BumpArena &arena() { return Module->arena(); }

  Type *decodeTypeRef() {
    uint64_t Depth = S.varuint();
    if (Depth > MaxWireArrayDepth) {
      S.fail("implausible array depth");
      return nullptr;
    }
    Type *T;
    if (!S.bit()) {
      T = Types->getPrim(static_cast<PrimTypeKind>(S.sym(4)));
    } else {
      uint64_t Idx = S.sym(numClasses());
      if (S.failed())
        return nullptr;
      T = Types->getClass(classes()[Idx]);
    }
    for (uint64_t I = 0; I != Depth && T; ++I)
      T = Types->getArray(T);
    return S.failed() ? nullptr : T;
  }

  MethodSymbol *decodeMethodRef() {
    uint64_t CIdx = S.sym(numClasses());
    if (S.failed())
      return nullptr;
    ClassSymbol *C = classes()[CIdx];
    if (C->Methods.empty()) {
      S.fail("method reference into a class with no methods");
      return nullptr;
    }
    uint64_t MIdx = S.sym(C->Methods.size());
    if (S.failed())
      return nullptr;
    return C->Methods[MIdx].get();
  }

  /// Decodes a static field reference: the owner class, then the index
  /// among its static fields.
  FieldSymbol *decodeStaticRef(uint64_t &CIdx) {
    CIdx = S.sym(numClasses());
    if (S.failed())
      return nullptr;
    uint32_t First = StaticsStart[CIdx];
    uint64_t Idx = S.sym(StaticsStart[CIdx + 1] - First);
    return S.failed() ? nullptr : Statics[First + Idx];
  }

  bool decodeConstant(ConstantValue &C, Type *&OpType) {
    uint64_t Kind = S.sym(NumConstKinds);
    if (S.failed())
      return false;
    C.K = static_cast<ConstantValue::Kind>(Kind);
    OpType = nullptr;
    switch (C.K) {
    case ConstantValue::Kind::Int:
      C.IntVal = S.varint();
      OpType = Types->getInt();
      break;
    case ConstantValue::Kind::Double: {
      uint64_t Bits = S.bits64();
      std::memcpy(&C.DblVal, &Bits, sizeof(C.DblVal));
      OpType = Types->getDouble();
      break;
    }
    case ConstantValue::Kind::Bool:
      C.IntVal = S.bit();
      OpType = Types->getBoolean();
      break;
    case ConstantValue::Kind::Char:
      C.IntVal = static_cast<int64_t>(S.bits(8));
      OpType = Types->getChar();
      break;
    case ConstantValue::Kind::Null:
      OpType = decodeTypeRef();
      if (OpType && !(OpType->isClass() || OpType->isArray())) {
        S.fail("null constant with a non-reference type");
        return false;
      }
      break;
    case ConstantValue::Kind::String:
      C.StrVal = arena().copyString(S.str());
      OpType = Types->getArray(Types->getChar());
      break;
    }
    return !S.failed();
  }

  bool decodeClassSection() {
    // Builtins are implicit: the ClassTable starts with the shared ones,
    // which can never be redefined from the wire.
    uint64_t NumUsers = S.varuint();
    if (NumUsers > MaxClasses || S.failed()) {
      S.fail("implausible class count");
      return false;
    }
    Table->reserveClasses(std::min(NumUsers, MaxMemberReserve));
    for (uint64_t I = 0; I != NumUsers; ++I) {
      std::string Name = S.str();
      if (S.failed())
        return false;
      if (!Table->declareClass(Name, nullptr, ScratchDiags)) {
        S.fail("duplicate or reserved class name");
        return false;
      }
    }

    std::span<ClassSymbol *const> Users =
        std::span(classes()).subspan(ClassTable::NumBuiltinClasses);
    for (ClassSymbol *C : Users) {
      uint64_t SuperIdx = S.sym(numClasses());
      if (S.failed())
        return false;
      ClassSymbol *Super = classes()[SuperIdx];
      if (Super == C || (Super->IsBuiltin && Super != Table->getObjectClass())) {
        S.fail("illegal superclass");
        return false;
      }
      C->Super = Super;

      uint64_t NumFields = S.varuint();
      if (NumFields > MaxMembers || S.failed()) {
        S.fail("implausible field count");
        return false;
      }
      C->Fields.reserve(std::min(NumFields, MaxMemberReserve));
      for (uint64_t I = 0; I != NumFields; ++I) {
        auto F = Table->newField();
        F->Name = S.str();
        F->IsStatic = S.bit();
        F->IsFinal = S.bit();
        F->Ty = decodeTypeRef();
        F->Owner = C;
        if (!F->Ty || F->Ty->isVoid())
          return false;
        if (F->IsStatic)
          F->Slot = Table->allocateStaticSlot(F->Ty);
        C->Fields.push_back(std::move(F));
      }

      uint64_t NumMethods = S.varuint();
      if (NumMethods > MaxMembers || S.failed()) {
        S.fail("implausible method count");
        return false;
      }
      C->Methods.reserve(std::min(NumMethods, MaxMemberReserve));
      for (uint64_t I = 0; I != NumMethods; ++I) {
        auto M = Table->newMethod();
        M->Name = S.str();
        M->IsStatic = S.bit();
        M->IsConstructor = S.bit();
        bool IsVoid = S.bit();
        M->RetTy = IsVoid ? Types->getVoid() : decodeTypeRef();
        M->Owner = C;
        if (!M->RetTy)
          return false;
        if (M->IsConstructor && (M->IsStatic || !M->RetTy->isVoid())) {
          S.fail("malformed constructor declaration");
          return false;
        }
        uint64_t NumParams = S.varuint();
        if (NumParams > 255 || S.failed()) {
          S.fail("implausible parameter count");
          return false;
        }
        M->ParamTys.reserve(NumParams);
        for (uint64_t P = 0; P != NumParams; ++P) {
          Type *T = decodeTypeRef();
          if (!T || T->isVoid())
            return false;
          M->ParamTys.push_back(T);
        }
        Table->registerMethod(M.get());
        C->Methods.push_back(std::move(M));
      }
    }

    // Superclass cycles would hang layout computation; every chain must
    // reach Object within the class count.
    for (ClassSymbol *C : Users) {
      unsigned Steps = 0;
      for (ClassSymbol *W = C; W; W = W->Super)
        if (++Steps > numClasses() + 1) {
          S.fail("inheritance cycle");
          return false;
        }
    }

    std::string LayoutErr;
    for (ClassSymbol *C : Users)
      if (!ClassTable::computeClassLayout(C, &LayoutErr)) {
        S.fail("illegal override in class declarations");
        return false;
      }

    Statics.reserve(Table->getNumStaticSlots());
    StaticsStart.reserve(numClasses() + 1);
    for (ClassSymbol *C : classes()) {
      StaticsStart.push_back(static_cast<uint32_t>(Statics.size()));
      for (const auto &F : C->Fields)
        if (F->IsStatic)
          Statics.push_back(F.get());
    }
    StaticsStart.push_back(static_cast<uint32_t>(Statics.size()));
    return true;
  }

  bool decodeStaticInits() {
    uint64_t Num = S.varuint();
    if (Num > MaxMembers || S.failed()) {
      S.fail("implausible static-initializer count");
      return false;
    }
    for (uint64_t I = 0; I != Num; ++I) {
      uint64_t CIdx;
      FieldSymbol *F = decodeStaticRef(CIdx);
      ConstantValue Val;
      Type *ConstTy = nullptr;
      if (!F || !decodeConstant(Val, ConstTy))
        return false;
      // The executor stores the constant into the field's slot as is, so
      // its representation must be the field's (DESIGN.md §8).
      if (Fused && !staticInitFits(Val, F->Ty)) {
        S.fail("static initializer does not have its field's type");
        return false;
      }
      Module->StaticInits.push_back({F, Val});
    }
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Phase 1 decode: CST + blocks
  //===--------------------------------------------------------------------===//

  /// Decodes one CST sequence; returns false on malformed structure.
  /// \p CanFall reports whether control may fall out of the sequence.
  bool decodeSeq(TSAMethod &M, CSTSeq &Seq, bool InLoopBody, bool InHeader,
                 unsigned Depth, unsigned TryDepth, unsigned *Edges,
                 bool &CanFall) {
    if (Depth > MaxCSTDepth) {
      S.fail("CST nesting too deep");
      return false;
    }
    // This sequence's nodes collect above Mark on the shared stack (nested
    // sequences push and pop above them) and move into Seq in one exactly
    // sized copy at the end.
    const size_t Mark = SeqStack.size();
    bool First = true;
    bool Reach = true;
    while (true) {
      uint64_t Sym = S.sym(NumCSTSyms);
      if (S.failed())
        return false;
      if (Sym == SymEnd)
        break;
      if (!Reach) {
        S.fail("unreachable CST node");
        return false;
      }
      if (First && Sym != SymBasic) {
        S.fail("CST sequence does not start with a basic block");
        return false;
      }
      First = false;

      CSTNode *Node = M.createNode();
      switch (Sym) {
      case SymBasic:
        Node->K = CSTNode::Kind::Basic;
        Node->BB = arena().create<BasicBlock>();
        BodyBlocks.push_back(Node->BB);
        if (TryDepth > 0) {
          Node->RaisesToCatch = S.bit();
          if (Node->RaisesToCatch && Edges)
            ++*Edges;
        }
        break;
      case SymTry: {
        if (InHeader) {
          S.fail("try inside a loop header");
          return false;
        }
        Node->K = CSTNode::Kind::Try;
        bool BodyFall = false, HandlerFall = false;
        unsigned BodyEdges = 0;
        if (!decodeSeq(M, Node->Then, InLoopBody, InHeader, Depth + 1,
                       TryDepth + 1, &BodyEdges, BodyFall))
          return false;
        if (BodyEdges == 0) {
          S.fail("try handler is unreachable");
          return false;
        }
        if (!decodeSeq(M, Node->Else, InLoopBody, InHeader, Depth + 1,
                       TryDepth, Edges, HandlerFall))
          return false;
        Reach = BodyFall || HandlerFall;
        break;
      }
      case SymIf: {
        Node->K = CSTNode::Kind::If;
        bool HasElse = S.bit();
        bool ThenFall = false, ElseFall = true;
        if (!decodeSeq(M, Node->Then, InLoopBody, InHeader, Depth + 1,
                       TryDepth, Edges, ThenFall))
          return false;
        if (HasElse && !decodeSeq(M, Node->Else, InLoopBody, InHeader,
                                  Depth + 1, TryDepth, Edges, ElseFall))
          return false;
        Reach = ThenFall || ElseFall;
        break;
      }
      case SymLoop: {
        if (InHeader) {
          S.fail("loop inside a loop header");
          return false;
        }
        Node->K = CSTNode::Kind::Loop;
        bool HeaderFall = false, BodyFall = false;
        if (!decodeSeq(M, Node->Header, false, /*InHeader=*/true, Depth + 1,
                       TryDepth, Edges, HeaderFall))
          return false;
        if (!HeaderFall) {
          S.fail("loop header cannot fall through");
          return false;
        }
        if (!decodeSeq(M, Node->Body, /*InLoopBody=*/true, false, Depth + 1,
                       TryDepth, Edges, BodyFall))
          return false;
        Reach = true; // The decision block's false edge always exists.
        break;
      }
      case SymReturn:
        if (InHeader) {
          S.fail("return inside a loop header");
          return false;
        }
        Node->K = CSTNode::Kind::Return;
        Node->RetVal = S.bit()
                           ? reinterpret_cast<Instruction *>(1) // Placeholder
                           : nullptr;
        Reach = false;
        break;
      case SymBreak:
      case SymContinue:
        if (!InLoopBody) {
          S.fail("break/continue outside of a loop body");
          return false;
        }
        Node->K = Sym == SymBreak ? CSTNode::Kind::Break
                                  : CSTNode::Kind::Continue;
        Reach = false;
        break;
      default:
        S.fail("bad CST production");
        return false;
      }
      SeqStack.push_back(Node);
    }
    if (First) {
      S.fail("empty CST sequence");
      return false;
    }
    Seq = arena().copyArray(SeqStack.data() + Mark, SeqStack.size() - Mark);
    SeqStack.resize(Mark);
    CanFall = Reach;
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Reference decoding
  //===--------------------------------------------------------------------===//

  /// The register file (l, r) references index: every decoded value by
  /// (block, plane id), in definition order. Plane ids come from the
  /// method's PlaneNumbering (Ctx->Numbering), which numbers planes by
  /// array index -- base and safe-ref planes by Type::Index, safe-index
  /// planes by the anchor's Instruction::Id -- in decode order, never
  /// read from the wire.
  ///
  /// Phase 2 decodes blocks one after another, so only the open block's
  /// rows still grow; they live in Open. When the block's walk ends its
  /// rows move into the flat Vals array plane by plane: block B's run on
  /// plane P starts at Vals[RowStart[BlockRows[B->Id] + P]] and holds
  /// B->planeCount(P) values. Every table here keeps its storage across
  /// the module's bodies, so steady-state decoding allocates nothing for
  /// them.
  OpenRows Open;
  const BasicBlock *OpenBB = nullptr;
  std::vector<Instruction *> Vals;
  std::vector<uint32_t> RowStart;
  std::vector<uint32_t> BlockRows;

  void recordRegister(const PlaneKey &Plane, Instruction *Def) {
    uint32_t Id = Ctx->Numbering.intern(Plane);
    // The phase-2 walk visits blocks and instructions in exactly
    // finalize()'s order, and numbers planes the same way, so the ids and
    // per-plane indices match what finalize() would assign; writing them
    // here lets the fused path skip that second pass over the method.
    Def->PlaneId = Id;
    Def->PlaneIndex = Open.count(Id);
    Open.push(Id, Def);
  }

  /// Ends \p BB's phase-2 walk: its rows move from Open into Vals, and
  /// its exact-size plane counts into the arena.
  void closeBlock(BasicBlock &BB) {
    BlockRows[BB.Id] = static_cast<uint32_t>(RowStart.size());
    BB.PlaneCounts = arena().allocArray<uint32_t>(Open.used());
    for (uint32_t P = 0, E = Open.used(); P != E; ++P) {
      uint32_t N = Open.count(P);
      BB.PlaneCounts[P] = N;
      RowStart.push_back(static_cast<uint32_t>(Vals.size()));
      for (uint32_t R = 0; R != N; ++R)
        Vals.push_back(Open.get(P, R));
    }
    Open.clear();
    OpenBB = nullptr;
  }

  Instruction *decodeRef(const BasicBlock *UseBlock, const PlaneKey &Plane) {
    return decodeRefById(UseBlock, Ctx->Numbering.find(Plane));
  }

  /// Variant for callers that already know the plane id (phi operand
  /// decoding reuses the id recorded on the phi in phase 2).
  Instruction *decodeRefById(const BasicBlock *UseBlock, uint32_t Id) {
    if (!UseBlock) {
      S.fail("value reference with no context block");
      return nullptr;
    }
    uint64_t L = S.sym(UseBlock->DomDepth + 1);
    if (S.failed())
      return nullptr;
    const BasicBlock *D = UseBlock;
    for (uint64_t I = 0; I != L; ++I)
      D = D->IDom;
    // Dominators precede their blocks in decode order, so D is either
    // the open block or one already moved into Vals.
    bool IsOpen = D == OpenBB;
    uint64_t R = S.sym(IsOpen ? Open.count(Id) : D->planeCount(Id));
    if (S.failed())
      return nullptr;
    if (IsOpen)
      return Open.get(Id, static_cast<uint32_t>(R));
    return Vals[RowStart[BlockRows[D->Id] + Id] + R];
  }

  //===--------------------------------------------------------------------===//
  // Method bodies
  //===--------------------------------------------------------------------===//

  bool decodeBody(TSAMethod &M) {
    bool CanFall = false;
    BodyBlocks.clear();
    if (!decodeSeq(M, M.Root, false, false, 0, 0, nullptr, CanFall))
      return false;
    if (CanFall) {
      S.fail("control falls off the end of a method");
      return false;
    }
    M.Blocks = arena().copyArray(BodyBlocks.data(), BodyBlocks.size());
    M.deriveCFG(&Ctx->CFG);

    // Reuse the register storage across the module's methods.
    Vals.clear();
    RowStart.clear();
    BlockRows.resize(M.Blocks.size());
    Ctx->Numbering.begin();

    // Phase 2.
    for (BasicBlock *BB : M.Blocks) {
      uint64_t NumInsts = S.varuint();
      // Every instruction takes at least one bit (its opcode), so a count
      // the rest of the stream cannot hold is rejected before anything is
      // sized from it.
      if (NumInsts > MaxInstsPerBlock || NumInsts > S.bitsLeft() ||
          S.failed()) {
        S.fail("implausible instruction count");
        return false;
      }
      BB->Insts = arena().allocArray<Instruction *>(NumInsts);
      bool SeenNonPhi = false;
      OpenBB = BB;
      for (uint64_t I = 0; I != NumInsts; ++I) {
        Instruction *Inst = decodeInstruction(M, *BB, SeenNonPhi);
        if (!Inst)
          return false;
        BB->Insts[I] = Inst;
        if (auto Plane = resultPlane(*Inst, *Ctx))
          recordRegister(*Plane, Inst);
        else
          Inst->PlaneId = Instruction::NoPlane;
      }
      closeBlock(*BB);
      if (BB == M.getEntry()) {
        // Constants are preloads, so the pool is complete.
        M.Consts = arena().copyArray(Consts.data(), Consts.size());
        Consts.clear();
      }
    }

    // The exception-edge discipline couples phase-1 flags with phase-2
    // instruction contents; reject mismatches before trusting the edges.
    std::string EdgeErr;
    if (!checkExceptionDiscipline(M, &EdgeErr)) {
      S.fail("exception-edge discipline violation");
      return false;
    }

    // Phase 3: phi operands. Phase 2 recorded each phi's plane id, so the
    // operand alphabet needs no plane recomputation here. Phase 2 also
    // rejected any phi after a non-phi, so phis form a prefix of each
    // block's instruction list.
    for (BasicBlock *BB : M.Blocks) {
      for (Instruction *I : BB->Insts) {
        if (!I->isPhi())
          break;
        I->Operands = arena().allocArray<Instruction *>(BB->Preds.size());
        for (size_t K = 0; K != BB->Preds.size(); ++K) {
          Instruction *Op = decodeRefById(BB->Preds[K], I->PlaneId);
          if (!Op)
            return false;
          I->Operands[K] = Op;
        }
      }
    }

    // Phase 3: CST condition / return references.
    if (!decodeCSTRefs(M, M.Root, nullptr).second)
      return false;

    if (Fused) {
      // recordRegister already assigned PlaneId/PlaneIndex/PlaneCounts in
      // finalize()'s first-touch order; keep the numbering's plane list
      // instead of recomputing every instruction's result plane in a
      // second pass.
      const std::vector<PlaneKey> &Keys = Ctx->Numbering.keys();
      M.Planes = arena().copyArray(Keys.data(), Keys.size());
    } else {
      M.finalize(*Ctx);
    }
    return !S.failed();
  }

  std::pair<const BasicBlock *, bool>
  decodeCSTRefs(TSAMethod &M, const CSTSeq &Seq, const BasicBlock *Cur) {
    for (CSTNode *Node : Seq) {
      switch (Node->K) {
      case CSTNode::Kind::Basic:
        Cur = Node->BB;
        break;
      case CSTNode::Kind::If: {
        Node->Cond = decodeRef(Cur, PlaneKey::base(Types->getBoolean()));
        if (!Node->Cond)
          return {nullptr, false};
        if (!decodeCSTRefs(M, Node->Then, Cur).second)
          return {nullptr, false};
        if (!Node->Else.empty() &&
            !decodeCSTRefs(M, Node->Else, Cur).second)
          return {nullptr, false};
        Cur = nullptr;
        break;
      }
      case CSTNode::Kind::Loop: {
        auto [Decision, Ok] = decodeCSTRefs(M, Node->Header, Cur);
        if (!Ok)
          return {nullptr, false};
        Node->Cond = decodeRef(Decision, PlaneKey::base(Types->getBoolean()));
        if (!Node->Cond)
          return {nullptr, false};
        if (!decodeCSTRefs(M, Node->Body, Decision).second)
          return {nullptr, false};
        Cur = nullptr;
        break;
      }
      case CSTNode::Kind::Try:
        if (!decodeCSTRefs(M, Node->Then, Cur).second)
          return {nullptr, false};
        if (!decodeCSTRefs(M, Node->Else, nullptr).second)
          return {nullptr, false};
        Cur = nullptr;
        break;
      case CSTNode::Kind::Return:
        if (Node->RetVal) { // Placeholder set during phase 1.
          if (M.Symbol->RetTy->isVoid()) {
            S.fail("value returned from a void method");
            return {nullptr, false};
          }
          Node->RetVal = decodeRef(Cur, PlaneKey::base(M.Symbol->RetTy));
          if (!Node->RetVal)
            return {nullptr, false};
        } else if (Fused && !M.Symbol->RetTy->isVoid()) {
          S.fail("non-void method returns without a value");
          return {nullptr, false};
        }
        break;
      case CSTNode::Kind::Break:
      case CSTNode::Kind::Continue:
        break;
      }
    }
    return {Cur, true};
  }

  Instruction *decodeInstruction(TSAMethod &M, BasicBlock &BB,
                                 bool &SeenNonPhi) {
    uint64_t OpSym = S.sym(NumOpcodes);
    if (S.failed())
      return nullptr;
    Instruction *I = M.createInst(static_cast<Opcode>(OpSym));
    I->Parent = &BB;

    if (I->isPreload() && &BB != M.getEntry()) {
      S.fail("preload outside of the entry block");
      return nullptr;
    }
    if (I->isPhi()) {
      if (SeenNonPhi) {
        S.fail("phi after non-phi instruction");
        return nullptr;
      }
    } else {
      SeenNonPhi = true;
    }

    switch (I->Op) {
    case Opcode::Const: {
      ConstantValue C;
      Type *Ty = nullptr;
      if (!decodeConstant(C, Ty))
        return nullptr;
      I->ConstIdx = static_cast<uint32_t>(Consts.size());
      Consts.push_back(C);
      I->OpType = Ty;
      break;
    }
    case Opcode::Param: {
      unsigned Shift = M.Symbol->IsStatic ? 0 : 1;
      I->ParamIndex = static_cast<unsigned>(
          S.sym(M.Symbol->ParamTys.size() + Shift));
      if (S.failed())
        return nullptr;
      if (Shift && I->ParamIndex == 0)
        I->OpType = Types->getClass(M.Symbol->Owner);
      else
        I->OpType = M.Symbol->ParamTys[I->ParamIndex - Shift];
      break;
    }
    case Opcode::Phi:
      I->OpType = decodeTypeRef();
      if (!I->OpType)
        return nullptr;
      I->DstSafe = S.bit();
      if (I->DstSafe && !(I->OpType->isClass() || I->OpType->isArray())) {
        S.fail("safe-ref phi of a non-reference type");
        return nullptr;
      }
      return I; // Operands arrive in phase 3.
    case Opcode::Primitive:
    case Opcode::XPrimitive: {
      I->Prim = static_cast<PrimOp>(S.sym(NumPrimOps));
      if (S.failed())
        return nullptr;
      bool Raises = primOpMayRaise(I->Prim);
      if (Raises != (I->Op == Opcode::XPrimitive)) {
        S.fail("operation under the wrong primitive/xprimitive opcode");
        return nullptr;
      }
      if (I->Prim == PrimOp::InstanceOf) {
        I->AuxType = decodeTypeRef();
        if (!I->AuxType ||
            !(I->AuxType->isClass() || I->AuxType->isArray())) {
          S.fail("instanceof of a non-reference type");
          return nullptr;
        }
      }
      I->OpType = primOpOperandType(I->Prim, *Ctx);
      break;
    }
    case Opcode::NullCheck:
    case Opcode::Upcast:
      I->OpType = decodeTypeRef();
      if (!I->OpType || !(I->OpType->isClass() || I->OpType->isArray())) {
        S.fail("check/cast requires a reference type");
        return nullptr;
      }
      if (I->Op == Opcode::Upcast)
        I->AuxType = Ctx->objectType();
      break;
    case Opcode::IndexCheck:
    case Opcode::ArrayLength:
    case Opcode::GetElt:
    case Opcode::SetElt:
    case Opcode::NewArray:
      I->OpType = decodeTypeRef();
      if (!I->OpType || !I->OpType->isArray()) {
        S.fail("array operation on a non-array type");
        return nullptr;
      }
      break;
    case Opcode::Downcast: {
      I->AuxType = decodeTypeRef();
      I->SrcSafe = S.bit();
      I->OpType = decodeTypeRef();
      I->DstSafe = S.bit();
      if (!I->AuxType || !I->OpType)
        return nullptr;
      if (!(I->AuxType->isClass() || I->AuxType->isArray()) ||
          !(I->OpType->isClass() || I->OpType->isArray())) {
        S.fail("downcast of non-reference types");
        return nullptr;
      }
      // Full legality, mirroring TSAVerifier::checkDowncast: widening
      // along the class hierarchy only (arrays widen only to Object), and
      // safety may be erased or preserved but never introduced — that is
      // nullcheck's exclusive privilege.
      if (Fused) {
        Type *Src = I->AuxType, *Dst = I->OpType;
        bool Widens = false;
        if (Src == Dst)
          Widens = true;
        else if (Dst->isClass() && Src->isClass())
          Widens =
              Src->getClassSymbol()->isSubclassOf(Dst->getClassSymbol());
        else if (Dst->isClass() && Src->isArray())
          Widens = Dst->getClassSymbol()->Super == nullptr; // Object only.
        if (!Widens) {
          S.fail("downcast does not widen");
          return nullptr;
        }
        if (I->DstSafe && !I->SrcSafe) {
          S.fail("downcast cannot introduce safety");
          return nullptr;
        }
      }
      break;
    }
    case Opcode::GetField:
    case Opcode::SetField: {
      I->OpType = decodeTypeRef();
      if (!I->OpType || !I->OpType->isClass()) {
        S.fail("field access on a non-class type");
        return nullptr;
      }
      ClassSymbol *C = I->OpType->getClassSymbol();
      uint64_t Slot = S.sym(C->InstanceLayout.size());
      if (S.failed())
        return nullptr;
      I->Field = C->InstanceLayout[Slot];
      break;
    }
    case Opcode::GetStatic:
    case Opcode::SetStatic: {
      uint64_t CIdx;
      I->Field = decodeStaticRef(CIdx);
      if (!I->Field)
        return nullptr;
      I->OpType = Types->getClass(classes()[CIdx]);
      break;
    }
    case Opcode::New: {
      uint64_t CIdx = S.sym(numClasses());
      if (S.failed())
        return nullptr;
      ClassSymbol *C = classes()[CIdx];
      if (C->IsBuiltin) {
        S.fail("new of a builtin class");
        return nullptr;
      }
      I->OpType = Types->getClass(C);
      break;
    }
    case Opcode::Call:
    case Opcode::Dispatch: {
      I->Method = decodeMethodRef();
      if (!I->Method)
        return nullptr;
      break;
    }
    }

    unsigned NumOps = expectedOperandCount(*I);
    I->Operands = arena().allocArray<Instruction *>(NumOps);
    for (unsigned K = 0; K != NumOps; ++K) {
      std::optional<PlaneKey> Plane = operandPlane(*I, K, *Ctx, nullptr);
      if (!Plane) {
        S.fail("ill-typed instruction");
        return nullptr;
      }
      Instruction *Op = decodeRef(&BB, *Plane);
      if (!Op)
        return nullptr;
      I->Operands[K] = Op;
    }
    return I;
  }
};

} // namespace

std::vector<uint8_t> safetsa::encodeModule(const TSAModule &Module,
                                           CodecMode Mode) {
  return Encoder(Module, Mode).encode();
}

std::unique_ptr<DecodedUnit> safetsa::decodeModule(ByteSpan Bytes,
                                                   std::string *Err,
                                                   const DecodeOptions &Opts) {
  return Decoder(Bytes, Opts).decode(Err);
}
