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
    if (Mode == CodecMode::Prefix && Bound != 0)
      return R.readBounded(Bound);
    if (Bound == 0) {
      // An empty alphabet means the producer could not have emitted any
      // symbol here: the reference is inexpressible.
      fail("reference into an empty register plane");
      return 0;
    }
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
  std::string_view str(std::string &Buf) { return R.readString(Buf); }
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
      for (const MethodSymbol *M : C->Methods)
        MethodIdx[M->GlobalId] = MIdx++;
      for (const FieldSymbol *F : C->Fields)
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
  const ArenaArray<ClassSymbol *> &Classes;
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
      for (const FieldSymbol *F : C->Fields) {
        S.str(F->Name);
        S.bit(F->IsStatic);
        S.bit(F->IsFinal);
        encodeTypeRef(F->Ty);
      }
      S.varuint(C->Methods.size());
      for (const MethodSymbol *M : C->Methods) {
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

#ifndef NDEBUG
    InstPlanes Planes;
    assert(!instructionPlanes(I, Ctx, Planes) &&
           "encoding an ill-typed instruction");
#endif
    for (unsigned K = 0; K != I.Operands.size(); ++K) {
      assert(I.Operands[K]->PlaneId < M.Planes.size() &&
             M.Planes[I.Operands[K]->PlaneId] == *Planes.operand(I, K) &&
             "operand plane disagrees with its definition (is the module "
             "finalized?)");
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

/// The register file (l, r) references index: every value of the body
/// being decoded, by (block, plane id, register number). Each plane's
/// values form one row in definition order, so a block's run on a plane
/// is contiguous: the open block's run is the last OpenCount[P] entries of
/// row P, and a closed block B's run on plane P starts at entry
/// RowStart[BlockRows[B->Id] + P]. Entry G of row P sits in chunk
/// K = log2(G / 8 + 1) of the row, chunk K holding 8 << K entries carved
/// from one pool shared by every row, so a new plane or a longer row
/// costs no allocation. The tables keep their storage from body to body.
class RegisterFile {
public:
  /// Empties every row for a body of \p NumBlocks blocks.
  void begin(size_t NumBlocks) {
    std::fill(RowSize.begin(), RowSize.begin() + NumPlanes, 0);
    std::fill(OpenCount.begin(), OpenCount.begin() + NumPlanes, 0);
    NumPlanes = OpenUsed = 0;
    Pool.clear();
    RowStart.clear();
    BlockRows.resize(NumBlocks);
  }
  /// Sizes the tables for a typical body, so it seldom grows them.
  void reserve() {
    if (RowSize.size() < 64) {
      RowSize.resize(64, 0);
      OpenCount.resize(64, 0);
      Chunks.resize(64 * MaxChunks);
    }
    Pool.reserve(1024);
    RowStart.reserve(256);
    BlockRows.reserve(64);
  }
  /// Values the open block holds on plane \p P.
  uint32_t openCount(uint32_t P) const {
    return P < NumPlanes ? OpenCount[P] : 0;
  }
  /// Appends \p V to the open block's run on plane \p P (at most one
  /// past the highest plane so far: ids are handed out densely).
  void push(uint32_t P, Instruction *V) {
    assert(P <= NumPlanes && "plane ids are dense");
    if (P == NumPlanes) {
      if (RowSize.size() == NumPlanes) {
        RowSize.push_back(0);
        OpenCount.push_back(0);
        Chunks.resize(Chunks.size() + MaxChunks);
      }
      ++NumPlanes;
    }
    auto [K, Off] = locate(RowSize[P]++);
    uint32_t &Start = Chunks[size_t(P) * MaxChunks + K];
    if (Off == 0) {
      Start = static_cast<uint32_t>(Pool.size());
      Pool.resize(Pool.size() + (size_t(8) << K));
    }
    Pool[Start + Off] = V;
    ++OpenCount[P];
    OpenUsed = std::max(OpenUsed, P + 1);
  }
  Instruction *getOpen(uint32_t P, uint32_t R) const {
    return at(P, RowSize[P] - OpenCount[P] + R);
  }
  /// Register \p R of closed block \p D on plane \p P (R is below D's
  /// count there, so D's run on P exists).
  Instruction *get(const BasicBlock *D, uint32_t P, uint32_t R) const {
    return at(P, RowStart[BlockRows[D->Id] + P] + R);
  }
  /// Ends \p BB's walk: records where its runs start and gives it its
  /// exact-size plane counts in \p A (up to the highest plane it
  /// defines a value on).
  void close(BasicBlock &BB, BumpArena &A) {
    BlockRows[BB.Id] = static_cast<uint32_t>(RowStart.size());
    BB.PlaneCounts = A.allocArray<uint32_t>(OpenUsed);
    for (uint32_t P = 0; P != OpenUsed; ++P) {
      uint32_t N = OpenCount[P];
      BB.PlaneCounts[P] = N;
      RowStart.push_back(RowSize[P] - N);
      OpenCount[P] = 0;
    }
    OpenUsed = 0;
  }
  size_t capacityBytes() const {
    return (RowSize.capacity() + OpenCount.capacity() + Chunks.capacity() +
            RowStart.capacity() + BlockRows.capacity()) *
               sizeof(uint32_t) +
           Pool.capacity() * sizeof(Instruction *);
  }

private:
  /// Enough chunks for any 32-bit row index.
  static constexpr uint32_t MaxChunks = 30;
  static std::pair<uint32_t, uint32_t> locate(uint32_t G) {
    uint32_t K = std::bit_width(G / 8 + 1) - 1;
    return {K, G - 8 * ((1u << K) - 1)};
  }
  Instruction *at(uint32_t P, uint32_t G) const {
    auto [K, Off] = locate(G);
    return Pool[Chunks[size_t(P) * MaxChunks + K] + Off];
  }

  std::vector<uint32_t> RowSize;   ///< By plane id.
  std::vector<uint32_t> OpenCount; ///< By plane id.
  std::vector<uint32_t> Chunks;    ///< Pool offset of chunk K of row P.
  std::vector<Instruction *> Pool;
  std::vector<uint32_t> RowStart;
  std::vector<uint32_t> BlockRows; ///< By BasicBlock::Id.
  uint32_t NumPlanes = 0; ///< Planes of this body so far.
  uint32_t OpenUsed = 0;  ///< One past the open block's highest plane.
};

template <typename T> size_t capacityBytes(const std::vector<T> &V) {
  return V.capacity() * sizeof(T);
}

/// Everything a decode works in besides the module it builds: the
/// register file, the plane numbering and CFG scratch its PlaneContext
/// borrows, the CST, block and constant stacks, the static-field index,
/// the duplicate-body flags and the string buffer. One per thread, like
/// the reader's prefix tables: a decode resets what it uses instead of
/// rebuilding it, so a warm decode allocates none of it. A decode that
/// leaves it holding more than kCap bytes releases it all, so a hostile
/// or huge module costs its thread at most kCap between decodes.
struct DecodeScratch {
  static constexpr size_t kCap = 256 * 1024;

  RegisterFile Regs;
  PlaneNumbering Numbering;
  CFGScratch CFG;
  std::vector<CSTNode *> SeqStack;
  std::vector<BasicBlock *> BodyBlocks;
  std::vector<ConstantValue> Consts;
  std::vector<FieldSymbol *> Statics;
  std::vector<uint32_t> StaticsStart;
  std::vector<uint8_t> Seen;
  std::string Str;

  size_t bytes() const {
    return Regs.capacityBytes() + Numbering.capacityBytes() +
           CFG.capacityBytes() + capacityBytes(SeqStack) +
           capacityBytes(BodyBlocks) +
           capacityBytes(Consts) + capacityBytes(Statics) +
           capacityBytes(StaticsStart) + capacityBytes(Seen) +
           Str.capacity();
  }
};

DecodeScratch &decodeScratch() {
  static thread_local DecodeScratch Scratch;
  return Scratch;
}

class Decoder {
public:
  Decoder(ByteSpan Bytes, const DecodeOptions &Opts, DecodeScratch &X)
      : S(Bytes, Opts.Mode, Opts.TableDecode), Fused(Opts.FusedVerify),
        WireBytes(Bytes.Size), X(X), SeqStack(X.SeqStack),
        BodyBlocks(X.BodyBlocks), Consts(X.Consts), Regs(X.Regs) {
    // A failed decode may have left entries behind. The tables are
    // sized for a typical method, once per thread, so they seldom grow
    // while a module decodes.
    SeqStack.clear();
    BodyBlocks.clear();
    Consts.clear();
    X.Statics.clear();
    X.StaticsStart.clear();
    SeqStack.reserve(64);
    BodyBlocks.reserve(32);
    Consts.reserve(32);
    Regs.reserve();
  }
  ~Decoder() {
    if (Ctx) {
      std::swap(Ctx->Numbering, X.Numbering);
      std::swap(Ctx->CFG, X.CFG);
    }
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
    Unit->Module =
        std::make_unique<TSAModule>(WireBytes * ArenaBytesPerWireByte);
    Module = Unit->Module.get();
    Module->Types = Types;
    Module->Table = Table;
    // The context borrows the thread's numbering and CFG storage for
    // this decode (the destructor hands it back): a swap moves the
    // vectors' pointers, not their bytes.
    Ctx.emplace(*Types, *Table);
    std::swap(Ctx->Numbering, X.Numbering);
    std::swap(Ctx->CFG, X.CFG);
    Ctx->Numbering.reserve(Types->numTypes() + 64, 256);

    if (!decodeClassSection())
      return Fail(S.reason());
    if (!decodeStaticInits())
      return Fail(S.reason());

    uint64_t NumBodies = S.varuint();
    if (NumBodies > MaxMembers || S.failed())
      return Fail("implausible body count");
    // Which methods already have a body, by MethodSymbol::GlobalId.
    std::vector<uint8_t> &Seen = X.Seen;
    Seen.assign(Table->getAllMethods().size(), 0);
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
      Seen[M->GlobalId] = 1;
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
      for (const MethodSymbol *M : C->Methods)
        if (!Seen[M->GlobalId]) {
          if (Err)
            *Err = "method declared without a body";
          return nullptr;
        }
    }
    return Unit;
  }

private:
  /// Measured over the frozen pool, a decoded module's IR takes 37-54
  /// bytes per wire byte (median 42); this hint fits every pool module in
  /// one slab (EXPERIMENTS.md, "Cold load").
  static constexpr size_t ArenaBytesPerWireByte = 56;

  SymSource S;
  /// Fused decode+verify: enforce the residual verifier-only rules
  /// (downcast legality, return-value presence, static initializer
  /// types) during decoding, making a successful decode equivalent to
  /// decode + TSAVerifier.
  bool Fused;
  size_t WireBytes;
  DecodeScratch &X;
  TypeContext *Types = nullptr;
  ClassTable *Table = nullptr;
  TSAModule *Module = nullptr;
  /// The plane rules' context; its numbering and CFG scratch are the
  /// thread's, borrowed for this decode.
  std::optional<PlaneContext> Ctx;
  DiagnosticEngine ScratchDiags;
  /// Nodes of the CST sequences being decoded, innermost on top; reused
  /// by every method body.
  std::vector<CSTNode *> &SeqStack;
  /// The blocks of the body being decoded, in phase-1 order.
  std::vector<BasicBlock *> &BodyBlocks;
  /// The constant pool of the entry block being decoded.
  std::vector<ConstantValue> &Consts;

  const ArenaArray<ClassSymbol *> &classes() const {
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
    return C->Methods[MIdx];
  }

  /// Decodes a static field reference: the owner class, then the index
  /// among its static fields. Class C's static fields are
  /// Statics[StaticsStart[C->Id] .. StaticsStart[C->Id + 1]), so the
  /// reference is O(1), not a member scan.
  FieldSymbol *decodeStaticRef(uint64_t &CIdx) {
    CIdx = S.sym(numClasses());
    if (S.failed())
      return nullptr;
    uint32_t First = X.StaticsStart[CIdx];
    uint64_t Idx = S.sym(X.StaticsStart[CIdx + 1] - First);
    return S.failed() ? nullptr : X.Statics[First + Idx];
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
      C.StrVal = arena().copyString(S.str(X.Str));
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
      std::string_view Name = S.str(X.Str);
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
      Table->reserveMembers(C, std::min(NumFields, MaxMemberReserve), 0);
      for (uint64_t I = 0; I != NumFields; ++I) {
        std::string_view Name = S.str(X.Str);
        bool IsStatic = S.bit();
        bool IsFinal = S.bit();
        Type *Ty = decodeTypeRef();
        if (!Ty || Ty->isVoid())
          return false;
        Table->addField(C, Name, Ty, IsStatic, IsFinal);
      }

      uint64_t NumMethods = S.varuint();
      if (NumMethods > MaxMembers || S.failed()) {
        S.fail("implausible method count");
        return false;
      }
      Table->reserveMembers(C, 0, std::min(NumMethods, MaxMemberReserve));
      for (uint64_t I = 0; I != NumMethods; ++I) {
        std::string_view Name = S.str(X.Str);
        bool IsStatic = S.bit();
        bool IsConstructor = S.bit();
        bool IsVoid = S.bit();
        Type *RetTy = IsVoid ? Types->getVoid() : decodeTypeRef();
        if (!RetTy)
          return false;
        if (IsConstructor && (IsStatic || !RetTy->isVoid())) {
          S.fail("malformed constructor declaration");
          return false;
        }
        uint64_t NumParams = S.varuint();
        if (NumParams > 255 || S.failed()) {
          S.fail("implausible parameter count");
          return false;
        }
        MethodSymbol *M = Table->addMethod(C, Name, NumParams);
        M->IsStatic = IsStatic;
        M->IsConstructor = IsConstructor;
        M->RetTy = RetTy;
        for (Type *&P : M->ParamTys) {
          P = decodeTypeRef();
          if (!P || P->isVoid())
            return false;
        }
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

    for (ClassSymbol *C : Users)
      if (!Table->computeClassLayout(C, nullptr)) {
        S.fail("illegal override in class declarations");
        return false;
      }

    X.Statics.reserve(Table->getNumStaticSlots());
    X.StaticsStart.reserve(numClasses() + 1);
    for (ClassSymbol *C : classes()) {
      X.StaticsStart.push_back(static_cast<uint32_t>(X.Statics.size()));
      for (FieldSymbol *F : C->Fields)
        if (F->IsStatic)
          X.Statics.push_back(F);
    }
    X.StaticsStart.push_back(static_cast<uint32_t>(X.Statics.size()));
    return true;
  }

  bool decodeStaticInits() {
    uint64_t Num = S.varuint();
    if (Num > MaxMembers || S.failed()) {
      S.fail("implausible static-initializer count");
      return false;
    }
    Module->StaticInits.reserve(std::min(Num, MaxMemberReserve));
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

  /// The register file (l, r) references index. Plane ids come from the
  /// method's PlaneNumbering (Ctx->Numbering), which numbers planes by
  /// array index -- base and safe-ref planes by Type::Index, safe-index
  /// planes by the anchor's Instruction::Id -- in decode order, never
  /// read from the wire. It is the thread's scratch, so steady-state
  /// decoding allocates nothing for it.
  RegisterFile &Regs;
  /// The block phase 2 is walking; null once it is done.
  const BasicBlock *OpenBB = nullptr;

  void recordRegister(const PlaneKey &Plane, Instruction *Def) {
    uint32_t Id = Ctx->Numbering.intern(Plane);
    // The phase-2 walk visits blocks and instructions in exactly
    // finalize()'s order, and numbers planes the same way, so the ids and
    // per-plane indices match what finalize() would assign; writing them
    // here lets the fused path skip that second pass over the method.
    Def->PlaneId = Id;
    Def->PlaneIndex = Regs.openCount(Id);
    Regs.push(Id, Def);
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
    // the open block or a closed one.
    bool IsOpen = D == OpenBB;
    uint64_t R = S.sym(IsOpen ? Regs.openCount(Id) : D->planeCount(Id));
    if (S.failed())
      return nullptr;
    if (IsOpen)
      return Regs.getOpen(Id, static_cast<uint32_t>(R));
    return Regs.get(D, Id, static_cast<uint32_t>(R));
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
    Regs.begin(M.Blocks.size());
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
      }
      Regs.close(*BB, arena());
      OpenBB = nullptr;
      if (BB == M.getEntry()) {
        // Constants are preloads, so the pool is complete.
        M.Consts = arena().copyArray(Consts.data(), Consts.size());
        Consts.clear();
      }
    }

    // The exception-edge discipline couples phase-1 flags with phase-2
    // instruction contents; reject mismatches before trusting the edges.
    if (!checkExceptionDiscipline(M, nullptr)) {
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
      break; // Operands arrive in phase 3.
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

    // Every plane the instruction reads and writes, in one step: its
    // operands are decoded against their planes' counts, and its value
    // joins the register file on its result plane.
    InstPlanes Planes;
    if (instructionPlanes(*I, *Ctx, Planes)) {
      S.fail("ill-typed instruction");
      return nullptr;
    }
    if (!I->isPhi()) {
      I->Operands = arena().allocArray<Instruction *>(Planes.NumOperands);
      for (unsigned K = 0; K != Planes.NumOperands; ++K) {
        Instruction *Op = decodeRef(&BB, *Planes.operand(*I, K));
        if (!Op)
          return nullptr;
        I->Operands[K] = Op;
      }
    }
    if (std::optional<PlaneKey> Result = Planes.result(*I))
      recordRegister(*Result, I);
    else
      I->PlaneId = Instruction::NoPlane;
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
  DecodeScratch &X = decodeScratch();
  std::unique_ptr<DecodedUnit> Unit = Decoder(Bytes, Opts, X).decode(Err);
  if (X.bytes() > DecodeScratch::kCap)
    X = DecodeScratch();
  return Unit;
}

size_t safetsa::decoderScratchBytes() { return decodeScratch().bytes(); }
