//===- ssagen/TSAGen.cpp - AST to SafeTSA ---------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ssagen/TSAGen.h"

#include "tsa/ConstFold.h"

#include <algorithm>
#include <functional>
#include <span>

using namespace safetsa;

//===----------------------------------------------------------------------===//
// Assigned-variable prescan (loop phi placement)
//===----------------------------------------------------------------------===//

namespace {

/// A set of locals as a bit vector indexed by LocalSymbol::Index.
using LocalSet = std::vector<bool>;

void collectAssignedExpr(const Expr &E, LocalSet &Out);

void collectAssignedStmt(const Stmt &S, LocalSet &Out) {
  switch (S.Kind) {
  case StmtKind::Block:
    for (const StmtPtr &C : static_cast<const BlockStmt &>(S).Stmts)
      collectAssignedStmt(*C, Out);
    break;
  case StmtKind::VarDecl: {
    const auto &V = static_cast<const VarDeclStmt &>(S);
    if (V.Symbol)
      Out[V.Symbol->Index] = true;
    if (V.Init)
      collectAssignedExpr(*V.Init, Out);
    break;
  }
  case StmtKind::Expr:
    collectAssignedExpr(*static_cast<const ExprStmt &>(S).E, Out);
    break;
  case StmtKind::If: {
    const auto &I = static_cast<const IfStmt &>(S);
    collectAssignedExpr(*I.Cond, Out);
    collectAssignedStmt(*I.Then, Out);
    if (I.Else)
      collectAssignedStmt(*I.Else, Out);
    break;
  }
  case StmtKind::While: {
    const auto &W = static_cast<const WhileStmt &>(S);
    collectAssignedExpr(*W.Cond, Out);
    collectAssignedStmt(*W.Body, Out);
    break;
  }
  case StmtKind::DoWhile: {
    const auto &W = static_cast<const DoWhileStmt &>(S);
    collectAssignedExpr(*W.Cond, Out);
    collectAssignedStmt(*W.Body, Out);
    break;
  }
  case StmtKind::For: {
    const auto &F = static_cast<const ForStmt &>(S);
    if (F.Init)
      collectAssignedStmt(*F.Init, Out);
    if (F.Cond)
      collectAssignedExpr(*F.Cond, Out);
    if (F.Update)
      collectAssignedExpr(*F.Update, Out);
    collectAssignedStmt(*F.Body, Out);
    break;
  }
  case StmtKind::Return: {
    const auto &R = static_cast<const ReturnStmt &>(S);
    if (R.Value)
      collectAssignedExpr(*R.Value, Out);
    break;
  }
  case StmtKind::Try: {
    const auto &T = static_cast<const TryStmt &>(S);
    collectAssignedStmt(*T.Body, Out);
    collectAssignedStmt(*T.Handler, Out);
    break;
  }
  default:
    break;
  }
}

/// Conservative syntactic test: could generating \p E emit an instruction
/// that may raise (calls, allocations, checks, integer division, checked
/// casts)?
bool exprMayRaise(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::Call:
  case ExprKind::NewObject:
  case ExprKind::NewArray:
  case ExprKind::Index:
    return true;
  case ExprKind::FieldAccess: {
    const auto &F = static_cast<const FieldAccessExpr &>(E);
    if (F.ResolvedField && F.ResolvedField->IsStatic)
      return exprMayRaise(*F.Base);
    return true; // Instance field or array length: nullcheck.
  }
  case ExprKind::Name: {
    const auto &N = static_cast<const NameExpr &>(E);
    return N.Resolution == NameResolution::FieldOfThis; // nullcheck(this)
  }
  case ExprKind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    return exprMayRaise(*U.Operand);
  }
  case ExprKind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    if ((B.Op == BinaryOp::Div || B.Op == BinaryOp::Rem) &&
        !B.Lhs->Ty->isDouble())
      return true;
    return exprMayRaise(*B.Lhs) || exprMayRaise(*B.Rhs);
  }
  case ExprKind::Assign: {
    const auto &A = static_cast<const AssignExpr &>(E);
    if ((A.Op == AssignExpr::OpKind::Div ||
         A.Op == AssignExpr::OpKind::Rem) &&
        !A.Target->Ty->isDouble())
      return true;
    return exprMayRaise(*A.Target) || exprMayRaise(*A.Value);
  }
  case ExprKind::Cast: {
    const auto &C = static_cast<const CastExpr &>(E);
    return C.Lowering == CastLowering::RefNarrow ||
           exprMayRaise(*C.Operand);
  }
  case ExprKind::Instanceof:
    return exprMayRaise(
        *static_cast<const InstanceofExpr &>(E).Operand);
  default:
    return false;
  }
}

bool stmtMayRaise(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Block:
    for (const StmtPtr &C : static_cast<const BlockStmt &>(S).Stmts)
      if (stmtMayRaise(*C))
        return true;
    return false;
  case StmtKind::VarDecl: {
    const auto &V = static_cast<const VarDeclStmt &>(S);
    return V.Init && exprMayRaise(*V.Init);
  }
  case StmtKind::Expr:
    return exprMayRaise(*static_cast<const ExprStmt &>(S).E);
  case StmtKind::If: {
    const auto &I = static_cast<const IfStmt &>(S);
    return exprMayRaise(*I.Cond) || stmtMayRaise(*I.Then) ||
           (I.Else && stmtMayRaise(*I.Else));
  }
  case StmtKind::While: {
    const auto &W = static_cast<const WhileStmt &>(S);
    return exprMayRaise(*W.Cond) || stmtMayRaise(*W.Body);
  }
  case StmtKind::DoWhile: {
    const auto &W = static_cast<const DoWhileStmt &>(S);
    return exprMayRaise(*W.Cond) || stmtMayRaise(*W.Body);
  }
  case StmtKind::For: {
    const auto &F = static_cast<const ForStmt &>(S);
    return (F.Init && stmtMayRaise(*F.Init)) ||
           (F.Cond && exprMayRaise(*F.Cond)) ||
           (F.Update && exprMayRaise(*F.Update)) || stmtMayRaise(*F.Body);
  }
  case StmtKind::Return: {
    const auto &R = static_cast<const ReturnStmt &>(S);
    return R.Value && exprMayRaise(*R.Value);
  }
  case StmtKind::Try:
    // Body exceptions are caught by the inner handler; only exceptions in
    // the handler itself escape to the enclosing context.
    return stmtMayRaise(*static_cast<const TryStmt &>(S).Handler);
  default:
    return false;
  }
}

void collectAssignedExpr(const Expr &E, LocalSet &Out) {
  switch (E.Kind) {
  case ExprKind::Assign: {
    const auto &A = static_cast<const AssignExpr &>(E);
    if (A.Target->Kind == ExprKind::Name) {
      const auto &N = static_cast<const NameExpr &>(*A.Target);
      if (N.Resolution == NameResolution::Local && N.ResolvedLocal)
        Out[N.ResolvedLocal->Index] = true;
    }
    collectAssignedExpr(*A.Target, Out);
    collectAssignedExpr(*A.Value, Out);
    break;
  }
  case ExprKind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    if (U.Op == UnaryOp::PreInc || U.Op == UnaryOp::PreDec ||
        U.Op == UnaryOp::PostInc || U.Op == UnaryOp::PostDec) {
      if (U.Operand->Kind == ExprKind::Name) {
        const auto &N = static_cast<const NameExpr &>(*U.Operand);
        if (N.Resolution == NameResolution::Local && N.ResolvedLocal)
          Out[N.ResolvedLocal->Index] = true;
      }
    }
    collectAssignedExpr(*U.Operand, Out);
    break;
  }
  case ExprKind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    collectAssignedExpr(*B.Lhs, Out);
    collectAssignedExpr(*B.Rhs, Out);
    break;
  }
  case ExprKind::FieldAccess:
    collectAssignedExpr(*static_cast<const FieldAccessExpr &>(E).Base, Out);
    break;
  case ExprKind::Index: {
    const auto &I = static_cast<const IndexExpr &>(E);
    collectAssignedExpr(*I.Base, Out);
    collectAssignedExpr(*I.Index, Out);
    break;
  }
  case ExprKind::Call: {
    const auto &C = static_cast<const CallExpr &>(E);
    if (C.Base)
      collectAssignedExpr(*C.Base, Out);
    for (const ExprPtr &A : C.Args)
      collectAssignedExpr(*A, Out);
    break;
  }
  case ExprKind::NewObject:
    for (const ExprPtr &A : static_cast<const NewObjectExpr &>(E).Args)
      collectAssignedExpr(*A, Out);
    break;
  case ExprKind::NewArray:
    collectAssignedExpr(*static_cast<const NewArrayExpr &>(E).Length, Out);
    break;
  case ExprKind::Cast:
    collectAssignedExpr(*static_cast<const CastExpr &>(E).Operand, Out);
    break;
  case ExprKind::Instanceof:
    collectAssignedExpr(*static_cast<const InstanceofExpr &>(E).Operand, Out);
    break;
  default:
    break;
  }
}

//===----------------------------------------------------------------------===//
// Per-method generator
//===----------------------------------------------------------------------===//

/// Reaching definitions are flat arrays indexed by LocalSymbol::Index:
/// slot I holds the current value of local I, or null where local I has
/// no definition on the path. Every walk over the slots runs in ascending
/// index, which fixes the order phis are created in, and so the encoding.
///
/// The arrays, and the other per-local tables below, come from this
/// module-wide store. Each has room for the most locals of any method in
/// the module; released arrays go on a free list, so generation allocates
/// only while its deepest nesting of live arrays grows.
class DefStore {
public:
  explicit DefStore(size_t Width) : Width(Width) {}

  Instruction **acquire() {
    if (Free.empty())
      return static_cast<Instruction **>(Arena.allocate(
          Width * sizeof(Instruction *), alignof(Instruction *)));
    Instruction **D = Free.back();
    Free.pop_back();
    return D;
  }
  void release(Instruction **D) { Free.push_back(D); }

  /// Locals assigned in the loop or try body being set up; read only
  /// before that body is generated, so one bit vector serves every loop.
  LocalSet Assigned;

private:
  size_t Width;
  BumpArena Arena;
  std::vector<Instruction **> Free;
};

struct LoopCtx {
  /// The header phi of each local, null where there is none.
  Instruction **HeaderPhis = nullptr;
  /// Position in MethodGen::BreakDefs of this loop's first break.
  size_t FirstBreak = 0;
  /// For-loop update expression: run before every back edge.
  const Expr *ForUpdate = nullptr;
  /// Do-while condition: test (and conditionally break) before continuing.
  const Expr *DoWhileCond = nullptr;
};

struct TryCtx {
  BasicBlock *CatchEntry = nullptr;
  /// The catch-entry phi of each local, null where there is none: one
  /// operand pushed per exception edge, mirroring the paper's "special
  /// exception-handling phi-node".
  Instruction **CatchPhis = nullptr;
  unsigned NumEdges = 0;
};

class MethodGen {
public:
  MethodGen(TypeContext &Types, ClassTable &Table, const MethodDecl &Decl,
            TSAModule &Module, const TSAGenOptions &Options, DefStore &Store)
      : Types(Types), Table(Table), Ctx{Types, Table}, Decl(Decl),
        Module(Module), Options(Options), Store(Store),
        NumLocals(Decl.Locals.size()) {}

  TSAMethod *run() {
    Defs = Store.acquire();
    std::fill_n(Defs, NumLocals, nullptr);
    M = Module.createMethod(Decl.Symbol);

    Entry = M->createBlock();
    M->append(M->Root, M->createBasicNode(Entry));

    // Preload `this` and the declared parameters (paper §5).
    bool IsInstance = !Decl.Symbol->IsStatic;
    if (IsInstance) {
      ThisVal = preloadParam(0, Types.getClass(Decl.Symbol->Owner));
      ThisType = Types.getClass(Decl.Symbol->Owner);
    }
    unsigned Shift = IsInstance ? 1 : 0;
    for (size_t I = 0; I != Decl.Params.size(); ++I) {
      Instruction *P = preloadParam(static_cast<unsigned>(I) + Shift,
                                    Decl.Symbol->ParamTys[I]);
      Defs[Decl.Params[I].Symbol->Index] = P;
    }

    CurSeq = &M->Root;
    Reach = true;
    startBlock();
    genStmts(Decl.Body->Stmts);

    if (Reach) {
      assert(Decl.Symbol->RetTy->isVoid() &&
             "sema guarantees non-void methods always return");
      CSTNode *Ret = M->createNode();
      Ret->K = CSTNode::Kind::Return;
      M->append(*CurSeq, Ret);
    }
    Store.release(Defs);
    return M;
  }

private:
  TypeContext &Types;
  ClassTable &Table;
  PlaneContext Ctx;
  const MethodDecl &Decl;
  TSAModule &Module;
  const TSAGenOptions &Options;
  DefStore &Store;
  size_t NumLocals;

  TSAMethod *M = nullptr;
  BasicBlock *Entry = nullptr;
  CSTSeq *CurSeq = nullptr;
  BasicBlock *CurBlock = nullptr;
  bool Reach = true;

  Instruction *ThisVal = nullptr;
  Type *ThisType = nullptr;
  /// The reaching definitions of the current path.
  Instruction **Defs = nullptr;
  /// Snapshots of Defs at each break of the enclosing loops; a loop's own
  /// breaks sit above its FirstBreak, in break order (== exit-block
  /// predecessor order after the decision block).
  std::vector<Instruction **> BreakDefs;
  std::vector<LoopCtx *> Loops;
  std::vector<TryCtx *> Tries;
  /// The CST node of the current block (for RaisesToCatch flagging).
  CSTNode *CurBasicNode = nullptr;
  /// This method's Const instructions, one per pool entry.
  std::vector<Instruction *> ConstPool;
  /// Operand lists being gathered (call arguments, phi inputs),
  /// innermost on top.
  std::vector<Instruction *> ArgStack;

  //===--------------------------------------------------------------------===//
  // Emission helpers
  //===--------------------------------------------------------------------===//

  Instruction *emit(Instruction *I) {
    assert(CurBlock && "no current block");
    Instruction *Raw = M->append(CurBlock, I);
    // The paper's exception translation (§7): inside a try region, every
    // potentially-raising instruction ends its subblock, the subblock is
    // flagged with an exception edge to the innermost handler, and the
    // handler's phis receive the reaching definitions at this point.
    if (Raw->mayRaise() && !Tries.empty()) {
      TryCtx &TC = *Tries.back();
      for (size_t Idx = 0; Idx != NumLocals; ++Idx)
        if (Instruction *Phi = TC.CatchPhis[Idx]) {
          assert(Defs[Idx] && "catch-phi local undefined at a raise");
          M->addOperand(Phi, Defs[Idx]);
        }
      ++TC.NumEdges;
      assert(CurBasicNode && CurBasicNode->BB == CurBlock &&
             "current CST node out of sync");
      CurBasicNode->RaisesToCatch = true;
      startBlock(); // Begin the next linked subblock.
    }
    return Raw;
  }

  Instruction *make(Opcode Op) { return M->createInst(Op); }

  Instruction *preloadParam(unsigned Index, Type *Ty) {
    auto I = make(Opcode::Param);
    I->ParamIndex = Index;
    I->OpType = Ty;
    return M->append(Entry, I);
  }

  /// Interns a constant in the entry block (the paper's constant pool).
  Instruction *getConst(ConstantValue C, Type *Ty) {
    for (Instruction *I : ConstPool)
      if (I->OpType == Ty && M->constant(*I) == C)
        return I;
    Instruction *Raw = M->append(Entry, M->createConst(C, Ty));
    ConstPool.push_back(Raw);
    return Raw;
  }

  Instruction *getIntConst(int64_t V) {
    return getConst(ConstantValue::makeInt(V), Types.getInt());
  }
  Instruction *getBoolConst(bool V) {
    return getConst(ConstantValue::makeBool(V), Types.getBoolean());
  }
  Instruction *getNullConst(Type *RefTy) {
    return getConst(ConstantValue::makeNull(), RefTy);
  }

  Instruction *defaultValue(Type *Ty) {
    if (Ty->isInt())
      return getIntConst(0);
    if (Ty->isDouble())
      return getConst(ConstantValue::makeDouble(0.0), Types.getDouble());
    if (Ty->isBoolean())
      return getBoolConst(false);
    if (Ty->isChar())
      return getConst(ConstantValue::makeChar('\0'), Types.getChar());
    return getNullConst(Ty);
  }

  Instruction *prim(PrimOp Op, std::initializer_list<Instruction *> Ops,
                    Type *Aux = nullptr) {
    auto I = make(primOpMayRaise(Op) ? Opcode::XPrimitive
                                     : Opcode::Primitive);
    I->Prim = Op;
    I->OpType = primOpOperandType(Op, Ctx);
    I->AuxType = Aux;
    M->setOperands(I, Ops);
    return emit(std::move(I));
  }

  Instruction *nullCheck(Instruction *Ref, Type *RefTy) {
    auto I = make(Opcode::NullCheck);
    I->OpType = RefTy;
    M->setOperands(I, {Ref});
    return emit(std::move(I));
  }

  /// Free plane conversion (downcast). No-op when source and target planes
  /// coincide.
  Instruction *downcast(Instruction *V, Type *From, bool FromSafe, Type *To,
                        bool ToSafe) {
    if (From == To && FromSafe == ToSafe)
      return V;
    auto I = make(Opcode::Downcast);
    I->OpType = To;
    I->AuxType = From;
    I->SrcSafe = FromSafe;
    I->DstSafe = ToSafe;
    M->setOperands(I, {V});
    return emit(std::move(I));
  }

  Instruction *toObjectPlane(Instruction *V, Type *From) {
    return downcast(V, From, false, Ctx.objectType(), false);
  }

  Instruction *makePhi(Type *Ty, std::span<Instruction *const> Ops,
                       BasicBlock *Block) {
    auto I = make(Opcode::Phi);
    I->OpType = Ty;
    M->setOperands(I, Ops);
    return M->append(Block, I);
  }

  void startBlock() {
    CurBlock = M->createBlock();
    auto Node = M->createBasicNode(CurBlock);
    CurBasicNode = Node;
    M->append(*CurSeq, Node);
  }

  //===--------------------------------------------------------------------===//
  // Merging
  //===--------------------------------------------------------------------===//

  Type *localType(size_t Index) const { return Decl.Locals[Index]->Ty; }

  /// A copy of Defs; give it back with Store.release.
  Instruction **snapshot() {
    Instruction **D = Store.acquire();
    std::copy_n(Defs, NumLocals, D);
    return D;
  }
  /// A table of NumLocals null slots; give it back with Store.release.
  Instruction **emptyTable() {
    Instruction **D = Store.acquire();
    std::fill_n(D, NumLocals, nullptr);
    return D;
  }
  void restore(Instruction *const *From) { std::copy_n(From, NumLocals, Defs); }

  /// Recomputes Store.Assigned as the locals \p S assigns.
  void collectAssigned(const Stmt &S) {
    Store.Assigned.assign(NumLocals, false);
    collectAssignedStmt(S, Store.Assigned);
  }

  /// Adds the current definitions as the back-edge operands of \p LC's
  /// header phis.
  void addBackEdge(const LoopCtx &LC) {
    for (size_t Idx = 0; Idx != NumLocals; ++Idx)
      if (Instruction *Phi = LC.HeaderPhis[Idx]) {
        assert(Defs[Idx] && "header-phi local undefined at a back edge");
        M->addOperand(Phi, Defs[Idx]);
      }
  }

  /// Merges reaching definitions from several predecessors (in predecessor
  /// order) into Defs, for the current (just-started) block. A local stays
  /// defined only where every predecessor defines it. With eager phis
  /// (paper-faithful single-pass construction) every merged variable gets
  /// a phi; otherwise only variables whose paths disagree do.
  void mergeDefs(std::span<Instruction **const> Incoming) {
    assert(!Incoming.empty() && "merging zero paths");
    if (Incoming.size() == 1) {
      restore(Incoming[0]);
      return;
    }
    for (size_t Idx = 0; Idx != NumLocals; ++Idx) {
      Instruction *First = Incoming[0][Idx];
      bool InAll = First != nullptr;
      bool Same = true;
      for (size_t K = 1; K < Incoming.size() && InAll; ++K) {
        InAll = Incoming[K][Idx] != nullptr;
        Same &= Incoming[K][Idx] == First;
      }
      if (!InAll) {
        Defs[Idx] = nullptr;
        continue;
      }
      if (Same && !Options.EagerPhis) {
        Defs[Idx] = First;
        continue;
      }
      size_t Mark = ArgStack.size();
      for (Instruction **In : Incoming)
        ArgStack.push_back(In[Idx]);
      Defs[Idx] = makePhi(localType(Idx),
                          std::span(ArgStack).subspan(Mark), CurBlock);
      ArgStack.resize(Mark);
    }
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void genStmts(ArenaArray<StmtPtr> Stmts) {
    for (const StmtPtr &S : Stmts) {
      if (!Reach)
        return; // Unreachable code after return/break/continue is dropped.
      genStmt(*S);
    }
  }

  /// Generates \p Body into \p Seq as a fresh sub-sequence; returns true
  /// when control can fall out the end. Restores the surrounding sequence
  /// and block.
  template <typename Fn> bool genArm(CSTSeq &Seq, Fn &&Body) {
    CSTSeq *SavedSeq = CurSeq;
    BasicBlock *SavedBlock = CurBlock;
    CSTNode *SavedNode = CurBasicNode;
    bool SavedReach = Reach;
    CurSeq = &Seq;
    Reach = true;
    startBlock();
    Body();
    bool Fell = Reach;
    CurSeq = SavedSeq;
    CurBlock = SavedBlock;
    CurBasicNode = SavedNode;
    Reach = SavedReach;
    return Fell;
  }

  void genStmt(const Stmt &S) {
    switch (S.Kind) {
    case StmtKind::Block:
      genStmts(static_cast<const BlockStmt &>(S).Stmts);
      return;
    case StmtKind::Empty:
      return;
    case StmtKind::VarDecl: {
      const auto &V = static_cast<const VarDeclStmt &>(S);
      Instruction *Init =
          V.Init ? genExpr(*V.Init) : defaultValue(V.Symbol->Ty);
      Defs[V.Symbol->Index] = Init;
      return;
    }
    case StmtKind::Expr:
      genExpr(*static_cast<const ExprStmt &>(S).E);
      return;
    case StmtKind::If:
      genIf(static_cast<const IfStmt &>(S));
      return;
    case StmtKind::While: {
      const auto &W = static_cast<const WhileStmt &>(S);
      genLoop(W.Cond, *W.Body, /*ForUpdate=*/nullptr,
              /*DoWhileCond=*/nullptr);
      return;
    }
    case StmtKind::For: {
      const auto &F = static_cast<const ForStmt &>(S);
      if (F.Init)
        genStmt(*F.Init);
      genLoop(F.Cond, *F.Body, F.Update, nullptr);
      return;
    }
    case StmtKind::DoWhile: {
      // do { B } while (c)  ==  while (true) { B; if (!c) break; }
      // with continue re-testing c first (handled in genContinue).
      const auto &W = static_cast<const DoWhileStmt &>(S);
      genLoop(nullptr, *W.Body, nullptr, W.Cond);
      return;
    }
    case StmtKind::Return: {
      const auto &R = static_cast<const ReturnStmt &>(S);
      CSTNode *Node = M->createNode();
      Node->K = CSTNode::Kind::Return;
      if (R.Value)
        Node->RetVal = genExpr(*R.Value);
      M->append(*CurSeq, Node);
      Reach = false;
      return;
    }
    case StmtKind::Break: {
      assert(!Loops.empty() && "sema guarantees break inside a loop");
      BreakDefs.push_back(snapshot());
      CSTNode *Node = M->createNode();
      Node->K = CSTNode::Kind::Break;
      M->append(*CurSeq, Node);
      Reach = false;
      return;
    }
    case StmtKind::Continue:
      genContinue();
      return;
    case StmtKind::Try:
      genTry(static_cast<const TryStmt &>(S));
      return;
    }
  }

  void genTry(const TryStmt &S) {
    // A try whose body cannot raise needs no handler at all.
    if (!stmtMayRaise(*S.Body)) {
      genStmt(*S.Body);
      return;
    }

    collectAssigned(*S.Body);

    TryCtx TC;
    TC.CatchEntry = M->createBlock();
    TC.CatchPhis = emptyTable();
    // The "special exception-handling phi-node[s]": one per variable that
    // is live at try entry and assigned in the body; each exception edge
    // contributes the definitions reaching its raise point.
    Instruction **Base = snapshot();
    for (size_t Idx = 0; Idx != NumLocals; ++Idx)
      if (Base[Idx] && Store.Assigned[Idx])
        TC.CatchPhis[Idx] = makePhi(localType(Idx), {}, TC.CatchEntry);

    CSTNode *Node = M->createNode();
    Node->K = CSTNode::Kind::Try;

    Tries.push_back(&TC);
    bool BodyFell = genArm(Node->Then, [&] { genStmt(*S.Body); });
    Tries.pop_back();

    if (TC.NumEdges == 0) {
      // All potential raisers turned out unreachable: drop the handler
      // and splice the body into the enclosing sequence.
      M->Blocks.erase(std::find(M->Blocks.begin(), M->Blocks.end(),
                                TC.CatchEntry) -
                      M->Blocks.begin());
      for (CSTNode *Child : Node->Then)
        M->append(*CurSeq, Child);
      if (!Node->Then.empty()) {
        // Restore the current-block notion to the body's trailing block.
        for (size_t K = CurSeq->size(); K-- > 0;)
          if ((*CurSeq)[K]->K == CSTNode::Kind::Basic) {
            CurBlock = (*CurSeq)[K]->BB;
            CurBasicNode = (*CurSeq)[K];
            break;
          }
      }
      Reach = BodyFell;
      Store.release(Base);
      Store.release(TC.CatchPhis);
      return;
    }
    Instruction **BodyDefs = snapshot();

    // Handler: starts in the pre-created catch-entry block, with the
    // catch phis as the reaching definitions of body-assigned variables.
    restore(Base);
    for (size_t Idx = 0; Idx != NumLocals; ++Idx)
      if (TC.CatchPhis[Idx])
        Defs[Idx] = TC.CatchPhis[Idx];
    bool CatchFell;
    {
      CSTSeq *SavedSeq = CurSeq;
      BasicBlock *SavedBlock = CurBlock;
      CSTNode *SavedNode = CurBasicNode;
      bool SavedReach = Reach;
      CurSeq = &Node->Else;
      Reach = true;
      auto EntryNode = M->createBasicNode(TC.CatchEntry);
      CurBasicNode = EntryNode;
      CurBlock = TC.CatchEntry;
      M->append(*CurSeq, EntryNode);
      genStmt(*S.Handler);
      CatchFell = Reach;
      CurSeq = SavedSeq;
      CurBlock = SavedBlock;
      CurBasicNode = SavedNode;
      Reach = SavedReach;
    }

    M->append(*CurSeq, Node);

    if (!BodyFell && !CatchFell) {
      Reach = false;
    } else {
      startBlock(); // Join; predecessor order: body exit, then handler exit.
      Instruction **CatchDefs = snapshot();
      Instruction **Incoming[2];
      size_t N = 0;
      if (BodyFell)
        Incoming[N++] = BodyDefs;
      if (CatchFell)
        Incoming[N++] = CatchDefs;
      mergeDefs({Incoming, N});
      Store.release(CatchDefs);
    }
    Store.release(Base);
    Store.release(TC.CatchPhis);
    Store.release(BodyDefs);
  }

  /// Generates the two arms of a structured if, each from the definitions
  /// reaching the branch, and merges the arms that fall through into
  /// Defs. Returns false (with Reach cleared) when neither arm falls
  /// through; otherwise the join block is current.
  template <typename ThenFn, typename ElseFn>
  bool genArms(CSTNode *Node, ThenFn &&GenThen, ElseFn &&GenElse,
               bool HasElse) {
    Instruction **Base = snapshot();
    bool ThenFell = genArm(Node->Then, GenThen);
    Instruction **ThenDefs = snapshot();
    restore(Base);

    bool ElseFell = true;
    Instruction **ElseDefs = Base;
    if (HasElse) {
      ElseFell = genArm(Node->Else, GenElse);
      ElseDefs = snapshot();
      restore(Base);
    }

    M->append(*CurSeq, Node);

    bool Fell = ThenFell || ElseFell;
    if (!Fell) {
      Reach = false;
    } else {
      startBlock(); // Join; predecessors: then-exit (if any), else-exit.
      Instruction **Incoming[2];
      size_t N = 0;
      if (ThenFell)
        Incoming[N++] = ThenDefs;
      if (ElseFell)
        Incoming[N++] = ElseDefs;
      mergeDefs({Incoming, N});
    }
    if (ElseDefs != Base)
      Store.release(ElseDefs);
    Store.release(ThenDefs);
    Store.release(Base);
    return Fell;
  }

  void genIf(const IfStmt &S) {
    Instruction *CondV = genExpr(*S.Cond);
    CSTNode *Node = M->createNode();
    Node->K = CSTNode::Kind::If;
    Node->Cond = CondV;
    genArms(
        Node, [&] { genStmt(*S.Then); },
        [&] {
          if (S.Else)
            genStmt(*S.Else);
        },
        S.Else != nullptr);
  }

  /// Shared structured-loop generation. \p Cond may be null (infinite /
  /// do-while loop => constant true). \p ForUpdate runs before each back
  /// edge; \p DoWhileCond turns the body tail and continues into
  /// "if (!c) break".
  void genLoop(const Expr *Cond, const Stmt &Body, const Expr *ForUpdate,
               const Expr *DoWhileCond) {
    // Pruned mode places header phis only for variables the loop assigns.
    if (!Options.EagerPhis) {
      collectAssigned(Body);
      if (Cond)
        collectAssignedExpr(*Cond, Store.Assigned);
      if (ForUpdate)
        collectAssignedExpr(*ForUpdate, Store.Assigned);
      if (DoWhileCond)
        collectAssignedExpr(*DoWhileCond, Store.Assigned);
    }

    CSTNode *Node = M->createNode();
    Node->K = CSTNode::Kind::Loop;

    LoopCtx LC;
    LC.ForUpdate = ForUpdate;
    LC.DoWhileCond = DoWhileCond;
    LC.HeaderPhis = emptyTable();
    LC.FirstBreak = BreakDefs.size();

    // Header: create phis for live variables, with the preheader
    // definition as first operand. Eager mode (paper-faithful single-pass
    // construction) creates one for *every* live variable; the superfluous
    // ones become trivial and are exactly what the paper's DCE pass
    // removes. Pruned mode restricts to variables assigned in the loop.
    genArm(Node->Header, [&] {
      for (size_t Idx = 0; Idx != NumLocals; ++Idx) {
        Instruction *Def = Defs[Idx];
        if (!Def || (!Options.EagerPhis && !Store.Assigned[Idx]))
          continue;
        Instruction *Phi = makePhi(localType(Idx), {&Def, 1}, CurBlock);
        Defs[Idx] = Phi;
        LC.HeaderPhis[Idx] = Phi;
      }
      Node->Cond = Cond ? genExpr(*Cond) : getBoolConst(true);
    });
    // genArm does not restore Defs, by intent: the header phis become the
    // reaching definitions both inside and after the loop.
    Instruction **AtDecision = snapshot();

    Loops.push_back(&LC);
    bool BodyFell = genArm(Node->Body, [&] {
      genStmt(Body);
      if (Reach && DoWhileCond)
        genCondBreak(*DoWhileCond);
      if (Reach && ForUpdate)
        genExpr(*ForUpdate);
    });
    if (BodyFell)
      addBackEdge(LC);
    Loops.pop_back();

    M->append(*CurSeq, Node);

    // Exit block: predecessors are the decision block then each break.
    startBlock();
    BreakDefs.insert(BreakDefs.begin() + LC.FirstBreak, AtDecision);
    std::span<Instruction **const> Incoming =
        std::span(BreakDefs).subspan(LC.FirstBreak);
    mergeDefs(Incoming);
    for (Instruction **D : Incoming)
      Store.release(D);
    BreakDefs.resize(LC.FirstBreak);
    Store.release(LC.HeaderPhis);
  }

  /// Emits "if (!c) break;" — the do-while tail.
  void genCondBreak(const Expr &Cond) {
    Instruction *CondV = genExpr(Cond);
    Instruction *NotV = prim(PrimOp::NotB, {CondV});
    CSTNode *Node = M->createNode();
    Node->K = CSTNode::Kind::If;
    Node->Cond = NotV;
    genArm(Node->Then, [&] {
      assert(!Loops.empty());
      BreakDefs.push_back(snapshot());
      CSTNode *Brk = M->createNode();
      Brk->K = CSTNode::Kind::Break;
      M->append(*CurSeq, Brk);
      Reach = false;
    });
    M->append(*CurSeq, Node);
    startBlock(); // Join: single fall-through predecessor (the decision
                  // block); definitions are unchanged.
  }

  void genContinue() {
    assert(!Loops.empty() && "sema guarantees continue inside a loop");
    LoopCtx &LC = *Loops.back();
    // For-loops run their update before the back edge; do-whiles re-test
    // the condition (both may assign variables).
    if (LC.ForUpdate)
      genExpr(*LC.ForUpdate);
    if (LC.DoWhileCond)
      genCondBreak(*LC.DoWhileCond);
    if (!Reach)
      return;
    addBackEdge(LC);
    CSTNode *Node = M->createNode();
    Node->K = CSTNode::Kind::Continue;
    M->append(*CurSeq, Node);
    Reach = false;
  }

  //===--------------------------------------------------------------------===//
  // L-values
  //===--------------------------------------------------------------------===//

  struct LValue {
    enum class Kind : uint8_t { Local, Field, Elt, Static } K;
    unsigned LocalIdx = 0;
    FieldSymbol *F = nullptr;
    Instruction *SafeObj = nullptr;
    Instruction *SafeIdx = nullptr;
    Type *ObjType = nullptr; // Static type used as the access OpType.
  };

  LValue genLValue(const Expr &Target) {
    LValue LV;
    switch (Target.Kind) {
    case ExprKind::Name: {
      const auto &N = static_cast<const NameExpr &>(Target);
      switch (N.Resolution) {
      case NameResolution::Local:
        LV.K = LValue::Kind::Local;
        LV.LocalIdx = N.ResolvedLocal->Index;
        return LV;
      case NameResolution::FieldOfThis:
        LV.K = LValue::Kind::Field;
        LV.F = N.ResolvedField;
        LV.ObjType = ThisType;
        LV.SafeObj = nullCheck(ThisVal, ThisType);
        return LV;
      case NameResolution::StaticField:
        LV.K = LValue::Kind::Static;
        LV.F = N.ResolvedField;
        return LV;
      default:
        break;
      }
      assert(false && "unresolved name in codegen");
      return LV;
    }
    case ExprKind::FieldAccess: {
      const auto &F = static_cast<const FieldAccessExpr &>(Target);
      assert(!F.IsArrayLength && "length is not assignable");
      if (F.ResolvedField->IsStatic) {
        LV.K = LValue::Kind::Static;
        LV.F = F.ResolvedField;
        return LV;
      }
      Instruction *Obj = genExpr(*F.Base);
      LV.K = LValue::Kind::Field;
      LV.F = F.ResolvedField;
      LV.ObjType = F.Base->Ty;
      LV.SafeObj = nullCheck(Obj, LV.ObjType);
      return LV;
    }
    case ExprKind::Index: {
      const auto &I = static_cast<const IndexExpr &>(Target);
      Instruction *Arr = genExpr(*I.Base);
      Type *ArrTy = I.Base->Ty;
      Instruction *SafeArr = nullCheck(Arr, ArrTy);
      Instruction *Idx = genExpr(*I.Index);
      auto Check = make(Opcode::IndexCheck);
      Check->OpType = ArrTy;
      M->setOperands(Check, {SafeArr, Idx});
      LV.K = LValue::Kind::Elt;
      LV.ObjType = ArrTy;
      LV.SafeObj = SafeArr;
      LV.SafeIdx = emit(std::move(Check));
      return LV;
    }
    default:
      assert(false && "expression is not an l-value");
      return LV;
    }
  }

  Instruction *loadLValue(const LValue &LV) {
    switch (LV.K) {
    case LValue::Kind::Local:
      assert(Defs[LV.LocalIdx] && "use of undefined local");
      return Defs[LV.LocalIdx];
    case LValue::Kind::Field: {
      auto I = make(Opcode::GetField);
      I->OpType = LV.ObjType;
      I->Field = LV.F;
      M->setOperands(I, {LV.SafeObj});
      return emit(std::move(I));
    }
    case LValue::Kind::Elt: {
      auto I = make(Opcode::GetElt);
      I->OpType = LV.ObjType;
      M->setOperands(I, {LV.SafeObj, LV.SafeIdx});
      return emit(std::move(I));
    }
    case LValue::Kind::Static: {
      auto I = make(Opcode::GetStatic);
      I->OpType = Types.getClass(LV.F->Owner);
      I->Field = LV.F;
      return emit(std::move(I));
    }
    }
    return nullptr;
  }

  void storeLValue(const LValue &LV, Instruction *V) {
    switch (LV.K) {
    case LValue::Kind::Local:
      Defs[LV.LocalIdx] = V;
      return;
    case LValue::Kind::Field: {
      auto I = make(Opcode::SetField);
      I->OpType = LV.ObjType;
      I->Field = LV.F;
      M->setOperands(I, {LV.SafeObj, V});
      emit(std::move(I));
      return;
    }
    case LValue::Kind::Elt: {
      auto I = make(Opcode::SetElt);
      I->OpType = LV.ObjType;
      M->setOperands(I, {LV.SafeObj, LV.SafeIdx, V});
      emit(std::move(I));
      return;
    }
    case LValue::Kind::Static: {
      auto I = make(Opcode::SetStatic);
      I->OpType = Types.getClass(LV.F->Owner);
      I->Field = LV.F;
      M->setOperands(I, {V});
      emit(std::move(I));
      return;
    }
    }
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  /// Generates a structured value merge: if (CondV) GenThen else GenElse,
  /// producing a phi of the two results in the join block. Used for the
  /// short-circuit lowering of && and || (paper footnote 3).
  Instruction *genIfValue(Instruction *CondV,
                          const std::function<Instruction *()> &GenThen,
                          const std::function<Instruction *()> &GenElse,
                          Type *Ty) {
    CSTNode *Node = M->createNode();
    Node->K = CSTNode::Kind::If;
    Node->Cond = CondV;

    Instruction *ThenV = nullptr, *ElseV = nullptr;
    genArms(
        Node, [&] { ThenV = GenThen(); }, [&] { ElseV = GenElse(); },
        /*HasElse=*/true);
    if (ThenV == ElseV)
      return ThenV;
    Instruction *Ops[] = {ThenV, ElseV};
    return makePhi(Ty, Ops, CurBlock);
  }

  Instruction *genExpr(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::IntLiteral:
      return getIntConst(static_cast<const IntLiteralExpr &>(E).Value);
    case ExprKind::DoubleLiteral:
      return getConst(ConstantValue::makeDouble(
                          static_cast<const DoubleLiteralExpr &>(E).Value),
                      Types.getDouble());
    case ExprKind::BoolLiteral:
      return getBoolConst(static_cast<const BoolLiteralExpr &>(E).Value);
    case ExprKind::CharLiteral:
      return getConst(ConstantValue::makeChar(
                          static_cast<const CharLiteralExpr &>(E).Value),
                      Types.getChar());
    case ExprKind::StringLiteral:
      return getConst(ConstantValue::makeString(
                          static_cast<const StringLiteralExpr &>(E).Value),
                      Types.getArray(Types.getChar()));
    case ExprKind::NullLiteral:
      return getNullConst(Ctx.objectType());
    case ExprKind::This:
      assert(ThisVal && "'this' in static context");
      return ThisVal;
    case ExprKind::Name:
    case ExprKind::FieldAccess: {
      // Array length is a read-only pseudo field.
      if (E.Kind == ExprKind::FieldAccess) {
        const auto &F = static_cast<const FieldAccessExpr &>(E);
        if (F.IsArrayLength) {
          Instruction *Arr = genExpr(*F.Base);
          Instruction *Safe = nullCheck(Arr, F.Base->Ty);
          auto I = make(Opcode::ArrayLength);
          I->OpType = F.Base->Ty;
          M->setOperands(I, {Safe});
          return emit(std::move(I));
        }
      }
      LValue LV = genLValue(E);
      return loadLValue(LV);
    }
    case ExprKind::Index: {
      LValue LV = genLValue(E);
      return loadLValue(LV);
    }
    case ExprKind::Call:
      return genCall(static_cast<const CallExpr &>(E));
    case ExprKind::NewObject:
      return genNewObject(static_cast<const NewObjectExpr &>(E));
    case ExprKind::NewArray: {
      const auto &N = static_cast<const NewArrayExpr &>(E);
      Instruction *Len = genExpr(*N.Length);
      auto I = make(Opcode::NewArray);
      I->OpType = E.Ty;
      M->setOperands(I, {Len});
      return emit(std::move(I));
    }
    case ExprKind::Unary:
      return genUnary(static_cast<const UnaryExpr &>(E));
    case ExprKind::Binary:
      return genBinary(static_cast<const BinaryExpr &>(E));
    case ExprKind::Assign:
      return genAssign(static_cast<const AssignExpr &>(E));
    case ExprKind::Cast:
      return genCast(static_cast<const CastExpr &>(E));
    case ExprKind::Instanceof: {
      const auto &I = static_cast<const InstanceofExpr &>(E);
      Instruction *V = genExpr(*I.Operand);
      V = toObjectPlane(V, valueType(*I.Operand));
      return prim(PrimOp::InstanceOf, {V}, I.ResolvedTarget);
    }
    }
    return nullptr;
  }

  /// The plane type a generated expression value lives on. Null literals
  /// are materialized on the Object plane.
  Type *valueType(const Expr &E) {
    if (E.Ty->isNull())
      return Ctx.objectType();
    return E.Ty;
  }

  Instruction *genUnary(const UnaryExpr &E) {
    switch (E.Op) {
    case UnaryOp::Neg: {
      Instruction *V = genExpr(*E.Operand);
      return prim(E.Operand->Ty->isDouble() ? PrimOp::NegD : PrimOp::NegI,
                  {V});
    }
    case UnaryOp::Not:
      return prim(PrimOp::NotB, {genExpr(*E.Operand)});
    case UnaryOp::BitNot:
      return prim(PrimOp::NotI, {genExpr(*E.Operand)});
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec: {
      bool IsInc = E.Op == UnaryOp::PreInc || E.Op == UnaryOp::PostInc;
      bool IsPost = E.Op == UnaryOp::PostInc || E.Op == UnaryOp::PostDec;
      LValue LV = genLValue(*E.Operand);
      Instruction *Old = loadLValue(LV);
      Type *Ty = E.Operand->Ty;
      Instruction *NewV = nullptr;
      if (Ty->isDouble()) {
        Instruction *One =
            getConst(ConstantValue::makeDouble(1.0), Types.getDouble());
        NewV = prim(IsInc ? PrimOp::AddD : PrimOp::SubD, {Old, One});
      } else if (Ty->isChar()) {
        Instruction *AsInt = prim(PrimOp::CharToInt, {Old});
        Instruction *Stepped = prim(IsInc ? PrimOp::AddI : PrimOp::SubI,
                                    {AsInt, getIntConst(1)});
        NewV = prim(PrimOp::IntToChar, {Stepped});
      } else {
        NewV = prim(IsInc ? PrimOp::AddI : PrimOp::SubI,
                    {Old, getIntConst(1)});
      }
      storeLValue(LV, NewV);
      return IsPost ? Old : NewV;
    }
    }
    return nullptr;
  }

  Instruction *genBinary(const BinaryExpr &E) {
    switch (E.Op) {
    case BinaryOp::LAnd: {
      Instruction *L = genExpr(*E.Lhs);
      return genIfValue(
          L, [&] { return genExpr(*E.Rhs); },
          [&] { return getBoolConst(false); }, Types.getBoolean());
    }
    case BinaryOp::LOr: {
      Instruction *L = genExpr(*E.Lhs);
      return genIfValue(
          L, [&] { return getBoolConst(true); },
          [&] { return genExpr(*E.Rhs); }, Types.getBoolean());
    }
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      Type *LTy = E.Lhs->Ty;
      if (LTy->isRef() || E.Rhs->Ty->isRef()) {
        Instruction *L = toObjectPlane(genExpr(*E.Lhs), valueType(*E.Lhs));
        Instruction *R = toObjectPlane(genExpr(*E.Rhs), valueType(*E.Rhs));
        return prim(E.Op == BinaryOp::Eq ? PrimOp::CmpEqR : PrimOp::CmpNeR,
                    {L, R});
      }
      if (LTy->isBoolean()) {
        Instruction *L = genExpr(*E.Lhs);
        Instruction *R = genExpr(*E.Rhs);
        return prim(E.Op == BinaryOp::Eq ? PrimOp::CmpEqB : PrimOp::CmpNeB,
                    {L, R});
      }
      break; // Numeric: fall through to the arithmetic path.
    }
    default:
      break;
    }
    Instruction *L = genExpr(*E.Lhs);
    Instruction *R = genExpr(*E.Rhs);
    bool IsDouble = E.Lhs->Ty->isDouble();
    return prim(binaryPrimOp(E.Op, IsDouble), {L, R});
  }

  Instruction *genAssign(const AssignExpr &E) {
    LValue LV = genLValue(*E.Target);
    if (E.Op == AssignExpr::OpKind::None) {
      Instruction *V = genExpr(*E.Value);
      storeLValue(LV, V);
      return V;
    }
    Instruction *Old = loadLValue(LV);
    Instruction *Rhs = genExpr(*E.Value);
    bool IsDouble = E.Target->Ty->isDouble();
    BinaryOp Op;
    switch (E.Op) {
    case AssignExpr::OpKind::Add:
      Op = BinaryOp::Add;
      break;
    case AssignExpr::OpKind::Sub:
      Op = BinaryOp::Sub;
      break;
    case AssignExpr::OpKind::Mul:
      Op = BinaryOp::Mul;
      break;
    case AssignExpr::OpKind::Div:
      Op = BinaryOp::Div;
      break;
    default:
      Op = BinaryOp::Rem;
      break;
    }
    Instruction *NewV = prim(binaryPrimOp(Op, IsDouble), {Old, Rhs});
    storeLValue(LV, NewV);
    return NewV;
  }

  Instruction *genCast(const CastExpr &E) {
    switch (E.Lowering) {
    case CastLowering::Identity:
      return genExpr(*E.Operand);
    case CastLowering::IntToDouble: {
      Instruction *V = genExpr(*E.Operand);
      if (E.Operand->Ty->isChar())
        V = prim(PrimOp::CharToInt, {V});
      return prim(PrimOp::IntToDouble, {V});
    }
    case CastLowering::CharToInt: {
      Instruction *V = genExpr(*E.Operand);
      return E.Operand->Ty->isChar() ? prim(PrimOp::CharToInt, {V}) : V;
    }
    case CastLowering::DoubleToInt:
      return prim(PrimOp::DoubleToInt, {genExpr(*E.Operand)});
    case CastLowering::IntToChar: {
      Instruction *V = genExpr(*E.Operand);
      if (E.Operand->Ty->isChar())
        return V;
      return prim(PrimOp::IntToChar, {V});
    }
    case CastLowering::DoubleToChar: {
      Instruction *V = prim(PrimOp::DoubleToInt, {genExpr(*E.Operand)});
      return prim(PrimOp::IntToChar, {V});
    }
    case CastLowering::RefWiden: {
      // Null literals are materialized directly on the target plane.
      if (E.Operand->Ty->isNull())
        return getNullConst(E.Ty);
      Instruction *V = genExpr(*E.Operand);
      return downcast(V, E.Operand->Ty, false, E.Ty, false);
    }
    case CastLowering::RefNarrow: {
      Instruction *V = genExpr(*E.Operand);
      V = toObjectPlane(V, valueType(*E.Operand));
      auto I = make(Opcode::Upcast);
      I->OpType = E.Ty;
      I->AuxType = Ctx.objectType();
      M->setOperands(I, {V});
      return emit(std::move(I));
    }
    }
    return nullptr;
  }

  /// Generates \p Args onto ArgStack; returns the position of the first.
  size_t genArgs(ArenaArray<ExprPtr> Args) {
    size_t Mark = ArgStack.size();
    for (const ExprPtr &A : Args) {
      Instruction *V = genExpr(*A);
      ArgStack.push_back(V);
    }
    return Mark;
  }

  /// Sets \p I's operands to \p First (when given) and the arguments
  /// from ArgStack[Mark] on, and pops those arguments.
  void takeArgs(Instruction *I, Instruction *First, size_t Mark) {
    size_t N = ArgStack.size() - Mark + (First ? 1 : 0);
    I->Operands = M->arena().allocArray<Instruction *>(N);
    Instruction **Out = I->Operands.begin();
    if (First)
      *Out++ = First;
    std::copy(ArgStack.begin() + Mark, ArgStack.end(), Out);
    ArgStack.resize(Mark);
  }

  Instruction *genCall(const CallExpr &E) {
    size_t Args = genArgs(E.Args);

    MethodSymbol *Callee = E.ResolvedMethod;
    assert(Callee && "unresolved call in codegen");

    if (E.Dispatch == DispatchKind::Static) {
      auto I = make(Opcode::Call);
      I->Method = Callee;
      takeArgs(I, nullptr, Args);
      return emit(std::move(I));
    }

    // Virtual dispatch: null-check the receiver at its static type (so the
    // certificate is shared with field accesses via CSE), then erase to
    // the method owner's safe plane.
    Instruction *Recv;
    Type *RecvTy;
    if (E.Base) {
      Recv = genExpr(*E.Base);
      RecvTy = E.Base->Ty;
    } else {
      assert(E.ImplicitThis && ThisVal);
      Recv = ThisVal;
      RecvTy = ThisType;
    }
    Instruction *Safe = nullCheck(Recv, RecvTy);
    Type *OwnerTy = Types.getClass(Callee->Owner);
    Safe = downcast(Safe, RecvTy, true, OwnerTy, true);

    auto I = make(Opcode::Dispatch);
    I->Method = Callee;
    takeArgs(I, Safe, Args);
    return emit(std::move(I));
  }

  Instruction *genNewObject(const NewObjectExpr &E) {
    size_t Args = genArgs(E.Args);

    auto NewI = make(Opcode::New);
    NewI->OpType = E.Ty;
    Instruction *Obj = emit(std::move(NewI));

    // Run instance-field initializers, root class first. (MJ semantics:
    // field initializers run at allocation, before the constructor body;
    // there are no explicit super() calls.)
    std::vector<ClassSymbol *> Chain;
    for (ClassSymbol *C = E.ResolvedClass; C && !C->IsBuiltin; C = C->Super)
      Chain.push_back(C);
    std::reverse(Chain.begin(), Chain.end());

    Instruction *SavedThis = ThisVal;
    Type *SavedThisType = ThisType;
    ThisVal = Obj;
    ThisType = E.Ty;
    for (ClassSymbol *C : Chain) {
      if (!C->Decl)
        continue;
      for (const FieldDecl &F : C->Decl->Fields) {
        if (F.IsStatic || !F.Init)
          continue;
        Instruction *V = genExpr(*F.Init);
        Instruction *Safe = nullCheck(Obj, E.Ty);
        auto Store = make(Opcode::SetField);
        Store->OpType = E.Ty;
        Store->Field = F.Symbol;
        M->setOperands(Store, {Safe, V});
        emit(std::move(Store));
      }
    }
    ThisVal = SavedThis;
    ThisType = SavedThisType;

    if (E.ResolvedCtor) {
      auto CallI = make(Opcode::Call);
      CallI->Method = E.ResolvedCtor;
      takeArgs(CallI, Obj, Args);
      emit(std::move(CallI));
    } else {
      ArgStack.resize(Args);
    }
    return Obj;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Module generation
//===----------------------------------------------------------------------===//

std::unique_ptr<TSAModule> TSAGenerator::generate(const Program &P) {
  auto Module = std::make_unique<TSAModule>();
  Module->Table = &Table;
  Module->Types = &Types;

  size_t NumBodies = 0, MaxLocals = 0;
  for (const auto &Class : P.Classes)
    for (const auto &Method : Class->Methods)
      if (Method->Symbol && Method->Body) {
        ++NumBodies;
        MaxLocals = std::max(MaxLocals, Method->Locals.size());
      }
  Module->Methods.reserve(NumBodies);
  DefStore Store(MaxLocals);

  for (const auto &Class : P.Classes) {
    if (!Class->Symbol)
      continue;
    for (const FieldDecl &F : Class->Fields) {
      ConstantValue Init;
      if (F.IsStatic && F.Init && F.Symbol) {
        bool Folded = foldStaticInit(*F.Init, Init);
        assert(Folded && "compileMJ diagnoses initializers that raise");
        if (Folded)
          Module->addStaticInit(F.Symbol, Init);
      }
    }
    for (const auto &Method : Class->Methods) {
      if (!Method->Symbol || !Method->Body)
        continue;
      MethodGen Gen(Types, Table, *Method, *Module, Options, Store);
      Gen.run();
    }
  }

  PlaneContext Ctx{Types, Table};
  for (TSAMethod *M : Module->Methods) {
    M->deriveCFG(&Ctx.CFG);
    M->finalize(Ctx);
  }
  return Module;
}
