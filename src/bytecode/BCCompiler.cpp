//===- bytecode/BCCompiler.cpp --------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bytecode/BCCompiler.h"

#include "tsa/ConstFold.h"

#include <unordered_map>

using namespace safetsa;

namespace {

/// Pool builder with interning.
class PoolBuilder {
public:
  explicit PoolBuilder(BCModule &M) : M(M) {
    M.Pool.emplace_back(); // Reserved entry 0.
    M.PoolMethods.push_back(nullptr);
    M.PoolFields.push_back(nullptr);
    M.PoolTypes.push_back(nullptr);
  }

  uint16_t utf8(std::string_view View) {
    std::string S(View);
    auto It = Utf8Cache.find(S);
    if (It != Utf8Cache.end())
      return It->second;
    PoolEntry E;
    E.K = PoolEntry::Kind::Utf8;
    E.Str = S;
    uint16_t Idx = push(E, nullptr, nullptr, nullptr);
    Utf8Cache.emplace(S, Idx);
    return Idx;
  }

  uint16_t intConst(int32_t V) {
    auto It = IntCache.find(V);
    if (It != IntCache.end())
      return It->second;
    PoolEntry E;
    E.K = PoolEntry::Kind::Int;
    E.IntVal = V;
    uint16_t Idx = push(E, nullptr, nullptr, nullptr);
    IntCache.emplace(V, Idx);
    return Idx;
  }

  uint16_t dblConst(double V) {
    for (uint16_t I = 1; I < M.Pool.size(); ++I)
      if (M.Pool[I].K == PoolEntry::Kind::Double && M.Pool[I].DblVal == V)
        return I;
    PoolEntry E;
    E.K = PoolEntry::Kind::Double;
    E.DblVal = V;
    return push(E, nullptr, nullptr, nullptr);
  }

  uint16_t strChars(const std::string &S) {
    uint16_t U = utf8(S);
    for (uint16_t I = 1; I < M.Pool.size(); ++I)
      if (M.Pool[I].K == PoolEntry::Kind::StrChars && M.Pool[I].Index == U)
        return I;
    PoolEntry E;
    E.K = PoolEntry::Kind::StrChars;
    E.Index = U;
    return push(E, nullptr, nullptr, nullptr);
  }

  uint16_t classRef(std::string_view Name, Type *Resolved) {
    uint16_t U = utf8(Name);
    auto It = ClassCache.find(U);
    if (It != ClassCache.end())
      return It->second;
    PoolEntry E;
    E.K = PoolEntry::Kind::Class;
    E.Index = U;
    uint16_t Idx = push(E, nullptr, nullptr, Resolved);
    ClassCache.emplace(U, Idx);
    return Idx;
  }

  /// Class entry for an arbitrary (possibly array) type, keyed by its
  /// descriptor-ish name.
  uint16_t typeRef(Type *Ty) {
    return classRef(typeDescriptor(Ty), Ty);
  }

  uint16_t fieldRef(FieldSymbol *F) {
    auto It = FieldCache.find(F);
    if (It != FieldCache.end())
      return It->second;
    PoolEntry E;
    E.K = PoolEntry::Kind::FieldRef;
    E.ClassIndex = classRef(F->Owner->Name, nullptr);
    E.NameIndex = utf8(F->Name);
    E.DescIndex = utf8(typeDescriptor(F->Ty));
    uint16_t Idx = push(E, nullptr, F, nullptr);
    FieldCache.emplace(F, Idx);
    return Idx;
  }

  uint16_t methodRef(MethodSymbol *Mth) {
    auto It = MethodCache.find(Mth);
    if (It != MethodCache.end())
      return It->second;
    std::string Desc = "(";
    for (Type *T : Mth->ParamTys)
      Desc += typeDescriptor(T);
    Desc += ")" + typeDescriptor(Mth->RetTy);
    PoolEntry E;
    E.K = PoolEntry::Kind::MethodRef;
    E.ClassIndex = classRef(Mth->Owner->Name, nullptr);
    E.NameIndex =
        utf8(Mth->IsConstructor ? std::string_view("<init>") : Mth->Name);
    E.DescIndex = utf8(Desc);
    uint16_t Idx = push(E, Mth, nullptr, nullptr);
    MethodCache.emplace(Mth, Idx);
    return Idx;
  }

private:
  uint16_t push(PoolEntry E, MethodSymbol *MS, FieldSymbol *FS, Type *Ty) {
    M.Pool.push_back(std::move(E));
    M.PoolMethods.push_back(MS);
    M.PoolFields.push_back(FS);
    M.PoolTypes.push_back(Ty);
    return static_cast<uint16_t>(M.Pool.size() - 1);
  }

  BCModule &M;
  std::unordered_map<std::string, uint16_t> Utf8Cache;
  std::unordered_map<int32_t, uint16_t> IntCache;
  std::unordered_map<uint16_t, uint16_t> ClassCache;
  std::unordered_map<const FieldSymbol *, uint16_t> FieldCache;
  std::unordered_map<const MethodSymbol *, uint16_t> MethodCache;
};

/// Per-method code generator.
class CodeGen {
public:
  CodeGen(TypeContext &Types, PoolBuilder &Pool, const MethodDecl &Decl,
          ClassSymbol *Class)
      : Types(Types), Pool(Pool), Decl(Decl), Class(Class) {}

  BCMethod run() {
    BCMethod Out;
    Out.Symbol = Decl.Symbol;
    bool IsInstance = !Decl.Symbol->IsStatic;
    Shift = IsInstance ? 1 : 0;
    NextTemp = static_cast<uint16_t>(Decl.Locals.size()) + Shift;
    MaxLocals = NextTemp;

    compileStmt(*Decl.Body);
    if (Decl.Symbol->RetTy->isVoid())
      emit(BC::Return, 0);

    Out.Flags = (Decl.Symbol->IsStatic ? 1 : 0) |
                (Decl.Symbol->IsConstructor ? 2 : 0);
    Out.MaxStack = MaxStack;
    Out.MaxLocals = MaxLocals;
    Out.Code = std::move(Code);
    Out.ExTable = std::move(ExTable);
    return Out;
  }

private:
  TypeContext &Types;
  PoolBuilder &Pool;
  const MethodDecl &Decl;
  ClassSymbol *Class;

  std::vector<uint8_t> Code;
  int CurStack = 0;
  uint16_t MaxStack = 0;
  uint16_t MaxLocals = 0;
  uint16_t NextTemp = 0;
  unsigned Shift = 0;

  struct Label {
    int Pos = -1;
    std::vector<size_t> Patches;
  };

  struct LoopLabels {
    Label *BreakL;
    Label *ContinueL;
  };
  std::vector<LoopLabels> Loops;
  std::vector<BCMethod::ExEntry> ExTable;

  //===--------------------------------------------------------------------===//
  // Emission
  //===--------------------------------------------------------------------===//

  void adjust(int Delta) {
    CurStack += Delta;
    assert(CurStack >= 0 && "operand stack underflow in compiler");
    if (CurStack > MaxStack)
      MaxStack = static_cast<uint16_t>(CurStack);
  }

  void emit(BC Op, int Delta) {
    Code.push_back(static_cast<uint8_t>(Op));
    adjust(Delta);
  }

  void emitU8(BC Op, uint8_t A, int Delta) {
    Code.push_back(static_cast<uint8_t>(Op));
    Code.push_back(A);
    adjust(Delta);
  }

  void emitU16(BC Op, uint16_t A, int Delta) {
    Code.push_back(static_cast<uint8_t>(Op));
    Code.push_back(static_cast<uint8_t>(A >> 8));
    Code.push_back(static_cast<uint8_t>(A & 0xff));
    adjust(Delta);
  }

  void emitIInc(uint8_t Slot, int8_t Delta) {
    Code.push_back(static_cast<uint8_t>(BC::IInc));
    Code.push_back(Slot);
    Code.push_back(static_cast<uint8_t>(Delta));
  }

  void bind(Label &L) {
    assert(L.Pos < 0 && "label bound twice");
    L.Pos = static_cast<int>(Code.size());
    for (size_t PatchAt : L.Patches) {
      int16_t Off = static_cast<int16_t>(L.Pos - (static_cast<int>(PatchAt) - 1));
      Code[PatchAt] = static_cast<uint8_t>(Off >> 8);
      Code[PatchAt + 1] = static_cast<uint8_t>(Off & 0xff);
    }
    L.Patches.clear();
  }

  void branch(BC Op, Label &L, int Delta) {
    size_t OpPos = Code.size();
    Code.push_back(static_cast<uint8_t>(Op));
    if (L.Pos >= 0) {
      int16_t Off = static_cast<int16_t>(L.Pos - static_cast<int>(OpPos));
      Code.push_back(static_cast<uint8_t>(Off >> 8));
      Code.push_back(static_cast<uint8_t>(Off & 0xff));
    } else {
      L.Patches.push_back(Code.size());
      Code.push_back(0);
      Code.push_back(0);
    }
    adjust(Delta);
  }

  uint16_t allocTemp() {
    uint16_t T = NextTemp++;
    if (NextTemp > MaxLocals)
      MaxLocals = NextTemp;
    return T;
  }

  /// Slot+1 holding `this` while compiling a field initializer at a `new`
  /// site (0 = no override, use local 0).
  uint16_t ThisSlotOverride = 0;

  void emitLoadThis() {
    if (ThisSlotOverride)
      emitU8(BC::ALoad, static_cast<uint8_t>(ThisSlotOverride - 1), +1);
    else
      emitU8(BC::ALoad, 0, +1);
  }

  //===--------------------------------------------------------------------===//
  // Typed helpers
  //===--------------------------------------------------------------------===//

  static bool isIntLike(const Type *Ty) {
    return Ty->isInt() || Ty->isBoolean() || Ty->isChar();
  }

  void emitLoadLocal(unsigned Slot, const Type *Ty) {
    BC Op = Ty->isDouble() ? BC::DLoad : Ty->isRef() ? BC::ALoad : BC::ILoad;
    emitU8(Op, static_cast<uint8_t>(Slot), +1);
  }

  void emitStoreLocal(unsigned Slot, const Type *Ty) {
    BC Op = Ty->isDouble() ? BC::DStore
                           : Ty->isRef() ? BC::AStore : BC::IStore;
    emitU8(Op, static_cast<uint8_t>(Slot), -1);
  }

  void emitIntConst(int32_t V) {
    if (V == 0)
      emit(BC::IConst0, +1);
    else if (V == 1)
      emit(BC::IConst1, +1);
    else if (V >= -128 && V <= 127)
      emitU8(BC::BIPush, static_cast<uint8_t>(V), +1);
    else if (V >= -32768 && V <= 32767)
      emitU16(BC::SIPush, static_cast<uint16_t>(V), +1);
    else
      emitU16(BC::Ldc, Pool.intConst(V), +1);
  }

  BC arrayLoadOp(const Type *Elem) {
    if (Elem->isDouble())
      return BC::DALoad;
    if (Elem->isChar())
      return BC::CALoad;
    if (Elem->isBoolean())
      return BC::BALoad;
    if (Elem->isInt())
      return BC::IALoad;
    return BC::AALoad;
  }

  BC arrayStoreOp(const Type *Elem) {
    if (Elem->isDouble())
      return BC::DAStore;
    if (Elem->isChar())
      return BC::CAStore;
    if (Elem->isBoolean())
      return BC::BAStore;
    if (Elem->isInt())
      return BC::IAStore;
    return BC::AAStore;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void compileStmt(const Stmt &S) {
    switch (S.Kind) {
    case StmtKind::Block:
      for (const StmtPtr &C : static_cast<const BlockStmt &>(S).Stmts)
        compileStmt(*C);
      return;
    case StmtKind::Empty:
      return;
    case StmtKind::VarDecl: {
      const auto &V = static_cast<const VarDeclStmt &>(S);
      if (V.Init)
        compileExpr(*V.Init);
      else
        compileDefault(V.Symbol->Ty);
      emitStoreLocal(V.Symbol->Index + Shift, V.Symbol->Ty);
      return;
    }
    case StmtKind::Expr:
      compileExprStmt(*static_cast<const ExprStmt &>(S).E);
      return;
    case StmtKind::If: {
      const auto &I = static_cast<const IfStmt &>(S);
      Label ElseL, EndL;
      compileCond(*I.Cond, ElseL, /*JumpIfTrue=*/false);
      compileStmt(*I.Then);
      if (I.Else) {
        branch(BC::Goto, EndL, 0);
        bind(ElseL);
        compileStmt(*I.Else);
        bind(EndL);
      } else {
        bind(ElseL);
      }
      return;
    }
    case StmtKind::While: {
      const auto &W = static_cast<const WhileStmt &>(S);
      Label StartL, ExitL;
      bind(StartL);
      compileCond(*W.Cond, ExitL, false);
      Loops.push_back({&ExitL, &StartL});
      compileStmt(*W.Body);
      Loops.pop_back();
      branch(BC::Goto, StartL, 0);
      bind(ExitL);
      return;
    }
    case StmtKind::DoWhile: {
      const auto &W = static_cast<const DoWhileStmt &>(S);
      Label StartL, CondL, ExitL;
      bind(StartL);
      Loops.push_back({&ExitL, &CondL});
      compileStmt(*W.Body);
      Loops.pop_back();
      bind(CondL);
      compileCond(*W.Cond, StartL, true);
      bind(ExitL);
      return;
    }
    case StmtKind::For: {
      const auto &F = static_cast<const ForStmt &>(S);
      if (F.Init)
        compileStmt(*F.Init);
      Label StartL, UpdateL, ExitL;
      bind(StartL);
      if (F.Cond)
        compileCond(*F.Cond, ExitL, false);
      Loops.push_back({&ExitL, &UpdateL});
      compileStmt(*F.Body);
      Loops.pop_back();
      bind(UpdateL);
      if (F.Update)
        compileExprStmt(*F.Update);
      branch(BC::Goto, StartL, 0);
      bind(ExitL);
      return;
    }
    case StmtKind::Return: {
      const auto &R = static_cast<const ReturnStmt &>(S);
      if (R.Value) {
        compileExpr(*R.Value);
        Type *Ty = Decl.Symbol->RetTy;
        emit(Ty->isDouble() ? BC::DReturn
                            : Ty->isRef() ? BC::AReturn : BC::IReturn,
             -1);
      } else {
        emit(BC::Return, 0);
      }
      return;
    }
    case StmtKind::Break:
      branch(BC::Goto, *Loops.back().BreakL, 0);
      return;
    case StmtKind::Continue:
      branch(BC::Goto, *Loops.back().ContinueL, 0);
      return;
    case StmtKind::Try: {
      const auto &T = static_cast<const TryStmt &>(S);
      uint16_t Start = static_cast<uint16_t>(Code.size());
      compileStmt(*T.Body);
      uint16_t End = static_cast<uint16_t>(Code.size());
      Label EndL;
      branch(BC::Goto, EndL, 0);
      uint16_t Handler = static_cast<uint16_t>(Code.size());
      compileStmt(*T.Handler);
      bind(EndL);
      // Entries for inner trys were appended while compiling the body, so
      // the table is ordered innermost-first; the interpreter takes the
      // first covering entry. An empty range (body emitted no code) would
      // cover nothing, so only record real ranges.
      if (End > Start)
        ExTable.push_back({Start, End, Handler});
      return;
    }
    }
  }

  void compileDefault(const Type *Ty) {
    if (Ty->isDouble())
      emitU16(BC::Ldc, Pool.dblConst(0.0), +1);
    else if (Ty->isRef())
      emit(BC::AConstNull, +1);
    else
      emit(BC::IConst0, +1);
  }

  /// Expression in statement position: avoid materializing unused results
  /// (javac-style).
  void compileExprStmt(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::Assign:
      compileAssign(static_cast<const AssignExpr &>(E), /*NeedValue=*/false);
      return;
    case ExprKind::Unary: {
      const auto &U = static_cast<const UnaryExpr &>(E);
      if (U.Op == UnaryOp::PreInc || U.Op == UnaryOp::PreDec ||
          U.Op == UnaryOp::PostInc || U.Op == UnaryOp::PostDec) {
        compileIncDec(U, /*NeedValue=*/false);
        return;
      }
      break;
    }
    case ExprKind::Call: {
      const auto &C = static_cast<const CallExpr &>(E);
      compileExpr(E);
      if (C.ResolvedMethod && !C.ResolvedMethod->RetTy->isVoid())
        emit(BC::Pop, -1);
      return;
    }
    default:
      break;
    }
    compileExpr(E);
    if (!E.Ty->isVoid())
      emit(BC::Pop, -1);
  }

  //===--------------------------------------------------------------------===//
  // Conditions (branch compilation, javac-style)
  //===--------------------------------------------------------------------===//

  void compileCond(const Expr &E, Label &Target, bool JumpIfTrue) {
    switch (E.Kind) {
    case ExprKind::BoolLiteral: {
      if (static_cast<const BoolLiteralExpr &>(E).Value == JumpIfTrue)
        branch(BC::Goto, Target, 0);
      return;
    }
    case ExprKind::Unary: {
      const auto &U = static_cast<const UnaryExpr &>(E);
      if (U.Op == UnaryOp::Not) {
        compileCond(*U.Operand, Target, !JumpIfTrue);
        return;
      }
      break;
    }
    case ExprKind::Binary: {
      const auto &B = static_cast<const BinaryExpr &>(E);
      switch (B.Op) {
      case BinaryOp::LAnd:
        if (JumpIfTrue) {
          Label FalseL;
          compileCond(*B.Lhs, FalseL, false);
          compileCond(*B.Rhs, Target, true);
          bind(FalseL);
        } else {
          compileCond(*B.Lhs, Target, false);
          compileCond(*B.Rhs, Target, false);
        }
        return;
      case BinaryOp::LOr:
        if (JumpIfTrue) {
          compileCond(*B.Lhs, Target, true);
          compileCond(*B.Rhs, Target, true);
        } else {
          Label TrueL;
          compileCond(*B.Lhs, TrueL, true);
          compileCond(*B.Rhs, Target, false);
          bind(TrueL);
        }
        return;
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge:
      case BinaryOp::Eq:
      case BinaryOp::Ne:
        compileCompare(B, Target, JumpIfTrue);
        return;
      default:
        break;
      }
      break;
    }
    default:
      break;
    }
    // Generic boolean value.
    compileExpr(E);
    branch(JumpIfTrue ? BC::IfNe : BC::IfEq, Target, -1);
  }

  void compileCompare(const BinaryExpr &B, Label &Target, bool JumpIfTrue) {
    Type *LTy = B.Lhs->Ty;
    bool RefCmp = LTy->isRef() || B.Rhs->Ty->isRef();
    bool DblCmp = LTy->isDouble();

    BinaryOp Op = B.Op;
    if (!JumpIfTrue) {
      switch (Op) {
      case BinaryOp::Lt:
        Op = BinaryOp::Ge;
        break;
      case BinaryOp::Le:
        Op = BinaryOp::Gt;
        break;
      case BinaryOp::Gt:
        Op = BinaryOp::Le;
        break;
      case BinaryOp::Ge:
        Op = BinaryOp::Lt;
        break;
      case BinaryOp::Eq:
        Op = BinaryOp::Ne;
        break;
      case BinaryOp::Ne:
        Op = BinaryOp::Eq;
        break;
      default:
        break;
      }
    }

    if (RefCmp) {
      // x == null uses the dedicated null branches.
      bool LhsNull = B.Lhs->Ty->isNull();
      bool RhsNull = B.Rhs->Ty->isNull();
      if (LhsNull || RhsNull) {
        compileExpr(LhsNull ? *B.Rhs : *B.Lhs);
        branch(Op == BinaryOp::Eq ? BC::IfNull : BC::IfNonNull, Target, -1);
        return;
      }
      compileExpr(*B.Lhs);
      compileExpr(*B.Rhs);
      branch(Op == BinaryOp::Eq ? BC::IfACmpEq : BC::IfACmpNe, Target, -2);
      return;
    }

    if (DblCmp) {
      compileExpr(*B.Lhs);
      compileExpr(*B.Rhs);
      // Like javac: dcmpg for < / <= and dcmpl for > / >=, chosen by the
      // ORIGINAL operator (not the branch-negated one), so that every
      // comparison involving NaN is false on both branch polarities.
      bool UseG = B.Op == BinaryOp::Lt || B.Op == BinaryOp::Le;
      emit(UseG ? BC::DCmpG : BC::DCmpL, -1);
      BC Br;
      switch (Op) {
      case BinaryOp::Lt:
        Br = BC::IfLt;
        break;
      case BinaryOp::Le:
        Br = BC::IfLe;
        break;
      case BinaryOp::Gt:
        Br = BC::IfGt;
        break;
      case BinaryOp::Ge:
        Br = BC::IfGe;
        break;
      case BinaryOp::Eq:
        Br = BC::IfEq;
        break;
      default:
        Br = BC::IfNe;
        break;
      }
      branch(Br, Target, -1);
      return;
    }

    // Integer-like (ints, chars, booleans).
    // Compare against zero uses the one-operand branches.
    auto IsZero = [](const Expr &E) {
      return E.Kind == ExprKind::IntLiteral &&
             static_cast<const IntLiteralExpr &>(E).Value == 0;
    };
    if (IsZero(*B.Rhs)) {
      compileExpr(*B.Lhs);
      BC Br;
      switch (Op) {
      case BinaryOp::Lt:
        Br = BC::IfLt;
        break;
      case BinaryOp::Le:
        Br = BC::IfLe;
        break;
      case BinaryOp::Gt:
        Br = BC::IfGt;
        break;
      case BinaryOp::Ge:
        Br = BC::IfGe;
        break;
      case BinaryOp::Eq:
        Br = BC::IfEq;
        break;
      default:
        Br = BC::IfNe;
        break;
      }
      branch(Br, Target, -1);
      return;
    }
    compileExpr(*B.Lhs);
    compileExpr(*B.Rhs);
    BC Br;
    switch (Op) {
    case BinaryOp::Lt:
      Br = BC::IfICmpLt;
      break;
    case BinaryOp::Le:
      Br = BC::IfICmpLe;
      break;
    case BinaryOp::Gt:
      Br = BC::IfICmpGt;
      break;
    case BinaryOp::Ge:
      Br = BC::IfICmpGe;
      break;
    case BinaryOp::Eq:
      Br = BC::IfICmpEq;
      break;
    default:
      Br = BC::IfICmpNe;
      break;
    }
    branch(Br, Target, -2);
  }

  /// Boolean expression as a stack value: branch + push 0/1.
  void condToValue(const Expr &E) {
    Label TrueL, EndL;
    compileCond(E, TrueL, true);
    emit(BC::IConst0, +1);
    branch(BC::Goto, EndL, 0);
    // The iconst path and the true path both end with one value; keep the
    // tracker consistent across the join.
    adjust(-1);
    bind(TrueL);
    emit(BC::IConst1, +1);
    bind(EndL);
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  void compileExpr(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::IntLiteral:
      emitIntConst(
          static_cast<int32_t>(static_cast<const IntLiteralExpr &>(E).Value));
      return;
    case ExprKind::DoubleLiteral:
      emitU16(BC::Ldc,
              Pool.dblConst(static_cast<const DoubleLiteralExpr &>(E).Value),
              +1);
      return;
    case ExprKind::BoolLiteral:
      emit(static_cast<const BoolLiteralExpr &>(E).Value ? BC::IConst1
                                                         : BC::IConst0,
           +1);
      return;
    case ExprKind::CharLiteral:
      emitIntConst(static_cast<unsigned char>(
          static_cast<const CharLiteralExpr &>(E).Value));
      return;
    case ExprKind::StringLiteral:
      emitU16(BC::Ldc,
              Pool.strChars(std::string(
                  static_cast<const StringLiteralExpr &>(E).Value)),
              +1);
      return;
    case ExprKind::NullLiteral:
      emit(BC::AConstNull, +1);
      return;
    case ExprKind::This:
      emitLoadThis();
      return;
    case ExprKind::Name: {
      const auto &N = static_cast<const NameExpr &>(E);
      switch (N.Resolution) {
      case NameResolution::Local:
        emitLoadLocal(N.ResolvedLocal->Index + Shift, N.ResolvedLocal->Ty);
        return;
      case NameResolution::FieldOfThis:
        emitLoadThis();
        emitU16(BC::GetField, Pool.fieldRef(N.ResolvedField), 0);
        return;
      case NameResolution::StaticField:
        emitU16(BC::GetStatic, Pool.fieldRef(N.ResolvedField), +1);
        return;
      default:
        assert(false && "unresolved name");
        return;
      }
    }
    case ExprKind::FieldAccess: {
      const auto &F = static_cast<const FieldAccessExpr &>(E);
      if (F.IsArrayLength) {
        compileExpr(*F.Base);
        emit(BC::ArrayLength, 0);
        return;
      }
      if (F.ResolvedField->IsStatic) {
        emitU16(BC::GetStatic, Pool.fieldRef(F.ResolvedField), +1);
        return;
      }
      compileExpr(*F.Base);
      emitU16(BC::GetField, Pool.fieldRef(F.ResolvedField), 0);
      return;
    }
    case ExprKind::Index: {
      const auto &I = static_cast<const IndexExpr &>(E);
      compileExpr(*I.Base);
      compileExpr(*I.Index);
      emit(arrayLoadOp(E.Ty), -1);
      return;
    }
    case ExprKind::Call:
      compileCall(static_cast<const CallExpr &>(E));
      return;
    case ExprKind::NewObject:
      compileNewObject(static_cast<const NewObjectExpr &>(E));
      return;
    case ExprKind::NewArray: {
      const auto &N = static_cast<const NewArrayExpr &>(E);
      compileExpr(*N.Length);
      emitU16(BC::NewArray, Pool.typeRef(E.Ty->getElemType()), 0);
      return;
    }
    case ExprKind::Unary:
      compileUnary(static_cast<const UnaryExpr &>(E));
      return;
    case ExprKind::Binary:
      compileBinary(static_cast<const BinaryExpr &>(E));
      return;
    case ExprKind::Assign:
      compileAssign(static_cast<const AssignExpr &>(E), /*NeedValue=*/true);
      return;
    case ExprKind::Cast:
      compileCast(static_cast<const CastExpr &>(E));
      return;
    case ExprKind::Instanceof: {
      const auto &I = static_cast<const InstanceofExpr &>(E);
      compileExpr(*I.Operand);
      emitU16(BC::InstanceOf, Pool.typeRef(I.ResolvedTarget), 0);
      return;
    }
    }
  }

  void compileUnary(const UnaryExpr &U) {
    switch (U.Op) {
    case UnaryOp::Neg:
      compileExpr(*U.Operand);
      emit(U.Operand->Ty->isDouble() ? BC::DNeg : BC::INeg, 0);
      return;
    case UnaryOp::Not:
      condToValue(U);
      return;
    case UnaryOp::BitNot:
      compileExpr(*U.Operand);
      emitIntConst(-1);
      emit(BC::IXor, -1);
      return;
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec:
      compileIncDec(U, /*NeedValue=*/true);
      return;
    }
  }

  void compileIncDec(const UnaryExpr &U, bool NeedValue) {
    bool IsInc = U.Op == UnaryOp::PreInc || U.Op == UnaryOp::PostInc;
    bool IsPost = U.Op == UnaryOp::PostInc || U.Op == UnaryOp::PostDec;
    const Expr &T = *U.Operand;
    Type *Ty = T.Ty;

    // Fast path: int local -> iinc.
    if (T.Kind == ExprKind::Name && Ty->isInt()) {
      const auto &N = static_cast<const NameExpr &>(T);
      if (N.Resolution == NameResolution::Local) {
        unsigned Slot = N.ResolvedLocal->Index + Shift;
        if (NeedValue && IsPost)
          emitLoadLocal(Slot, Ty);
        emitIInc(static_cast<uint8_t>(Slot), IsInc ? 1 : -1);
        if (NeedValue && !IsPost)
          emitLoadLocal(Slot, Ty);
        return;
      }
    }

    auto EmitDelta = [&] {
      if (Ty->isDouble()) {
        emitU16(BC::Ldc, Pool.dblConst(1.0), +1);
        emit(IsInc ? BC::DAdd : BC::DSub, -1);
      } else {
        emit(BC::IConst1, +1);
        emit(IsInc ? BC::IAdd : BC::ISub, -1);
        if (Ty->isChar())
          emit(BC::I2C, 0);
      }
    };

    switch (T.Kind) {
    case ExprKind::Name: { // Local (non-int) or field of this / static.
      const auto &N = static_cast<const NameExpr &>(T);
      if (N.Resolution == NameResolution::Local) {
        unsigned Slot = N.ResolvedLocal->Index + Shift;
        emitLoadLocal(Slot, Ty);
        if (NeedValue && IsPost)
          emit(BC::Dup, +1);
        EmitDelta();
        if (NeedValue && !IsPost)
          emit(BC::Dup, +1);
        emitStoreLocal(Slot, Ty);
        return;
      }
      if (N.Resolution == NameResolution::StaticField) {
        emitU16(BC::GetStatic, Pool.fieldRef(N.ResolvedField), +1);
        if (NeedValue && IsPost)
          emit(BC::Dup, +1);
        EmitDelta();
        if (NeedValue && !IsPost)
          emit(BC::Dup, +1);
        emitU16(BC::PutStatic, Pool.fieldRef(N.ResolvedField), -1);
        return;
      }
      // Field of this.
      emitLoadThis();
      emit(BC::Dup, +1);
      emitU16(BC::GetField, Pool.fieldRef(N.ResolvedField), 0);
      if (NeedValue && IsPost)
        emit(BC::DupX1, +1);
      EmitDelta();
      if (NeedValue && !IsPost)
        emit(BC::DupX1, +1);
      emitU16(BC::PutField, Pool.fieldRef(N.ResolvedField), -2);
      return;
    }
    case ExprKind::FieldAccess: {
      const auto &FA = static_cast<const FieldAccessExpr &>(T);
      if (FA.ResolvedField->IsStatic) {
        emitU16(BC::GetStatic, Pool.fieldRef(FA.ResolvedField), +1);
        if (NeedValue && IsPost)
          emit(BC::Dup, +1);
        EmitDelta();
        if (NeedValue && !IsPost)
          emit(BC::Dup, +1);
        emitU16(BC::PutStatic, Pool.fieldRef(FA.ResolvedField), -1);
        return;
      }
      compileExpr(*FA.Base);
      emit(BC::Dup, +1);
      emitU16(BC::GetField, Pool.fieldRef(FA.ResolvedField), 0);
      if (NeedValue && IsPost)
        emit(BC::DupX1, +1);
      EmitDelta();
      if (NeedValue && !IsPost)
        emit(BC::DupX1, +1);
      emitU16(BC::PutField, Pool.fieldRef(FA.ResolvedField), -2);
      return;
    }
    case ExprKind::Index: {
      const auto &IX = static_cast<const IndexExpr &>(T);
      compileExpr(*IX.Base);
      compileExpr(*IX.Index);
      emit(BC::Dup2, +2);
      emit(arrayLoadOp(Ty), -1);
      if (NeedValue && IsPost)
        emit(BC::DupX2, +1);
      EmitDelta();
      if (NeedValue && !IsPost)
        emit(BC::DupX2, +1);
      emit(arrayStoreOp(Ty), -3);
      return;
    }
    default:
      assert(false && "bad inc/dec target");
    }
  }

  void compileBinary(const BinaryExpr &B) {
    switch (B.Op) {
    case BinaryOp::LAnd:
    case BinaryOp::LOr:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      condToValue(B);
      return;
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      condToValue(B);
      return;
    default:
      break;
    }
    compileExpr(*B.Lhs);
    compileExpr(*B.Rhs);
    bool Dbl = B.Lhs->Ty->isDouble();
    switch (B.Op) {
    case BinaryOp::Add:
      emit(Dbl ? BC::DAdd : BC::IAdd, -1);
      return;
    case BinaryOp::Sub:
      emit(Dbl ? BC::DSub : BC::ISub, -1);
      return;
    case BinaryOp::Mul:
      emit(Dbl ? BC::DMul : BC::IMul, -1);
      return;
    case BinaryOp::Div:
      emit(Dbl ? BC::DDiv : BC::IDiv, -1);
      return;
    case BinaryOp::Rem:
      emit(BC::IRem, -1);
      return;
    case BinaryOp::BitAnd:
      emit(BC::IAnd, -1);
      return;
    case BinaryOp::BitOr:
      emit(BC::IOr, -1);
      return;
    case BinaryOp::BitXor:
      emit(BC::IXor, -1);
      return;
    case BinaryOp::Shl:
      emit(BC::IShl, -1);
      return;
    case BinaryOp::Shr:
      emit(BC::IShr, -1);
      return;
    default:
      assert(false && "handled above");
      return;
    }
  }

  void compileCast(const CastExpr &C) {
    compileExpr(*C.Operand);
    switch (C.Lowering) {
    case CastLowering::Identity:
    case CastLowering::CharToInt: // Chars are ints on the stack.
    case CastLowering::RefWiden:
      return;
    case CastLowering::IntToDouble:
      emit(BC::I2D, 0);
      return;
    case CastLowering::DoubleToInt:
      emit(BC::D2I, 0);
      return;
    case CastLowering::IntToChar:
      emit(BC::I2C, 0);
      return;
    case CastLowering::DoubleToChar:
      emit(BC::D2I, 0);
      emit(BC::I2C, 0);
      return;
    case CastLowering::RefNarrow:
      emitU16(BC::CheckCast, Pool.typeRef(C.Ty), 0);
      return;
    }
  }

  void compileCall(const CallExpr &C) {
    MethodSymbol *M = C.ResolvedMethod;
    int RetSlots = M->RetTy->isVoid() ? 0 : 1;
    if (C.Dispatch == DispatchKind::Static) {
      for (const ExprPtr &A : C.Args)
        compileExpr(*A);
      emitU16(BC::InvokeStatic, Pool.methodRef(M),
              RetSlots - static_cast<int>(C.Args.size()));
      return;
    }
    if (C.Base)
      compileExpr(*C.Base);
    else
      emitLoadThis();
    for (const ExprPtr &A : C.Args)
      compileExpr(*A);
    emitU16(BC::InvokeVirtual, Pool.methodRef(M),
            RetSlots - 1 - static_cast<int>(C.Args.size()));
  }

  void compileNewObject(const NewObjectExpr &N) {
    emitU16(BC::New, Pool.classRef(N.ResolvedClass->Name,
                                   Types.getClass(N.ResolvedClass)),
            +1);
    // Run instance-field initializers root-first (MJ allocation
    // semantics); the object is parked in a compiler temp so initializer
    // expressions can address it.
    bool HasInits = false;
    for (ClassSymbol *C = N.ResolvedClass; C && !C->IsBuiltin; C = C->Super)
      if (C->Decl)
        for (const FieldDecl &F : C->Decl->Fields)
          if (!F.IsStatic && F.Init)
            HasInits = true;

    if (HasInits) {
      uint16_t Temp = allocTemp();
      emitU8(BC::AStore, static_cast<uint8_t>(Temp), -1);
      std::vector<ClassSymbol *> Chain;
      for (ClassSymbol *C = N.ResolvedClass; C && !C->IsBuiltin;
           C = C->Super)
        Chain.push_back(C);
      for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
        ClassSymbol *C = *It;
        if (!C->Decl)
          continue;
        for (const FieldDecl &F : C->Decl->Fields) {
          if (F.IsStatic || !F.Init)
            continue;
          emitU8(BC::ALoad, static_cast<uint8_t>(Temp), +1);
          // Field initializers may reference `this` fields: compile with
          // `this` rebound to the temp slot.
          uint16_t SavedThis = ThisSlotOverride;
          ThisSlotOverride = Temp + 1; // +1 so 0 means "no override".
          compileExpr(*F.Init);
          ThisSlotOverride = SavedThis;
          emitU16(BC::PutField, Pool.fieldRef(F.Symbol), -2);
        }
      }
      emitU8(BC::ALoad, static_cast<uint8_t>(Temp), +1);
    }

    if (N.ResolvedCtor) {
      emit(BC::Dup, +1);
      for (const ExprPtr &A : N.Args)
        compileExpr(*A);
      emitU16(BC::InvokeSpecial, Pool.methodRef(N.ResolvedCtor),
              -1 - static_cast<int>(N.Args.size()));
    }
  }

  void compileAssign(const AssignExpr &A, bool NeedValue) {
    const Expr &T = *A.Target;

    auto CompileRhs = [&](bool LoadOldFirst) {
      // For compound assignment the old value is already on the stack when
      // this is called (LoadOldFirst true).
      compileExpr(*A.Value);
      if (!LoadOldFirst)
        return;
      bool Dbl = T.Ty->isDouble();
      switch (A.Op) {
      case AssignExpr::OpKind::Add:
        emit(Dbl ? BC::DAdd : BC::IAdd, -1);
        break;
      case AssignExpr::OpKind::Sub:
        emit(Dbl ? BC::DSub : BC::ISub, -1);
        break;
      case AssignExpr::OpKind::Mul:
        emit(Dbl ? BC::DMul : BC::IMul, -1);
        break;
      case AssignExpr::OpKind::Div:
        emit(Dbl ? BC::DDiv : BC::IDiv, -1);
        break;
      case AssignExpr::OpKind::Rem:
        emit(BC::IRem, -1);
        break;
      case AssignExpr::OpKind::None:
        break;
      }
    };
    bool Compound = A.Op != AssignExpr::OpKind::None;

    switch (T.Kind) {
    case ExprKind::Name: {
      const auto &N = static_cast<const NameExpr &>(T);
      if (N.Resolution == NameResolution::Local) {
        unsigned Slot = N.ResolvedLocal->Index + Shift;
        if (Compound)
          emitLoadLocal(Slot, T.Ty);
        CompileRhs(Compound);
        if (NeedValue)
          emit(BC::Dup, +1);
        emitStoreLocal(Slot, T.Ty);
        return;
      }
      if (N.Resolution == NameResolution::StaticField) {
        if (Compound)
          emitU16(BC::GetStatic, Pool.fieldRef(N.ResolvedField), +1);
        CompileRhs(Compound);
        if (NeedValue)
          emit(BC::Dup, +1);
        emitU16(BC::PutStatic, Pool.fieldRef(N.ResolvedField), -1);
        return;
      }
      // Instance field of this.
      emitLoadThis();
      if (Compound) {
        emit(BC::Dup, +1);
        emitU16(BC::GetField, Pool.fieldRef(N.ResolvedField), 0);
      }
      CompileRhs(Compound);
      if (NeedValue)
        emit(BC::DupX1, +1);
      emitU16(BC::PutField, Pool.fieldRef(N.ResolvedField), -2);
      return;
    }
    case ExprKind::FieldAccess: {
      const auto &FA = static_cast<const FieldAccessExpr &>(T);
      if (FA.ResolvedField->IsStatic) {
        if (Compound)
          emitU16(BC::GetStatic, Pool.fieldRef(FA.ResolvedField), +1);
        CompileRhs(Compound);
        if (NeedValue)
          emit(BC::Dup, +1);
        emitU16(BC::PutStatic, Pool.fieldRef(FA.ResolvedField), -1);
        return;
      }
      compileExpr(*FA.Base);
      if (Compound) {
        emit(BC::Dup, +1);
        emitU16(BC::GetField, Pool.fieldRef(FA.ResolvedField), 0);
      }
      CompileRhs(Compound);
      if (NeedValue)
        emit(BC::DupX1, +1);
      emitU16(BC::PutField, Pool.fieldRef(FA.ResolvedField), -2);
      return;
    }
    case ExprKind::Index: {
      const auto &IX = static_cast<const IndexExpr &>(T);
      compileExpr(*IX.Base);
      compileExpr(*IX.Index);
      if (Compound) {
        emit(BC::Dup2, +2);
        emit(arrayLoadOp(T.Ty), -1);
      }
      CompileRhs(Compound);
      if (NeedValue)
        emit(BC::DupX2, +1);
      emit(arrayStoreOp(T.Ty), -3);
      return;
    }
    default:
      assert(false && "bad assignment target");
    }
  }
};

} // namespace

std::unique_ptr<BCModule> BCCompiler::compile(const Program &P) {
  auto M = std::make_unique<BCModule>();
  M->Table = &Table;
  PoolBuilder Pool(*M);

  for (const auto &ClassDeclPtr : P.Classes) {
    if (!ClassDeclPtr->Symbol)
      continue;
    ClassSymbol *CS = ClassDeclPtr->Symbol;
    BCClass C;
    C.Symbol = CS;
    C.NameIndex = Pool.classRef(CS->Name, Types.getClass(CS));
    C.SuperIndex =
        CS->Super ? Pool.classRef(CS->Super->Name, Types.getClass(CS->Super))
                  : 0;

    for (const FieldDecl &F : ClassDeclPtr->Fields) {
      BCClass::Field BF;
      BF.Symbol = F.Symbol;
      BF.NameIndex = Pool.utf8(std::string(F.Name));
      BF.DescIndex = Pool.utf8(typeDescriptor(F.Symbol->Ty));
      BF.Flags = F.IsStatic ? 1 : 0;
      ConstantValue Init;
      if (F.IsStatic && F.Init && foldStaticInit(*F.Init, Init)) {
        // Static initializers are constants (sema enforced), folded
        // exactly as for the TSA pipeline; intern the value. Booleans and
        // chars load as ints; null is the zero value.
        switch (Init.K) {
        case ConstantValue::Kind::Int:
        case ConstantValue::Kind::Bool:
        case ConstantValue::Kind::Char:
          BF.InitPool = Pool.intConst(static_cast<int32_t>(Init.IntVal));
          break;
        case ConstantValue::Kind::Double:
          BF.InitPool = Pool.dblConst(Init.DblVal);
          break;
        case ConstantValue::Kind::String:
          BF.InitPool = Pool.strChars(std::string(Init.StrVal));
          break;
        case ConstantValue::Kind::Null:
          break;
        }
      }
      C.Fields.push_back(BF);
    }

    for (const auto &MD : ClassDeclPtr->Methods) {
      if (!MD->Symbol || !MD->Body)
        continue;
      CodeGen Gen(Types, Pool, *MD, CS);
      BCMethod BM = Gen.run();
      BM.NameIndex =
          Pool.utf8(MD->IsConstructor ? "<init>" : std::string(MD->Name));
      std::string Desc = "(";
      for (Type *T : MD->Symbol->ParamTys)
        Desc += typeDescriptor(T);
      Desc += ")" + typeDescriptor(MD->Symbol->RetTy);
      BM.DescIndex = Pool.utf8(Desc);
      C.Methods.push_back(std::move(BM));
    }
    M->Classes.push_back(std::move(C));
  }
  return M;
}
