//===- bytecode/BCFile.cpp ------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bytecode/BCFile.h"

#include <cstring>

using namespace safetsa;

static const uint32_t Magic = 0x4d4a4243; // "MJBC"
static const uint16_t Version = 1;

namespace {

class ByteWriter {
public:
  std::vector<uint8_t> Bytes;

  void u8(uint8_t V) { Bytes.push_back(V); }
  void u16(uint16_t V) {
    Bytes.push_back(static_cast<uint8_t>(V >> 8));
    Bytes.push_back(static_cast<uint8_t>(V));
  }
  void u32(uint32_t V) {
    u16(static_cast<uint16_t>(V >> 16));
    u16(static_cast<uint16_t>(V));
  }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u32(static_cast<uint32_t>(Bits >> 32));
    u32(static_cast<uint32_t>(Bits));
  }
  void str(const std::string &S) {
    u16(static_cast<uint16_t>(S.size()));
    for (char C : S)
      Bytes.push_back(static_cast<uint8_t>(C));
  }
};

class ByteReader {
public:
  explicit ByteReader(const std::vector<uint8_t> &Bytes) : Bytes(Bytes) {}

  bool u8(uint8_t &V) {
    if (Pos >= Bytes.size())
      return false;
    V = Bytes[Pos++];
    return true;
  }
  bool u16(uint16_t &V) {
    uint8_t A, B;
    if (!u8(A) || !u8(B))
      return false;
    V = static_cast<uint16_t>((A << 8) | B);
    return true;
  }
  bool u32(uint32_t &V) {
    uint16_t A, B;
    if (!u16(A) || !u16(B))
      return false;
    V = (static_cast<uint32_t>(A) << 16) | B;
    return true;
  }
  bool f64(double &V) {
    uint32_t Hi, Lo;
    if (!u32(Hi) || !u32(Lo))
      return false;
    uint64_t Bits = (static_cast<uint64_t>(Hi) << 32) | Lo;
    std::memcpy(&V, &Bits, sizeof(V));
    return true;
  }
  bool str(std::string &S) {
    uint16_t Len;
    if (!u16(Len) || Pos + Len > Bytes.size())
      return false;
    S.assign(Bytes.begin() + Pos, Bytes.begin() + Pos + Len);
    Pos += Len;
    return true;
  }
  bool blob(std::vector<uint8_t> &Out, uint32_t Len) {
    if (Pos + Len > Bytes.size())
      return false;
    Out.assign(Bytes.begin() + Pos, Bytes.begin() + Pos + Len);
    Pos += Len;
    return true;
  }
  bool atEnd() const { return Pos == Bytes.size(); }

private:
  const std::vector<uint8_t> &Bytes;
  size_t Pos = 0;
};

} // namespace

std::vector<uint8_t> safetsa::writeBCModule(const BCModule &M) {
  ByteWriter W;
  W.u32(Magic);
  W.u16(Version);

  W.u16(static_cast<uint16_t>(M.Pool.size()));
  for (size_t I = 1; I < M.Pool.size(); ++I) {
    const PoolEntry &E = M.Pool[I];
    W.u8(static_cast<uint8_t>(E.K));
    switch (E.K) {
    case PoolEntry::Kind::Utf8:
      W.str(E.Str);
      break;
    case PoolEntry::Kind::Int:
      W.u32(static_cast<uint32_t>(E.IntVal));
      break;
    case PoolEntry::Kind::Double:
      W.f64(E.DblVal);
      break;
    case PoolEntry::Kind::StrChars:
    case PoolEntry::Kind::Class:
      W.u16(E.Index);
      break;
    case PoolEntry::Kind::FieldRef:
    case PoolEntry::Kind::MethodRef:
      W.u16(E.ClassIndex);
      W.u16(E.NameIndex);
      W.u16(E.DescIndex);
      break;
    }
  }

  W.u16(static_cast<uint16_t>(M.Classes.size()));
  for (const BCClass &C : M.Classes) {
    W.u16(C.NameIndex);
    W.u16(C.SuperIndex);
    W.u16(static_cast<uint16_t>(C.Fields.size()));
    for (const BCClass::Field &F : C.Fields) {
      W.u16(F.NameIndex);
      W.u16(F.DescIndex);
      W.u8(F.Flags);
      W.u16(F.InitPool);
    }
    W.u16(static_cast<uint16_t>(C.Methods.size()));
    for (const BCMethod &Mth : C.Methods) {
      W.u16(Mth.NameIndex);
      W.u16(Mth.DescIndex);
      W.u8(Mth.Flags);
      W.u16(Mth.MaxStack);
      W.u16(Mth.MaxLocals);
      W.u32(static_cast<uint32_t>(Mth.Code.size()));
      for (uint8_t B : Mth.Code)
        W.u8(B);
      W.u16(static_cast<uint16_t>(Mth.ExTable.size()));
      for (const BCMethod::ExEntry &E : Mth.ExTable) {
        W.u16(E.Start);
        W.u16(E.End);
        W.u16(E.Handler);
      }
    }
  }
  return std::move(W.Bytes);
}

std::unique_ptr<BCModule> safetsa::readBCModule(
    const std::vector<uint8_t> &Bytes, std::string *Err) {
  auto Fail = [&](const char *Msg) -> std::unique_ptr<BCModule> {
    if (Err)
      *Err = Msg;
    return nullptr;
  };

  ByteReader R(Bytes);
  uint32_t Mg;
  uint16_t Ver;
  if (!R.u32(Mg) || Mg != Magic)
    return Fail("bad magic");
  if (!R.u16(Ver) || Ver != Version)
    return Fail("unsupported version");

  auto M = std::make_unique<BCModule>();
  uint16_t PoolCount;
  if (!R.u16(PoolCount) || PoolCount == 0)
    return Fail("bad constant-pool count");
  M->Pool.resize(PoolCount);
  for (uint16_t I = 1; I < PoolCount; ++I) {
    uint8_t Tag;
    if (!R.u8(Tag) || Tag > static_cast<uint8_t>(PoolEntry::Kind::MethodRef))
      return Fail("bad constant-pool tag");
    PoolEntry &E = M->Pool[I];
    E.K = static_cast<PoolEntry::Kind>(Tag);
    switch (E.K) {
    case PoolEntry::Kind::Utf8:
      if (!R.str(E.Str))
        return Fail("truncated utf8 entry");
      break;
    case PoolEntry::Kind::Int: {
      uint32_t V;
      if (!R.u32(V))
        return Fail("truncated int entry");
      E.IntVal = static_cast<int32_t>(V);
      break;
    }
    case PoolEntry::Kind::Double:
      if (!R.f64(E.DblVal))
        return Fail("truncated double entry");
      break;
    case PoolEntry::Kind::StrChars:
    case PoolEntry::Kind::Class:
      if (!R.u16(E.Index) || E.Index == 0 || E.Index >= PoolCount)
        return Fail("bad utf8 reference");
      break;
    case PoolEntry::Kind::FieldRef:
    case PoolEntry::Kind::MethodRef:
      if (!R.u16(E.ClassIndex) || !R.u16(E.NameIndex) || !R.u16(E.DescIndex))
        return Fail("truncated member reference");
      if (E.ClassIndex == 0 || E.ClassIndex >= PoolCount ||
          E.NameIndex == 0 || E.NameIndex >= PoolCount || E.DescIndex == 0 ||
          E.DescIndex >= PoolCount)
        return Fail("bad member reference index");
      break;
    }
  }
  // Second pass: referenced entries must have the right kinds.
  for (uint16_t I = 1; I < PoolCount; ++I) {
    const PoolEntry &E = M->Pool[I];
    auto IsUtf8 = [&](uint16_t Idx) {
      return M->Pool[Idx].K == PoolEntry::Kind::Utf8;
    };
    switch (E.K) {
    case PoolEntry::Kind::StrChars:
    case PoolEntry::Kind::Class:
      if (!IsUtf8(E.Index))
        return Fail("reference is not utf8");
      break;
    case PoolEntry::Kind::FieldRef:
    case PoolEntry::Kind::MethodRef:
      if (M->Pool[E.ClassIndex].K != PoolEntry::Kind::Class ||
          !IsUtf8(E.NameIndex) || !IsUtf8(E.DescIndex))
        return Fail("member reference has wrong entry kinds");
      break;
    default:
      break;
    }
  }

  uint16_t NumClasses;
  if (!R.u16(NumClasses))
    return Fail("truncated class count");
  auto CheckClassIdx = [&](uint16_t Idx, bool AllowZero) {
    if (Idx == 0)
      return AllowZero;
    return Idx < PoolCount && M->Pool[Idx].K == PoolEntry::Kind::Class;
  };
  auto CheckUtf8Idx = [&](uint16_t Idx) {
    return Idx != 0 && Idx < PoolCount &&
           M->Pool[Idx].K == PoolEntry::Kind::Utf8;
  };
  for (unsigned CI = 0; CI != NumClasses; ++CI) {
    BCClass C;
    if (!R.u16(C.NameIndex) || !R.u16(C.SuperIndex))
      return Fail("truncated class header");
    if (!CheckClassIdx(C.NameIndex, false) ||
        !CheckClassIdx(C.SuperIndex, true))
      return Fail("bad class name reference");
    uint16_t NumFields;
    if (!R.u16(NumFields))
      return Fail("truncated field count");
    for (unsigned FI = 0; FI != NumFields; ++FI) {
      BCClass::Field F;
      if (!R.u16(F.NameIndex) || !R.u16(F.DescIndex) || !R.u8(F.Flags) ||
          !R.u16(F.InitPool))
        return Fail("truncated field");
      if (!CheckUtf8Idx(F.NameIndex) || !CheckUtf8Idx(F.DescIndex))
        return Fail("bad field reference");
      if (F.InitPool >= PoolCount)
        return Fail("bad field initializer index");
      C.Fields.push_back(F);
    }
    uint16_t NumMethods;
    if (!R.u16(NumMethods))
      return Fail("truncated method count");
    for (unsigned MI = 0; MI != NumMethods; ++MI) {
      BCMethod Mth;
      uint32_t CodeLen;
      if (!R.u16(Mth.NameIndex) || !R.u16(Mth.DescIndex) ||
          !R.u8(Mth.Flags) || !R.u16(Mth.MaxStack) ||
          !R.u16(Mth.MaxLocals) || !R.u32(CodeLen))
        return Fail("truncated method header");
      if (!CheckUtf8Idx(Mth.NameIndex) || !CheckUtf8Idx(Mth.DescIndex))
        return Fail("bad method reference");
      if (!R.blob(Mth.Code, CodeLen))
        return Fail("truncated method code");
      uint16_t NumEx;
      if (!R.u16(NumEx))
        return Fail("truncated exception-table count");
      for (unsigned EI = 0; EI != NumEx; ++EI) {
        BCMethod::ExEntry E;
        if (!R.u16(E.Start) || !R.u16(E.End) || !R.u16(E.Handler))
          return Fail("truncated exception-table entry");
        if (E.Start >= E.End || E.End > Mth.Code.size() ||
            E.Handler >= Mth.Code.size())
          return Fail("bad exception-table range");
        Mth.ExTable.push_back(E);
      }
      C.Methods.push_back(std::move(Mth));
    }
    M->Classes.push_back(std::move(C));
  }
  if (!R.atEnd())
    return Fail("trailing bytes after module");

  M->PoolMethods.assign(M->Pool.size(), nullptr);
  M->PoolFields.assign(M->Pool.size(), nullptr);
  M->PoolTypes.assign(M->Pool.size(), nullptr);
  return M;
}

Type *safetsa::parseDescriptor(const std::string &Desc, TypeContext &Types,
                               ClassTable &Table) {
  if (Desc.empty())
    return nullptr;
  if (Desc.size() == 1) {
    switch (Desc[0]) {
    case 'I':
      return Types.getInt();
    case 'D':
      return Types.getDouble();
    case 'Z':
      return Types.getBoolean();
    case 'C':
      return Types.getChar();
    case 'V':
      return Types.getVoid();
    default:
      break; // Could still be a one-letter class name.
    }
  }
  if (Desc[0] == '[') {
    Type *Elem = parseDescriptor(Desc.substr(1), Types, Table);
    if (!Elem || Elem->isVoid())
      return nullptr;
    return Types.getArray(Elem);
  }
  if (Desc[0] == 'L' && Desc.back() == ';') {
    ClassSymbol *C = Table.lookup(Desc.substr(1, Desc.size() - 2));
    return C ? Types.getClass(C) : nullptr;
  }
  // Bare class names appear for New/ClassRef pool entries. MJ class names
  // cannot contain '[' / ';' so the forms above never collide with them,
  // except the single descriptor letters, which MJ programs would shadow
  // as class names — the builtin table contains none, and sema would have
  // to accept such a class first for it to be referenced here.
  if (ClassSymbol *C = Table.lookup(Desc))
    return Types.getClass(C);
  return nullptr;
}

bool safetsa::linkBCModule(BCModule &M, ClassTable &Table, TypeContext &Types,
                           std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  M.Table = &Table;
  M.PoolMethods.assign(M.Pool.size(), nullptr);
  M.PoolFields.assign(M.Pool.size(), nullptr);
  M.PoolTypes.assign(M.Pool.size(), nullptr);

  auto Utf8 = [&](uint16_t Idx) -> const std::string & {
    return M.Pool[Idx].Str;
  };

  for (size_t I = 1; I < M.Pool.size(); ++I) {
    const PoolEntry &E = M.Pool[I];
    switch (E.K) {
    case PoolEntry::Kind::Class: {
      Type *Ty = parseDescriptor(Utf8(E.Index), Types, Table);
      if (!Ty)
        return Fail("unresolved class '" + Utf8(E.Index) + "'");
      M.PoolTypes[I] = Ty;
      break;
    }
    case PoolEntry::Kind::FieldRef: {
      const std::string &ClassName = Utf8(M.Pool[E.ClassIndex].Index);
      ClassSymbol *C = Table.lookup(ClassName);
      if (!C)
        return Fail("unresolved class '" + ClassName + "'");
      FieldSymbol *F = C->findField(Utf8(E.NameIndex));
      if (!F || typeDescriptor(F->Ty) != Utf8(E.DescIndex))
        return Fail("unresolved field '" + Utf8(E.NameIndex) + "'");
      M.PoolFields[I] = F;
      break;
    }
    case PoolEntry::Kind::MethodRef: {
      const std::string &ClassName = Utf8(M.Pool[E.ClassIndex].Index);
      ClassSymbol *C = Table.lookup(ClassName);
      if (!C)
        return Fail("unresolved class '" + ClassName + "'");
      const std::string &Name = Utf8(E.NameIndex);
      const std::string &Desc = Utf8(E.DescIndex);
      MethodSymbol *Found = nullptr;
      for (const ClassSymbol *S = C; S && !Found; S = S->Super)
        for (MethodSymbol *Mth : S->Methods) {
          std::string D = "(";
          for (Type *T : Mth->ParamTys)
            D += typeDescriptor(T);
          D += ")" + typeDescriptor(Mth->RetTy);
          std::string_view N = Mth->IsConstructor ? "<init>" : Mth->Name;
          if (N == Name && D == Desc) {
            Found = Mth;
            break;
          }
        }
      if (!Found)
        return Fail("unresolved method '" + Name + "'");
      M.PoolMethods[I] = Found;
      break;
    }
    default:
      break;
    }
  }

  for (BCClass &C : M.Classes) {
    const std::string &ClassName = Utf8(M.Pool[C.NameIndex].Index);
    ClassSymbol *CS = Table.lookup(ClassName);
    if (!CS)
      return Fail("unresolved class '" + ClassName + "'");
    C.Symbol = CS;
    for (BCClass::Field &F : C.Fields) {
      F.Symbol = CS->findField(Utf8(F.NameIndex));
      if (!F.Symbol)
        return Fail("unresolved field '" + Utf8(F.NameIndex) + "'");
    }
    for (BCMethod &Mth : C.Methods) {
      const std::string &Name = Utf8(Mth.NameIndex);
      const std::string &Desc = Utf8(Mth.DescIndex);
      for (MethodSymbol *Cand : CS->Methods) {
        std::string D = "(";
        for (Type *T : Cand->ParamTys)
          D += typeDescriptor(T);
        D += ")" + typeDescriptor(Cand->RetTy);
        std::string_view N = Cand->IsConstructor ? "<init>" : Cand->Name;
        if (N == Name && D == Desc) {
          Mth.Symbol = Cand;
          break;
        }
      }
      if (!Mth.Symbol)
        return Fail("unresolved method body '" + Name + "'");
    }
  }
  return true;
}
