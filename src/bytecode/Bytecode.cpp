//===- bytecode/Bytecode.cpp ----------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"

using namespace safetsa;

const char *safetsa::bcName(BC Op) {
  switch (Op) {
  case BC::Nop:
    return "nop";
  case BC::AConstNull:
    return "aconst_null";
  case BC::IConst0:
    return "iconst_0";
  case BC::IConst1:
    return "iconst_1";
  case BC::BIPush:
    return "bipush";
  case BC::SIPush:
    return "sipush";
  case BC::Ldc:
    return "ldc";
  case BC::ILoad:
    return "iload";
  case BC::DLoad:
    return "dload";
  case BC::ALoad:
    return "aload";
  case BC::IStore:
    return "istore";
  case BC::DStore:
    return "dstore";
  case BC::AStore:
    return "astore";
  case BC::IInc:
    return "iinc";
  case BC::Pop:
    return "pop";
  case BC::Dup:
    return "dup";
  case BC::DupX1:
    return "dup_x1";
  case BC::DupX2:
    return "dup_x2";
  case BC::Dup2:
    return "dup2";
  case BC::Swap:
    return "swap";
  case BC::IAdd:
    return "iadd";
  case BC::ISub:
    return "isub";
  case BC::IMul:
    return "imul";
  case BC::IDiv:
    return "idiv";
  case BC::IRem:
    return "irem";
  case BC::INeg:
    return "ineg";
  case BC::IAnd:
    return "iand";
  case BC::IOr:
    return "ior";
  case BC::IXor:
    return "ixor";
  case BC::IShl:
    return "ishl";
  case BC::IShr:
    return "ishr";
  case BC::DAdd:
    return "dadd";
  case BC::DSub:
    return "dsub";
  case BC::DMul:
    return "dmul";
  case BC::DDiv:
    return "ddiv";
  case BC::DNeg:
    return "dneg";
  case BC::DCmpL:
    return "dcmpl";
  case BC::DCmpG:
    return "dcmpg";
  case BC::I2D:
    return "i2d";
  case BC::D2I:
    return "d2i";
  case BC::I2C:
    return "i2c";
  case BC::Goto:
    return "goto";
  case BC::IfEq:
    return "ifeq";
  case BC::IfNe:
    return "ifne";
  case BC::IfLt:
    return "iflt";
  case BC::IfGe:
    return "ifge";
  case BC::IfGt:
    return "ifgt";
  case BC::IfLe:
    return "ifle";
  case BC::IfICmpEq:
    return "if_icmpeq";
  case BC::IfICmpNe:
    return "if_icmpne";
  case BC::IfICmpLt:
    return "if_icmplt";
  case BC::IfICmpGe:
    return "if_icmpge";
  case BC::IfICmpGt:
    return "if_icmpgt";
  case BC::IfICmpLe:
    return "if_icmple";
  case BC::IfACmpEq:
    return "if_acmpeq";
  case BC::IfACmpNe:
    return "if_acmpne";
  case BC::IfNull:
    return "ifnull";
  case BC::IfNonNull:
    return "ifnonnull";
  case BC::GetField:
    return "getfield";
  case BC::PutField:
    return "putfield";
  case BC::GetStatic:
    return "getstatic";
  case BC::PutStatic:
    return "putstatic";
  case BC::InvokeVirtual:
    return "invokevirtual";
  case BC::InvokeStatic:
    return "invokestatic";
  case BC::InvokeSpecial:
    return "invokespecial";
  case BC::New:
    return "new";
  case BC::NewArray:
    return "newarray";
  case BC::ArrayLength:
    return "arraylength";
  case BC::IALoad:
    return "iaload";
  case BC::IAStore:
    return "iastore";
  case BC::DALoad:
    return "daload";
  case BC::DAStore:
    return "dastore";
  case BC::AALoad:
    return "aaload";
  case BC::AAStore:
    return "aastore";
  case BC::CALoad:
    return "caload";
  case BC::CAStore:
    return "castore";
  case BC::BALoad:
    return "baload";
  case BC::BAStore:
    return "bastore";
  case BC::CheckCast:
    return "checkcast";
  case BC::InstanceOf:
    return "instanceof";
  case BC::IReturn:
    return "ireturn";
  case BC::DReturn:
    return "dreturn";
  case BC::AReturn:
    return "areturn";
  case BC::Return:
    return "return";
  }
  return "op";
}

unsigned safetsa::bcOperandWidth(BC Op) {
  switch (Op) {
  case BC::BIPush:
    return 1;
  case BC::SIPush:
    return 2;
  case BC::Ldc:
    return 2;
  case BC::ILoad:
  case BC::DLoad:
  case BC::ALoad:
  case BC::IStore:
  case BC::DStore:
  case BC::AStore:
    return 1;
  case BC::IInc:
    return 2;
  case BC::Goto:
  case BC::IfEq:
  case BC::IfNe:
  case BC::IfLt:
  case BC::IfGe:
  case BC::IfGt:
  case BC::IfLe:
  case BC::IfICmpEq:
  case BC::IfICmpNe:
  case BC::IfICmpLt:
  case BC::IfICmpGe:
  case BC::IfICmpGt:
  case BC::IfICmpLe:
  case BC::IfACmpEq:
  case BC::IfACmpNe:
  case BC::IfNull:
  case BC::IfNonNull:
    return 2;
  case BC::GetField:
  case BC::PutField:
  case BC::GetStatic:
  case BC::PutStatic:
  case BC::InvokeVirtual:
  case BC::InvokeStatic:
  case BC::InvokeSpecial:
  case BC::New:
  case BC::NewArray:
  case BC::CheckCast:
  case BC::InstanceOf:
    return 2;
  default:
    return 0;
  }
}

unsigned BCMethod::countInstructions() const {
  unsigned N = 0;
  for (size_t I = 0; I < Code.size();) {
    BC Op = static_cast<BC>(Code[I]);
    I += 1 + bcOperandWidth(Op);
    ++N;
  }
  return N;
}

std::string safetsa::typeDescriptor(const Type *Ty) {
  if (!Ty || Ty->isVoid())
    return "V";
  if (Ty->isInt())
    return "I";
  if (Ty->isDouble())
    return "D";
  if (Ty->isBoolean())
    return "Z";
  if (Ty->isChar())
    return "C";
  if (Ty->isArray())
    return "[" + typeDescriptor(Ty->getElemType());
  if (Ty->isClass())
    return "L" + std::string(Ty->getClassSymbol()->Name) + ";";
  return "V";
}
