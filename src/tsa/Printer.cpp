//===- tsa/Printer.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tsa/Printer.h"

#include <sstream>

using namespace safetsa;

namespace {

class MethodPrinter {
public:
  MethodPrinter(const TSAMethod &M, PlaneContext &Ctx) : M(M), Ctx(Ctx) {}

  std::string print() {
    OS << "method " << (M.Symbol ? M.Symbol->signature() : "<anon>") << '\n';
    printSeq(M.Root, 1);
    return OS.str();
  }

private:
  const TSAMethod &M;
  PlaneContext &Ctx;
  std::ostringstream OS;

  void indent(unsigned Depth) {
    for (unsigned I = 0; I != Depth; ++I)
      OS << "  ";
  }

  /// Formats an operand as the paper's (l-r) pair relative to \p UseBlock.
  std::string ref(const Instruction *Def, const BasicBlock *UseBlock) {
    if (!Def)
      return "(?)";
    const BasicBlock *DefBlock = Def->Parent;
    if (!DefBlock || !UseBlock)
      return "(?)";
    unsigned L = UseBlock->DomDepth >= DefBlock->DomDepth
                     ? UseBlock->DomDepth - DefBlock->DomDepth
                     : ~0u;
    std::ostringstream R;
    R << '(' << L << '-' << Def->PlaneIndex << ')';
    return R.str();
  }

  void printConst(const ConstantValue &C) {
    switch (C.K) {
    case ConstantValue::Kind::Int:
      OS << C.IntVal;
      break;
    case ConstantValue::Kind::Double:
      OS << C.DblVal;
      break;
    case ConstantValue::Kind::Bool:
      OS << (C.IntVal ? "true" : "false");
      break;
    case ConstantValue::Kind::Char:
      OS << '\'' << static_cast<char>(C.IntVal) << '\'';
      break;
    case ConstantValue::Kind::Null:
      OS << "null";
      break;
    case ConstantValue::Kind::String:
      OS << '"' << C.StrVal << '"';
      break;
    }
  }

  void printInstruction(const Instruction &I, const BasicBlock &BB,
                        unsigned Depth) {
    indent(Depth + 1);
    std::optional<PlaneKey> Result = resultPlane(I, Ctx);
    if (Result)
      OS << Result->str() << '[' << I.PlaneIndex << "] <- ";
    OS << opcodeName(I.Op);
    switch (I.Op) {
    case Opcode::Const:
      OS << ' ';
      printConst(M.constant(I));
      break;
    case Opcode::Param:
      OS << ' ' << I.ParamIndex;
      break;
    case Opcode::Primitive:
    case Opcode::XPrimitive:
      OS << ' ' << primOpOperandType(I.Prim, Ctx)->getName() << ' '
         << primOpName(I.Prim);
      if (I.Prim == PrimOp::InstanceOf && I.AuxType)
        OS << ' ' << I.AuxType->getName();
      break;
    case Opcode::NullCheck:
    case Opcode::IndexCheck:
    case Opcode::ArrayLength:
    case Opcode::New:
    case Opcode::NewArray:
      OS << ' ' << I.OpType->getName();
      break;
    case Opcode::Upcast:
      OS << " to " << I.OpType->getName();
      break;
    case Opcode::Downcast:
      OS << ' ' << (I.SrcSafe ? "safe-" : "") << I.AuxType->getName()
         << " to " << (I.DstSafe ? "safe-" : "") << I.OpType->getName();
      break;
    case Opcode::GetField:
    case Opcode::SetField:
      OS << ' ' << I.OpType->getName() << ' ' << I.Field->Name;
      break;
    case Opcode::GetStatic:
    case Opcode::SetStatic:
      OS << ' ' << I.Field->Owner->Name << '.' << I.Field->Name;
      break;
    case Opcode::GetElt:
    case Opcode::SetElt:
      OS << ' ' << I.OpType->getName();
      break;
    case Opcode::Call:
    case Opcode::Dispatch:
      OS << ' ' << I.Method->signature();
      break;
    case Opcode::Phi:
      OS << ' ' << (I.DstSafe ? "safe-" : "") << I.OpType->getName();
      break;
    }
    if (I.isPhi()) {
      // Phi operands are relative to the corresponding predecessor block.
      for (size_t K = 0; K != I.Operands.size(); ++K) {
        const BasicBlock *Pred =
            K < BB.Preds.size() ? BB.Preds[K] : nullptr;
        OS << ' ' << ref(I.Operands[K], Pred);
      }
    } else {
      for (const Instruction *Op : I.Operands)
        OS << ' ' << ref(Op, &BB);
    }
    OS << '\n';
  }

  void printBlock(const BasicBlock &BB, unsigned Depth) {
    indent(Depth);
    OS << "block " << BB.Id << " (depth " << BB.DomDepth << ", preds";
    for (const BasicBlock *P : BB.Preds)
      OS << ' ' << P->Id;
    OS << "):\n";
    for (const auto &I : BB.Insts)
      printInstruction(*I, BB, Depth);
  }

  void printSeq(const CSTSeq &Seq, unsigned Depth) {
    BasicBlock *Cur = nullptr;
    for (const auto &Node : Seq) {
      switch (Node->K) {
      case CSTNode::Kind::Basic:
        printBlock(*Node->BB, Depth);
        Cur = Node->BB;
        break;
      case CSTNode::Kind::If:
        indent(Depth);
        OS << "if " << ref(Node->Cond, Cur) << " then\n";
        printSeq(Node->Then, Depth + 1);
        if (!Node->Else.empty()) {
          indent(Depth);
          OS << "else\n";
          printSeq(Node->Else, Depth + 1);
        }
        indent(Depth);
        OS << "endif\n";
        break;
      case CSTNode::Kind::Loop: {
        indent(Depth);
        OS << "loop header:\n";
        printSeq(Node->Header, Depth + 1);
        // The decision block is the header sequence's last basic block.
        const BasicBlock *Decision = nullptr;
        for (const auto &H : Node->Header)
          if (H->K == CSTNode::Kind::Basic)
            Decision = H->BB;
        indent(Depth);
        OS << "while " << ref(Node->Cond, Decision) << " do\n";
        printSeq(Node->Body, Depth + 1);
        indent(Depth);
        OS << "endloop\n";
        break;
      }
      case CSTNode::Kind::Try:
        indent(Depth);
        OS << "try\n";
        printSeq(Node->Then, Depth + 1);
        indent(Depth);
        OS << "catch\n";
        printSeq(Node->Else, Depth + 1);
        indent(Depth);
        OS << "endtry\n";
        break;
      case CSTNode::Kind::Return:
        indent(Depth);
        OS << "return";
        if (Node->RetVal)
          OS << ' ' << ref(Node->RetVal, Cur);
        OS << '\n';
        break;
      case CSTNode::Kind::Break:
        indent(Depth);
        OS << "break\n";
        break;
      case CSTNode::Kind::Continue:
        indent(Depth);
        OS << "continue\n";
        break;
      }
    }
  }
};

} // namespace

std::string safetsa::printMethod(const TSAMethod &M, PlaneContext &Ctx) {
  return MethodPrinter(M, Ctx).print();
}

std::string safetsa::printModule(const TSAModule &M) {
  PlaneContext Ctx{*M.Types, *M.Table};
  std::string Out;
  for (const auto &Method : M.Methods) {
    Out += printMethod(*Method, Ctx);
    Out += '\n';
  }
  return Out;
}
