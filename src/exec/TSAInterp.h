//===- exec/TSAInterp.h - SafeTSA evaluator -------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A definitional interpreter for SafeTSA modules. It executes the Control
/// Structure Tree directly, resolving phis by remembering the dynamically
/// taken predecessor edge. Its purpose is semantic: differential testing
/// against the bytecode interpreter proves that SafeTSA generation,
/// optimization, and the encode/decode round trip all preserve program
/// behaviour. (The paper's JITs were unreleased work-in-progress; all of
/// its reported results are static, see DESIGN.md §2.)
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_EXEC_TSAINTERP_H
#define SAFETSA_EXEC_TSAINTERP_H

#include "exec/Runtime.h"
#include "tsa/Method.h"

#include <unordered_map>

namespace safetsa {

class TSAInterpreter : public GcRootProvider {
public:
  TSAInterpreter(const TSAModule &Module, Runtime &RT)
      : Module(Module), RT(RT) {
    GcOn = RT.gcEnabled();
    if (GcOn)
      RT.gcAddRootProvider(*this);
  }
  ~TSAInterpreter() override {
    if (GcOn)
      RT.gcRemoveRootProvider(*this);
  }

  /// GC root scan: every Value of every active frame (the Vals
  /// environment plus the argument region). The tree-walker keeps no
  /// slot map — it marks all ref-kinded values it holds, which is the
  /// same set (its environments are typed per SSA value). Runs only
  /// inside a safepoint collection; mark order does not matter, so the
  /// unordered environment walk stays deterministic in effect.
  void enumerateRoots(GcMarker &M) override;

  /// Applies the module's static-field initializers.
  void initializeStatics();

  /// Runs \p Method with \p Args (instance methods expect the receiver
  /// first). Returns the result or the runtime exception that unwound.
  ExecResult call(const MethodSymbol *Method, std::vector<Value> Args);

  /// Convenience: locates `static main()` and runs it after statics.
  ExecResult runMain();

private:
  struct Frame {
    const TSAMethod *Method = nullptr; ///< Whose constant pool Consts read.
    std::unordered_map<const Instruction *, Value> Vals;
    /// Receiver (if any) + parameters. Param values are read straight
    /// from this reserved region instead of being copied into Vals.
    std::vector<Value> Args;
    const BasicBlock *PrevBlock = nullptr;
    /// Block whose instruction raised the pending exception (for catch
    /// phi resolution: the exception edge's source).
    const BasicBlock *RaiseBlock = nullptr;
    Value RetVal;
    bool HasRet = false;
  };

  enum class Signal : uint8_t { Normal, Return, Break, Continue, Error };

  Signal execSeq(const CSTSeq &Seq, Frame &F);
  Signal execBlock(const BasicBlock &BB, Frame &F);
  bool execInst(const Instruction &I, const BasicBlock &BB, Frame &F);

  Value callMethodValue(const MethodSymbol *Callee, std::vector<Value> Args,
                        bool &Ok);

  Value val(const Instruction *I, Frame &F) const {
    if (I->Op == Opcode::Param) {
      assert(I->ParamIndex < F.Args.size() && "param index out of range");
      return F.Args[I->ParamIndex];
    }
    auto It = F.Vals.find(I);
    assert(It != F.Vals.end() && "use of unevaluated value");
    return It->second;
  }

  bool fail(RuntimeError E) {
    if (Err == RuntimeError::None)
      Err = E;
    return false;
  }

  const TSAModule &Module;
  Runtime &RT;
  RuntimeError Err = RuntimeError::None;
  unsigned Depth = 0;
  /// Active frames, innermost last (GC root enumeration). Maintained
  /// only when the Runtime's collector is enabled.
  std::vector<Frame *> Frames;
  bool GcOn = false;
  static constexpr unsigned MaxDepth = 400;
};

} // namespace safetsa

#endif // SAFETSA_EXEC_TSAINTERP_H
