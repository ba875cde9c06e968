//===- tsa/Verifier.h - SafeTSA well-formedness checks --------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural verifier for SafeTSA modules.
///
/// The wire format makes most attacks *inexpressible* (the decoder cannot
/// produce an out-of-dominance (l, r) reference). This verifier provides
/// the residual checks the paper describes — "checking if a value has
/// already been defined, which can be implemented using simple counters" —
/// plus full plane-typing validation so that IR built programmatically
/// (by the generator, optimizer, or a hostile in-process producer) is held
/// to the same rules as decoded IR. Contrast with the bytecode module's
/// dataflow verifier, which must run a fixpoint abstract interpretation.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_TSA_VERIFIER_H
#define SAFETSA_TSA_VERIFIER_H

#include "tsa/Method.h"
#include "tsa/Signature.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace safetsa {

class TSAVerifier {
public:
  explicit TSAVerifier(TSAModule &Module)
      : Module(Module), Ctx{*Module.Types, *Module.Table} {}

  /// Verifies the whole module; returns true when well-formed. Errors are
  /// collected (not aborted on) so tests can assert on specific messages.
  bool verify();

  /// Verifies a single method. Re-derives the CFG and renumbers planes,
  /// which is idempotent for well-formed methods.
  bool verifyMethod(TSAMethod &M);

  const std::vector<std::string> &getErrors() const { return Errors; }

private:
  /// Structural CST validation that must pass before CFG derivation is
  /// safe to run (block coverage, break/continue placement, sequencing).
  bool checkCSTStructure(TSAMethod &M);
  bool checkSeq(const CSTSeq &Seq, bool InLoop, bool IsLoopHeader,
                std::vector<BasicBlock *> &Covered, TSAMethod &M);

  void checkBlocks(TSAMethod &M);
  void checkInstruction(TSAMethod &M, BasicBlock &BB, Instruction &I,
                        unsigned Ordinal);
  /// Checks the condition and return-value references of \p Seq, entered
  /// with control in \p Cur; returns the block control leaves it from
  /// (null after a join, where the next Basic node sets it).
  BasicBlock *checkCSTValueRefs(TSAMethod &M, const CSTSeq &Seq,
                                BasicBlock *Cur);
  void checkDowncast(TSAMethod &M, const Instruction &I);
  void checkConst(TSAMethod &M, const Instruction &I);

  /// True when \p Def is usable as an operand at (Block, Ordinal).
  bool isAvailableAt(const Instruction *Def, const BasicBlock *Block,
                     unsigned Ordinal) const;

  void error(const TSAMethod &M, const std::string &Msg);

  TSAModule &Module;
  PlaneContext Ctx;
  std::vector<std::string> Errors;

  // Per-method instruction positions: block + ordinal within block.
  std::unordered_map<const Instruction *, std::pair<const BasicBlock *,
                                                    unsigned>>
      Pos;
};

/// The paper's residual consumer-side check, and nothing more: every
/// (l, r) reference must name an already-defined value — "checking if a
/// value has already been defined, which can be implemented using simple
/// counters holding the numbers of defined values for each type in each
/// basic block" (§9). Assumes CFG/dominators/plane numbering are present
/// (they are, after decode) and that plane typing is intact (the wire
/// format cannot express a plane violation). Used by bench_verify_time to
/// compare against the bytecode dataflow fixpoint.
bool counterCheckMethod(const TSAMethod &M, PlaneContext &Ctx);
bool counterCheckModule(const TSAModule &Module);

/// Validates the exception-edge discipline of one method (flags only in
/// try bodies, raising instructions last-in-subblock and flagged,
/// handlers reachable). Used by the full verifier and by the decoder.
bool checkExceptionDiscipline(const TSAMethod &M, std::string *Err);

} // namespace safetsa

#endif // SAFETSA_TSA_VERIFIER_H
