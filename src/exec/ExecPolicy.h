//===- exec/ExecPolicy.h - How a consumer runs prepared code --*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one set of knobs that decides how a consumer executes a verified
/// module (DESIGN.md §11): which tier it may reach, which tier-1
/// transforms apply, and whether the tree-walk oracle re-checks each
/// run. CodeServerOptions::Exec fixes it per server (its ModuleCache
/// escalates tiers by it), reprepareModule and TSAExec take it directly.
/// When a module counts as hot is not a knob: it is the profile's
/// constant ProfileData::kHotThreshold. GC policy is not here either: it
/// reaches a run through the Runtime constructor.
///
/// The SAFETSA_* environment switches are parsed once per process by
/// envSwitches(). They can only force a transform off or an oracle on,
/// and they do so for every caller, whatever policy it passes.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_EXEC_EXECPOLICY_H
#define SAFETSA_EXEC_EXECPOLICY_H

#include <cstdint>

namespace safetsa {

struct ExecPolicy {
  /// Highest tier served: 0 = the profiling tier only, 1 = re-quicken
  /// hot modules with inline caches, devirtualization, fusion and
  /// inlining.
  uint32_t MaxTier = 1;
  /// Tier-1 transform masks, each isolating one transform so
  /// differential parity can pin it. NoFusion skips superinstruction
  /// fusion (env: SAFETSA_EXEC_NOFUSION).
  bool NoFusion = false;
  /// Skip inline caches and closed-world devirtualization; dispatches
  /// stay on the vtable path.
  bool NoInlineCaches = false;
  /// Speculative-inlining callee size ceiling in ExecInsts (DESIGN.md
  /// §14); 0 splices nothing (env: SAFETSA_EXEC_NOINLINE forces 0).
  uint32_t InlineBudget = 24;
  /// After each TSAExec::runMain, re-run the module on the tree walker
  /// and turn any divergence in trap kind or output into
  /// RuntimeError::Internal (env: SAFETSA_EXEC_ORACLE).
  bool TreeWalkOracle = false;
};

/// The process environment's switches. Each is on when its variable is
/// set non-empty and not "0".
struct EnvSwitches {
  bool NoFusion = false; ///< SAFETSA_EXEC_NOFUSION
  bool NoInline = false; ///< SAFETSA_EXEC_NOINLINE
  bool Oracle = false;   ///< SAFETSA_EXEC_ORACLE
  /// SAFETSA_PARANOID: Runtime::cell() traps on dead refs in release
  /// builds.
  bool Paranoid = false;
};

/// Reads the environment on the first call and returns the same values
/// for the rest of the process; a variable set later is not seen.
const EnvSwitches &envSwitches();

} // namespace safetsa

#endif // SAFETSA_EXEC_EXECPOLICY_H
