//===- driver/BatchCompiler.h - Parallel batch pipeline -------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batch front door: run compile -> optimize -> encode (producer side)
/// and decode -> verify (consumer side) for N compilation units across a
/// fixed-size thread pool.
///
/// The unit of parallelism is the compilation unit: each CompiledProgram
/// owns its own SourceManager, DiagnosticEngine, TypeContext, and
/// ClassTable, and each decoded unit rebuilds a private type table, so
/// jobs share no mutable state. Results come back in input order and are
/// byte-identical to the sequential compileMJ + encodeModule path
/// regardless of thread count (asserted by tests/batch_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_DRIVER_BATCHCOMPILER_H
#define SAFETSA_DRIVER_BATCHCOMPILER_H

#include "codec/Codec.h"
#include "driver/Compiler.h"

#include <memory>
#include <string>
#include <vector>

namespace safetsa {

/// One compilation unit to push through the pipeline.
struct BatchJob {
  std::string Name;
  std::string Source;
};

struct BatchOptions {
  /// Worker threads; 0 => one per hardware thread. 1 still uses a single
  /// worker thread (use the sequential path for a no-thread baseline).
  unsigned Threads = 0;
  /// Run the optimizer between generation and encoding.
  bool Optimize = false;
  CodecMode Mode = CodecMode::Prefix;
  /// Consumer side: decode the wire bytes back with the fused
  /// decode+verify path (decode success implies a verified module).
  bool DecodeAndVerify = true;
  /// Differential oracle: after a fused decode, additionally run the
  /// standalone TSAVerifier and the paper's counter check and fail the
  /// unit if they disagree with the fused verdict. Redundant in normal
  /// operation; exists to cross-check the fused decoder. Also forced on
  /// by SAFETSA_PARANOID (envSwitches()).
  bool Paranoid = false;
};

/// Consumer-side artifacts for one wire buffer pushed through the batch
/// load path (decode + fused verify only, no producer stages).
struct BatchLoadResult {
  std::unique_ptr<DecodedUnit> Unit;
  std::string Error; ///< Empty on success.

  bool ok() const { return Error.empty(); }
};

/// Everything produced for one job. Producer artifacts stay alive so
/// callers can inspect diagnostics or reuse the module.
struct BatchResult {
  std::string Name;
  std::unique_ptr<CompiledProgram> Program; ///< Producer artifacts.
  std::vector<uint8_t> Wire;                ///< Encoded module bytes.
  std::unique_ptr<DecodedUnit> Unit;        ///< Consumer artifacts.
  bool CompileOk = false;
  bool DecodeOk = false;
  bool VerifyOk = false;
  std::string Error; ///< First failure reason, empty on success.

  /// True when every requested stage succeeded.
  bool ok() const { return Error.empty(); }
};

class BatchCompiler {
public:
  explicit BatchCompiler(BatchOptions Opts = {});

  /// Runs every job across the pool; results are returned in input order
  /// and are independent of the thread count.
  std::vector<BatchResult> run(const std::vector<BatchJob> &Jobs);

  /// Consumer-only batch entry point: decodes (and, fused, verifies) each
  /// wire buffer across the pool. The spans are non-owning — workers
  /// decode straight out of the caller's receive buffers with no per-unit
  /// copy — and each worker writes only its own pre-allocated result
  /// slot, so results come back in input order.
  std::vector<BatchLoadResult> load(const std::vector<ByteSpan> &Wires);

  /// The full pipeline for a single unit; what each worker executes.
  static BatchResult runOne(const BatchJob &Job, const BatchOptions &Opts);

  /// The consumer-side pipeline for a single wire buffer.
  static BatchLoadResult loadOne(ByteSpan Wire, const BatchOptions &Opts);

  unsigned getNumThreads() const { return Threads; }

private:
  BatchOptions Opts;
  unsigned Threads;
};

} // namespace safetsa

#endif // SAFETSA_DRIVER_BATCHCOMPILER_H
