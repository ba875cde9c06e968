//===- driver/BatchCompiler.cpp -------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/BatchCompiler.h"

#include "exec/ExecPolicy.h"
#include "opt/Optimizer.h"
#include "support/ThreadPool.h"
#include "tsa/Verifier.h"

using namespace safetsa;

BatchCompiler::BatchCompiler(BatchOptions Opts)
    : Opts(Opts),
      Threads(Opts.Threads == 0 ? ThreadPool::defaultThreadCount()
                                : Opts.Threads) {}

/// Re-runs the standalone verifier and counter check on a module the fused
/// decoder already accepted. Any failure here is a bug in one of the two
/// verification paths, so the message says so.
static std::string runParanoidOracle(TSAModule &M) {
  TSAVerifier V(M);
  if (!V.verify())
    return "paranoid oracle disagrees with fused decode: " +
           (V.getErrors().empty() ? std::string("verification failed")
                                  : V.getErrors().front());
  if (!counterCheckModule(M))
    return "paranoid oracle disagrees with fused decode: counter check "
           "failed";
  return {};
}

BatchResult BatchCompiler::runOne(const BatchJob &Job,
                                  const BatchOptions &Opts) {
  BatchResult R;
  R.Name = Job.Name;

  R.Program = compileMJ(Job.Name, Job.Source);
  if (!R.Program->ok() || !R.Program->TSA) {
    R.Error = "compile failed: " + R.Program->renderDiagnostics();
    return R;
  }
  R.CompileOk = true;

  if (Opts.Optimize)
    optimizeModule(*R.Program->TSA);

  R.Wire = encodeModule(*R.Program->TSA, Opts.Mode);

  if (!Opts.DecodeAndVerify)
    return R;

  // Fused decode+verify: a non-null result is a verified module, so the
  // legacy mandatory TSAVerifier + counter-check second pass is gone from
  // the hot path.
  std::string Err;
  R.Unit = decodeModule(ByteSpan(R.Wire), &Err, DecodeOptions{Opts.Mode, true});
  if (!R.Unit) {
    R.Error = "decode failed: " + Err;
    return R;
  }
  R.DecodeOk = true;

  if (Opts.Paranoid || envSwitches().Paranoid) {
    R.Error = runParanoidOracle(*R.Unit->Module);
    if (!R.Error.empty())
      return R;
  }
  R.VerifyOk = true;
  return R;
}

BatchLoadResult BatchCompiler::loadOne(ByteSpan Wire,
                                       const BatchOptions &Opts) {
  BatchLoadResult R;
  std::string Err;
  R.Unit = decodeModule(Wire, &Err, DecodeOptions{Opts.Mode, true});
  if (!R.Unit) {
    R.Error = "decode failed: " + Err;
    return R;
  }
  if (Opts.Paranoid || envSwitches().Paranoid)
    R.Error = runParanoidOracle(*R.Unit->Module);
  return R;
}

std::vector<BatchResult> BatchCompiler::run(
    const std::vector<BatchJob> &Jobs) {
  std::vector<BatchResult> Results(Jobs.size());
  // Deterministic input-order results: each worker writes only its own
  // pre-allocated slot, so interleaving cannot reorder or race anything.
  ThreadPool Pool(Jobs.size() < Threads
                      ? static_cast<unsigned>(Jobs.size())
                      : Threads);
  for (size_t I = 0; I != Jobs.size(); ++I)
    Pool.submit([this, &Jobs, &Results, I] {
      Results[I] = runOne(Jobs[I], Opts);
    });
  Pool.wait();
  return Results;
}

std::vector<BatchLoadResult> BatchCompiler::load(
    const std::vector<ByteSpan> &Wires) {
  std::vector<BatchLoadResult> Results(Wires.size());
  ThreadPool Pool(Wires.size() < Threads
                      ? static_cast<unsigned>(Wires.size())
                      : Threads);
  for (size_t I = 0; I != Wires.size(); ++I)
    Pool.submit([this, &Wires, &Results, I] {
      Results[I] = loadOne(Wires[I], Opts);
    });
  Pool.wait();
  return Results;
}
