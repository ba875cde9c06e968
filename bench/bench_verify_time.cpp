//===- bench/bench_verify_time.cpp - Verification cost --------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times consumer-side verification of the two formats over the corpus:
/// the JVM-style dataflow fixpoint over stack/local types vs. SafeTSA's
/// structural pass, whose reference checking degenerates to per-plane
/// counters (§9: "checking that all operand accesses to the stack are
/// valid — which requires a data flow analysis — decreases the runtime of
/// applications significantly … In SafeTSA this verification phase is
/// done by checking if a value has already been defined, which can be
/// implemented using simple counters").
///
/// A second table times loading from wire bytes: a bytecode class file
/// read and verified, against SafeTSA's fused decode+verify (a successful
/// decode is a verified module, DESIGN.md §8) and against the two-pass
/// pipeline the fusion replaced (structural decode with the scalar
/// bit-at-a-time reader, then TSAVerifier and the counter check). SafeTSA
/// decode also re-derives CFG and dominators, the preprocessing a JIT
/// would otherwise redo.
///
/// Each row is one pass over the whole corpus; each pair is a compareAB
/// median (BenchUtil.h). Emits BENCH_verify_time.json.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "bytecode/BCVerifier.h"

#include <cstdio>
#include <cstdlib>

using namespace safetsa;

namespace {

struct Compiled {
  std::unique_ptr<CompiledProgram> C;
  std::unique_ptr<BCModule> BC;
  std::vector<uint8_t> TSAWire;
  std::vector<uint8_t> BCWire;
};

/// Aborts rather than returning: a row that stops verifying would time a
/// shortcut instead of the check.
void require(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "%s failed on a corpus module\n", What);
    std::abort();
  }
}

void printRow(const char *Name, double Seconds) {
  std::printf("  %-58s %8.3f ms\n", Name, Seconds * 1e3);
}

} // namespace

int main() {
  const bool Smoke = smokeMode();
  std::printf("Verification cost, whole corpus per pass%s\n\n",
              Smoke ? " [smoke]" : "");

  std::vector<Compiled> Programs;
  for (const CorpusProgram &P : getCorpus()) {
    Compiled X;
    X.C = compileMJ(P.Name, P.Source);
    if (!X.C->ok()) {
      std::fprintf(stderr, "%s failed to compile:\n%s\n", P.Name,
                   X.C->renderDiagnostics().c_str());
      return 1;
    }
    BCCompiler BCC(X.C->Types, *X.C->Table);
    X.BC = BCC.compile(X.C->AST);
    X.TSAWire = encodeModule(*X.C->TSA);
    X.BCWire = writeBCModule(*X.BC);
    Programs.push_back(std::move(X));
  }

  uint64_t DataflowIters = 0;
  auto Dataflow = [&] {
    DataflowIters = 0;
    for (const Compiled &X : Programs) {
      BCVerifier V(*X.BC);
      require(V.verify(), "bytecode dataflow verification");
      DataflowIters += V.getIterationCount();
    }
  };
  auto Structural = [&] {
    for (const Compiled &X : Programs) {
      TSAVerifier V(*X.C->TSA);
      require(V.verify(), "SafeTSA structural verification");
    }
  };
  // The paper's residual check in isolation: references only, typing
  // being intact by construction of the wire format.
  auto Counter = [&] {
    for (const Compiled &X : Programs)
      require(counterCheckModule(*X.C->TSA), "SafeTSA counter check");
  };
  auto BytecodeLoad = [&] {
    for (const Compiled &X : Programs) {
      std::string Err;
      auto M = readBCModule(X.BCWire, &Err);
      require(M != nullptr, "bytecode class-file read");
      BCVerifier V(*M);
      require(V.verify(), "bytecode dataflow verification");
    }
  };
  auto Fused = [&] {
    for (const Compiled &X : Programs) {
      std::string Err;
      require(decodeModule(X.TSAWire, &Err) != nullptr,
              "SafeTSA fused decode+verify");
    }
  };
  auto TwoPass = [&] {
    for (const Compiled &X : Programs) {
      std::string Err;
      auto Unit = decodeModule(
          ByteSpan(X.TSAWire), &Err,
          DecodeOptions{CodecMode::Prefix, /*FusedVerify=*/false,
                        /*TableDecode=*/false});
      require(Unit != nullptr, "SafeTSA structural decode");
      TSAVerifier V(*Unit->Module);
      require(V.verify(), "SafeTSA structural verification");
      require(counterCheckModule(*Unit->Module), "SafeTSA counter check");
    }
  };

  ABTiming DataflowVsCounter = compareAB(Smoke, Dataflow, Counter);
  ABTiming StructuralVsCounter = compareAB(Smoke, Structural, Counter);
  ABTiming BytecodeVsFused = compareAB(Smoke, BytecodeLoad, Fused);
  ABTiming TwoPassVsFused = compareAB(Smoke, TwoPass, Fused);

  std::printf("Verify an in-memory module:\n");
  printRow("bytecode dataflow verify (fixpoint)",
           DataflowVsCounter.SecondsA);
  printRow("SafeTSA structural verifier (CFG, planes, dominance)",
           StructuralVsCounter.SecondsA);
  printRow("SafeTSA counter check (the paper's residual check)",
           DataflowVsCounter.SecondsB);
  std::printf("  dataflow / counter check: %.1fx (%llu dataflow "
              "iterations per pass)\n",
              DataflowVsCounter.Ratio,
              static_cast<unsigned long long>(DataflowIters));
  std::printf("  structural verifier / counter check: %.1fx\n",
              StructuralVsCounter.Ratio);

  std::printf("\nLoad from wire bytes:\n");
  printRow("bytecode read + dataflow verify", BytecodeVsFused.SecondsA);
  printRow("SafeTSA fused decode+verify", TwoPassVsFused.SecondsB);
  printRow("SafeTSA two-pass (scalar decode, verifier, counter check)",
           TwoPassVsFused.SecondsA);
  std::printf("  two-pass / fused: %.2fx\n", TwoPassVsFused.Ratio);
  std::printf("  bytecode load / fused: %.2fx\n", BytecodeVsFused.Ratio);

  BenchJson Json("verify_time");
  Json.add("bytecode_dataflow_verify_ms", DataflowVsCounter.SecondsA * 1e3,
           "ms");
  Json.add("dataflow_iters", static_cast<double>(DataflowIters), "");
  Json.add("tsa_structural_verify_ms", StructuralVsCounter.SecondsA * 1e3,
           "ms");
  Json.add("tsa_counter_check_ms", DataflowVsCounter.SecondsB * 1e3, "ms");
  Json.add("dataflow_over_counter", DataflowVsCounter.Ratio, "x");
  Json.add("structural_over_counter", StructuralVsCounter.Ratio, "x");
  Json.add("bytecode_load_ms", BytecodeVsFused.SecondsA * 1e3, "ms");
  Json.add("tsa_fused_load_ms", TwoPassVsFused.SecondsB * 1e3, "ms");
  Json.add("tsa_two_pass_load_ms", TwoPassVsFused.SecondsA * 1e3, "ms");
  Json.add("two_pass_over_fused", TwoPassVsFused.Ratio, "x");
  Json.add("bytecode_load_over_fused", BytecodeVsFused.Ratio, "x");
  Json.write();
  return 0;
}
