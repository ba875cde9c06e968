//===- perfbench/freeze.cpp - Regenerate the frozen benchmark inputs ------===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Writes the benchmark's frozen programs and their expected outcomes into
/// programs/pool/: generated programs (testgen seeds), the pool every
/// workload draws its requests from.
///
/// Each program gets <name>.mj (source) and <name>.expect (first line the
/// trap name, "none" for a normal return; the rest is the exact output).
/// The MANIFEST lists the programs in order with the reason each one is
/// there.
///
/// Expected outcomes come from the tree-walk interpreter over the
/// unoptimized SafeTSA module and are cross-checked against the bytecode
/// backend (BCCompiler -> BCVerifier -> BCInterpreter), an executable
/// derived independently from the same AST. Any disagreement, compile
/// error or verifier rejection aborts the freeze. The benchmark itself
/// never links the generator: regenerating is the only way a Generator
/// change reaches what the benchmark measures.
///
/// Usage: perfbench_freeze <programs-dir>
///
//===----------------------------------------------------------------------===//

#include "bytecode/BCCompiler.h"
#include "bytecode/BCInterp.h"
#include "bytecode/BCVerifier.h"
#include "driver/Compiler.h"
#include "exec/ExecUnit.h"
#include "exec/TSAInterp.h"
#include "testgen/Generator.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace safetsa;
namespace fs = std::filesystem;

namespace {

/// The generator seeds considered for the pool, and how many the pool
/// keeps. Seeds whose reference run exhausts kFuel are skipped, as the
/// differential soak skips them.
constexpr uint64_t kFirstSeed = 0;
constexpr uint64_t kSeedCount = 300;
constexpr size_t kPoolSize = 128;
constexpr uint64_t kFuel = 20'000'000;

struct Outcome {
  RuntimeError Err = RuntimeError::None;
  std::string Output;
  bool operator==(const Outcome &O) const {
    return Err == O.Err && Output == O.Output;
  }
};

struct Frozen {
  std::string Name;
  std::string Source;
  Outcome Expected;
  uint64_t Insts = 0;     ///< Tier-0 executed instructions of one run.
  uint64_t HeapCells = 0; ///< Heap high-water mark of one run, in cells.
};

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench_freeze: %s\n", Msg.c_str());
  std::exit(1);
}

/// Compiles \p Source, runs both oracles, and insists they agree. Returns
/// false (and leaves \p Out untouched) when the reference is fuel-bound.
bool freezeOne(const std::string &Name, const std::string &Source,
               Frozen &Out) {
  auto P = compileMJ(Name + ".mj", Source);
  if (!P->ok() || !P->TSA)
    die(Name + ": does not compile:\n" + P->renderDiagnostics());

  Outcome Tree;
  uint64_t HeapCells = 0;
  {
    Runtime RT(*P->Table, kFuel);
    TSAInterpreter I(*P->TSA, RT);
    Tree = {I.runMain().Err, RT.getOutput()};
    HeapCells = RT.heapCells() - 1; // Cell 0 is the reserved null.
  }
  if (Tree.Err == RuntimeError::OutOfFuel)
    return false;

  Outcome BC;
  {
    BCCompiler BCC(P->Types, *P->Table);
    auto Mod = BCC.compile(P->AST);
    BCVerifier BV(*Mod);
    if (!BV.verify())
      die(Name + ": bytecode verifier rejects the program");
    Runtime RT(*P->Table, kFuel);
    BCInterpreter I(*Mod, RT, P->Types);
    BC = {I.runMain().Err, RT.getOutput()};
  }
  if (!(BC == Tree))
    die(Name + ": tree-walk (" + runtimeErrorName(Tree.Err) +
        ") and bytecode (" + runtimeErrorName(BC.Err) + ") disagree");

  uint64_t Insts = 0;
  {
    auto PM = prepareModule(*P->TSA);
    if (!PM)
      die(Name + ": prepareModule failed");
    Runtime RT(*P->Table, kFuel);
    TSAExec X(*PM, RT);
    Outcome Prepared{X.runMain().Err, RT.getOutput()};
    if (!(Prepared == Tree))
      die(Name + ": prepared tier 0 disagrees with the tree walker");
    Insts = kFuel - RT.fuelLeft();
  }
  Out = {Name, Source, Tree, Insts, HeapCells};
  return true;
}

void writeFile(const fs::path &Path, const std::string &Bytes) {
  std::ofstream OS(Path, std::ios::binary);
  OS << Bytes;
  if (!OS)
    die("cannot write " + Path.string());
}

void writeSet(const fs::path &Dir, const std::vector<Frozen> &Set,
              const std::vector<std::string> &Why,
              const std::string &Header) {
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::string Manifest = Header;
  for (size_t I = 0; I != Set.size(); ++I) {
    const Frozen &F = Set[I];
    writeFile(Dir / (F.Name + ".mj"), F.Source);
    writeFile(Dir / (F.Name + ".expect"),
              std::string(runtimeErrorName(F.Expected.Err)) + "\n" +
                  F.Expected.Output);
    Manifest += F.Name + "\t" + std::to_string(F.Insts) + "\t" +
                std::to_string(F.HeapCells) + "\t" + Why[I] + "\n";
  }
  writeFile(Dir / "MANIFEST", Manifest);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2)
    die("usage: perfbench_freeze <programs-dir>");
  const fs::path Root = Argv[1];

  // The pool: every non-fuel-bound seed in [kFirstSeed, +kSeedCount),
  // thinned to kPoolSize by an even stride over the survivors so the
  // pool spans the whole seed range rather than its prefix.
  std::vector<Frozen> Candidates;
  unsigned FuelBound = 0;
  for (uint64_t S = kFirstSeed; S != kFirstSeed + kSeedCount; ++S) {
    char Name[16];
    std::snprintf(Name, sizeof(Name), "g%03llu",
                  static_cast<unsigned long long>(S));
    Frozen F;
    if (freezeOne(Name, testgen::generateProgram(S), F))
      Candidates.push_back(std::move(F));
    else
      ++FuelBound;
  }
  if (Candidates.size() < kPoolSize)
    die("too few non-fuel-bound seeds for the pool");
  std::vector<Frozen> Pool;
  std::vector<std::string> PoolWhy;
  for (size_t I = 0; I != kPoolSize; ++I) {
    size_t Pick = I * Candidates.size() / kPoolSize;
    Pool.push_back(Candidates[Pick]);
    PoolWhy.push_back("seed " + Pool.back().Name.substr(1) + ", pick " +
                      std::to_string(I) + " of an even stride over the " +
                      std::to_string(Candidates.size()) +
                      " non-fuel-bound seeds");
  }

  writeSet(Root / "pool", Pool, PoolWhy,
           "# name\ttier0_insts\theap_cells\twhy (generator seeds " +
               std::to_string(kFirstSeed) + ".." +
               std::to_string(kFirstSeed + kSeedCount - 1) + ", " +
               std::to_string(FuelBound) + " fuel-bound at " +
               std::to_string(kFuel) + " skipped)\n");
  std::printf("froze %zu pool programs (%u fuel-bound seeds skipped) into "
              "%s\n",
              Pool.size(), FuelBound, Root.c_str());
  return 0;
}
