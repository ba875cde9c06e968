//===- driver/GenMain.cpp - safetsa-gen CLI -------------------------------===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the grammar-aware differential generator
/// (DESIGN.md §15). Soak mode sweeps a seed range through the full
/// configuration matrix; single-seed mode replays one seed (optionally
/// one configuration) byte-deterministically; --emit-source and
/// --emit-digest expose the generator's determinism to scripts.
///
///   safetsa-gen --seeds 200                    # soak seeds 0..199
///   safetsa-gen --seed 7 --config 9            # replay config 9 only
///   safetsa-gen --seed 7 --emit-source         # print the MJ program
///   safetsa-gen --seed 7 --emit-digest         # print the wire digest
///   safetsa-gen --replay crash.repro.mj        # re-check a dump file
///   safetsa-gen --list-configs
///
/// SAFETSA_GEN_SEEDS overrides the soak count (CI knob). Exit status is
/// 0 on full parity, 1 on any failure, 2 on usage errors. A row that
/// crashes prints its seed, config and replay command to stderr before
/// the process dies by the signal.
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "driver/Compiler.h"
#include "support/Digest.h"
#include "testgen/DifferentialRunner.h"
#include "testgen/Generator.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace safetsa;
using namespace safetsa::testgen;

namespace {

int usage(const char *Msg) {
  if (Msg)
    std::fprintf(stderr, "safetsa-gen: %s\n", Msg);
  std::fprintf(stderr,
               "usage: safetsa-gen [--seeds N] [--start S] [--seed N]\n"
               "                   [--config K] [--emit-source]"
               " [--emit-digest]\n"
               "                   [--dump DIR] [--shrink] [--fuel N]\n"
               "                   [--replay FILE] [--list-configs]\n");
  return 2;
}

bool parseU64(const char *S, uint64_t *Out) {
  if (!S || !*S)
    return false;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End)
    return false;
  *Out = V;
  return true;
}

int emitSource(uint64_t Seed) {
  std::fputs(generateProgram(Seed).c_str(), stdout);
  return 0;
}

int emitDigest(uint64_t Seed) {
  std::string Src = generateProgram(Seed);
  auto P = compileMJ("testgen.mj", Src);
  if (!P->ok()) {
    std::fprintf(stderr, "seed %llu does not compile:\n%s",
                 (unsigned long long)Seed, P->renderDiagnostics().c_str());
    return 1;
  }
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);
  std::printf("%s\n", digestOf(ByteSpan(Wire)).hex().c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Seeds = 200, Start = 0, OneSeed = 0;
  bool HaveSeed = false, EmitSource = false, EmitDigest = false;
  bool ListConfigs = false;
  std::string Replay;
  RunnerOptions Opts;

  if (const char *Env = std::getenv("SAFETSA_GEN_SEEDS")) {
    if (!parseU64(Env, &Seeds))
      return usage("SAFETSA_GEN_SEEDS is not a number");
  }

  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    auto next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    uint64_t V;
    if (!std::strcmp(A, "--seeds")) {
      if (!parseU64(next(), &Seeds))
        return usage("--seeds needs a count");
    } else if (!std::strcmp(A, "--start")) {
      if (!parseU64(next(), &Start))
        return usage("--start needs a seed");
    } else if (!std::strcmp(A, "--seed")) {
      if (!parseU64(next(), &OneSeed))
        return usage("--seed needs a seed");
      HaveSeed = true;
    } else if (!std::strcmp(A, "--config")) {
      if (!parseU64(next(), &V) || V >= DifferentialRunner::configCount())
        return usage("--config needs an index (see --list-configs)");
      Opts.OnlyConfig = int(V);
    } else if (!std::strcmp(A, "--fuel")) {
      if (!parseU64(next(), &V) || !V)
        return usage("--fuel needs a positive count");
      Opts.Fuel = V;
    } else if (!std::strcmp(A, "--dump")) {
      const char *D = next();
      if (!D)
        return usage("--dump needs a directory");
      Opts.DumpDir = D;
    } else if (!std::strcmp(A, "--shrink")) {
      Opts.Shrink = true;
    } else if (!std::strcmp(A, "--emit-source")) {
      EmitSource = true;
    } else if (!std::strcmp(A, "--emit-digest")) {
      EmitDigest = true;
    } else if (!std::strcmp(A, "--replay")) {
      const char *F = next();
      if (!F)
        return usage("--replay needs a file");
      Replay = F;
    } else if (!std::strcmp(A, "--list-configs")) {
      ListConfigs = true;
    } else {
      return usage((std::string("unknown argument: ") + A).c_str());
    }
  }

  if (ListConfigs) {
    for (unsigned K = 0; K != DifferentialRunner::configCount(); ++K)
      std::printf("%2u  %s\n", K, DifferentialRunner::configName(K));
    return 0;
  }
  if (EmitSource || EmitDigest) {
    if (!HaveSeed)
      return usage("--emit-source/--emit-digest need --seed");
    return EmitSource ? emitSource(OneSeed) : emitDigest(OneSeed);
  }

  installCrashReporter();
  DifferentialRunner Runner(Opts);

  if (!Replay.empty()) {
    std::ifstream F(Replay);
    if (!F)
      return usage("cannot open replay file");
    std::ostringstream SS;
    SS << F.rdbuf();
    SeedReport R = Runner.runSource(SS.str(), /*Seed=*/0);
    std::printf("%s\n", R.summary().c_str());
    return R.ok() || R.FuelBound ? 0 : 1;
  }

  if (HaveSeed) {
    SeedReport R = Runner.run(OneSeed);
    std::printf("%s\n", R.summary().c_str());
    return R.ok() || R.FuelBound ? 0 : 1;
  }

  // Soak: sweep the seed range, print a rollup, fail on any divergence.
  uint64_t Ok = 0, Skipped = 0, Failed = 0;
  for (uint64_t S = Start; S != Start + Seeds; ++S) {
    SeedReport R = Runner.run(S);
    if (!R.ok() && !R.FuelBound) {
      ++Failed;
      std::printf("%s\n", R.summary().c_str());
    } else if (R.FuelBound) {
      ++Skipped;
    } else {
      ++Ok;
    }
  }
  std::printf("safetsa-gen: %llu seeds [%llu..%llu): %llu ok, %llu "
              "fuel-skipped, %llu FAILED\n",
              (unsigned long long)Seeds, (unsigned long long)Start,
              (unsigned long long)(Start + Seeds), (unsigned long long)Ok,
              (unsigned long long)Skipped, (unsigned long long)Failed);
  return Failed ? 1 : 0;
}
