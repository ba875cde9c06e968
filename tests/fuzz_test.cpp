//===- tests/fuzz_test.cpp - Fused-verify mutation fuzz --------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fused decoder claims to enforce the complete verifier rule set
/// during decode. The claim is checked by brute force: the encoding of a
/// generated program (testgen's generateProgram, the generator the
/// differential soak uses) and hundreds of mutations of it must get the
/// identical accept/reject verdict from the fused path and from the
/// legacy pipeline (structural-only decode, then TSAVerifier, then the
/// counter check). A stream only one path rejects is either a verifier
/// rule the fused decoder dropped or a bogus rejection it invented.
///
/// Mutation survivors (streams both decoder pipelines accept) are handed
/// to the shared testgen DifferentialRunner wire matrix — every
/// configuration that needs no source program, against the tree-walk
/// oracle — with reproducer dump-on-failure, the same harness
/// `safetsa-gen` soaks with (DESIGN.md §15).
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "driver/Compiler.h"
#include "support/Digest.h"
#include "testgen/DifferentialRunner.h"
#include "testgen/Generator.h"
#include "tsa/Verifier.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <random>

using namespace safetsa;

namespace {

/// Legacy three-stage verdict for one byte stream. Uses the scalar
/// bit-at-a-time reader, so one mismatch-free run also proves the decode
/// tables bit-equivalent to the scalar walk on hostile input.
bool legacyAccepts(const std::vector<uint8_t> &Bytes) {
  std::string Err;
  auto Unit = decodeModule(ByteSpan(Bytes), &Err,
                           DecodeOptions{CodecMode::Prefix, false, false});
  if (!Unit)
    return false;
  TSAVerifier V(*Unit->Module);
  return V.verify() && counterCheckModule(*Unit->Module);
}

/// Fused single-pass verdict for the same stream.
bool fusedAccepts(const std::vector<uint8_t> &Bytes) {
  std::string Err;
  auto Unit = decodeModule(ByteSpan(Bytes), &Err,
                           DecodeOptions{CodecMode::Prefix, true});
  return Unit != nullptr;
}

/// A stream both paths accept must also *execute* soundly — not just at
/// one forced-inlining configuration, but across the shared testgen
/// matrix: scalar decode, tier 0 and tier 1 in every variant, GC stress
/// on each engine, each against the tree-walk oracle on the decoded
/// module. A surviving
/// mutant that perturbs the splicer, the fusion shadow slots, or the
/// reference-slot maps surfaces here as a divergence or a sanitizer
/// report — and dumps its wire image + detail into the reproducer
/// directory for offline triage.
testgen::DifferentialRunner &survivorRunner() {
  static testgen::DifferentialRunner *Runner = [] {
    testgen::RunnerOptions Opts;
    Opts.DumpDir = (std::filesystem::temp_directory_path() /
                    "safetsa_fuzz_survivors")
                       .string();
    return new testgen::DifferentialRunner(Opts);
  }();
  return *Runner;
}

class FusedVerdictFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(FusedVerdictFuzz, FusedAndLegacyVerdictsMatch) {
  std::string Source = testgen::generateProgram(GetParam());
  SCOPED_TRACE("seed " + std::to_string(GetParam()));

  auto P = compileMJ("fuzz.mj", Source);
  ASSERT_TRUE(P->ok()) << P->renderDiagnostics() << "\n" << Source;
  std::vector<uint8_t> Wire = encodeModule(*P->TSA);

  auto CheckVerdict = [&](const std::vector<uint8_t> &Bytes,
                          const std::string &What) {
    bool Fused = fusedAccepts(Bytes);
    bool Legacy = legacyAccepts(Bytes);
    EXPECT_EQ(Fused, Legacy)
        << What << ": fused says " << (Fused ? "accept" : "reject")
        << ", legacy says " << (Legacy ? "accept" : "reject") << "\n"
        << Source;
    // Content addressing underneath the distribution layer: any mutation
    // that changed the bytes must change the digest, or a cache keyed on
    // digests could serve a tampered stream under the original's verdict.
    if (Bytes != Wire) {
      EXPECT_NE(digestOf(ByteSpan(Bytes)), digestOf(ByteSpan(Wire))) << What;
    }
    // Survivors run the full execution matrix; any divergence dumps a
    // reproducer (wire bytes + detail, keyed by content digest).
    if (Fused && Legacy) {
      std::string Detail;
      EXPECT_TRUE(survivorRunner().checkWire(Bytes, What, &Detail))
          << Detail << "\n" << Source;
    }
  };

  // The untampered encoding must be accepted by both.
  EXPECT_TRUE(fusedAccepts(Wire)) << Source;
  CheckVerdict(Wire, "untampered");

  std::mt19937 Rng(GetParam() * 7919 + 17);
  auto Pick = [&](size_t N) { return Rng() % N; };

  // Single-bit flips at random positions.
  for (unsigned I = 0; I != 40; ++I) {
    std::vector<uint8_t> M = Wire;
    size_t Byte = Pick(M.size());
    M[Byte] ^= uint8_t(1) << Pick(8);
    CheckVerdict(M, "bit flip at byte " + std::to_string(Byte));
  }

  // Whole-byte substitutions.
  for (unsigned I = 0; I != 20; ++I) {
    std::vector<uint8_t> M = Wire;
    size_t Byte = Pick(M.size());
    M[Byte] = static_cast<uint8_t>(Rng());
    CheckVerdict(M, "byte substitution at " + std::to_string(Byte));
  }

  // Truncations at random lengths (including the empty stream).
  for (unsigned I = 0; I != 10; ++I) {
    std::vector<uint8_t> M = Wire;
    M.resize(Pick(M.size() + 1));
    CheckVerdict(M, "truncation to " + std::to_string(M.size()));
  }

  // Random garbage appended past the end.
  {
    std::vector<uint8_t> M = Wire;
    for (unsigned I = 0; I != 8; ++I)
      M.push_back(static_cast<uint8_t>(Rng()));
    CheckVerdict(M, "trailing garbage");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedVerdictFuzz,
                         ::testing::Range(2000u, 2030u));

} // namespace
