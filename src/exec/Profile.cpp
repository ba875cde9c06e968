//===- exec/Profile.cpp - Profile storage + tier introspection -*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/ExecUnit.h"

#include <algorithm>
#include <cstdio>
#include <new>

using namespace safetsa;

/// Counters per 64-byte line.
static constexpr size_t kLine = 64 / sizeof(std::atomic<uint64_t>);

static size_t lines(size_t N) { return (N + kLine - 1) / kLine; }

ProfileData::ProfileData(size_t NumUnits, size_t NumSites)
    : NUnits(NumUnits), NSites(NumSites), Classes(NumSites * kWays) {
  for (auto &W : Classes)
    W.store(nullptr, std::memory_order_relaxed);
  // One zeroed, 64-byte-aligned block holds every stripe's arrays; each
  // array starts on its own cache line, so stripes never false-share.
  size_t InvLen = lines(NUnits) * kLine;
  size_t CntLen = lines(NSites * kCols) * kLine;
  size_t Total = (InvLen + CntLen) * kStripes;
  Block = static_cast<std::atomic<uint64_t> *>(::operator new(
      std::max<size_t>(Total, 1) * sizeof(std::atomic<uint64_t>),
      std::align_val_t(64)));
  for (size_t I = 0; I != Total; ++I)
    new (Block + I) std::atomic<uint64_t>(0);
  for (unsigned K = 0; K != kStripes; ++K) {
    Stripes[K].Inv = Block + K * (InvLen + CntLen);
    Stripes[K].Cnt = Stripes[K].Inv + InvLen;
  }
}

ProfileData::~ProfileData() {
  // std::atomic<uint64_t> is trivially destructible.
  ::operator delete(Block, std::align_val_t(64));
}

uint64_t ProfileData::totalDispatchSamples() const {
  uint64_t T = 0;
  for (const Stripe &S : Stripes)
    for (size_t I = 0, N = NSites * kCols; I != N; ++I)
      T += S.Cnt[I].load(std::memory_order_relaxed);
  return T;
}

/// Superinstructions occupy two code slots: the fused instruction plus
/// the (never-dispatched) original second instruction kept behind it so
/// every branch target and handler index survives fusion unchanged.
static bool isFusedPair(XOp Op) {
  // Fused forms are kept contiguous at the tail of SAFETSA_XOP_LIST.
  return Op >= XOp::BrCmpLtI && Op <= XOp::MoveJmp;
}

size_t PreparedModule::countOp(XOp Op) const {
  size_t N = 0;
  for (const auto &U : Units)
    for (size_t I = 0; I < U->Code.size(); ++I) {
      if (U->Code[I].Op == Op)
        ++N;
      if (isFusedPair(U->Code[I].Op))
        ++I; // The shadow slot is dead code; do not count it.
    }
  return N;
}

size_t PreparedModule::countICs(unsigned Ways) const {
  size_t N = 0;
  for (const auto &U : Units)
    for (const ExecInst &X : U->Code)
      if (X.Op == XOp::DispatchIC && U->ICs[X.S].Ways == Ways)
        ++N;
  return N;
}

std::string safetsa::renderTierSummary(const PreparedModule &PM) {
  char Buf[384];
  size_t Fused = 0;
  for (unsigned Op = static_cast<unsigned>(XOp::BrCmpLtI);
       Op <= static_cast<unsigned>(XOp::MoveJmp); ++Op)
    Fused += PM.countOp(static_cast<XOp>(Op));
  size_t PolyICs = 0;
  for (unsigned W = 2; W <= ICEntry::kMaxWays; ++W)
    PolyICs += PM.countICs(W);
  std::snprintf(
      Buf, sizeof(Buf),
      "tier=%u units=%zu insts=%zu mono=%zu poly=%zu "
      "vtable=%zu direct=%zu fused=%zu profmono=%u monodirect=%u "
      "devirt=%u inlined=%u ichits=%llu icmisses=%llu guardmiss=%llu",
      PM.Tier, PM.Units.size(), PM.totalCode(), PM.countICs(1), PolyICs,
      PM.countOp(XOp::Dispatch), PM.countOp(XOp::CallUnit), Fused,
      PM.Tiering.ProfiledMono, PM.Tiering.MonoLoweredDirect,
      PM.Tiering.DevirtCalls, PM.Tiering.InlinedSites,
      static_cast<unsigned long long>(
          PM.ICHits.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          PM.ICMisses.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          PM.InlineGuardMisses.load(std::memory_order_relaxed)));
  return Buf;
}
