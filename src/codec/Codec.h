//===- codec/Codec.h - SafeTSA externalization ----------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SafeTSA wire format (paper §7): a module externalizes as a symbol
/// sequence where every symbol is drawn from a finite alphabet determined
/// by the preceding context, packed with the equal-probability prefix code
/// (support/BitStream's truncated-binary bounded symbols).
///
/// Three phases per method body:
///   (1) the Control Structure Tree as grammar productions,
///   (2) the basic blocks in dominator-tree pre-order — opcodes, types,
///       and (l, r) operands, with only the *types* of phis,
///   (3) the phi operands (they may reference blocks transmitted later)
///       together with the CST condition/return value references.
///
/// Referential security is a property of this format: an (l, r) operand is
/// decoded by walking l steps up the dominator tree and reading r bounded
/// by the number of values the target block holds on the implied plane —
/// an out-of-region or wrongly-typed reference is not expressible. The
/// decoder additionally rebuilds its own type table: builtin/imported
/// entries never come from the wire, so they cannot be corrupted (§4).
///
/// The Naive mode writes the same symbols byte-aligned (LEB128) instead of
/// context-bounded; it exists for the encoding-size ablation benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_CODEC_CODEC_H
#define SAFETSA_CODEC_CODEC_H

#include "sema/ClassTable.h"
#include "support/BitStream.h"
#include "tsa/Method.h"

#include <memory>
#include <string>
#include <vector>

namespace safetsa {

enum class CodecMode { Prefix, Naive };

/// Serializes \p Module, which must be verified and finalized: TSAGen and
/// optimizeModule leave every method finalized, and the encoder counts
/// (l, r) references on the planes finalize() numbered (debug builds
/// assert that each operand's plane matches its definition's).
std::vector<uint8_t> encodeModule(const TSAModule &Module,
                                  CodecMode Mode = CodecMode::Prefix);

/// A decoded mobile-code unit. The consumer owns a fresh type context and
/// class table (the shared builtins implicitly, user classes declared
/// from the wire), plus the decoded SafeTSA module.
struct DecodedUnit {
  std::unique_ptr<TypeContext> Types;
  std::unique_ptr<ClassTable> Table;
  std::unique_ptr<TSAModule> Module;
};

struct DecodeOptions {
  CodecMode Mode = CodecMode::Prefix;
  /// Fused decode+verify (the default): the decoder enforces the complete
  /// verifier rule set during its walks, so a successful decode implies
  /// the module is verified — no TSAVerifier pass is needed. Most rules
  /// hold by construction of the (l, r) reference scheme; this flag gates
  /// only the residual semantic checks (downcast legality, return-value
  /// presence, static initializer types). Setting it false reproduces the
  /// legacy structural-only decoder, for differential testing against the
  /// decode-then-TSAVerifier pipeline and for benchmarking; legacy callers
  /// must run TSAVerifier + counterCheckModule themselves.
  bool FusedVerify = true;
  /// Decode bounded symbols through the precomputed per-alphabet tables.
  /// Setting it false forces the scalar bit-at-a-time reader — the
  /// pre-table decoder, kept as the legacy benchmark baseline and as a
  /// differential oracle for the table path (identical symbols and bit
  /// positions on every stream, hostile ones included).
  bool TableDecode = true;
};

/// Decodes a mobile-code unit from a non-owning byte span (batch drivers
/// decode straight out of a shared receive buffer). Returns nullptr and
/// sets \p Err on any malformed, truncated, or tampered input; never
/// crashes on hostile bytes. With Opts.FusedVerify (the default), decode
/// success means the module is fully verified.
std::unique_ptr<DecodedUnit> decodeModule(ByteSpan Bytes, std::string *Err,
                                          const DecodeOptions &Opts);

/// Bytes the calling thread's decoder scratch holds between decodes: the
/// register file, plane numbering, CFG scratch and stacks every decode on
/// the thread reuses. A decode that leaves more than 256 KiB behind
/// releases it all, so this never exceeds that cap (DESIGN.md §8).
size_t decoderScratchBytes();

/// Convenience overload for owning buffers; decodes fused.
inline std::unique_ptr<DecodedUnit>
decodeModule(const std::vector<uint8_t> &Bytes, std::string *Err,
             CodecMode Mode = CodecMode::Prefix) {
  return decodeModule(ByteSpan(Bytes), Err, DecodeOptions{Mode, true});
}

} // namespace safetsa

#endif // SAFETSA_CODEC_CODEC_H
