//===- serve/CodeClient.h - Client side of PUBLISH/FETCH ------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A consumer/producer endpoint speaking the framed protocol over one
/// Transport connection. Strictly request/response — one client per
/// connection, one thread per client; parallel traffic uses parallel
/// connections (see Serve.ParallelClientSessions in tests/serve_test.cpp,
/// and perfbench's two clients per workload).
///
/// The client embodies the consumer's trust stance: publish() checks the
/// returned digest against a locally computed one (the server cannot
/// mislabel stored bytes), and fetchAndLoad() fused-decodes the fetched
/// bytes locally, so a tampering server yields a typed error, never an
/// unverified module.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SERVE_CODECLIENT_H
#define SAFETSA_SERVE_CODECLIENT_H

#include "serve/CodeServer.h"
#include "serve/Protocol.h"
#include "serve/Transport.h"

namespace safetsa {

class CodeClient {
public:
  /// The transport must outlive the client.
  explicit CodeClient(Transport &T) : T(T) {}

  /// Publishes encoded module bytes; fills \p Out with the server-issued
  /// digest (verified to equal the local digest of \p Module).
  bool publish(ByteSpan Module, Digest &Out, std::string *Err = nullptr);

  /// Fetches the exact bytes stored under \p D. False with "not found"
  /// in \p Err when the server has no such module.
  bool fetch(const Digest &D, std::vector<uint8_t> &Out,
             std::string *Err = nullptr);

  /// fetch() + local fused decode+verify: null on unknown digest, on a
  /// server returning bytes whose digest does not match \p D, or on
  /// bytes that fail to decode.
  std::unique_ptr<DecodedUnit> fetchAndLoad(const Digest &D,
                                            std::string *Err = nullptr);

  /// Server-side counters.
  bool stats(ServeStats &Out, std::string *Err = nullptr);

  /// Ends the session (the server's read sees EOF).
  void close() { T.closeSend(); }

private:
  /// One request/response exchange; false on transport or framing
  /// failure, or when the server answered Error.
  bool roundTrip(MsgType Request, ByteSpan Payload, Frame &Response,
                 std::string *Err);

  Transport &T;
};

} // namespace safetsa

#endif // SAFETSA_SERVE_CODECLIENT_H
