//===- perfbench/e2e.cpp - End-to-end mobile-code benchmark ---------------===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One request end to end through the public entry points, in three
/// workloads of two clients each (README.md explains why each exists):
///
///   cold-start  fetch over the client's socketpair, digest check, fused
///               decode+verify, tier-0 prepare, run on a fresh Runtime;
///   warm-serve  in-process load + loadPrepared (warm tier-1 hit), run on a
///               fresh Runtime;
///   publish     compile, optimize, encode, digest, publish over the
///               client's socketpair (deduplicated).
///
/// Every workload is a closed loop and every request's outcome is checked
/// against the frozen expectation under programs/. An untraced run reports
/// the end-to-end metrics; a traced run (--trace 1) records a span around
/// every call into a layer and reports per-layer self times and counts.
///
/// Prints a readable summary, then as its last stdout line one JSON object
/// {"correct", "attempted", "failed", "metrics"}. Exits 3 without a result
/// when a window is not in steady state (see checkStationary), and 4 when a
/// traced request's call spans break the flat self-time model.
///
//===----------------------------------------------------------------------===//

#include "codec/Codec.h"
#include "driver/Compiler.h"
#include "exec/ExecUnit.h"
#include "opt/Optimizer.h"
#include "serve/CodeClient.h"
#include "serve/CodeServer.h"
#include "serve/Transport.h"
#include "support/Digest.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace safetsa;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Constants
//===----------------------------------------------------------------------===//

/// Independent set-ups per untraced run: one before the window and one
/// between each two of its kSetups segments, so they sample the host across
/// the whole run as the window does. setup_s is their median.
constexpr unsigned kSetups = 9;
/// Runs of a module at tier 0 before giving up on it reaching tier 1.
constexpr unsigned kMaxWarmRuns = 256;
/// Fuel per run: far above the longest frozen program (~32k insts), so
/// fuel left over gives the executed-instruction count.
constexpr uint64_t kFuel = 200'000'000;
/// Requests per client whose spans are kept for the trace file; the
/// per-layer aggregates always cover every traced request.
constexpr uint64_t kKeptTraceRequests = 500;
/// Throughput slice width for the host-noise line on stderr.
constexpr uint64_t kSliceNs = 1'000'000'000;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void die(int Code, const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(Code);
}

//===----------------------------------------------------------------------===//
// Frozen inputs
//===----------------------------------------------------------------------===//

struct FrozenProgram {
  std::string Name;
  std::string FileName;
  std::string Source;
  RuntimeError Trap = RuntimeError::None;
  std::string Output;
};

RuntimeError parseTrap(const std::string &Name) {
  for (unsigned E = 0; E <= static_cast<unsigned>(RuntimeError::Internal);
       ++E)
    if (Name == runtimeErrorName(static_cast<RuntimeError>(E)))
      return static_cast<RuntimeError>(E);
  die(2, "unknown trap name '" + Name + "' in an .expect file");
}

std::string readFile(const fs::path &P) {
  std::ifstream IS(P, std::ios::binary);
  if (!IS)
    die(2, "cannot read " + P.string());
  std::ostringstream SS;
  SS << IS.rdbuf();
  return SS.str();
}

/// Reads the programs a set's MANIFEST lists, in manifest order.
std::vector<FrozenProgram> loadPrograms(const fs::path &Dir) {
  std::vector<FrozenProgram> Out;
  std::istringstream Manifest(readFile(Dir / "MANIFEST"));
  for (std::string Line; std::getline(Manifest, Line);) {
    if (Line.empty() || Line[0] == '#')
      continue;
    FrozenProgram P;
    P.Name = Line.substr(0, Line.find('\t'));
    P.FileName = P.Name + ".mj";
    P.Source = readFile(Dir / P.FileName);
    std::string Expect = readFile(Dir / (P.Name + ".expect"));
    size_t NL = Expect.find('\n');
    if (NL == std::string::npos)
      die(2, P.Name + ".expect has no trap line");
    P.Trap = parseTrap(Expect.substr(0, NL));
    P.Output = Expect.substr(NL + 1);
    Out.push_back(std::move(P));
  }
  if (Out.empty())
    die(2, "no programs listed in " + (Dir / "MANIFEST").string());
  return Out;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Request { ColdStart, Warm, Publish };

struct Workload {
  const char *Name;
  Request Req;
  const char *ProgramSet; ///< Subdirectory of programs/.
  unsigned Clients;
};

const Workload kWorkloads[] = {
    {"cold-start", Request::ColdStart, "pool", 2},
    {"warm-serve", Request::Warm, "pool", 2},
    {"publish", Request::Publish, "pool", 2},
};

/// Seeded request order: rounds of a Fisher-Yates shuffle of the program
/// indices, so every program is requested equally often (at most one
/// request apart) and percentiles do not depend on a lucky draw.
class RequestOrder {
public:
  RequestOrder(uint64_t Seed, unsigned Client, size_t NumPrograms)
      : State(Seed * 0x9e3779b97f4a7c15ull + Client + 1),
        Perm(NumPrograms), Pos(NumPrograms) {
    for (size_t I = 0; I != NumPrograms; ++I)
      Perm[I] = static_cast<uint32_t>(I);
  }

  uint32_t next() {
    if (Pos == Perm.size()) {
      for (size_t I = Perm.size(); I > 1; --I)
        std::swap(Perm[I - 1], Perm[rand() % I]);
      Pos = 0;
    }
    return Perm[Pos++];
  }

private:
  uint64_t rand() { // SplitMix64.
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }

  uint64_t State;
  std::vector<uint32_t> Perm;
  size_t Pos;
};

//===----------------------------------------------------------------------===//
// Tracing: spans recorded by this file around calls into each layer
//===----------------------------------------------------------------------===//

/// The traced calls. Every call span is a child of its request's span
/// (the calls do not nest), so a layer's self time is its span duration
/// and the request span's self time is the unattributed remainder.
/// Tracer::endRequest checks that model on every traced request.
enum Call : uint8_t {
  CRequest,
  CCompile,
  COptimize,
  CEncode,
  CDigest,
  CPublish,
  CFetch,
  CDecode,
  CPrepare,
  CLoad,
  CLoadPrepared,
  CExecSetup,
  CRunMain,
  CTeardown,
  NumCalls
};

const char *const kCallName[NumCalls] = {
    "request",        "compileMJ",         "optimizeModule",
    "encodeModule",   "digestOf",          "CodeClient::publish",
    "CodeClient::fetch", "decodeModule",   "prepareModule",
    "CodeServer::load", "CodeServer::loadPrepared", "Runtime+TSAExec",
    "TSAExec::runMain", "teardown"};

/// Per-layer metric prefix of each call (load and loadPrepared share
/// serve.load).
enum Layer : uint8_t {
  LFrontend,
  LOpt,
  LEncode,
  LDigest,
  LPublish,
  LFetch,
  LDecode,
  LPrepare,
  LLoad,
  LExecSetup,
  LExecRun,
  LTeardown,
  NumLayers
};

const char *const kLayerName[NumLayers] = {
    "frontend",      "opt",          "codec.encode", "digest",
    "serve.publish", "serve.fetch",  "codec.decode", "exec.prepare",
    "serve.load",    "exec.setup",   "exec.run",     "teardown"};

const Layer kCallLayer[NumCalls] = {
    NumLayers, LFrontend, LOpt,   LEncode,    LDigest,  LPublish, LFetch,
    LDecode,   LPrepare,  LLoad,  LLoad,      LExecSetup, LExecRun,
    LTeardown};

struct Span {
  uint64_t Req;
  uint64_t Start;
  uint64_t End;
  Call What;
};

/// One client thread's spans and aggregates.
class Tracer {
public:
  explicit Tracer(unsigned Client) : Client(Client) {}

  void beginRequest(uint64_t Req) {
    Current = Req;
    Open.clear();
    Open.push_back({Req, nowNs(), 0, CRequest});
  }

  void record(Call C, uint64_t Start, uint64_t End) {
    Open.push_back({Current, Start, End, C});
  }

  void endRequest() {
    Span &R = Open.front();
    R.End = nowNs();
    // Call spans are recorded as they end. The flat model needs each to
    // start no earlier than the previous one (or the request) ended, and
    // the last to end no later than the request.
    uint64_t Children = 0, PrevEnd = R.Start;
    bool Nested = false;
    for (size_t I = 1; I != Open.size(); ++I) {
      const Span &S = Open[I];
      Nested |= S.Start < PrevEnd || S.End < S.Start;
      PrevEnd = S.End;
      LayerNs[kCallLayer[S.What]] += S.End - S.Start;
      Children += S.End - S.Start;
    }
    Nested |= PrevEnd > R.End;
    BadRequests += Nested;
    RequestNs += R.End - R.Start;
    UnattributedNs += (R.End - R.Start) - Children;
    ++Requests;
    if (Requests <= kKeptTraceRequests)
      Kept.insert(Kept.end(), Open.begin(), Open.end());
  }

  unsigned Client;
  uint64_t Requests = 0;
  uint64_t BadRequests = 0; ///< Requests whose spans break the model.
  uint64_t RequestNs = 0;
  uint64_t UnattributedNs = 0;
  uint64_t LayerNs[NumLayers] = {};
  std::vector<Span> Kept;

private:
  uint64_t Current = 0;
  std::vector<Span> Open;
};

/// Times one call into \p T (when tracing) for the enclosing scope.
class Scope {
public:
  Scope(Tracer *T, Call C) : T(T), C(C), Start(T ? nowNs() : 0) {}
  ~Scope() {
    if (T)
      T->record(C, Start, nowNs());
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  Call C;
  uint64_t Start;
};

//===----------------------------------------------------------------------===//
// CPU placement
//===----------------------------------------------------------------------===//

/// The CPUs this process may run on, read once before any thread is
/// pinned.
const std::vector<int> &allowedCpus() {
  static const std::vector<int> Cpus = [] {
    std::vector<int> Out;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Out.push_back(C);
    return Out;
  }();
  return Cpus;
}

/// Pins the calling thread to the CPU of \p Client in window segment
/// \p Segment. Each client gets a CPU of its own: unpinned, a second
/// client sometimes starts on the first one's CPU and the two share it
/// until the load balancer moves one, at half throughput for about a
/// second. The thread serving a client's connection is pinned to the
/// client's CPU, and set-up runs on client 0's: every socket round trip
/// is then a switch on one CPU, never a wake-up of another (possibly
/// halted) virtual CPU, whose cost swings with the host's load. Segments
/// move on to the next CPUs in turn, so a run samples all of them: on a
/// shared host, each virtual CPU's speed drifts on its own.
void pinToCpu(unsigned Segment, unsigned Client, unsigned Clients) {
  const std::vector<int> &Cpus = allowedCpus();
  if (Cpus.empty())
    return;
  size_t Slot = (size_t(Segment) * Clients + Client) % Cpus.size();
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Cpus.size() - 1 - Slot], &Set);
  pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
}

//===----------------------------------------------------------------------===//
// Fixture: one server with the workload's programs published
//===----------------------------------------------------------------------===//

/// A client's connection to the server. Its server end is served by a
/// thread of this file, through the public CodeServer::serveConnection,
/// so that thread can be pinned to the client's CPU.
struct Connection {
  std::unique_ptr<Transport> ClientEnd;
  std::unique_ptr<Transport> ServerEnd;
  std::unique_ptr<CodeClient> Client;
  std::thread Serving;
};

struct Fixture {
  std::unique_ptr<CodeServer> Server;
  /// One per client of a socket workload; set-up publishes over the first.
  std::vector<Connection> Conns;
  std::vector<Digest> Digests;
  std::vector<size_t> WireBytes;

  Fixture() = default;
  Fixture(const Fixture &) = delete;
  Fixture &operator=(const Fixture &) = delete;
  ~Fixture() {
    for (Connection &C : Conns) {
      C.Client->close(); // The serving thread sees EOF and returns.
      C.Serving.join();
    }
  }
};

bool outcomeMatches(const FrozenProgram &P, const ExecResult &R,
                    const Runtime &RT) {
  return R.Err == P.Trap && RT.getOutput() == P.Output;
}

/// Server construction and connections for window segment \p Segment,
/// then compile, optimize, encode and publish of every program over the
/// first connection; for warm-serve, runs each module until the server
/// serves it at tier 1 and runs it once there. Any failure here is
/// fatal: the inputs are frozen. Runs on a thread pinned to client 0's
/// CPU, beside the first connection's serving thread.
std::unique_ptr<Fixture> setUp(const Workload &W,
                               const std::vector<FrozenProgram> &Programs,
                               unsigned Segment) {
  auto F = std::make_unique<Fixture>();
  CodeServerOptions Opts;
  Opts.Threads = 1; // Idle: this file's threads serve the connections.
  F->Server = std::make_unique<CodeServer>(Opts);
  unsigned NumConns = W.Req == Request::Warm ? 1 : W.Clients;
  F->Conns.reserve(NumConns);
  for (unsigned I = 0; I != NumConns; ++I) {
    TransportPair Pair = makeSocketPair();
    if (!Pair.Client)
      die(2, "socketpair unavailable");
    Connection &C = F->Conns.emplace_back();
    C.ClientEnd = std::move(Pair.Client);
    C.ServerEnd = std::move(Pair.Server);
    C.Client = std::make_unique<CodeClient>(*C.ClientEnd);
    C.Serving = std::thread([&Server = *F->Server, &End = *C.ServerEnd,
                             Segment, I, Clients = W.Clients] {
      pinToCpu(Segment, I, Clients);
      Server.serveConnection(End);
    });
  }

  CodeClient &Producer = *F->Conns.front().Client;
  for (const FrozenProgram &P : Programs) {
    auto C = compileMJ(P.FileName, P.Source);
    if (!C->ok() || !C->TSA)
      die(2, P.Name + " does not compile:\n" + C->renderDiagnostics());
    optimizeModule(*C->TSA);
    std::vector<uint8_t> Bytes = encodeModule(*C->TSA);
    Digest D;
    std::string Err;
    if (!Producer.publish(ByteSpan(Bytes), D, &Err))
      die(2, P.Name + ": publish failed: " + Err);
    if (D != digestOf(ByteSpan(Bytes)))
      die(2, P.Name + ": server digest differs from the local one");
    F->Digests.push_back(D);
    F->WireBytes.push_back(Bytes.size());
  }
  if (W.Req != Request::Warm)
    return F;

  for (size_t I = 0; I != Programs.size(); ++I) {
    std::string Err;
    auto Unit = F->Server->load(F->Digests[I], &Err);
    if (!Unit)
      die(2, Programs[I].Name + ": load failed: " + Err);
    for (unsigned Run = 0;; ++Run) {
      auto PM = F->Server->loadPrepared(F->Digests[I], &Err);
      if (!PM)
        die(2, Programs[I].Name + ": loadPrepared failed: " + Err);
      if (Run == kMaxWarmRuns)
        die(2, Programs[I].Name + " does not reach tier 1");
      Runtime RT(*Unit->Table, kFuel);
      TSAExec X(*PM, RT);
      if (!outcomeMatches(Programs[I], X.runMain(), RT))
        die(2, Programs[I].Name + ": outcome differs from .expect at tier " +
                   std::to_string(PM->Tier));
      if (PM->Tier >= 1)
        break;
    }
  }
  return F;
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

/// Layers whose call can fail, for <layer>.failures.
enum FailLayer : uint8_t {
  FFrontend,
  FEncode,
  FDigest,
  FPublish,
  FFetch,
  FDecode,
  FPrepare,
  FLoad,
  FRun,
  NumFailLayers
};

const char *const kFailName[NumFailLayers] = {
    "frontend.failures",     "codec.encode.failures", "digest.failures",
    "serve.publish.failures", "serve.fetch.failures", "codec.decode.failures",
    "exec.prepare.failures", "serve.load.failures",  "exec.run.failures"};

/// Work counted by one client, summed over clients after the window.
struct Counts {
  uint64_t ExecInsts = 0;
  uint64_t TracedExecInsts = 0; ///< exec.ns_per_inst's divisor.
  uint64_t PrepareInsts = 0;
  uint64_t GcCycles = 0;
  uint64_t GcPauseNs = 0;
  uint64_t OptInstsRemoved = 0;
  uint64_t OptChecksRemoved = 0;
  uint64_t Failures[NumFailLayers] = {};
  uint64_t BelowTier1 = 0; ///< Warm requests served below tier 1.

  void operator+=(const Counts &O) {
    ExecInsts += O.ExecInsts;
    TracedExecInsts += O.TracedExecInsts;
    PrepareInsts += O.PrepareInsts;
    GcCycles += O.GcCycles;
    GcPauseNs += O.GcPauseNs;
    OptInstsRemoved += O.OptInstsRemoved;
    OptChecksRemoved += O.OptChecksRemoved;
    for (unsigned I = 0; I != NumFailLayers; ++I)
      Failures[I] += O.Failures[I];
    BelowTier1 += O.BelowTier1;
  }
};

/// What a request checks its outcome against; a copy per run so the
/// self-test can break one expectation without touching the fixture.
struct Expectations {
  std::vector<FrozenProgram> Programs;
  std::vector<Digest> Digests;
};

/// One closed-loop client's request implementations.
struct Requester {
  Fixture &F;
  CodeClient *Client; ///< This client's connection (socket workloads).
  const Expectations &E;
  Counts &C;
  Tracer *T = nullptr; ///< Null on untraced requests.
  std::string Err;

  bool fail(FailLayer L) {
    ++C.Failures[L];
    return false;
  }

  /// Runs \p PM on a fresh Runtime, then releases it, \p PM and \p Unit
  /// inside the teardown span (hence the owners by reference).
  template <class UnitPtr, class ModulePtr>
  bool execute(const FrozenProgram &P, UnitPtr &Unit, ModulePtr &PM) {
    std::optional<Runtime> RT;
    std::optional<TSAExec> X;
    {
      Scope S(T, CExecSetup);
      RT.emplace(*Unit->Table, kFuel);
      X.emplace(*PM, *RT);
    }
    ExecResult R;
    {
      Scope S(T, CRunMain);
      R = X->runMain();
    }
    uint64_t Insts = kFuel - RT->fuelLeft();
    C.ExecInsts += Insts;
    if (T)
      C.TracedExecInsts += Insts;
    C.GcCycles += RT->gcStats().Cycles;
    C.GcPauseNs += RT->gcStats().PauseNs;
    bool Ok = outcomeMatches(P, R, *RT) || fail(FRun);
    Scope S(T, CTeardown);
    X.reset();
    RT.reset();
    PM.reset();
    Unit.reset();
    return Ok;
  }

  bool coldStart(size_t I) {
    const FrozenProgram &P = E.Programs[I];
    std::vector<uint8_t> Bytes;
    bool Fetched;
    {
      Scope S(T, CFetch);
      Fetched = Client->fetch(F.Digests[I], Bytes, &Err);
    }
    if (!Fetched)
      return fail(FFetch);
    Digest Got;
    {
      Scope S(T, CDigest);
      Got = digestOf(ByteSpan(Bytes));
    }
    if (Got != E.Digests[I])
      return fail(FDigest);
    std::unique_ptr<DecodedUnit> Unit;
    {
      Scope S(T, CDecode);
      Unit = decodeModule(Bytes, &Err);
    }
    if (!Unit)
      return fail(FDecode);
    std::unique_ptr<PreparedModule> PM;
    {
      Scope S(T, CPrepare);
      PM = prepareModule(*Unit->Module);
    }
    if (!PM)
      return fail(FPrepare);
    C.PrepareInsts += PM->totalCode();
    {
      Scope S(T, CTeardown);
      std::vector<uint8_t>().swap(Bytes);
    }
    return execute(P, Unit, PM);
  }

  bool warm(size_t I) {
    const FrozenProgram &P = E.Programs[I];
    std::shared_ptr<const DecodedUnit> Unit;
    std::shared_ptr<const PreparedModule> PM;
    {
      Scope S(T, CLoad);
      Unit = F.Server->load(F.Digests[I], &Err);
    }
    {
      Scope S(T, CLoadPrepared);
      PM = F.Server->loadPrepared(F.Digests[I], &Err);
    }
    if (!Unit || !PM)
      return fail(FLoad);
    if (PM->Tier < 1)
      ++C.BelowTier1;
    return execute(P, Unit, PM);
  }

  bool publish(size_t I) {
    const FrozenProgram &P = E.Programs[I];
    std::unique_ptr<CompiledProgram> CP;
    {
      Scope S(T, CCompile);
      CP = compileMJ(P.FileName, P.Source);
    }
    if (!CP->ok() || !CP->TSA)
      return fail(FFrontend);
    OptStats OS;
    {
      Scope S(T, COptimize);
      OS = optimizeModule(*CP->TSA);
    }
    C.OptInstsRemoved += OS.CSERemoved + OS.DCERemoved + OS.DCERemovedPhis;
    C.OptChecksRemoved += OS.CSERemovedNullChecks +
                          OS.CSERemovedIndexChecks + OS.TransportedChecks;
    std::vector<uint8_t> Bytes;
    {
      Scope S(T, CEncode);
      Bytes = encodeModule(*CP->TSA);
    }
    if (Bytes.empty())
      return fail(FEncode);
    Digest Local;
    {
      Scope S(T, CDigest);
      Local = digestOf(ByteSpan(Bytes));
    }
    Digest Remote;
    bool Published;
    {
      Scope S(T, CPublish);
      Published = Client->publish(ByteSpan(Bytes), Remote, &Err);
    }
    if (!Published)
      return fail(FPublish);
    if (Remote != Local || Local != E.Digests[I])
      return fail(FDigest);
    Scope S(T, CTeardown);
    CP.reset();
    std::vector<uint8_t>().swap(Bytes);
    return true;
  }
};

//===----------------------------------------------------------------------===//
// Timed window
//===----------------------------------------------------------------------===//

double peakRssMiB() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Request latencies in fixed memory, so the benchmark's own footprint does
/// not grow with the request count and peak_rss_mib stays the program's:
/// one bucket per nanosecond below 1024 ns, then 512 buckets per power of
/// two (each under 0.2 % wide) up to 2^40 ns. Failed requests rank above
/// every latency.
class LatencyHistogram {
public:
  LatencyHistogram() : Counts(kBuckets) {}

  void add(uint64_t Ns) {
    ++Counts[bucket(std::min(Ns, kMaxNs))];
    ++Total;
  }
  void addFailed() {
    ++Failed;
    ++Total;
  }
  void merge(const LatencyHistogram &O) {
    for (size_t B = 0; B != kBuckets; ++B)
      Counts[B] += O.Counts[B];
    Failed += O.Failed;
    Total += O.Total;
  }
  uint64_t total() const { return Total; }

  /// The nearest-rank \p Q quantile in microseconds, interpolated within
  /// its bucket; a failed request reads as the histogram's ceiling.
  double percentileUs(double Q) const {
    uint64_t Rank = std::max<uint64_t>(1, std::ceil(Q * Total));
    uint64_t Below = 0;
    for (size_t B = 0; B != kBuckets; ++B) {
      if (Below + Counts[B] >= Rank) {
        double Within = (Rank - Below - 0.5) / Counts[B];
        return (lower(B) + Within * width(B)) / 1e3;
      }
      Below += Counts[B];
    }
    return kMaxNs / 1e3;
  }

private:
  static constexpr unsigned kSubBits = 9;
  static constexpr uint64_t kSub = uint64_t(1) << kSubBits; ///< Per octave.
  static constexpr uint64_t kExact = 2 * kSub; ///< One bucket per ns below.
  static constexpr unsigned kMaxBits = 40;
  static constexpr uint64_t kMaxNs = (uint64_t(1) << kMaxBits) - 1;
  static constexpr size_t kBuckets = kExact + (kMaxBits - kSubBits - 1) * kSub;

  static size_t bucket(uint64_t Ns) {
    if (Ns < kExact)
      return Ns;
    unsigned Shift = 63 - __builtin_clzll(Ns) - kSubBits; // >= 1
    return kExact + (Shift - 1) * kSub + ((Ns >> Shift) - kSub);
  }
  static uint64_t shift(size_t B) {
    return B < kExact ? 0 : (B - kExact) / kSub + 1;
  }
  static uint64_t lower(size_t B) {
    return B < kExact ? B : (kSub + (B - kExact) % kSub) << shift(B);
  }
  static uint64_t width(size_t B) { return uint64_t(1) << shift(B); }

  std::vector<uint64_t> Counts;
  uint64_t Failed = 0;
  uint64_t Total = 0;
};

/// One closed-loop client's state, carried across the window's segments.
struct ClientState {
  ClientState(uint64_t Seed, unsigned Id, size_t NumPrograms, bool Traced)
      : Order(Seed, Id, NumPrograms),
        T(Traced ? std::make_unique<Tracer>(Id) : nullptr) {}

  RequestOrder Order;
  LatencyHistogram Lat;
  std::unique_ptr<Tracer> T; ///< Null when untraced.
  Counts C;
  uint64_t Requests = 0; ///< So far; when tracing, every other one is.
  uint64_t Failed = 0;
  uint64_t ModeRequests[2] = {}; ///< [untraced, traced]
  uint64_t ModeNs[2] = {};
};

struct Window {
  std::vector<ClientState> Clients;
  double Seconds = 0;           ///< Summed over segments.
  std::vector<uint64_t> Slices; ///< Completions per full kSliceNs.
  std::unique_ptr<Fixture> F;   ///< The last segment's.
  ServeStats Before, After;     ///< Around the last segment.
  double PeakRssMiB = 0;        ///< At the window's end.

  // Sums over clients, filled in when the window ends.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  LatencyHistogram Lat;
  Counts C;
  /// Closed-loop throughput the clients reach on their [untraced, traced]
  /// requests alone: per client, requests over time spent in them, summed.
  double ModeRps[2] = {};

  double throughput() const { return Attempted / Seconds; }
};

/// Runs every client of \p Win on its own thread for one segment of
/// \p Seconds or, when \p Quotas is not empty, for exactly Quotas[Id]
/// requests each. When tracing, every other request of each client is
/// traced, so traced and untraced requests share the host's state and
/// their throughputs give the tracing overhead.
void runSegment(const Workload &W, Fixture &F, const Expectations &E,
                Window &Win, unsigned Segment, double Seconds,
                const std::vector<uint64_t> &Quotas) {
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  uint64_t StartNs = 0;
  std::vector<uint64_t> EndNs(W.Clients);
  std::vector<std::vector<uint64_t>> Slices(W.Clients);
  auto Body = [&](unsigned Id) {
    pinToCpu(Segment, Id, W.Clients);
    ClientState &Me = Win.Clients[Id];
    Requester Cl{F, Id < F.Conns.size() ? F.Conns[Id].Client.get() : nullptr,
                 E, Me.C, nullptr, {}};
    ++Ready;
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
    const uint64_t Deadline =
        StartNs + static_cast<uint64_t>(Seconds * 1e9);
    for (uint64_t N = 0; Quotas.empty() || N != Quotas[Id]; ++N) {
      size_t P = Me.Order.next();
      Cl.T = Me.T && Me.Requests++ % 2 == 0 ? Me.T.get() : nullptr;
      // Tracing work sits inside [T0, T1], so trace.overhead counts it.
      uint64_t T0 = nowNs();
      if (Cl.T)
        Cl.T->beginRequest(Me.Requests);
      bool Ok = W.Req == Request::ColdStart ? Cl.coldStart(P)
                : W.Req == Request::Warm    ? Cl.warm(P)
                                            : Cl.publish(P);
      if (Cl.T)
        Cl.T->endRequest();
      uint64_t T1 = nowNs();
      ++Me.ModeRequests[Cl.T != nullptr];
      Me.ModeNs[Cl.T != nullptr] += T1 - T0;
      if (Ok)
        Me.Lat.add(T1 - T0);
      else
        Me.Lat.addFailed();
      Me.Failed += !Ok;
      size_t Slice = (T1 - StartNs) / kSliceNs;
      if (Slice >= Slices[Id].size())
        Slices[Id].resize(Slice + 1);
      ++Slices[Id][Slice];
      if (Quotas.empty() && T1 >= Deadline)
        break;
    }
    EndNs[Id] = nowNs();
  };

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != W.Clients; ++I)
    Threads.emplace_back(Body, I);
  while (Ready.load() != W.Clients)
    std::this_thread::yield();
  StartNs = nowNs();
  // The waiting clients read StartNs only after this release store.
  Go.store(true, std::memory_order_release);
  for (auto &Th : Threads)
    Th.join();

  Win.Seconds += (*std::max_element(EndNs.begin(), EndNs.end()) - StartNs) /
                 1e9;
  std::vector<uint64_t> Sum;
  for (const std::vector<uint64_t> &S : Slices) {
    Sum.resize(std::max(Sum.size(), S.size()));
    for (size_t I = 0; I != S.size(); ++I)
      Sum[I] += S[I];
  }
  if (!Sum.empty()) // The last slice is partial.
    Win.Slices.insert(Win.Slices.end(), Sum.begin(), Sum.end() - 1);
}

/// A segment's numbers are only reported when the workload was in steady
/// state: warm segments did no cache miss, decode, prepare or re-prepare
/// and served every request at tier 1; publish segments did not grow the
/// store. Anything else means set-up work leaked into the window.
void checkStationary(const Workload &W, const Window &Win) {
  const ServeStats &A = Win.Before, &B = Win.After;
  std::string Why;
  if (W.Req == Request::Warm) {
    if (B.CacheMisses != A.CacheMisses)
      Why += " cache misses";
    if (B.CacheDecodes != A.CacheDecodes)
      Why += " decodes";
    if (B.CachePrepares != A.CachePrepares)
      Why += " prepares";
    if (B.CacheReprepares != A.CacheReprepares)
      Why += " re-prepares";
    for (const ClientState &CS : Win.Clients)
      if (CS.C.BelowTier1) {
        Why += " requests below tier 1";
        break;
      }
  }
  if (W.Req == Request::Publish &&
      (B.StoreModules != A.StoreModules || B.StoreBytes != A.StoreBytes))
    Why += " store growth";
  if (!Why.empty())
    die(3, std::string(W.Name) + " window not in steady state:" + Why);
}

/// Runs W.Clients closed-loop clients over a window of \p Segments
/// segments that together last \p Seconds (or run exactly \p Requests
/// requests when nonzero). The first segment runs on \p F; each later one
/// S on a fresh fixture from SetUp(S), built after the previous one is
/// torn down. Set-ups are thus spread over the run, and one server is
/// alive at a time.
Window runWindow(
    const Workload &W, std::unique_ptr<Fixture> F, const Expectations &E,
    uint64_t Seed, double Seconds, uint64_t Requests, bool Traced,
    unsigned Segments,
    const std::function<std::unique_ptr<Fixture>(unsigned)> &SetUp) {
  Window Win;
  Win.Clients.reserve(W.Clients);
  for (unsigned I = 0; I != W.Clients; ++I)
    Win.Clients.emplace_back(Seed, I, E.Programs.size(), Traced);
  for (unsigned S = 0; S != Segments; ++S) {
    if (S) {
      F.reset();
      F = SetUp(S);
    }
    std::vector<uint64_t> Quotas;
    for (unsigned I = 0; Requests && I != W.Clients; ++I) {
      uint64_t Q = Requests / W.Clients + (I < Requests % W.Clients);
      Quotas.push_back(Q * (S + 1) / Segments - Q * S / Segments);
    }
    Win.Before = F->Server->stats();
    runSegment(W, *F, E, Win, S, Seconds / Segments, Quotas);
    Win.After = F->Server->stats();
    checkStationary(W, Win);
  }
  Win.F = std::move(F);
  Win.PeakRssMiB = peakRssMiB();

  for (const ClientState &CS : Win.Clients) {
    Win.Attempted += CS.Lat.total();
    Win.Failed += CS.Failed;
    Win.Lat.merge(CS.Lat);
    Win.C += CS.C;
    for (unsigned M = 0; M != 2; ++M)
      if (CS.ModeNs[M])
        Win.ModeRps[M] += CS.ModeRequests[M] * 1e9 / CS.ModeNs[M];
  }
  return Win;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string fmt(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void report(bool Correct, uint64_t Attempted, uint64_t Failed,
            const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-28s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I) {
    J += I ? ", " : "";
    J += "\"" + Ms[I].Name + "\": {\"value\": " + fmt(Ms[I].Value) +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

/// Per-layer metrics of a traced window (see README.md for definitions).
std::vector<Metric> layerMetrics(const Workload &W, const Window &Traced) {
  const Fixture &F = *Traced.F;
  uint64_t Reqs = 0, Bad = 0, ReqNs = 0, Unattributed = 0;
  uint64_t LayerNs[NumLayers] = {};
  for (const ClientState &CS : Traced.Clients) {
    const Tracer &T = *CS.T;
    Reqs += T.Requests;
    Bad += T.BadRequests;
    ReqNs += T.RequestNs;
    Unattributed += T.UnattributedNs;
    for (unsigned L = 0; L != NumLayers; ++L)
      LayerNs[L] += T.LayerNs[L];
  }
  // Only then do the self times plus the remainder make up the request
  // spans.
  if (Bad)
    die(4, std::to_string(Bad) + " traced requests have call spans that "
                                 "overlap or leave their request span");

  const ServeStats &A = Traced.Before, &B = Traced.After;
  auto PerReqUs = [&](uint64_t Ns) { return Ns / 1e3 / Reqs; };
  std::vector<Metric> Ms;
  Ms.push_back({"requests", double(Traced.Attempted), "count"});
  Ms.push_back({"request.busy_us", PerReqUs(ReqNs), "us"});
  Ms.push_back({"request.unattributed_us", PerReqUs(Unattributed), "us"});
  for (unsigned L = 0; L != NumLayers; ++L)
    Ms.push_back({std::string(kLayerName[L]) + ".busy_us",
                  PerReqUs(LayerNs[L]), "us"});
  const Counts &C = Traced.C;
  Ms.push_back({"exec.prepare.insts", double(C.PrepareInsts), "count"});
  Ms.push_back({"exec.insts", double(C.ExecInsts), "count"});
  Ms.push_back({"exec.ns_per_inst",
                C.TracedExecInsts
                    ? double(LayerNs[LExecRun]) / C.TracedExecInsts
                    : 0.0,
                "ns"});
  uint64_t Tier1 = 0;
  if (W.Req == Request::Warm)
    for (const Digest &D : F.Digests)
      if (auto PM = F.Server->loadPrepared(D, nullptr); PM && PM->Tier >= 1)
        ++Tier1;
  Ms.push_back({"exec.tier1_modules", double(Tier1), "count"});
  Ms.push_back({"exec.ic_hits", double(B.CacheICHits - A.CacheICHits),
                "count"});
  Ms.push_back({"exec.ic_misses", double(B.CacheICMisses - A.CacheICMisses),
                "count"});
  Ms.push_back({"exec.inline_guard_misses",
                double(B.CacheInlineGuardMisses - A.CacheInlineGuardMisses),
                "count"});
  Ms.push_back({"exec.inlined_sites", double(B.CacheInlinedSites), "count"});
  uint64_t Hits = B.CacheHits - A.CacheHits;
  uint64_t Misses = B.CacheMisses - A.CacheMisses;
  Ms.push_back({"cache.hits", double(Hits), "count"});
  Ms.push_back({"cache.misses", double(Misses), "count"});
  Ms.push_back({"cache.decodes", double(B.CacheDecodes - A.CacheDecodes),
                "count"});
  Ms.push_back({"cache.prepares", double(B.CachePrepares - A.CachePrepares),
                "count"});
  Ms.push_back({"cache.reprepares",
                double(B.CacheReprepares - A.CacheReprepares), "count"});
  Ms.push_back({"cache.hit_ratio",
                Hits + Misses ? double(Hits) / (Hits + Misses) : 0.0,
                "ratio"});
  Ms.push_back({"opt.insts_removed", double(C.OptInstsRemoved), "count"});
  Ms.push_back({"opt.checks_removed", double(C.OptChecksRemoved), "count"});
  Ms.push_back({"gc.cycles", double(C.GcCycles), "count"});
  Ms.push_back({"gc.pause_us", C.GcPauseNs / 1e3, "us"});
  for (unsigned I = 0; I != NumFailLayers; ++I)
    Ms.push_back({kFailName[I], double(C.Failures[I]), "count"});
  const double *Rps = Traced.ModeRps;
  Ms.push_back({"trace.untraced_rps", Rps[0], "1/s"});
  Ms.push_back({"trace.traced_rps", Rps[1], "1/s"});
  Ms.push_back({"trace.overhead", Rps[0] ? 1.0 - Rps[1] / Rps[0] : 0.0,
                "ratio"});
  return Ms;
}

/// One JSON object per span, for the first kKeptTraceRequests requests of
/// each client.
void writeTrace(const std::string &Path, const Window &Traced) {
  std::ofstream OS(Path);
  for (const ClientState &CS : Traced.Clients)
    for (const Span &S : CS.T->Kept)
      OS << "{\"client\": " << CS.T->Client << ", \"req\": " << S.Req
         << ", \"name\": \"" << kCallName[S.What] << "\", \"layer\": \""
         << (S.What == CRequest ? "request" : kLayerName[kCallLayer[S.What]])
         << "\", \"parent\": "
         << (S.What == CRequest ? "null" : "\"request\"")
         << ", \"start_ns\": " << S.Start << ", \"end_ns\": " << S.End
         << "}\n";
  if (!OS)
    die(2, "cannot write trace file " + Path);
}

struct Options {
  const Workload *W = nullptr;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  uint64_t Requests = 0;
  std::string ProgramsDir = "perfbench/programs";
  std::string TraceOut;
  bool BreakExpectation = false;
};

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Val = [&]() -> std::string {
      if (I + 1 >= Argc)
        die(2, "missing value for " + A);
      return Argv[++I];
    };
    if (A == "--workload") {
      std::string N = Val();
      for (const Workload &W : kWorkloads)
        if (N == W.Name)
          O.W = &W;
      if (!O.W)
        die(2, "unknown workload " + N);
    } else if (A == "--seed") {
      O.Seed = std::strtoull(Val().c_str(), nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::atof(Val().c_str());
    } else if (A == "--trace") {
      O.Trace = Val() != "0";
    } else if (A == "--requests") {
      O.Requests = std::strtoull(Val().c_str(), nullptr, 10);
    } else if (A == "--programs") {
      O.ProgramsDir = Val();
    } else if (A == "--trace-out") {
      O.TraceOut = Val();
    } else if (A == "--break-expectation") {
      O.BreakExpectation = true;
    } else {
      die(2, "unknown argument " + A);
    }
  }
  if (!O.W)
    die(2, "usage: perfbench_e2e --workload <name> --seed <n> --seconds <s> "
           "--trace <0|1> [--requests <n>] [--programs <dir>] "
           "[--trace-out <file>] [--break-expectation]");
  if (!(O.Seconds > 0) && !O.Requests)
    die(2, "--seconds must be positive");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  allowedCpus();
  const Workload &W = *O.W;
  const std::vector<FrozenProgram> Programs =
      loadPrograms(fs::path(O.ProgramsDir) / W.ProgramSet);

  std::vector<double> SetupS;
  auto TimedSetUp = [&](unsigned Segment) {
    pinToCpu(Segment, 0, W.Clients);
    uint64_t T0 = nowNs();
    std::unique_ptr<Fixture> Fx = setUp(W, Programs, Segment);
    SetupS.push_back((nowNs() - T0) / 1e9);
    return Fx;
  };
  std::unique_ptr<Fixture> F = TimedSetUp(0);
  const std::vector<size_t> WireBytes = F->WireBytes;

  Expectations E{Programs, F->Digests};
  if (O.BreakExpectation) {
    if (W.Req == Request::Publish)
      E.Digests[0].Lo ^= 1;
    else
      E.Programs[0].Output += "<broken>";
  }
  {
    // Fingerprint of client 0's request order (the self-test checks that
    // the seed drives it).
    RequestOrder Order(O.Seed, 0, Programs.size());
    uint64_t H = 1469598103934665603ull;
    for (unsigned I = 0; I != 64; ++I)
      H = (H ^ Order.next()) * 1099511628211ull;
    std::fprintf(stderr, "perfbench: %s seed %llu request-order %016llx\n",
                 W.Name, static_cast<unsigned long long>(O.Seed),
                 static_cast<unsigned long long>(H));
  }

  if (!O.Trace) {
    Window Win = runWindow(W, std::move(F), E, O.Seed, O.Seconds, O.Requests,
                           false, kSetups, TimedSetUp);
    std::fprintf(stderr, "perfbench: req/s per %.0f s slice:",
                 kSliceNs / 1e9);
    for (uint64_t N : Win.Slices)
      std::fprintf(stderr, " %.0f", N * 1e9 / kSliceNs);
    std::fprintf(stderr, "\n");
    double Wire = 0;
    for (size_t B : WireBytes)
      Wire += B;
    Wire /= WireBytes.size();
    std::fprintf(stderr, "perfbench: set-ups (s):");
    for (double S : SetupS)
      std::fprintf(stderr, " %.4f", S);
    std::fprintf(stderr, "\n");
    std::sort(SetupS.begin(), SetupS.end());
    std::vector<Metric> Ms = {
        {"throughput_rps", Win.throughput(), "1/s"},
        {"latency_p50_us", Win.Lat.percentileUs(0.50), "us"},
        {"latency_p90_us", Win.Lat.percentileUs(0.90), "us"},
        {"setup_s", SetupS[SetupS.size() / 2], "s"},
        {"peak_rss_mib", Win.PeakRssMiB, "MiB"},
        {"wire_bytes", Wire, "bytes"},
        {"ok_ratio", double(Win.Attempted - Win.Failed) / Win.Attempted,
         "ratio"},
    };
    std::printf("%s: %llu requests (%llu failed) in %.3f s, %u client%s, "
                "p99 %.1f us\n",
                W.Name, static_cast<unsigned long long>(Win.Attempted),
                static_cast<unsigned long long>(Win.Failed), Win.Seconds,
                W.Clients, W.Clients == 1 ? "" : "s",
                Win.Lat.percentileUs(0.99));
    report(Win.Failed == 0, Win.Attempted, Win.Failed, Ms);
    return Win.Failed == 0 ? 0 : 1;
  }

  // Traced run: one set-up, one segment, every other request traced (see
  // runSegment).
  Window Traced = runWindow(W, std::move(F), E, O.Seed, O.Seconds,
                            O.Requests, true, 1, TimedSetUp);
  std::vector<Metric> Ms = layerMetrics(W, Traced);
  if (!O.TraceOut.empty())
    writeTrace(O.TraceOut, Traced);
  std::printf("%s traced: %llu requests (%llu failed), %u client%s\n",
              W.Name, static_cast<unsigned long long>(Traced.Attempted),
              static_cast<unsigned long long>(Traced.Failed), W.Clients,
              W.Clients == 1 ? "" : "s");
  report(Traced.Failed == 0, Traced.Attempted, Traced.Failed, Ms);
  return Traced.Failed == 0 ? 0 : 1;
}
