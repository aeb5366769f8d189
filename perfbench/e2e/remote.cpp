//===- perfbench/e2e/remote.cpp - remote-session --------------------------===//
//
// A teammate's session on a shared failure, through the gateway: one
// ProtocolClient on one pipe connection to an in-process Gateway in front
// of two journaled DebugServer backends. One sample is one whole session,
// open to quit; its replies must equal the same script run in-process.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "fleet/gateway.h"
#include "replay/logger.h"
#include "replay/repository.h"
#include "server/client.h"
#include "server/server.h"
#include "server/session_manager.h"
#include "server/transport.h"
#include "support/journal.h"
#include "vm/scheduler.h"

#include <sched.h>

#include <cstdio>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>

using namespace drdebug;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

/// One in-process drdebugd, reachable over pipe pairs: by the gateway
/// through its descriptor, and directly by the traced run.
class PipeBackend {
public:
  PipeBackend(std::string Name, ServerConfig Cfg)
      : Name(std::move(Name)), Srv(std::make_unique<DebugServer>(Cfg)),
        JournalDir(Cfg.JournalDir) {}

  ~PipeBackend() {
    std::vector<std::thread> Joinable;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      for (const std::shared_ptr<Transport> &S : ServerEnds)
        S->close();
      Joinable.swap(Threads);
    }
    for (std::thread &T : Joinable)
      T.join();
  }

  PipeBackend(const PipeBackend &) = delete;
  PipeBackend &operator=(const PipeBackend &) = delete;

  std::unique_ptr<Transport> connect() {
    std::lock_guard<std::mutex> Lock(Mu);
    auto [C, S] = makePipePair();
    std::shared_ptr<Transport> SE = std::move(S);
    ServerEnds.push_back(SE);
    Threads.emplace_back([this, SE] { Srv->serve(*SE); });
    return std::move(C);
  }

  GatewayBackend descriptor() {
    GatewayBackend B;
    B.Name = Name;
    B.JournalDir = JournalDir;
    B.Connect = [this] { return connect(); };
    return B;
  }

  DebugServer &server() { return *Srv; }

private:
  std::string Name;
  std::unique_ptr<DebugServer> Srv;
  std::string JournalDir;
  std::mutex Mu;
  std::vector<std::shared_ptr<Transport>> ServerEnds;
  std::vector<std::thread> Threads;
};

/// One request of the session script, with its in-process equivalent.
struct Step {
  enum Kind { Load, Cmd, RStep, LastWrite, ValuesOf } K = Cmd;
  std::string Arg;    ///< command line, global name, or step count
  std::string Verb;   ///< wire verb, or the command word of a `cmd`
  std::string InProc; ///< the debugger command line it runs
  bool isQuery() const { return K == LastWrite || K == ValuesOf; }
};

class RemoteSession : public Workload {
public:
  RemoteSession(uint64_t Seed, std::string Dir)
      : Seed(Seed), Dir(std::move(Dir)) {}
  ~RemoteSession() override;

  bool setup(std::string &Error) override;
  SampleResult sample(SpanLog *T) override;
  double diskRatio() const override { return Disk; }
  std::string describe() const override;

private:
  static constexpr unsigned QueryMax = 16;

  /// One session over \p C: \returns per-request µs; replies go to
  /// \p Texts, wire errors and retries to \p R. Spans when \p T is set.
  std::vector<double> runSession(ProtocolClient &C, SpanLog *T,
                                 std::vector<std::string> &Texts,
                                 SampleResult &R, double &SliceMs,
                                 double &OpenUs);
  void tracedExtras(SpanLog &T, const std::vector<double> &GatewayUs,
                    SampleResult &R);
  /// Sum and count of the queue-wait histogram over both backends.
  std::pair<double, double> queueWait();
  void layerDirects(SpanLog &T);
  bool buildBaseline(std::string &Error);

  uint64_t Seed;
  std::string Dir;
  FailureInput F;
  std::string PbDir;
  uint64_t RegionInstrs = 0;
  std::vector<std::string> Written;
  std::vector<Step> Steps;
  std::vector<std::string> Ref;
  double Disk = 0;

  std::vector<std::unique_ptr<PipeBackend>> Backends;
  std::unique_ptr<Gateway> Gw;
  std::unique_ptr<Transport> ClientEnd, GwEnd;
  std::thread GwThread;
  std::unique_ptr<ProtocolClient> Client;
  /// The traced run's direct connections, one per backend.
  std::vector<std::unique_ptr<Transport>> DirectEnds;
  std::vector<std::unique_ptr<ProtocolClient>> Direct;
  /// The traced run's in-process baseline: the layer objects the direct
  /// calls use, and a session at the query point. Built at the first traced
  /// sample, so an untraced run's peak_rss_mb counts only what the session
  /// chain holds.
  struct Baseline {
    Pinball Pb;
    std::unique_ptr<SliceSession> S;
    CommandDriver InProc{nullptr};
  };
  std::unique_ptr<Baseline> Base;
};

RemoteSession::~RemoteSession() {
  // Client first: the gateway's serve loop ends when its peer closes.
  if (ClientEnd)
    ClientEnd->close();
  if (GwThread.joinable())
    GwThread.join();
  Client.reset();
  for (auto &E : DirectEnds)
    E->close();
  Direct.clear();
  Gw.reset();
  Backends.clear();
}

bool RemoteSession::setup(std::string &Error) {
  // Every thread of the session chain (client, gateway, backend connection
  // and worker threads) shares one CPU, the highest this process may use,
  // so every run measures the same one; threads inherit the mask. Unpinned,
  // each request's handoffs wake idle vCPUs, and that wake-up latency swung
  // whole runs 2x (13.9 vs 26.9 ms per session, 44 vs 158 us per query) on
  // a 4-vCPU VM.
  cpu_set_t Allowed, One;
  int Cpu = -1;
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
    for (int I = 0; I != CPU_SETSIZE; ++I)
      if (CPU_ISSET(I, &Allowed))
        Cpu = I;
  CPU_ZERO(&One);
  if (Cpu >= 0)
    CPU_SET(Cpu, &One);
  if (Cpu < 0 || sched_setaffinity(0, sizeof(One), &One) != 0) {
    Error = "cannot pin to one CPU";
    return false;
  }
  std::vector<FailureInput> Fs;
  if (!makeFailureInputs(Seed, Dir, Fs, Error))
    return false;
  F = std::move(Fs.back()); // the Mozilla analog
  PbDir = Dir + "/" + F.Name + ".pb";
  {
    RandomScheduler Sched(F.SchedSeed, 1, 4);
    DefaultSyscalls World(F.SchedSeed);
    LogResult Log = Logger::logRegion(F.Prog, Sched, &World, RegionSpec());
    if (!Log.FailureCaptured || !Log.Pb.save(PbDir, Error)) {
      Error = F.Name + ": cannot record or save the failure. " + Error;
      return false;
    }
    RegionInstrs = Log.Pb.instructionCount();
  }
  {
    uint64_t Fp = PinballRepository::dirFingerprint(PbDir);
    Pinball Pb;
    if (!Pb.load(PbDir, Error))
      return false;
    SliceSession S(Pb);
    if (!S.prepare(Error) || !S.saveIndex(PbDir, Fp, Error))
      return false;
    for (const GlobalVar *G : writtenGlobals(S, F.Prog, MaxQueryGlobals))
      Written.push_back(G->Name);
  }

  auto Add = [&](Step::Kind K, std::string Arg, std::string Verb,
                 std::string InProcLine) {
    Steps.push_back(
        {K, std::move(Arg), std::move(Verb), std::move(InProcLine)});
  };
  Add(Step::Load, "", "load", "");
  const std::string PbLoad = "pinball load " + PbDir;
  Add(Step::Cmd, PbLoad, "pinball_load", PbLoad);
  Add(Step::Cmd, "slice fail", "slice_fail", "slice fail");
  Add(Step::Cmd, "replay", "replay", "replay");
  Add(Step::Cmd, "replay-seek 1000", "replay-seek", "replay-seek 1000");
  for (int I = 0; I != 4; ++I)
    Add(Step::RStep, "25", "rstep", "reverse-stepi 25");
  for (int Rep = 0; Rep != 2; ++Rep)
    for (const std::string &G : Written) {
      Add(Step::LastWrite, G, "lastwrite", "lastwrite " + G);
      Add(Step::ValuesOf, G, "valuesof",
          "valuesof " + G + " " + std::to_string(QueryMax));
    }
  Add(Step::Cmd, "quit", "quit", "quit");

  // The reference: the same script in-process.
  {
    CommandDriver D(nullptr);
    for (const Step &S : Steps)
      S.K == Step::Load ? D.loadText(F.Prog.SourceText) : D.run(S.InProc);
    Ref = D.texts();
    SetupAttempted += Steps.size();
    for (size_t I = 0; I + 1 < Steps.size(); ++I) // quit ends the session
      SetupFailed += D.statuses()[I] != CommandStatus::Ok;
  }

  GatewayConfig GC;
  for (int I = 0; I != 2; ++I) {
    ServerConfig SC;
    SC.JournalDir = Dir + "/journal-" + std::to_string(I);
    fs::create_directories(SC.JournalDir);
    Backends.push_back(
        std::make_unique<PipeBackend>("backend-" + std::to_string(I), SC));
    GC.Backends.push_back(Backends.back()->descriptor());
  }
  Gw = std::make_unique<Gateway>(GC);
  auto [C, S] = makePipePair();
  ClientEnd = std::move(C);
  GwEnd = std::move(S);
  GwThread = std::thread([this] { Gw->serve(*GwEnd); });
  Client = std::make_unique<ProtocolClient>(*ClientEnd);
  for (auto &B : Backends) {
    DirectEnds.push_back(B->connect());
    Direct.push_back(std::make_unique<ProtocolClient>(*DirectEnds.back()));
  }

  // Warm up until both backends hold the pinball and its prepared slice
  // session, then a few more sessions for the connection pools.
  auto Warm = [&](unsigned N) {
    for (unsigned I = 0; I != N; ++I) {
      SampleResult R = sample(nullptr);
      SetupAttempted += R.Attempted;
      SetupFailed += R.Failed;
    }
  };
  for (unsigned I = 0; I != 200; ++I) {
    bool Ready = true;
    for (auto &B : Backends)
      Ready = Ready && B->server().sliceRepository().cachedCount() > 0 &&
              B->server().repository().cachedCount() > 0;
    if (Ready)
      break;
    Warm(1);
  }
  Warm(32);
  uint64_t Left = treeBytes(PbDir);
  for (int I = 0; I != 2; ++I)
    Left += treeBytes(Dir + "/journal-" + std::to_string(I));
  Disk = static_cast<double>(Left) / static_cast<double>(regionBytes(PbDir));
  return true;
}

bool RemoteSession::buildBaseline(std::string &Error) {
  auto B = std::make_unique<Baseline>();
  if (!B->Pb.load(PbDir, Error))
    return false;
  B->S = std::make_unique<SliceSession>(B->Pb);
  if (!B->S->prepare(Error))
    return false;
  B->InProc.loadText(F.Prog.SourceText);
  for (size_t I = 1; I != Steps.size() && !Steps[I].isQuery(); ++I)
    B->InProc.run(Steps[I].InProc);
  if (B->InProc.errors()) {
    Error = "the in-process baseline session failed";
    return false;
  }
  Base = std::move(B);
  return true;
}

std::vector<double> RemoteSession::runSession(ProtocolClient &C, SpanLog *T,
                                              std::vector<std::string> &Texts,
                                              SampleResult &R, double &SliceMs,
                                              double &OpenUs) {
  std::vector<double> Us;
  const uint64_t Retries0 = C.retries();
  const double Open0 = nowMs();
  if (T)
    T->begin("wire open");
  ClientResult<uint64_t> Opened = C.open();
  OpenUs = (nowMs() - Open0) * 1e3;
  if (T)
    T->end();
  ++R.Attempted;
  if (!Opened.ok()) {
    ++R.Failed;
    return Us;
  }
  const uint64_t Sid = Opened.value();
  for (const Step &S : Steps) {
    if (T)
      T->begin("wire " + S.Verb);
    double T0 = nowMs();
    ClientResult<> Res = [&]() -> ClientResult<> {
      switch (S.K) {
      case Step::Load:
        return C.load(Sid, F.Prog.SourceText);
      case Step::RStep:
        return C.reverseStep(Sid, std::stoull(S.Arg));
      case Step::LastWrite:
        return C.lastWrite(Sid, S.Arg);
      case Step::ValuesOf:
        return C.valuesOf(Sid, S.Arg, QueryMax);
      case Step::Cmd:
        break;
      }
      return C.cmd(Sid, S.Arg);
    }();
    double T1 = nowMs();
    if (T)
      T->end();
    Us.push_back((T1 - T0) * 1e3);
    if (S.Arg == "slice fail")
      SliceMs = T1 - Open0;
    ++R.Attempted;
    if (!Res.ok()) {
      ++R.Failed;
      Texts.push_back("<wire error> " + Res.errorText());
    } else {
      Texts.push_back(std::move(Res.value()));
    }
  }
  R.Failed += C.retries() - Retries0;
  return Us;
}

SampleResult RemoteSession::sample(SpanLog *T) {
  // Backend counters, read around the session when traced.
  struct Counts {
    double SliceHits = 0, SliceMisses = 0, IndexHits = 0, PbHits = 0,
           PbMisses = 0, Retries = 0;
    std::pair<double, double> Wait;
  };
  auto Read = [&] {
    Counts C;
    for (auto &B : Backends) {
      SliceSessionRepository &SR = B->server().sliceRepository();
      C.SliceHits += static_cast<double>(SR.hits());
      C.SliceMisses += static_cast<double>(SR.misses());
      C.IndexHits += static_cast<double>(SR.indexHits());
      C.PbHits += static_cast<double>(B->server().repository().hits());
      C.PbMisses += static_cast<double>(B->server().repository().misses());
    }
    C.Retries = static_cast<double>(Client->retries());
    C.Wait = queueWait();
    return C;
  };
  SampleResult R;
  std::string Error;
  if (T && !Base && !buildBaseline(Error)) {
    std::fprintf(stderr, "perfbench: traced baseline: %s\n", Error.c_str());
    ++R.Attempted;
    ++R.Failed;
  }
  Counts Before;
  if (T)
    Before = Read();

  std::vector<std::string> Texts;
  const double Wall0 = nowMs();
  double OpenUs = 0;
  std::vector<double> Us =
      runSession(*Client, T, Texts, R, R.TimeToSliceMs, OpenUs);
  R.WallMs = nowMs() - Wall0;
  for (size_t I = 0; I != Us.size(); ++I)
    if (Steps[I].isQuery())
      R.QueryUs.push_back(Us[I]);
  R.Failed += countMismatches(Texts, Ref);
  if (!T)
    return R;

  Counts After = Read();
  T->add("slicing.repo.hits", After.SliceHits - Before.SliceHits);
  T->add("slicing.repo.misses", After.SliceMisses - Before.SliceMisses);
  T->add("slicing.repo.index_hits", After.IndexHits - Before.IndexHits);
  double PbHits = After.PbHits - Before.PbHits;
  T->addRatio("replay.pinball.repo_hit_ratio", PbHits,
              PbHits + After.PbMisses - Before.PbMisses);
  T->add("server.retries", After.Retries - Before.Retries);
  double Jobs = After.Wait.second - Before.Wait.second;
  if (Jobs > 0)
    T->add("server.queue_wait_us",
           (After.Wait.first - Before.Wait.first) / Jobs);
  if (Base)
    tracedExtras(*T, Us, R);
  return R;
}

std::pair<double, double> RemoteSession::queueWait() {
  double Sum = 0, Count = 0;
  for (auto &D : Direct) {
    ClientResult<> M = D->metrics();
    if (!M.ok())
      continue;
    std::istringstream IS(M.value());
    std::string Line;
    while (std::getline(IS, Line)) {
      std::istringstream LS(Line);
      std::string Name;
      double V = 0;
      if (!(LS >> Name >> V))
        continue;
      if (Name == "drdebug_server_queue_wait_us_sum")
        Sum += V;
      else if (Name == "drdebug_server_queue_wait_us_count")
        Count += V;
    }
  }
  return {Sum, Count};
}

void RemoteSession::layerDirects(SpanLog &T) {
  T.begin("direct layers");
  if (auto C = Base->S->failureCriterion())
    directSlice(T, *Base->S, *C, /*Forward=*/false);
  DirectReplay Rep(Base->Pb);
  Rep.runForward(T);
  Rep.seek(T, 1000, /*Backward=*/true);
  for (int I = 0; I != 4; ++I) {
    uint64_t Pos = Rep.replay().position();
    Rep.seek(T, Pos > 25 ? Pos - 25 : 0, /*Backward=*/true);
  }
  for (const Step &S : Steps)
    if (S.isQuery())
      directQuery(T, *Base->S, F.Prog, S.InProc);
  T.end();
}

void RemoteSession::tracedExtras(SpanLog &T, const std::vector<double> &GwUs,
                                 SampleResult &R) {
  // The same session direct to one backend: per-verb round trips without
  // the gateway hop.
  T.begin("direct backend session");
  std::vector<std::string> Texts;
  SampleResult DR;
  double SliceMs = 0, OpenUs = 0;
  std::vector<double> DirectUs =
      runSession(*Direct[0], &T, Texts, DR, SliceMs, OpenUs);
  T.end();
  T.add("server.rtt_us.open", OpenUs);
  R.Attempted += DR.Attempted;
  R.Failed += DR.Failed + countMismatches(Texts, Ref);
  for (size_t I = 0; I != DirectUs.size(); ++I)
    T.addMean("server.rtt_us." + Steps[I].Verb, DirectUs[I]);

  // The same queries in-process, batched.
  double InProcUs = 0, GwQ = 0, DirectQ = 0;
  unsigned NQ = 0;
  T.begin("in-process queries");
  for (size_t I = 0; I != Steps.size() && I < DirectUs.size(); ++I) {
    if (!Steps[I].isQuery())
      continue;
    InProcUs += perCallUs(16, [&] {
      Base->InProc.session().executeCommand(Steps[I].InProc);
    });
    GwQ += GwUs[I];
    DirectQ += DirectUs[I];
    ++NQ;
  }
  T.end();
  if (NQ) {
    T.add("server.overhead_us", (DirectQ - InProcUs) / NQ);
    T.add("fleet.gateway.overhead_us", (GwQ - DirectQ) / NQ);
  }

  // What the gateway session appended to its backend's journal.
  std::string JPath = Dir + "/journal.direct";
  JournalWriter W;
  std::string Error;
  if (W.open(JPath, JournalFsync::None, Error)) {
    double Appends = 0;
    for (const Step &S : Steps) {
      if (S.K == Step::Load) {
        W.append({JournalRecord::Kind::Load, F.Prog.SourceText}, Error);
        ++Appends;
      } else if (isMutatingCommand(S.InProc) && S.InProc != "quit") {
        W.append({JournalRecord::Kind::Cmd, S.InProc}, Error);
        ++Appends;
      }
    }
    T.add("support.journal.appends", Appends);
    T.add("support.journal.bytes", static_cast<double>(W.sizeBytes()));
    W.close();
  }
  std::error_code Ec;
  fs::remove(JPath, Ec);
  layerDirects(T);
}

std::string RemoteSession::describe() const {
  std::ostringstream OS;
  OS << F.Name << " schedule " << F.SchedSeed << " region " << RegionInstrs
     << " instrs, " << Written.size() << " written globals, "
     << Steps.size() + 1 << " requests per session, 2 backends";
  return OS.str();
}

} // namespace

std::unique_ptr<Workload> makeRemoteSession(uint64_t Seed,
                                            const std::string &Dir) {
  return std::make_unique<RemoteSession>(Seed, Dir);
}

} // namespace perfbench
