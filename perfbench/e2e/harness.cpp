//===- perfbench/e2e/harness.cpp - Shared end-to-end benchmark plumbing ---===//

#include "harness.h"

#include "replay/logger.h"
#include "slicing/index_store.h"
#include "vm/location.h"
#include "vm/machine.h"
#include "vm/scheduler.h"
#include "workloads/generator.h"
#include "workloads/racebugs.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace drdebug;
namespace fs = std::filesystem;

namespace perfbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

Tail tailOf(std::vector<double> V) {
  if (V.empty())
    return {};
  std::sort(V.begin(), V.end());
  const double N = static_cast<double>(V.size());
  for (double P : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0}) {
    size_t Rank = static_cast<size_t>(std::ceil(P / 100 * N));
    if (Rank == 0)
      Rank = 1;
    if (V.size() - Rank >= 10 || P == 50.0)
      return {P, V[Rank - 1]};
  }
  return {};
}

Rusage rusageNow() {
  struct rusage RU {};
  getrusage(RUSAGE_SELF, &RU);
  Rusage R;
  R.MinFlt = static_cast<double>(RU.ru_minflt);
  R.Nivcsw = static_cast<double>(RU.ru_nivcsw);
  R.MaxRssMb = static_cast<double>(RU.ru_maxrss) / 1024.0; // KiB on Linux
  return R;
}

double hostProbeMs() {
  // xorshift + multiply chain: no memory traffic, no allocation, fixed
  // length, and a data dependence the compiler cannot fold away.
  double T0 = nowMs();
  volatile uint64_t Sink = 0;
  uint64_t X = 0x9E3779B97F4A7C15ull;
  for (unsigned I = 0; I != 2'000'000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    X *= 0x2545F4914F6CDD1Dull;
  }
  Sink = X;
  (void)Sink;
  return nowMs() - T0;
}

uint64_t treeBytes(const std::string &Path) {
  std::error_code Ec;
  uint64_t Total = 0;
  if (fs::is_regular_file(Path, Ec))
    return fs::file_size(Path, Ec);
  for (fs::recursive_directory_iterator It(Path, Ec), End; !Ec && It != End;
       It.increment(Ec))
    if (It->is_regular_file(Ec))
      Total += It->file_size(Ec);
  return Total;
}

uint64_t regionBytes(const std::string &PbDir) {
  return treeBytes(PbDir) - treeBytes(SliceIndexStore::indexDirFor(PbDir));
}

//===----------------------------------------------------------------------===//
// SpanLog
//===----------------------------------------------------------------------===//

uint32_t SpanLog::begin(const std::string &Name) {
  Span S;
  S.Id = static_cast<uint32_t>(Spans.size() + 1);
  S.Parent = Open.empty() ? 0 : Spans[Open.back()].Id;
  S.Name = Name;
  S.StartMs = nowMs();
  Open.push_back(static_cast<uint32_t>(Spans.size()));
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

double SpanLog::end() {
  Span &S = Spans[Open.back()];
  Open.pop_back();
  S.DurMs = nowMs() - S.StartMs;
  return S.DurMs;
}

std::map<std::string, double> SpanLog::takeSample() {
  for (const auto &[Metric, N] : MeanCounts)
    Sample[Metric] /= N;
  MeanCounts.clear();
  for (const auto &[Metric, ND] : Ratios)
    if (ND.second > 0)
      Sample[Metric] = ND.first / ND.second;
  Ratios.clear();
  std::map<std::string, double> Out;
  Out.swap(Sample);
  return Out;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\"traceEvents\":[";
  char Buf[64];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << (I ? ",\n" : "\n") << "{\"name\":\"" << S.Name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,";
    std::snprintf(Buf, sizeof(Buf), "\"ts\":%.3f,\"dur\":%.3f,",
                  (S.StartMs - Epoch) * 1e3, S.DurMs * 1e3);
    OS << Buf << "\"args\":{\"id\":" << S.Id << ",\"parent\":" << S.Parent
       << "}}";
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}

//===----------------------------------------------------------------------===//
// Metric catalog
//===----------------------------------------------------------------------===//

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> M = {
      {"setup_s", "s"},
      {"loop_p50_ms", "ms"},
      {"loop_tail_ms", "ms"},
      {"loops_per_s", "1/s"},
      {"time_to_slice_p50_ms", "ms"},
      {"query_p50_us", "us"},
      {"peak_rss_mb", "MB"},
      {"disk_bytes_per_pinball_byte", "ratio"},
  };
  return M;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> M = {
      {"replay.log_ms", "ms"},
      {"replay.log_minstr_per_s", "Minstr/s"},
      {"replay.pinball.save_ms", "ms"},
      {"replay.pinball.load_ms", "ms"},
      {"replay.pinball.repo_hit_ratio", "ratio"},
      {"slicing.prepare.replay_ms", "ms"},
      {"slicing.prepare.analysis_ms", "ms"},
      {"slicing.prepare.entries", "count"},
      {"slicing.index.save_ms", "ms"},
      {"slicing.index.load_ms", "ms"},
      {"slicing.index.bytes_per_pinball_byte", "ratio"},
      {"slicing.repo.hits", "count"},
      {"slicing.repo.misses", "count"},
      {"slicing.repo.index_hits", "count"},
      {"slicing.lp.slice_ms", "ms"},
      {"slicing.lp.dynamic_size", "count"},
      {"slicing.lp.blocks_scanned", "count"},
      {"slicing.exclusion_ms", "ms"},
      {"slicing.exclusion.regions", "count"},
      {"replay.relog_ms", "ms"},
      {"replay.relog.kept_ratio", "ratio"},
      {"replay.forward_ms", "ms"},
      {"replay.reverse_ms", "ms"},
      {"replay.reverse.reexec_instrs", "count"},
      {"replay.checkpoint_bytes", "bytes"},
      {"slicing.query.lastwrite_us", "us"},
      {"slicing.query.valuesof_us", "us"},
      {"slicing.query.readersof_us", "us"},
      {"debugger.cmd_ms.load", "ms"},
      {"debugger.cmd_ms.record_failure", "ms"},
      {"debugger.cmd_ms.pinball_save", "ms"},
      {"debugger.cmd_ms.pinball_load", "ms"},
      {"debugger.cmd_ms.slice_fail", "ms"},
      {"debugger.cmd_ms.slice", "ms"},
      {"debugger.cmd_ms.slice_forward", "ms"},
      {"debugger.cmd_ms.slice_pinball", "ms"},
      {"debugger.cmd_ms.slice_replay", "ms"},
      {"debugger.cmd_ms.slice_step", "ms"},
      {"debugger.cmd_ms.replay", "ms"},
      {"debugger.cmd_ms.reverse-watch", "ms"},
      {"debugger.cmd_ms.reverse-stepi", "ms"},
      {"debugger.cmd_ms.lastwrite", "ms"},
      {"debugger.cmd_ms.valuesof", "ms"},
      {"debugger.cmd_ms.readersof", "ms"},
      {"debugger.self_ms", "ms"},
      {"arch.assemble_ms", "ms"},
      {"server.rtt_us.open", "us"},
      {"server.rtt_us.load", "us"},
      {"server.rtt_us.pinball_load", "us"},
      {"server.rtt_us.slice_fail", "us"},
      {"server.rtt_us.replay", "us"},
      {"server.rtt_us.replay-seek", "us"},
      {"server.rtt_us.rstep", "us"},
      {"server.rtt_us.lastwrite", "us"},
      {"server.rtt_us.valuesof", "us"},
      {"server.rtt_us.quit", "us"},
      {"server.overhead_us", "us"},
      {"server.queue_wait_us", "us"},
      {"server.retries", "count"},
      {"support.journal.appends", "count"},
      {"support.journal.bytes", "bytes"},
      {"fleet.gateway.overhead_us", "us"},
      {"proc.minflt_per_loop", "count"},
      {"proc.nivcsw_per_loop", "count"},
      {"host.probe_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
  };
  return M;
}

std::string cmdMetricFor(const std::string &Line) {
  std::istringstream IS(Line);
  std::string Verb, Sub;
  IS >> Verb >> Sub;
  bool HasSub = (Verb == "record" || Verb == "pinball" || Verb == "slice") &&
                !Sub.empty() &&
                std::isalpha(static_cast<unsigned char>(Sub[0]));
  return "debugger.cmd_ms." + (HasSub ? Verb + "_" + Sub : Verb);
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream OS(Path, std::ios::binary);
  OS << Text;
  return static_cast<bool>(OS);
}

bool makeFailureInputs(uint64_t Seed, const std::string &Dir,
                       std::vector<FailureInput> &Out, std::string &Error) {
  workloads::RaceBugScale Scale;
  Scale.PreWork = 20000;
  Scale.Items = 32;
  std::vector<workloads::RaceBug> Suite = workloads::makeRaceBugSuite(Scale);
  Out.clear();
  for (size_t I = 0; I != Suite.size(); ++I) {
    FailureInput In;
    In.Name = Suite[I].Name;
    In.Prog = std::move(Suite[I].Prog);
    In.AsmPath = Dir + "/" + In.Name + ".asm";
    if (!writeFile(In.AsmPath, In.Prog.SourceText)) {
      Error = "cannot write " + In.AsmPath;
      return false;
    }
    const uint64_t Start = 1 + mixSeed(Seed, I) % 1000;
    for (uint64_t S = Start; S != Start + 1000 && !In.SchedSeed; ++S) {
      RandomScheduler Sched(S, 1, 4);
      DefaultSyscalls World(S);
      Machine M(In.Prog);
      M.setScheduler(&Sched);
      M.setSyscalls(&World);
      if (M.run(5'000'000) == Machine::StopReason::AssertFailed)
        In.SchedSeed = S;
    }
    if (!In.SchedSeed) {
      Error = "no failing schedule for " + In.Name;
      return false;
    }
    Out.push_back(std::move(In));
  }
  return true;
}

bool makeGeneratedRegion(uint64_t Instrs, const std::string &Dir,
                         GeneratedRegion &Out, std::string &Error) {
  // Program and schedule are a fixed member of the suite. Deriving either
  // from the workload seed swings a reattach-warm round several-fold: the
  // ten last-load slices of a 100k region span 29k-109k entries across
  // schedules, 2 to 6 written globals across programs.
  constexpr uint64_t GenSeed = 13, Start = 13;
  workloads::GeneratorOptions O;
  O.MinThreads = 3;
  O.MaxThreads = 3;
  for (uint64_t SchedSeed = Start; SchedSeed != Start + 64; ++SchedSeed) {
    for (unsigned Calls = 32; Calls <= 8192; Calls *= 2) {
      O.WorkerCalls = Calls;
      Program P = workloads::generateRandomProgram(GenSeed, O);
      RandomScheduler Sched(SchedSeed, 1, 4);
      DefaultSyscalls World(SchedSeed);
      Machine M(P);
      M.setScheduler(&Sched);
      M.setSyscalls(&World);
      Machine::StopReason R = M.run(Instrs);
      if (R == Machine::StopReason::Halted)
        continue; // too short: grow the worker call count
      if (R != Machine::StopReason::StepLimit || M.numThreads() != 4)
        break; // fails or deadlocks under this schedule: next schedule
      RandomScheduler LogSched(SchedSeed, 1, 4);
      DefaultSyscalls LogWorld(SchedSeed);
      RegionSpec Spec;
      Spec.MaxTotalInstrs = Instrs;
      LogResult Log = Logger::logRegion(P, LogSched, &LogWorld, Spec);
      if (Log.TotalInstrs != Instrs || Log.FailureCaptured)
        break;
      Out.Prog = std::move(P);
      Out.GenSeed = GenSeed;
      Out.SchedSeed = SchedSeed;
      Out.WorkerCalls = Calls;
      Out.Pb = std::move(Log.Pb);
      Out.AsmPath = Dir + "/generated.asm";
      if (!writeFile(Out.AsmPath, Out.Prog.SourceText)) {
        Error = "cannot write " + Out.AsmPath;
        return false;
      }
      return true;
    }
  }
  Error = "the generated program reached " + std::to_string(Instrs) +
          " instructions under no schedule tried";
  return false;
}

std::vector<const GlobalVar *> writtenGlobals(const SliceSession &S,
                                              const Program &P, size_t Max) {
  std::vector<const GlobalVar *> Out;
  for (const GlobalVar &G : P.Globals) {
    if (Out.size() == Max)
      break;
    if (!S.valuesOf(memLoc(G.Addr), 1).empty())
      Out.push_back(&G);
  }
  return Out;
}

std::string sliceLine(const SliceCriterion &C, const char *Sub) {
  std::string L = "slice ";
  if (Sub)
    L += std::string(Sub) + " ";
  return L + std::to_string(C.Tid) + " " + std::to_string(C.Pc) + " " +
         std::to_string(C.Instance);
}

} // namespace perfbench
