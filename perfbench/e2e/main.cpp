//===- perfbench/e2e/main.cpp - The end-to-end benchmark runner -----------===//
//
// Part of the DrDebug reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_e2e --workload <name> --seed <n> --trace <0|1> --scratch <dir>
///               --git-rev <rev>
///
/// Sets the workload up three times (setup_s is the median; the first two
/// setups run in forked children so they do not inflate peak_rss_mb), then
/// runs samples for RunSeconds with one driving thread. With --trace 0 it
/// prints the end-to-end metrics; with --trace 1 it alternates untraced and
/// traced samples, prints the per-layer metrics and the tracing overhead,
/// and writes the spans as a Chrome trace to <scratch>.trace.json. The last
/// stdout line is one JSON object: {"correct", "attempted", "failed",
/// "metrics"}.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

/// Every flag is required; run.py passes them all.
struct Options {
  std::string Workload;
  uint64_t Seed;
  bool Trace;
  std::string Scratch;
  std::string GitRev;
};

/// Setups per run; setup_s is their median.
constexpr unsigned Setups = 3;
/// Length of the timed phase (BENCHMARK.json's run_seconds).
constexpr double RunSeconds = 45;

bool parseArgs(int Argc, char **Argv, Options &O) {
  std::map<std::string, std::string> Flags;
  for (int I = 1; I + 1 < Argc; I += 2)
    Flags[Argv[I]] = Argv[I + 1];
  if (Argc % 2 != 1 || Flags.size() != 5 || !Flags.count("--workload") ||
      !Flags.count("--seed") || !Flags.count("--trace") ||
      !Flags.count("--scratch") || !Flags.count("--git-rev"))
    return false;
  O.Workload = Flags["--workload"];
  O.Seed = std::stoull(Flags["--seed"]);
  O.Trace = Flags["--trace"] == "1";
  O.Scratch = Flags["--scratch"];
  O.GitRev = Flags["--git-rev"];
  const auto &Names = workloadNames();
  return std::find(Names.begin(), Names.end(), O.Workload) != Names.end() &&
         !O.Scratch.empty();
}

std::string cpuBrand() {
  unsigned Regs[12] = {};
  for (unsigned I = 0; I != 3; ++I)
    if (!__get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                     &Regs[4 * I + 2], &Regs[4 * I + 3]))
      return "unknown";
  char Brand[49] = {};
  std::memcpy(Brand, Regs, 48);
  std::string S(Brand);
  S.erase(0, S.find_first_not_of(' '));
  return S;
}

std::string fsType(const std::string &Path) {
  struct statfs SF {};
  if (statfs(Path.c_str(), &SF) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(SF.f_type)) {
  case 0x01021994:
    return "tmpfs";
  case 0xEF53:
    return "ext4";
  case 0x794C7630:
    return "overlayfs";
  default:
    return "fs-0x" + std::to_string(static_cast<unsigned long>(SF.f_type));
  }
}

/// Sets the workload up in a forked child under \p Dir, timed from \p T0;
/// \returns the setup time in seconds, or -1 when the setup failed.
double setupInChild(const Options &O, const std::string &Dir, double T0) {
  int Fds[2];
  if (pipe(Fds) != 0)
    return -1;
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    return -1;
  }
  if (Pid == 0) {
    close(Fds[0]);
    std::error_code Ec;
    fs::create_directories(Dir, Ec);
    std::unique_ptr<Workload> W = makeWorkload(O.Workload, O.Seed, Dir);
    std::string Error;
    double S = W->setup(Error) && W->SetupFailed == 0 ? (nowMs() - T0) / 1e3
                                                       : -1;
    if (S < 0)
      std::fprintf(stderr, "perfbench: setup failed: %s\n", Error.c_str());
    W.reset();
    ssize_t N = write(Fds[1], &S, sizeof(S));
    _exit(N == sizeof(S) ? 0 : 1);
  }
  close(Fds[1]);
  double S = -1;
  if (read(Fds[0], &S, sizeof(S)) != sizeof(S))
    S = -1;
  close(Fds[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0 ? S : -1;
}

/// The traced run's "should move" check: each workload's claimed dominant
/// layer(s) against the other layers inside the same end-to-end window.
void printSplit(const std::string &W,
                const std::map<std::string, double> &L, double Tts,
                double Query) {
  auto Get = [&](const char *K) {
    auto It = L.find(K);
    return It == L.end() ? 0.0 : It->second;
  };
  std::printf("# split (medians per traced sample):\n");
  if (W == "triage-cold") {
    double Claim = Get("slicing.prepare.replay_ms") +
                   Get("slicing.prepare.analysis_ms") +
                   Get("slicing.index.save_ms");
    std::printf("#   time_to_slice %.1f ms: prepare+index save %.1f ms "
                "(%.0f%%); log %.1f, pinball save %.1f, pinball load %.1f, "
                "index load %.2f, lp slice %.2f ms\n",
                Tts, Claim, 100 * Claim / Tts, Get("replay.log_ms"),
                Get("replay.pinball.save_ms"), Get("replay.pinball.load_ms"),
                Get("slicing.index.load_ms"), Get("slicing.lp.slice_ms"));
  } else if (W == "reattach-warm") {
    std::printf("#   time_to_slice %.1f ms: index load %.1f ms (%.0f%%); "
                "pinball load %.1f ms; lp slices of the whole round %.1f ms\n",
                Tts, Get("slicing.index.load_ms"),
                100 * Get("slicing.index.load_ms") / Tts,
                Get("replay.pinball.load_ms"), Get("slicing.lp.slice_ms"));
  } else {
    double Wire = Get("server.overhead_us") + Get("fleet.gateway.overhead_us");
    std::printf("#   query %.1f us: wire+gateway %.1f us (%.0f%%: server %.1f, "
                "gateway %.1f); lastwrite index %.2f us, valuesof index "
                "%.2f us\n",
                Query, Wire, 100 * Wire / Query, Get("server.overhead_us"),
                Get("fleet.gateway.overhead_us"),
                Get("slicing.query.lastwrite_us"),
                Get("slicing.query.valuesof_us"));
  }
}

} // namespace

int main(int Argc, char **Argv) {
  const double Start = nowMs();
  Options O{};
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload "
                 "triage-cold|reattach-warm|remote-session --seed <n> "
                 "--trace 0|1 --scratch <dir> --git-rev <rev>\n");
    return 2;
  }
  std::error_code Ec;
  fs::remove_all(O.Scratch, Ec);
  fs::create_directories(O.Scratch, Ec);
#ifdef NDEBUG
  const char *Asserts = "off";
#else
  const char *Asserts = "on";
#endif
  std::printf("# perfbench e2e: workload %s, seed %" PRIu64
              ", %.0f s, trace %d, %u setups\n",
              O.Workload.c_str(), O.Seed, RunSeconds, O.Trace ? 1 : 0, Setups);
  std::printf("# host: nproc %u, cpu \"%s\", build %s, asserts %s, git %s, "
              "scratch %s (%s)\n",
              std::thread::hardware_concurrency(), cpuBrand().c_str(),
              PERFBENCH_BUILD_TYPE, Asserts, O.GitRev.c_str(),
              O.Scratch.c_str(), fsType(O.Scratch).c_str());
  std::fflush(stdout);

  // Set up several times. All but the last run in forked children, so
  // their memory never counts toward peak_rss_mb; the last one, in this
  // process, serves the timed phase.
  std::vector<double> SetupS;
  for (unsigned K = 0; K + 1 < Setups; ++K) {
    double S = setupInChild(O, O.Scratch + "/setup-" + std::to_string(K),
                            K == 0 ? Start : nowMs());
    fs::remove_all(O.Scratch + "/setup-" + std::to_string(K), Ec);
    if (S < 0) {
      std::fprintf(stderr, "perfbench: setup %u failed\n", K);
      fs::remove_all(O.Scratch, Ec);
      return 1;
    }
    SetupS.push_back(S);
  }
  const double Setup0 = nowMs();
  const std::string Dir = O.Scratch + "/setup";
  fs::create_directories(Dir, Ec);
  std::unique_ptr<Workload> W = makeWorkload(O.Workload, O.Seed, Dir);
  std::string Error;
  if (!W->setup(Error)) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", Error.c_str());
    W.reset();
    fs::remove_all(O.Scratch, Ec);
    return 1;
  }
  SetupS.push_back((nowMs() - Setup0) / 1e3);
  std::printf("# inputs: %s\n", W->describe().c_str());

  uint64_t Attempted = W->SetupAttempted, Failed = W->SetupFailed;
  std::vector<double> Loop, TracedLoop, Tts, Query, Probes;
  std::vector<std::map<std::string, double>> Layers;
  SpanLog Spans;
  double MinFlt = 0, Nivcsw = 0, ProbeMs = 0;
  const double Phase0 = nowMs();
  double NextProbe = Phase0;
  for (size_t N = 0; N == 0 || nowMs() - Phase0 < RunSeconds * 1e3; ++N) {
    if (nowMs() >= NextProbe) {
      double P = hostProbeMs();
      Probes.push_back(P);
      ProbeMs += P;
      NextProbe = nowMs() + 500;
    }
    if (O.Trace && N % 2 == 1) {
      Spans.begin("sample");
      SampleResult S = W->sample(&Spans);
      Spans.end();
      Layers.push_back(Spans.takeSample());
      TracedLoop.push_back(S.WallMs);
      Attempted += S.Attempted;
      Failed += S.Failed;
      continue;
    }
    Rusage U0 = rusageNow();
    SampleResult S = W->sample(nullptr);
    Rusage U1 = rusageNow();
    MinFlt += U1.MinFlt - U0.MinFlt;
    Nivcsw += U1.Nivcsw - U0.Nivcsw;
    Loop.push_back(S.WallMs);
    Tts.push_back(S.TimeToSliceMs);
    Query.insert(Query.end(), S.QueryUs.begin(), S.QueryUs.end());
    Attempted += S.Attempted;
    Failed += S.Failed;
  }
  const double PhaseS = (nowMs() - Phase0 - ProbeMs) / 1e3;
  const double RssMb = rusageNow().MaxRssMb;
  const double Disk = W->diskRatio();
  W.reset();
  fs::remove_all(O.Scratch, Ec);

  std::map<std::string, double> Out;
  std::vector<MetricDef> Defs;
  const Tail LoopTail = tailOf(Loop);
  const double LoopP50 = median(Loop), TtsP50 = median(Tts),
               QueryP50 = median(Query);
  if (!O.Trace) {
    Defs = endToEndMetrics();
    Out["setup_s"] = median(SetupS);
    Out["loop_p50_ms"] = LoopP50;
    Out["loop_tail_ms"] = LoopTail.Value;
    Out["loops_per_s"] = static_cast<double>(Loop.size()) / PhaseS;
    Out["time_to_slice_p50_ms"] = TtsP50;
    Out["query_p50_us"] = QueryP50;
    Out["peak_rss_mb"] = RssMb;
    Out["disk_bytes_per_pinball_byte"] = Disk;
    std::printf("# loop_tail_ms is p%g of %zu samples; query_p50_us over %zu "
                "values; setups",
                LoopTail.Percentile, Loop.size(), Query.size());
    for (double S : SetupS)
      std::printf(" %.3f", S);
    std::vector<double> Sorted = Loop;
    std::sort(Sorted.begin(), Sorted.end());
    auto At = [&](double Q) {
      double Last = static_cast<double>(Sorted.size() - 1);
      return Sorted[static_cast<size_t>(Q * Last)];
    };
    std::printf(" s\n# loop ms: min %.2f q1 %.2f median %.2f q3 %.2f max %.2f",
                At(0), At(0.25), LoopP50, At(0.75), At(1));
    std::printf("\n# noise: host.probe_ms %.3f (median of %zu), "
                "proc.minflt_per_loop %.1f, proc.nivcsw_per_loop %.2f\n",
                median(Probes), Probes.size(),
                MinFlt / static_cast<double>(Loop.size()),
                Nivcsw / static_cast<double>(Loop.size()));
  } else {
    Defs = perLayerMetrics();
    for (const MetricDef &D : Defs) {
      std::vector<double> V;
      for (const auto &L : Layers) {
        auto It = L.find(D.Name);
        V.push_back(It == L.end() ? 0.0 : It->second);
      }
      Out[D.Name] = median(V);
    }
    const double NLoop = static_cast<double>(std::max<size_t>(1, Loop.size()));
    Out["proc.minflt_per_loop"] = MinFlt / NLoop;
    Out["proc.nivcsw_per_loop"] = Nivcsw / NLoop;
    Out["host.probe_ms"] = median(Probes);
    Out["trace.overhead_ratio"] = median(TracedLoop) / LoopP50;
    std::printf("# %zu untraced + %zu traced samples; untraced loop_p50 "
                "%.3f ms, traced %.3f ms (overhead x%.3f, direct calls "
                "excluded)\n",
                Loop.size(), TracedLoop.size(), LoopP50, median(TracedLoop),
                Out["trace.overhead_ratio"]);
    printSplit(O.Workload, Out, TtsP50, QueryP50);
    const std::string TracePath = O.Scratch + ".trace.json";
    if (Spans.writeChromeTrace(TracePath))
      std::printf("# spans written to %s\n", TracePath.c_str());
  }
  for (const MetricDef &D : Defs)
    std::printf("# %-40s %14.4f %s\n", D.Name, Out[D.Name], D.Unit);
  std::printf("# attempted %" PRIu64 " failed %" PRIu64 "\n", Attempted,
              Failed);

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Failed == 0 ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I != Defs.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Defs[I].Name, Out[Defs[I].Name], Defs[I].Unit);
  std::printf("}}\n");
  return 0;
}
