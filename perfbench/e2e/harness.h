//===- perfbench/e2e/harness.h - Shared end-to-end benchmark plumbing -----===//
//
// Part of the DrDebug reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the clock, the
/// sample statistics (median and the ten-beyond tail), process counters,
/// the host probe, the in-memory span log of the traced run, the metric
/// catalog, and the input generators (failing schedules, written globals,
/// the fixed-size generated region).
///
/// Nothing here reaches into src/: every timed layer call goes through the
/// layer's public API from this directory.
///
//===----------------------------------------------------------------------===//

#ifndef DRDEBUG_PERFBENCH_HARNESS_H
#define DRDEBUG_PERFBENCH_HARNESS_H

#include "arch/program.h"
#include "replay/pinball.h"
#include "slicing/slicer.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using drdebug::Pinball;
using drdebug::Program;
using drdebug::SliceSession;

//===----------------------------------------------------------------------===//
// Time and statistics
//===----------------------------------------------------------------------===//

inline double nowMs() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V);

/// The highest percentile of \p V with at least ten samples above it,
/// chosen from a fixed ladder (99.9 down to 50); nearest-rank value.
struct Tail {
  double Percentile = 0;
  double Value = 0;
};
Tail tailOf(std::vector<double> V);

/// Process counters from getrusage(RUSAGE_SELF).
struct Rusage {
  double MinFlt = 0;
  double Nivcsw = 0;
  double MaxRssMb = 0;
};
Rusage rusageNow();

/// A fixed integer kernel, timed: a slow host shows here, apart from a
/// slow program.
double hostProbeMs();

/// Total bytes of the regular files under \p Path (recursive).
uint64_t treeBytes(const std::string &Path);

/// Region-pinball bytes of a saved pinball directory: everything but its
/// slice index.
uint64_t regionBytes(const std::string &PbDir);

//===----------------------------------------------------------------------===//
// Traced run: spans in memory, per-layer values per sample
//===----------------------------------------------------------------------===//

/// The traced run's span log. A span is a sample, a command or wire
/// request, or a direct call into one layer's public API on the same
/// inputs. Spans stay in memory and are written once, as a Chrome trace,
/// when the benchmark ends. Layer values (times and counts) accumulate per
/// sample by metric name.
class SpanLog {
public:
  /// Opens a span under the innermost open one; \returns its id.
  uint32_t begin(const std::string &Name);
  /// Closes the innermost open span; \returns its duration in ms.
  double end();

  /// Adds \p V to the current sample's value of \p Metric.
  void add(const std::string &Metric, double V) { Sample[Metric] += V; }
  /// Makes the current sample's value of \p Metric the mean of the values
  /// passed here (per-call latencies, ratios).
  void addMean(const std::string &Metric, double V) {
    Sample[Metric] += V;
    ++MeanCounts[Metric];
  }
  /// Makes the current sample's value of \p Metric the ratio of the sums of
  /// the numerators and denominators passed here.
  void addRatio(const std::string &Metric, double Num, double Den) {
    Ratios[Metric].first += Num;
    Ratios[Metric].second += Den;
  }

  /// Runs \p Fn under span \p Name, adds its time in ms to \p Metric, and
  /// \returns that time.
  template <typename Fn>
  double timed(const std::string &Name, const std::string &Metric, Fn &&F) {
    begin(Name);
    F();
    double Ms = end();
    add(Metric, Ms);
    return Ms;
  }

  /// Ends the current sample and hands back its per-layer values.
  std::map<std::string, double> takeSample();

  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Span {
    uint32_t Id = 0;
    uint32_t Parent = 0;
    std::string Name;
    double StartMs = 0;
    double DurMs = 0;
  };
  std::vector<Span> Spans;
  std::vector<uint32_t> Open; ///< indices into Spans
  std::map<std::string, double> Sample;
  std::map<std::string, unsigned> MeanCounts;
  std::map<std::string, std::pair<double, double>> Ratios;
  double Epoch = nowMs();
};

//===----------------------------------------------------------------------===//
// Metric catalog
//===----------------------------------------------------------------------===//

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics every workload prints with --trace 0.
const std::vector<MetricDef> &endToEndMetrics();
/// The per-layer metrics every workload prints with --trace 1 (zero for a
/// layer the workload bypasses).
const std::vector<MetricDef> &perLayerMetrics();

/// "debugger.cmd_ms.<verb words joined by _>" for a command line: the
/// words up to the first argument that is not a verb word.
std::string cmdMetricFor(const std::string &Line);

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// SplitMix64 step: derives independent input seeds from the workload seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

/// A failure reproduced by `record failure <SchedSeed>`.
struct FailureInput {
  std::string Name;
  Program Prog;
  std::string AsmPath;
  uint64_t SchedSeed = 0;
};

/// The three race-bug analogs at the benchmark's scale, each with the first
/// failing schedule at or after a seed derived from \p Seed, searched with
/// the scheduler `record failure` uses (RandomScheduler(s, 1, 4) plus
/// DefaultSyscalls(s)). Writes each program to `<Dir>/<name>.asm`.
bool makeFailureInputs(uint64_t Seed, const std::string &Dir,
                       std::vector<FailureInput> &Out, std::string &Error);

/// The generated 4-thread program whose region is grown to exactly
/// \p Instrs instructions: the worker call count doubles until the run is
/// long enough, and the recording stops at \p Instrs. Program and schedule
/// are fixed, not derived from the workload seed.
struct GeneratedRegion {
  Program Prog;
  std::string AsmPath;
  uint64_t GenSeed = 0;
  uint64_t SchedSeed = 0;
  unsigned WorkerCalls = 0;
  Pinball Pb;
};
bool makeGeneratedRegion(uint64_t Instrs, const std::string &Dir,
                         GeneratedRegion &Out, std::string &Error);

/// The most written globals a script queries per input.
constexpr size_t MaxQueryGlobals = 6;

/// Globals the prepared region writes (valuesOf non-empty), in program
/// order, at most \p Max.
std::vector<const drdebug::GlobalVar *>
writtenGlobals(const SliceSession &S, const Program &P, size_t Max);

/// The slice command for a criterion: "slice <tid> <pc> <instance>".
std::string sliceLine(const drdebug::SliceCriterion &C,
                      const char *Sub = nullptr);

/// Writes \p Text to \p Path. \returns false on I/O failure.
bool writeFile(const std::string &Path, const std::string &Text);

} // namespace perfbench

#endif // DRDEBUG_PERFBENCH_HARNESS_H
