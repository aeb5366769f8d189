//===- perfbench/e2e/workloads.h - The benchmark's three workloads --------===//
//
// Part of the DrDebug reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload sets up its inputs once, then runs samples: one sample is a
/// round over all of the workload's inputs (triage-cold, reattach-warm) or
/// one whole client session (remote-session), driven by one thread through
/// the entry points users drive. Every sample checks its transcript against
/// the reference captured at setup.
///
/// A traced sample runs the same commands under spans and, after each
/// command, calls the layers that command exercises directly, through their
/// public APIs, on the same inputs. The direct calls are not part of the
/// sample's wall time.
///
//===----------------------------------------------------------------------===//

#ifndef DRDEBUG_PERFBENCH_WORKLOADS_H
#define DRDEBUG_PERFBENCH_WORKLOADS_H

#include "harness.h"

#include "debugger/session.h"
#include "replay/checkpoints.h"

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// What one sample measured.
struct SampleResult {
  /// The sample's wall time; in a traced sample, without the direct calls.
  double WallMs = 0;
  /// Time until the first slice answer (see each workload).
  double TimeToSliceMs = 0;
  /// Query latencies in µs: one per-query mean per sample in-process, one
  /// value per round trip remote.
  std::vector<double> QueryUs;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds inputs and artifacts under the workload's directory, captures
  /// the reference transcripts, and warms up. \returns false with \p Error
  /// when the inputs cannot be built.
  virtual bool setup(std::string &Error) = 0;

  /// Runs one sample; traced when \p T is non-null.
  virtual SampleResult sample(SpanLog *T) = 0;

  /// Bytes left on disk for the workload's failures ÷ region-pinball bytes.
  virtual double diskRatio() const = 0;

  /// One line describing the inputs (sizes, seeds) for the output header.
  virtual std::string describe() const = 0;

  /// Checks made during setup (reference and warm-up transcripts, the
  /// slice replay's end point): attempted and failed operations.
  uint64_t SetupAttempted = 0;
  uint64_t SetupFailed = 0;
};

/// \returns the workload named \p Name working under \p Dir, or null.
std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       const std::string &Dir);

/// Names of the workloads makeWorkload knows.
const std::vector<std::string> &workloadNames();

std::unique_ptr<Workload> makeTriageCold(uint64_t Seed, const std::string &Dir);
std::unique_ptr<Workload> makeReattachWarm(uint64_t Seed,
                                           const std::string &Dir);
std::unique_ptr<Workload> makeRemoteSession(uint64_t Seed,
                                            const std::string &Dir);

/// Drives one in-process DebugSession through executeCommand, timing each
/// command and keeping its output. Traced, each command runs under a span
/// and its time is added to its debugger.cmd_ms.<verb> metric.
class CommandDriver {
public:
  explicit CommandDriver(SpanLog *T) : T(T), Session(Null) {}

  /// Runs \p Line; \returns its wall time in ms.
  double run(const std::string &Line);
  /// Loads program text the way a front end does with `load` over the
  /// wire (no file); \returns its wall time in ms.
  double loadText(const std::string &Text);

  drdebug::DebugSession &session() { return Session; }
  const std::vector<std::string> &texts() const { return Texts; }
  const std::vector<drdebug::CommandStatus> &statuses() const {
    return Statuses;
  }
  /// Commands that ended with CommandStatus::Error.
  uint64_t errors() const;

private:
  SpanLog *T;
  /// Output is captured per command into CommandResult::Text; the session
  /// stream itself goes nowhere.
  std::ostream Null{nullptr};
  drdebug::DebugSession Session;
  std::vector<std::string> Texts;
  std::vector<drdebug::CommandStatus> Statuses;
};

/// The traced run's second half for one input: after its session has
/// ended, calls \p Direct(i) for each command i of \p Lines (the layers
/// that command exercises, on the same inputs) under a span, and charges
/// the part of the command's time \p CmdMs[i] those calls do not cover to
/// debugger.self_ms. \p Direct returns the layer time in ms.
void runDirects(SpanLog &T, const std::vector<std::string> &Lines,
                const std::vector<double> &CmdMs,
                const std::function<double(size_t)> &Direct);

/// Compares \p Got to \p Want line by line; \returns mismatches (a missing
/// or extra entry counts as one each).
uint64_t countMismatches(const std::vector<std::string> &Got,
                         const std::vector<std::string> &Want);

//===----------------------------------------------------------------------===//
// Direct layer calls of the traced run, shared by the workloads. Each runs
// under its own span, adds its metrics, and returns its time in ms.
//===----------------------------------------------------------------------===//

/// SliceSession::computeSlice / computeForwardSlice (slicing/lp_slicer).
double directSlice(SpanLog &T, const SliceSession &S,
                   const drdebug::SliceCriterion &C, bool Forward,
                   std::optional<drdebug::Slice> *Keep = nullptr);

/// The omniscient query a `lastwrite`/`valuesof`/`readersof` command line
/// asks, against the def-use index (slicing/defuse_index), timed as a
/// batch: a single query is too close to the timer's resolution.
double directQuery(SpanLog &T, const SliceSession &S, const Program &P,
                   const std::string &Line);

/// A CheckpointedReplay set up the way the debugger replays: interval 256
/// and an attached observer (which keeps replay on the interpreter, as the
/// debugger's breakpoint observer does).
class DirectReplay {
public:
  explicit DirectReplay(const Pinball &Pb);
  ~DirectReplay();
  drdebug::CheckpointedReplay &replay() { return *R; }
  /// `replay`: runs to the end (replay/checkpoints forward).
  double runForward(SpanLog &T);
  /// `slice step`: one step.
  double step(SpanLog &T);
  /// `reverse-watch <global>`: the debugger's backward value-change scan.
  double reverseWatch(SpanLog &T, uint64_t Addr);
  /// `reverse-stepi n` / `replay-seek n`: a seek.
  double seek(SpanLog &T, uint64_t Target, bool Backward);

private:
  std::unique_ptr<drdebug::Observer> Obs;
  std::unique_ptr<drdebug::CheckpointedReplay> R;
};

/// Times \p Reps calls of \p F; \returns µs per call.
template <typename Fn> double perCallUs(unsigned Reps, Fn &&F) {
  double T0 = nowMs();
  for (unsigned I = 0; I != Reps; ++I)
    F();
  return (nowMs() - T0) * 1e3 / Reps;
}

} // namespace perfbench

#endif // DRDEBUG_PERFBENCH_WORKLOADS_H
