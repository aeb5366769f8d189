//===- perfbench/e2e/drivers.cpp - Command driver and direct layer calls --===//

#include "workloads.h"

#include "vm/location.h"
#include "vm/observer.h"

#include <algorithm>
#include <sstream>

using namespace drdebug;

namespace perfbench {

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "triage-cold", "reattach-warm", "remote-session"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       const std::string &Dir) {
  if (Name == "triage-cold")
    return makeTriageCold(Seed, Dir);
  if (Name == "reattach-warm")
    return makeReattachWarm(Seed, Dir);
  if (Name == "remote-session")
    return makeRemoteSession(Seed, Dir);
  return nullptr;
}

//===----------------------------------------------------------------------===//
// CommandDriver
//===----------------------------------------------------------------------===//

double CommandDriver::run(const std::string &Line) {
  if (T)
    T->begin("cmd " + Line);
  double T0 = nowMs();
  CommandResult R = Session.executeCommand(Line);
  double Ms = nowMs() - T0;
  if (T) {
    T->end();
    T->add(cmdMetricFor(Line), Ms);
  }
  Texts.push_back(std::move(R.Text));
  Statuses.push_back(R.Status);
  return Ms;
}

uint64_t CommandDriver::errors() const {
  return static_cast<uint64_t>(
      std::count(Statuses.begin(), Statuses.end(), CommandStatus::Error));
}

void runDirects(SpanLog &T, const std::vector<std::string> &Lines,
                const std::vector<double> &CmdMs,
                const std::function<double(size_t)> &Direct) {
  for (size_t I = 0; I != Lines.size(); ++I) {
    T.begin("direct " + Lines[I]);
    double LayerMs = Direct(I);
    T.end();
    T.add("debugger.self_ms", std::max(0.0, CmdMs[I] - LayerMs));
  }
}

double CommandDriver::loadText(const std::string &Text) {
  double T0 = nowMs();
  CommandResult R = Session.loadProgram(Text);
  double Ms = nowMs() - T0;
  Texts.push_back(std::move(R.Text));
  Statuses.push_back(R.Status);
  return Ms;
}

uint64_t countMismatches(const std::vector<std::string> &Got,
                         const std::vector<std::string> &Want) {
  uint64_t Bad = Got.size() > Want.size() ? Got.size() - Want.size()
                                          : Want.size() - Got.size();
  for (size_t I = 0, N = std::min(Got.size(), Want.size()); I != N; ++I)
    Bad += Got[I] != Want[I];
  return Bad;
}

//===----------------------------------------------------------------------===//
// Direct layer calls
//===----------------------------------------------------------------------===//

namespace {

/// Keeps timed results alive so the batch loops are not optimized away.
volatile uint64_t Sink = 0;

/// Attached to direct replays: any observer keeps the replayer on the
/// interpreter, exactly as the debugger's breakpoint observer does.
class QuietObserver : public Observer {};

} // namespace

double directSlice(SpanLog &T, const SliceSession &S, const SliceCriterion &C,
                   bool Forward, std::optional<Slice> *Keep) {
  uint64_t Blocks0 = S.blocksScanned();
  std::optional<Slice> Sl;
  double Ms = T.timed(Forward ? "lp_slicer.computeForwardSlice"
                              : "lp_slicer.computeSlice",
                      "slicing.lp.slice_ms", [&] {
                        Sl = Forward ? S.computeForwardSlice(C)
                                     : S.computeSlice(C);
                      });
  T.add("slicing.lp.dynamic_size",
        Sl ? static_cast<double>(Sl->dynamicSize()) : 0);
  T.add("slicing.lp.blocks_scanned",
        static_cast<double>(S.blocksScanned() - Blocks0));
  if (Keep)
    *Keep = std::move(Sl);
  return Ms;
}

double directQuery(SpanLog &T, const SliceSession &S, const Program &P,
                   const std::string &Line) {
  constexpr unsigned Reps = 256;
  std::istringstream IS(Line);
  std::string Verb, Arg;
  IS >> Verb >> Arg;
  double Us = 0;
  T.begin("defuse_index." + Verb);
  if (Verb == "readersof") {
    uint32_t Pos = static_cast<uint32_t>(std::stoul(Arg));
    Us = perCallUs(Reps, [&] { Sink = Sink + S.readersOf(Pos).size(); });
  } else {
    const GlobalVar *G = P.findGlobal(Arg);
    Location L = memLoc(G ? G->Addr : 0);
    if (Verb == "lastwrite") {
      Us = perCallUs(Reps, [&] {
        auto W = S.lastWrite(L);
        Sink = Sink + (W ? W->Pos : 0);
      });
    } else {
      size_t Max = 0;
      IS >> Max;
      Us = perCallUs(Reps, [&] { Sink = Sink + S.valuesOf(L, Max).size(); });
    }
  }
  T.end();
  T.addMean("slicing.query." + Verb + "_us", Us);
  return Us / 1e3;
}

DirectReplay::DirectReplay(const Pinball &Pb)
    : Obs(std::make_unique<QuietObserver>()),
      R(std::make_unique<CheckpointedReplay>(Pb, /*Interval=*/256)) {
  R->machine().addObserver(Obs.get());
}

DirectReplay::~DirectReplay() = default;

double DirectReplay::runForward(SpanLog &T) {
  double Ms = T.timed("checkpoints.runForward", "replay.forward_ms",
                      [&] { R->runForward(); });
  T.add("replay.checkpoint_bytes", static_cast<double>(R->checkpointBytes()));
  return Ms;
}

double DirectReplay::step(SpanLog &T) {
  return T.timed("checkpoints.stepForward", "replay.forward_ms",
                 [&] { R->stepForward(); });
}

double DirectReplay::reverseWatch(SpanLog &T, uint64_t Addr) {
  uint64_t Re0 = R->reexecutedInstructions();
  double Ms = T.timed("checkpoints.reverseFind", "replay.reverse_ms", [&] {
    int64_t Last = 0;
    R->scanBackward([&](Machine &M, uint64_t, bool SegmentStart) {
      int64_t V = M.mem().load(Addr);
      bool Changed = !SegmentStart && V != Last;
      Last = V;
      return Changed;
    });
  });
  T.add("replay.reverse.reexec_instrs",
        static_cast<double>(R->reexecutedInstructions() - Re0));
  return Ms;
}

double DirectReplay::seek(SpanLog &T, uint64_t Target, bool Backward) {
  uint64_t Re0 = R->reexecutedInstructions();
  double Ms = T.timed("checkpoints.seek",
                      Backward ? "replay.reverse_ms" : "replay.forward_ms",
                      [&] { R->seek(Target); });
  if (Backward)
    T.add("replay.reverse.reexec_instrs",
          static_cast<double>(R->reexecutedInstructions() - Re0));
  return Ms;
}

} // namespace perfbench
