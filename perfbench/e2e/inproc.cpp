//===- perfbench/e2e/inproc.cpp - triage-cold and reattach-warm -----------===//
//
// The two in-process workloads, both driven through
// DebugSession::executeCommand in a fresh session per input:
//
//   triage-cold    first contact with a fresh failure (the paper's Table 2
//                  pipeline): record, save, load, cold slice with index
//                  write-back, slice pinball, slice replay, queries.
//   reattach-warm  the next iteration on a saved failure: verified load,
//                  slice from the on-disk index, criteria sweep, forward
//                  slice, replay, reverse execution, queries.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "arch/assembler.h"
#include "arch/disasm.h"
#include "replay/logger.h"
#include "replay/relogger.h"
#include "replay/repository.h"
#include "slicing/index_store.h"
#include "vm/location.h"
#include "vm/scheduler.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

using namespace drdebug;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

double directAssemble(SpanLog &T, const Program &P) {
  return T.timed("assembler.assemble", "arch.assemble_ms", [&] {
    Program Out;
    std::string Error;
    assemble(P.SourceText, Out, Error);
  });
}

/// Which commands of an input's script form the time-to-slice window
/// [TtsFirst, TtsLast] and the trailing query block [QueryFirst, end).
struct ScriptWindows {
  size_t TtsFirst, TtsLast, QueryFirst;
};

/// One round: each input's script runs in a fresh session, timed. Traced,
/// the input's direct layer calls follow once its session has ended, with
/// a fresh \p StateT, outside the round's wall time. \p Windows maps an
/// input to its ScriptWindows; \p Direct(I, In, State, T) makes the direct
/// calls for command I. Checks run after the clock stops.
template <typename StateT, typename InputT, typename WindowsFn,
          typename DirectFn>
SampleResult runRound(std::vector<InputT> &Inputs, SpanLog *T,
                      WindowsFn Windows, DirectFn Direct) {
  SampleResult R;
  double QueryMs = 0, DirectMs = 0;
  size_t Queries = 0;
  std::vector<std::vector<std::string>> Texts;
  std::vector<uint64_t> Errors;
  const double Wall0 = nowMs();
  for (InputT &In : Inputs) {
    const ScriptWindows W = Windows(In);
    std::vector<double> Ms;
    {
      CommandDriver D(T);
      for (size_t I = 0; I != In.Script.size(); ++I) {
        Ms.push_back(D.run(In.Script[I]));
        if (I >= W.TtsFirst && I <= W.TtsLast)
          R.TimeToSliceMs += Ms.back();
        if (I >= W.QueryFirst) {
          QueryMs += Ms.back();
          ++Queries;
        }
      }
      Texts.push_back(D.texts());
      Errors.push_back(D.errors());
    }
    if (T) {
      const double D0 = nowMs();
      {
        StateT State;
        runDirects(*T, In.Script, Ms,
                   [&](size_t I) { return Direct(I, In, State, *T); });
      }
      DirectMs += nowMs() - D0;
    }
  }
  R.WallMs = nowMs() - Wall0 - DirectMs;
  if (Queries)
    R.QueryUs.push_back(QueryMs * 1e3 / static_cast<double>(Queries));
  for (size_t I = 0; I != Inputs.size(); ++I) {
    R.Attempted += Inputs[I].Script.size();
    R.Failed += Errors[I] + countMismatches(Texts[I], Inputs[I].Ref);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// triage-cold
//===----------------------------------------------------------------------===//

class TriageCold : public Workload {
public:
  TriageCold(uint64_t Seed, std::string Dir)
      : Seed(Seed), Dir(std::move(Dir)) {}

  bool setup(std::string &Error) override;
  SampleResult sample(SpanLog *T) override;
  double diskRatio() const override { return Disk; }
  std::string describe() const override;

private:
  // Script layout (per input).
  static constexpr size_t LoadIdx = 0, RecordIdx = 1, SaveIdx = 2,
                          PbLoadIdx = 3, SliceFailIdx = 4, SlicePbIdx = 5,
                          SliceReplayIdx = 6, SliceSteps = 8,
                          QueryIdx = SliceReplayIdx + 1 + SliceSteps;

  struct Input {
    FailureInput F;
    std::string PbDir, SliceDir;
    std::vector<std::string> Written; ///< globals the region writes
    std::vector<std::string> Script;
    std::vector<std::string> Ref;
    uint64_t RegionInstrs = 0;
  };

  /// State of the direct layer calls while one input's script runs.
  struct DirectState {
    LogResult Log;
    Pinball Pb;
    std::unique_ptr<SliceSession> S;
    std::optional<Slice> Sl;
    Pinball SlicePb;
    std::unique_ptr<DirectReplay> R;
  };

  std::vector<std::string> script(const Input &In, bool Probe) const;
  double direct(size_t Idx, Input &In, DirectState &D, SpanLog &T);
  void removeRoundDirs();

  uint64_t Seed;
  std::string Dir;
  std::vector<Input> Inputs;
  double Disk = 0;
};

std::vector<std::string> TriageCold::script(const Input &In,
                                            bool Probe) const {
  std::vector<std::string> S = {
      "load " + In.F.AsmPath,
      "record failure " + std::to_string(In.F.SchedSeed),
      "pinball save " + In.PbDir,
      "pinball load " + In.PbDir,
      "slice fail",
      "slice pinball " + In.SliceDir,
      "slice replay"};
  for (size_t I = 0; I != SliceSteps; ++I)
    S.push_back("slice step");
  if (Probe) {
    // Setup only: run the slice replay to its end, and find which globals
    // the region writes (valuesof fails on the others).
    S.push_back("continue");
    for (const GlobalVar &G : In.F.Prog.Globals)
      S.push_back("valuesof " + G.Name + " 1");
    return S;
  }
  for (const std::string &G : In.Written) {
    S.push_back("lastwrite " + G);
    S.push_back("valuesof " + G + " 16");
  }
  return S;
}

void TriageCold::removeRoundDirs() {
  std::error_code Ec;
  for (const Input &In : Inputs) {
    fs::remove_all(In.PbDir, Ec);
    fs::remove_all(In.SliceDir, Ec);
    fs::remove_all(In.PbDir + ".direct", Ec);
    fs::remove_all(In.SliceDir + ".direct", Ec);
  }
}

bool TriageCold::setup(std::string &Error) {
  std::vector<FailureInput> Fs;
  if (!makeFailureInputs(Seed, Dir, Fs, Error))
    return false;
  for (FailureInput &F : Fs) {
    Input In;
    In.PbDir = Dir + "/" + F.Name + ".pb";
    In.SliceDir = Dir + "/" + F.Name + ".slicepb";
    In.F = std::move(F);
    Inputs.push_back(std::move(In));
  }
  // Probe round: every pipeline command must succeed, the slice replay
  // must end at the recorded failure, and the written globals are found.
  for (Input &In : Inputs) {
    CommandDriver D(nullptr);
    std::vector<std::string> S = script(In, /*Probe=*/true);
    for (const std::string &L : S)
      D.run(L);
    const size_t Continue = QueryIdx;
    SetupAttempted += Continue + 1;
    SetupFailed += static_cast<uint64_t>(
        std::count(D.statuses().begin(), D.statuses().begin() + Continue + 1,
                   CommandStatus::Error));
    if (D.texts()[RecordIdx].find("failure captured") == std::string::npos)
      ++SetupFailed;
    const auto &Pb = D.session().regionPinball();
    if (Pb && Pb->Meta.count("failpc") && Pb->Meta.count("failtid")) {
      uint64_t Pc = std::stoull(Pb->Meta.at("failpc"));
      std::string Want = "assertion FAILED: tid " + Pb->Meta.at("failtid") +
                         " at " + disassembleAt(In.F.Prog, Pc) + " (line " +
                         std::to_string(In.F.Prog.inst(Pc).Line) + ")";
      if (D.texts()[Continue].find(Want) == std::string::npos)
        ++SetupFailed;
      In.RegionInstrs = Pb->instructionCount();
    } else {
      ++SetupFailed;
    }
    for (size_t G = 0; G != In.F.Prog.Globals.size(); ++G)
      if (D.statuses()[Continue + 1 + G] == CommandStatus::Ok &&
          In.Written.size() < MaxQueryGlobals)
        In.Written.push_back(In.F.Prog.Globals[G].Name);
    In.Script = script(In, /*Probe=*/false);
  }
  removeRoundDirs();
  // Reference round, then one checked warm-up round.
  for (Input &In : Inputs) {
    CommandDriver D(nullptr);
    for (const std::string &L : In.Script)
      D.run(L);
    SetupAttempted += In.Script.size();
    SetupFailed += D.errors();
    In.Ref = D.texts();
  }
  removeRoundDirs();
  SampleResult Warm = sample(nullptr);
  SetupAttempted += Warm.Attempted;
  SetupFailed += Warm.Failed;
  return true;
}

double TriageCold::direct(size_t Idx, Input &In, DirectState &D, SpanLog &T) {
  std::string Error;
  const std::string PbDir = In.PbDir + ".direct";
  const std::string SliceDir = In.SliceDir + ".direct";
  switch (Idx) {
  case LoadIdx:
    return directAssemble(T, In.F.Prog);
  case RecordIdx: {
    double Ms = T.timed("logger.logRegion", "replay.log_ms", [&] {
      RandomScheduler Sched(In.F.SchedSeed, 1, 4);
      DefaultSyscalls World(In.F.SchedSeed);
      D.Log = Logger::logRegion(In.F.Prog, Sched, &World, RegionSpec());
    });
    T.addRatio("replay.log_minstr_per_s",
               static_cast<double>(D.Log.TotalInstrs) / 1e3, Ms);
    return Ms;
  }
  case SaveIdx:
    return T.timed("pinball.save", "replay.pinball.save_ms",
                   [&] { D.Log.Pb.save(PbDir, Error); });
  case PbLoadIdx:
    return T.timed("pinball.load", "replay.pinball.load_ms",
                   [&] { D.Pb.load(PbDir, Error, PinballLoadOptions()); });
  case SliceFailIdx: {
    uint64_t Fp = PinballRepository::dirFingerprint(PbDir);
    D.S = std::make_unique<SliceSession>(D.Pb);
    double Ms = T.timed("index_store.loadIndex", "slicing.index.load_ms",
                        [&] { D.S->loadIndex(PbDir, Fp, Error); });
    T.begin("slicer.prepare");
    D.S->prepare(Error);
    Ms += T.end();
    T.add("slicing.prepare.replay_ms", D.S->replaySeconds() * 1e3);
    T.add("slicing.prepare.analysis_ms", D.S->analysisSeconds() * 1e3);
    T.add("slicing.prepare.entries",
          static_cast<double>(D.S->traces().totalEntries()));
    Ms += T.timed("index_store.saveIndex", "slicing.index.save_ms",
                  [&] { D.S->saveIndex(PbDir, Fp, Error); });
    T.addRatio("slicing.index.bytes_per_pinball_byte",
               static_cast<double>(
                   treeBytes(SliceIndexStore::indexDirFor(PbDir))),
               static_cast<double>(regionBytes(PbDir)));
    if (auto C = D.S->failureCriterion())
      Ms += directSlice(T, *D.S, *C, /*Forward=*/false, &D.Sl);
    return Ms;
  }
  case SlicePbIdx: {
    if (!D.Sl)
      return 0;
    std::vector<ExclusionRegion> Regions;
    double Ms = T.timed("exclusion.exclusionRegions", "slicing.exclusion_ms",
                        [&] { Regions = D.S->exclusionRegions(*D.Sl); });
    T.add("slicing.exclusion.regions", static_cast<double>(Regions.size()));
    Ms += T.timed("relogger.relog", "replay.relog_ms", [&] {
      Relogger::relog(D.Pb, Regions, D.SlicePb, Error);
    });
    T.addRatio("replay.relog.kept_ratio",
               static_cast<double>(D.SlicePb.instructionCount()),
               static_cast<double>(D.Pb.instructionCount()));
    Ms += T.timed("pinball.save", "replay.pinball.save_ms",
                  [&] { D.SlicePb.save(SliceDir, Error); });
    return Ms;
  }
  case SliceReplayIdx:
    return T.timed("checkpoints.construct", "replay.forward_ms", [&] {
      D.R = std::make_unique<DirectReplay>(D.SlicePb);
    });
  default:
    if (Idx < QueryIdx)
      return D.R ? D.R->step(T) : 0;
    return D.S ? directQuery(T, *D.S, In.F.Prog, In.Script[Idx]) : 0;
  }
}

SampleResult TriageCold::sample(SpanLog *T) {
  SampleResult R = runRound<DirectState>(
      Inputs, T,
      [](const Input &) {
        return ScriptWindows{RecordIdx, SliceFailIdx, QueryIdx};
      },
      [this](size_t I, Input &In, DirectState &D, SpanLog &L) {
        return direct(I, In, D, L);
      });
  if (Disk == 0) {
    // Measured once, on setup's warm-up round, before its directories go.
    uint64_t Left = 0, Region = 0;
    for (const Input &In : Inputs) {
      Left += treeBytes(In.PbDir) + treeBytes(In.SliceDir);
      Region += regionBytes(In.PbDir);
    }
    Disk = Region ? static_cast<double>(Left) / static_cast<double>(Region)
                  : 0;
  }
  removeRoundDirs();
  return R;
}

std::string TriageCold::describe() const {
  std::ostringstream OS;
  for (const Input &In : Inputs)
    OS << (&In == &Inputs.front() ? "" : ", ") << In.F.Name << " schedule "
       << In.F.SchedSeed << " region " << In.RegionInstrs << " instrs, "
       << In.Written.size() << " written globals";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// reattach-warm
//===----------------------------------------------------------------------===//

class ReattachWarm : public Workload {
public:
  ReattachWarm(uint64_t Seed, std::string Dir)
      : Seed(Seed), Dir(std::move(Dir)) {}

  bool setup(std::string &Error) override;
  SampleResult sample(SpanLog *T) override;
  double diskRatio() const override { return Disk; }
  std::string describe() const override;

private:
  static constexpr unsigned Criteria = 10;
  static constexpr unsigned QueryRepeats = 4;
  // Script layout (per input).
  static constexpr size_t LoadIdx = 0, PbLoadIdx = 1, FirstSliceIdx = 2,
                          SweepIdx = 3, ForwardIdx = SweepIdx + Criteria,
                          ReplayIdx = ForwardIdx + 1,
                          WatchIdx = ReplayIdx + 1;

  struct Input {
    std::string Name;
    Program Prog;
    std::string AsmPath;
    std::string PbDir;
    uint64_t Fingerprint = 0;
    uint64_t RegionInstrs = 0;
    bool HasFailure = false;
    std::vector<SliceCriterion> Crit;
    std::vector<const GlobalVar *> Written;
    std::vector<const GlobalVar *> Watched;
    std::vector<std::string> Script;
    size_t StepBackIdx = 0; ///< the reverse-stepi line
    std::vector<std::string> Ref;
  };

  struct DirectState {
    Pinball Pb;
    std::unique_ptr<SliceSession> S;
    std::unique_ptr<DirectReplay> R;
  };

  bool addInput(Input In, const Pinball &Pb, std::string &Error);
  double direct(size_t Idx, Input &In, DirectState &D, SpanLog &T);

  uint64_t Seed;
  std::string Dir;
  std::vector<Input> Inputs;
  double Disk = 0;
  std::string GenNote;
};

bool ReattachWarm::addInput(Input In, const Pinball &Pb, std::string &Error) {
  In.PbDir = Dir + "/" + In.Name + ".pb";
  if (!Pb.save(In.PbDir, Error))
    return false;
  In.Fingerprint = PinballRepository::dirFingerprint(In.PbDir);
  In.RegionInstrs = Pb.instructionCount();
  Pinball Loaded;
  if (!Loaded.load(In.PbDir, Error))
    return false;
  SliceSession S(Loaded);
  if (!S.prepare(Error) || !S.saveIndex(In.PbDir, In.Fingerprint, Error))
    return false;
  In.Crit = S.lastLoadCriteria(Criteria);
  In.Written = writtenGlobals(S, In.Prog, MaxQueryGlobals);
  if (In.Crit.empty() || In.Written.empty()) {
    Error = In.Name + ": region has no load criteria or written globals";
    return false;
  }
  const size_t Watched = std::min<size_t>(2, In.Written.size());
  In.Watched.assign(In.Written.begin(), In.Written.begin() + Watched);

  std::vector<std::string> &Sc = In.Script;
  Sc = {"load " + In.AsmPath, "pinball load " + In.PbDir,
        In.HasFailure ? "slice fail" : sliceLine(In.Crit.front())};
  for (unsigned I = 0; I != Criteria; ++I)
    Sc.push_back(sliceLine(In.Crit[I % In.Crit.size()]));
  Sc.push_back(sliceLine(In.Crit.front(), "forward"));
  Sc.push_back("replay");
  for (const GlobalVar *G : In.Watched)
    Sc.push_back("reverse-watch " + G->Name);
  In.StepBackIdx = Sc.size();
  Sc.push_back("reverse-stepi 100");
  for (unsigned Rep = 0; Rep != QueryRepeats; ++Rep)
    for (const GlobalVar *G : In.Written) {
      Sc.push_back("lastwrite " + G->Name);
      Sc.push_back("valuesof " + G->Name + " 16");
      Sc.push_back("readersof " +
                   std::to_string(S.lastWrite(memLoc(G->Addr))->Pos));
    }
  Inputs.push_back(std::move(In));
  return true;
}

bool ReattachWarm::setup(std::string &Error) {
  std::vector<FailureInput> Fs;
  if (!makeFailureInputs(Seed, Dir, Fs, Error))
    return false;
  for (FailureInput &F : Fs) {
    RandomScheduler Sched(F.SchedSeed, 1, 4);
    DefaultSyscalls World(F.SchedSeed);
    LogResult Log = Logger::logRegion(F.Prog, Sched, &World, RegionSpec());
    if (!Log.FailureCaptured) {
      Error = F.Name + ": schedule " + std::to_string(F.SchedSeed) +
              " records no failure";
      return false;
    }
    Input In;
    In.Name = F.Name;
    In.Prog = std::move(F.Prog);
    In.AsmPath = F.AsmPath;
    In.HasFailure = true;
    if (!addInput(std::move(In), Log.Pb, Error))
      return false;
  }
  GeneratedRegion Gen;
  if (!makeGeneratedRegion(100'000, Dir, Gen, Error))
    return false;
  GenNote = "generated program seed " + std::to_string(Gen.GenSeed) + " x" +
            std::to_string(Gen.WorkerCalls) + " calls, schedule " +
            std::to_string(Gen.SchedSeed);
  Input In;
  In.Name = "generated";
  In.Prog = std::move(Gen.Prog);
  In.AsmPath = Gen.AsmPath;
  if (!addInput(std::move(In), Gen.Pb, Error))
    return false;

  uint64_t Left = 0, Region = 0;
  for (const Input &I : Inputs) {
    Left += treeBytes(I.PbDir);
    Region += regionBytes(I.PbDir);
  }
  Disk = static_cast<double>(Left) / static_cast<double>(Region);

  // Reference round, then one checked warm-up round.
  for (Input &I : Inputs) {
    CommandDriver D(nullptr);
    for (const std::string &L : I.Script)
      D.run(L);
    SetupAttempted += I.Script.size();
    SetupFailed += D.errors();
    I.Ref = D.texts();
  }
  SampleResult Warm = sample(nullptr);
  SetupAttempted += Warm.Attempted;
  SetupFailed += Warm.Failed;
  return true;
}

double ReattachWarm::direct(size_t Idx, Input &In, DirectState &D,
                            SpanLog &T) {
  std::string Error;
  if (Idx == LoadIdx)
    return directAssemble(T, In.Prog);
  if (Idx == PbLoadIdx)
    return T.timed("pinball.load", "replay.pinball.load_ms", [&] {
      D.Pb.load(In.PbDir, Error, PinballLoadOptions());
    });
  if (Idx == FirstSliceIdx) {
    D.S = std::make_unique<SliceSession>(D.Pb);
    double Ms = T.timed("index_store.loadIndex", "slicing.index.load_ms", [&] {
      D.S->loadIndex(In.PbDir, In.Fingerprint, Error);
    });
    std::optional<SliceCriterion> C =
        In.HasFailure ? D.S->failureCriterion() : In.Crit.front();
    return C ? Ms + directSlice(T, *D.S, *C, /*Forward=*/false) : Ms;
  }
  if (!D.S)
    return 0;
  if (Idx < ForwardIdx)
    return directSlice(T, *D.S, In.Crit[(Idx - SweepIdx) % In.Crit.size()],
                       /*Forward=*/false);
  if (Idx == ForwardIdx)
    return directSlice(T, *D.S, In.Crit.front(), /*Forward=*/true);
  if (Idx == ReplayIdx) {
    D.R = std::make_unique<DirectReplay>(D.Pb);
    return D.R->runForward(T);
  }
  if (Idx < In.StepBackIdx)
    return D.R->reverseWatch(T, In.Watched[Idx - WatchIdx]->Addr);
  if (Idx == In.StepBackIdx) {
    uint64_t Pos = D.R->replay().position();
    return D.R->seek(T, Pos > 100 ? Pos - 100 : 0, /*Backward=*/true);
  }
  return directQuery(T, *D.S, In.Prog, In.Script[Idx]);
}

SampleResult ReattachWarm::sample(SpanLog *T) {
  return runRound<DirectState>(
      Inputs, T,
      [](const Input &In) {
        return ScriptWindows{PbLoadIdx, FirstSliceIdx, In.StepBackIdx + 1};
      },
      [this](size_t I, Input &In, DirectState &D, SpanLog &L) {
        return direct(I, In, D, L);
      });
}

std::string ReattachWarm::describe() const {
  std::ostringstream OS;
  for (const Input &In : Inputs)
    OS << (&In == &Inputs.front() ? "" : ", ") << In.Name << " region "
       << In.RegionInstrs << " instrs, " << In.Written.size()
       << " written globals";
  OS << "; " << GenNote;
  return OS.str();
}

} // namespace

std::unique_ptr<Workload> makeTriageCold(uint64_t Seed,
                                         const std::string &Dir) {
  return std::make_unique<TriageCold>(Seed, Dir);
}

std::unique_ptr<Workload> makeReattachWarm(uint64_t Seed,
                                           const std::string &Dir) {
  return std::make_unique<ReattachWarm>(Seed, Dir);
}

} // namespace perfbench
