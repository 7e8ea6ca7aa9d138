//===-- perfbench/src/PaperSuite.cpp - The paper's quality axis -----------===//
//
// Part of the ecas project, under the MIT License.
//
// paper-suite: closed loop, one thread. For every app of the desktop
// suite (12) and the tablet suite (7), under both the EDP and the energy
// objective, EAS starts from an empty table G and runs the app's trace —
// the fig09-fig12 harnesses at their default scale (0.3) and generator
// seed. The set-up characterizes both platforms, generates both suites,
// and computes the Oracle references plus an ExecutionSession::run
// reference of every EAS run (the exact call the figure harnesses make).
// The measured passes drive EasScheduler::execute directly, one
// invocation at a time, and must reproduce those references bit for bit.
// --seed permutes the order of the 38 runs; the inputs are the paper's.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "SpanStats.h"

#include "ecas/core/ExecutionSession.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/Characterizer.h"
#include "ecas/support/AllocGuard.h"
#include "ecas/support/Random.h"
#include "ecas/workloads/Registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

using namespace ecas;
using namespace perfbench;

namespace {

/// How far EAS may beat the Oracle. The Oracle is the best *fixed*
/// ratio over a whole app; EAS decides per invocation (small ones run
/// CPU-alone), so it can edge past it — tablet EDP RT reads 101.7% in
/// fig11 at this scale. Beyond 2% the accounting, not the decision, is
/// suspect.
constexpr double OracleEpsilon = 0.02;

struct Platform {
  PlatformSpec Spec;
  PowerCurveSet Curves;
  std::vector<Workload> Suite;
};

/// One (platform, objective, app) run and its references.
struct AppCase {
  unsigned PlatformIndex = 0; // 0 desktop, 1 tablet
  bool Energy = false;
  const Workload *App = nullptr;
  double OracleMetric = 0.0;
  SessionReport Reference;
};

struct PaperSetup {
  Platform Platforms[2];
  std::vector<AppCase> Cases;
  double GenerateSec = 0.0;
  double CharacterizeSec = 0.0;
};

Metric objectiveOf(const AppCase &C) {
  return C.Energy ? Metric::energy() : Metric::edp();
}

std::unique_ptr<PaperSetup> buildSetup() {
  auto Setup = std::make_unique<PaperSetup>();
  // The figure harnesses' defaults (bench::configFromFlags).
  WorkloadConfig Config;
  Config.Scale = 0.3;
  Config.Seed = 0x5eed;
  Platform &Desktop = Setup->Platforms[0];
  Platform &Tablet = Setup->Platforms[1];
  Desktop.Spec = haswellDesktop();
  Tablet.Spec = bayTrailTablet();

  Clock::time_point T0 = Clock::now();
  Desktop.Curves = Characterizer(Desktop.Spec).characterize();
  Tablet.Curves = Characterizer(Tablet.Spec).characterize();
  Clock::time_point T1 = Clock::now();
  Desktop.Suite = desktopSuite(Config);
  Tablet.Suite = tabletSuite(Config);
  Clock::time_point T2 = Clock::now();
  Setup->CharacterizeSec = secondsBetween(T0, T1);
  Setup->GenerateSec = secondsBetween(T1, T2);

  for (unsigned P = 0; P != 2; ++P) {
    const Platform &Plat = Setup->Platforms[P];
    ExecutionSession Session(Plat.Spec);
    for (const Workload &App : Plat.Suite) {
      // Every fixed-ratio run serves both objectives: the Oracle is the
      // best MetricValue over the same sweep runOracle makes.
      std::vector<SessionReport> Sweep;
      for (double Alpha = 0.0; Alpha <= 1.0 + 1e-9; Alpha += 0.1)
        Sweep.push_back(
            Session.runFixedAlpha(App.Trace, std::min(Alpha, 1.0),
                                  Metric::edp()));
      for (bool Energy : {false, true}) {
        AppCase C;
        C.PlatformIndex = P;
        C.Energy = Energy;
        C.App = &App;
        Metric Objective = objectiveOf(C);
        C.OracleMetric = INFINITY;
        for (const SessionReport &R : Sweep)
          C.OracleMetric = std::min(
              C.OracleMetric, Objective.fromMeasurement(R.Joules, R.Seconds));
        RunOptions Run;
        Run.Trace = &App.Trace;
        Run.Curves = &Plat.Curves;
        Run.Objective = Objective;
        C.Reference = Session.run(SchemeKind::Eas, Run);
        Setup->Cases.push_back(std::move(C));
      }
    }
  }
  return Setup;
}

/// What one EAS run of one app produced.
struct AppRun {
  double Seconds = 0.0;
  double Joules = 0.0;
  double MetricValue = 0.0;
  unsigned Invocations = 0;
  double TimeErrSum = 0.0;
  double EnergyErrSum = 0.0;
  unsigned ModelSamples = 0;
  uint64_t Hits = 0;
  uint64_t HitAllocations = 0;
};

/// ExecutionSession::run(SchemeKind::Eas) unrolled so each execute() is
/// timed on its own: fresh processor, fresh table G, same fold.
AppRun runApp(const PaperSetup &Setup, const AppCase &C,
              obs::TraceRecorder *Recorder, Segments *Seg) {
  const Platform &Plat = Setup.Platforms[C.PlatformIndex];
  Metric Objective = objectiveOf(C);
  EasConfig Config;
  Config.Trace = Recorder;
  SimProcessor Proc(Plat.Spec);
  EasScheduler Scheduler(PowerCurveFamily::fromSingle(Plat.Curves), Objective,
                         Config);
  AppRun Out;
  uint32_t MsrBefore = Proc.meter().readMsr();
  double Start = Proc.now();
  RequestContext Anonymous;
  for (const KernelInvocation &Inv : C.App->Trace) {
    AllocTally Allocs;
    Clock::time_point T0 = Clock::now();
    EasScheduler::InvocationOutcome Outcome = Scheduler.execute(
        Proc, Inv.Kernel, Inv.Iterations, Anonymous, nullptr);
    Clock::time_point T1 = Clock::now();
    uint64_t Allocations = Allocs.allocations();
    if (Seg)
      Seg->sample(nsBetween(T0, T1));
    if (Outcome.TableHit) {
      ++Out.Hits;
      Out.HitAllocations += Allocations;
    }
    if (Outcome.hasModelSample()) {
      Out.TimeErrSum += Outcome.timeRelError();
      Out.EnergyErrSum += Outcome.energyRelError();
      ++Out.ModelSamples;
    }
    ++Out.Invocations;
  }
  Out.Seconds = Proc.now() - Start;
  Out.Joules = Proc.meter().joulesSince(MsrBefore);
  Out.MetricValue = Out.Seconds > 0.0
                        ? Objective.fromMeasurement(Out.Joules, Out.Seconds)
                        : 0.0;
  return Out;
}

/// Checks one run against its references; returns its efficiency.
double checkApp(const AppCase &C, const AppRun &R, Tally &Ops) {
  const char *Plat = C.PlatformIndex ? "tablet" : "desktop";
  const char *Obj = C.Energy ? "energy" : "edp";
  std::string What = std::string(Plat) + "/" + Obj + "/" + C.App->Abbrev;
  Ops.check(R.Seconds == C.Reference.Seconds &&
                R.Joules == C.Reference.Joules &&
                R.MetricValue == C.Reference.MetricValue &&
                R.Invocations == C.Reference.Invocations,
            What + ": EAS run differs from the ExecutionSession reference");
  double Eff = C.OracleMetric / R.MetricValue;
  Ops.check(Eff <= 1.0 + OracleEpsilon,
            What + ": EAS beats the exhaustive Oracle (" +
                std::to_string(100.0 * Eff) + "%)");
  return Eff;
}

/// One pass's results, kept per case so every sum folds in the cases'
/// canonical order whatever order the seed ran them in.
struct PassQuality {
  std::vector<AppRun> Runs;
  std::vector<double> Eff;

  explicit PassQuality(size_t Cases = 0) : Runs(Cases), Eff(Cases) {}

  void add(size_t Index, const AppRun &R, double E) {
    Runs[Index] = R;
    Eff[Index] = E;
  }
  template <typename FieldT> double sum(FieldT AppRun::*Field) const {
    double Total = 0.0;
    for (const AppRun &R : Runs)
      Total += static_cast<double>(R.*Field);
    return Total;
  }
  void fillQuality(const PaperSetup &Setup, EndToEnd &E2E) const {
    double EffSum[2][2] = {};
    unsigned Apps[2][2] = {};
    for (size_t I = 0; I != Eff.size(); ++I) {
      const AppCase &C = Setup.Cases[I];
      EffSum[C.PlatformIndex][C.Energy] += Eff[I];
      ++Apps[C.PlatformIndex][C.Energy];
    }
    auto Pct = [&](unsigned P, bool Energy) {
      return Apps[P][Energy] ? 100.0 * EffSum[P][Energy] / Apps[P][Energy]
                             : 0.0;
    };
    E2E.EdpEffDesktopPct = Pct(0, false);
    E2E.EnergyEffDesktopPct = Pct(0, true);
    E2E.EdpEffTabletPct = Pct(1, false);
    E2E.EnergyEffTabletPct = Pct(1, true);
  }
};

/// The seeded run order: every case once per pass.
std::vector<size_t> runOrder(size_t Cases, uint64_t Seed) {
  std::vector<size_t> Order(Cases);
  for (size_t I = 0; I != Cases; ++I)
    Order[I] = I;
  Xoshiro256 Rng(Seed);
  for (size_t I = Cases; I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.next() % I]);
  return Order;
}

} // namespace

RunResult perfbench::runPaperSuite(const Options &Opts) {
  RunResult Result;
  std::unique_ptr<PaperSetup> Setup;
  unsigned Reps = Opts.Trace ? 1 : SetupReps;
  Result.E2E.SetupS =
      medianSetupSeconds(Reps, [&] { Setup = buildSetup(); });
  Result.Layers.WorkloadsGenerateS = Setup->GenerateSec;
  Result.Layers.PowerCharacterizeS = Setup->CharacterizeSec;
  std::vector<size_t> Order = runOrder(Setup->Cases.size(), Opts.Seed);

  // One segment per pass: each pass's timings are summarized on their
  // own and the run reports the median pass.
  double Window = Opts.Trace ? Opts.Seconds / 2.0 : Opts.Seconds;
  Segments Seg(0.0);
  PassQuality Q;
  Seg.start();
  for (unsigned Pass = 0; Pass == 0 || Seg.tick() < Window; ++Pass) {
    PassQuality P(Setup->Cases.size());
    for (size_t Index : Order) {
      const AppCase &C = Setup->Cases[Index];
      AppRun R = runApp(*Setup, C, nullptr, &Seg);
      Result.Ops.attempt(R.Invocations);
      P.add(Index, R, checkApp(C, R, Result.Ops));
    }
    Seg.work(P.sum(&AppRun::Invocations), P.sum(&AppRun::Seconds));
    if (Pass == 0)
      Q = P;
  }
  Seg.finish();
  Summary Inv = Seg.latency();
  std::printf("paper-suite: %.0f invocations in %zu passes of %zu runs\n",
              Seg.totalOps(), Seg.count(), Order.size());
  printSummary("invocation", Inv, "ns");

  if (!Opts.Trace) {
    EndToEnd &E2E = Result.E2E;
    E2E.InvocationsPerS = Seg.rate();
    E2E.InvocationP50Ns = Inv.Median;
    E2E.InvocationP99Ns = Inv.Tail;
    E2E.SimSpeedX = Seg.simSpeed();
    Q.fillQuality(*Setup, E2E);
    E2E.SimEnergyJ = Q.sum(&AppRun::Joules);
    fillClosedLoopService(E2E, Result.Ops);
    std::printf("paper-suite quality: EDP desktop %.4f%% energy desktop "
                "%.4f%% EDP tablet %.4f%% energy tablet %.4f%%\n",
                E2E.EdpEffDesktopPct, E2E.EnergyEffDesktopPct,
                E2E.EdpEffTabletPct, E2E.EnergyEffTabletPct);
    return Result;
  }

  // Traced half: the same passes with a recorder per app run. Simulated
  // outcomes must match the untraced references exactly (checkApp).
  SpanStats Spans;
  double MaxOverheadPct = 0.0;
  std::vector<double> TracedRates;
  obs::TraceLog LastLog;
  Clock::time_point Start = Clock::now();
  do {
    double PassBusy = 0.0;
    double PassInvocations = 0.0;
    for (size_t Index : Order) {
      const AppCase &C = Setup->Cases[Index];
      obs::TraceRecorder Recorder;
      Clock::time_point RunStart = Clock::now();
      AppRun R = runApp(*Setup, C, &Recorder, nullptr);
      PassBusy += secondsSince(RunStart);
      Result.Ops.attempt(R.Invocations);
      checkApp(C, R, Result.Ops);
      PassInvocations += R.Invocations;
      LastLog = Recorder.drain();
      MaxOverheadPct = std::max(MaxOverheadPct, Spans.absorb(LastLog).pct());
    }
    // Only the runs count; draining and folding the trace do not.
    TracedRates.push_back(PassInvocations / PassBusy);
  } while (secondsSince(Start) < Window);

  PerLayer &L = Result.Layers;
  Spans.fill(L);
  L.CoreDecideOverheadMaxPct = MaxOverheadPct;
  double Hits = Q.sum(&AppRun::Hits);
  double Samples = Q.sum(&AppRun::ModelSamples);
  L.CoreAllocsPerHit = Hits > 0.0 ? Q.sum(&AppRun::HitAllocations) / Hits : 0.0;
  L.CoreModelTimeRelError =
      Samples > 0.0 ? Q.sum(&AppRun::TimeErrSum) / Samples : 0.0;
  L.CoreModelEnergyRelError =
      Samples > 0.0 ? Q.sum(&AppRun::EnergyErrSum) / Samples : 0.0;
  L.ObsTraceOverheadPct =
      100.0 * (1.0 - median(std::move(TracedRates)) / Seg.rate());
  writeChromeTrace(Opts, LastLog);
  return Result;
}

void perfbench::paperQualityGuard(RunResult &Result) {
  std::unique_ptr<PaperSetup> Setup = buildSetup();
  PassQuality Q(Setup->Cases.size());
  for (size_t I = 0; I != Setup->Cases.size(); ++I) {
    const AppCase &C = Setup->Cases[I];
    AppRun R = runApp(*Setup, C, nullptr, nullptr);
    Q.add(I, R, checkApp(C, R, Result.Ops));
  }
  Q.fillQuality(*Setup, Result.E2E);
  std::printf("paper quality guard: EDP desktop %.4f%% energy desktop "
              "%.4f%% EDP tablet %.4f%% energy tablet %.4f%%\n",
              Result.E2E.EdpEffDesktopPct, Result.E2E.EnergyEffDesktopPct,
              Result.E2E.EdpEffTabletPct, Result.E2E.EnergyEffTabletPct);
}
