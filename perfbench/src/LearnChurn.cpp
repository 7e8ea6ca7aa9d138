//===-- perfbench/src/LearnChurn.cpp - The learn path ---------------------===//
//
// Part of the ecas project, under the MIT License.
//
// learn-churn: closed loop, one thread. A pool of kernels — eight
// variants of each of the 8 power-characterization classes'
// micro-benchmark kernels, in an order drawn from the seed — runs with 4
// P-states, the energy objective,
// golden-section refine and ReprofileEveryInvocations = 1 (Section 3.1's
// re-profiling for drifting kernels). Invocations are sized just above
// the GPU profile size, so every one is profile -> classify -> joint
// (alpha, P-state) search -> short dispatch and the table-hit path is
// bypassed. Each pass starts from an empty table G on a fresh processor,
// so its simulated energy is a deterministic function of the seed and
// guards decision quality on the DVFS path.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "SpanStats.h"

#include "ecas/core/EasScheduler.h"
#include "ecas/core/Schedulers.h"
#include "ecas/power/MicroBenchmarks.h"
#include "ecas/support/Random.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

using namespace ecas;
using namespace perfbench;

namespace {

constexpr unsigned VariantsPerClass = 8;
constexpr unsigned RoundsPerPass = 2;

struct ChurnSetup : DvfsDesktop {
  std::vector<KernelInvocation> Pass;
  double GenerateSec = 0.0;
};

/// The pool and one seeded pass over it. Each class contributes
/// VariantsPerClass kernels whose costs step across a fixed +-3% grid;
/// every kernel runs RoundsPerPass times at sizes from a fixed 1.05-1.5x
/// grid of the GPU profile size. The seed draws the order only, so every
/// seed holds the same work (cost jitter that moved kernels across the
/// classifier's thresholds made the figures depend on the seed).
std::vector<KernelInvocation> makePass(const PlatformSpec &Spec,
                                       uint64_t Seed) {
  std::vector<KernelDesc> Pool;
  for (unsigned C = 0; C != WorkloadClass::NumClasses; ++C) {
    KernelDesc Base = makeMicroBenchmark(Spec, WorkloadClass::fromIndex(C))
                          .Kernel;
    for (unsigned V = 0; V != VariantsPerClass; ++V) {
      double Step = 0.97 + 0.06 * V / (VariantsPerClass - 1);
      KernelDesc K = Base;
      K.CpuCyclesPerIter *= Step;
      K.GpuCyclesPerIter *= 2.0 - Step;
      K.Name = Base.Name + ".v" + std::to_string(V) + ".c" +
               std::to_string(C);
      K.Id = 0;
      K.withAutoId();
      Pool.push_back(K);
    }
  }
  const double ProfileSize = Spec.defaultGpuProfileSize();
  std::vector<KernelInvocation> Pass;
  for (unsigned R = 0; R != RoundsPerPass; ++R)
    for (size_t K = 0; K != Pool.size(); ++K) {
      double Grid = static_cast<double>((K + R * 7) % Pool.size()) /
                    static_cast<double>(Pool.size() - 1);
      Pass.push_back({Pool[K], std::floor(ProfileSize * (1.05 + 0.45 * Grid))});
    }
  Xoshiro256 Rng(Seed);
  for (size_t I = Pass.size(); I > 1; --I)
    std::swap(Pass[I - 1], Pass[Rng.next() % I]);
  return Pass;
}

std::unique_ptr<ChurnSetup> buildSetup(uint64_t Seed) {
  auto Setup =
      std::make_unique<ChurnSetup>(ChurnSetup{characterizeDvfsDesktop()});
  Clock::time_point Start = Clock::now();
  Setup->Pass = makePass(Setup->Spec, Seed);
  Setup->GenerateSec = secondsSince(Start);
  return Setup;
}

struct PassOutcome {
  double Joules = 0.0;
  double SimSec = 0.0;
  double Wall = 0.0;
};

/// One pass from an empty table G; every invocation must profile.
PassOutcome runPass(const ChurnSetup &Setup, obs::TraceRecorder *Recorder,
                    Segments *Seg, Tally &Ops) {
  Clock::time_point Start = Clock::now();
  EasConfig Config;
  Config.PStates = true;
  Config.RefineAlpha = true;
  Config.ReprofileEveryInvocations = 1;
  Config.Trace = Recorder;
  EasScheduler Scheduler(Setup.Family, Metric::energy(), Config);
  SimProcessor Proc(Setup.Spec);
  uint32_t Msr = Proc.meter().readMsr();
  double SimStart = Proc.now();
  uint64_t Unprofiled = 0;
  for (const KernelInvocation &Inv : Setup.Pass) {
    Clock::time_point T0 = Clock::now();
    EasScheduler::InvocationOutcome Outcome =
        Scheduler.execute(Proc, Inv.Kernel, Inv.Iterations);
    Clock::time_point T1 = Clock::now();
    if (Seg)
      Seg->sample(nsBetween(T0, T1));
    Unprofiled += Outcome.Profiled && Outcome.AlphaSearches > 0 ? 0 : 1;
  }
  Ops.attempt(Setup.Pass.size());
  Ops.check(Unprofiled == 0,
            "learn-churn: invocations skipped profiling or the search",
            Unprofiled);
  PassOutcome Out;
  Out.Joules = Proc.meter().joulesSince(Msr);
  Out.SimSec = Proc.now() - SimStart;
  Out.Wall = secondsSince(Start);
  return Out;
}

} // namespace

RunResult perfbench::runLearnChurn(const Options &Opts) {
  RunResult Result;
  std::unique_ptr<ChurnSetup> Setup;
  Result.E2E.SetupS = medianSetupSeconds(
      Opts.Trace ? 1 : SetupReps, [&] { Setup = buildSetup(Opts.Seed); });
  Result.Layers.WorkloadsGenerateS = Setup->GenerateSec;
  Result.Layers.PowerCharacterizeS = Setup->CharacterizeSec;

  double Window = Opts.Trace ? Opts.Seconds / 2.0 : Opts.Seconds;
  Segments Seg;
  PassOutcome First;
  Seg.start();
  for (unsigned Pass = 0; Pass == 0 || Seg.tick() < Window; ++Pass) {
    PassOutcome P = runPass(*Setup, nullptr, &Seg, Result.Ops);
    if (Pass == 0)
      First = P;
    Result.Ops.check(P.Joules == First.Joules && P.SimSec == First.SimSec,
                     "learn-churn: a pass's simulated outcome drifted");
    Seg.work(static_cast<double>(Setup->Pass.size()), P.SimSec);
  }
  Seg.finish();
  Summary Inv = Seg.latency();
  std::printf("learn-churn: %.0f invocations in %zu segments, %.9g J per "
              "pass\n",
              Seg.totalOps(), Seg.count(), First.Joules);
  printSummary("invocation", Inv, "ns");

  if (!Opts.Trace) {
    EndToEnd &E2E = Result.E2E;
    E2E.InvocationsPerS = Seg.rate();
    E2E.InvocationP50Ns = Inv.Median;
    E2E.InvocationP99Ns = Inv.Tail;
    E2E.SimSpeedX = Seg.simSpeed();
    E2E.SimEnergyJ = First.Joules;
    fillClosedLoopService(E2E, Result.Ops);
    paperQualityGuard(Result);
    return Result;
  }

  // Traced half: the same passes with a recorder per pass.
  SpanStats Spans;
  obs::TraceLog LastLog;
  uint64_t TracedInvocations = 0;
  double TracedWall = 0.0;
  double MaxOverheadPct = 0.0;
  Clock::time_point TracedStart = Clock::now();
  do {
    obs::TraceRecorder Recorder;
    PassOutcome P = runPass(*Setup, &Recorder, nullptr, Result.Ops);
    Result.Ops.check(P.Joules == First.Joules && P.SimSec == First.SimSec,
                     "learn-churn: tracing changed the simulated outcome");
    TracedInvocations += Setup->Pass.size();
    TracedWall += P.Wall;
    LastLog = Recorder.drain();
    MaxOverheadPct = std::max(MaxOverheadPct, Spans.absorb(LastLog).pct());
  } while (secondsSince(TracedStart) < Window);

  PerLayer &L = Result.Layers;
  Spans.fill(L);
  L.CoreDecideOverheadMaxPct = MaxOverheadPct;
  L.ObsTraceOverheadPct =
      100.0 * (1.0 - static_cast<double>(TracedInvocations) / TracedWall /
                         Seg.rate());
  writeChromeTrace(Opts, LastLog);
  return Result;
}
