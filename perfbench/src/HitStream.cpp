//===-- perfbench/src/HitStream.cpp - The table-hit path ------------------===//
//
// Part of the ecas project, under the MIT License.
//
// hit-stream: closed loop, one thread. Table G is warmed over the desktop
// suite's kernels with 4 synthesized P-states and no registry, the way a
// library embeds ecas (bench/micro_decision does the same). The measured
// loop replays batches of small invocations (every kernel at 256..2048
// iterations, so the simulated dispatch is cheap), in an order drawn
// from the seed: every call must be a
// table hit that allocates nothing. Profiling and the search do no work
// here. The first batch's simulated energy is a deterministic function of
// the seed, and a traced replay must reproduce it exactly.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "SpanStats.h"

#include "ecas/core/EasScheduler.h"
#include "ecas/support/AllocGuard.h"
#include "ecas/support/Random.h"

#include <cmath>
#include <cstdio>
#include <memory>

using namespace ecas;
using namespace perfbench;

namespace {

struct HitSetup : DvfsDesktop {
  std::vector<KernelDesc> Kernels;
  double GenerateSec = 0.0;
};

std::unique_ptr<HitSetup> buildSetup() {
  auto Setup = std::make_unique<HitSetup>(HitSetup{characterizeDvfsDesktop()});
  Clock::time_point Start = Clock::now();
  Setup->Kernels = desktopKernels();
  Setup->GenerateSec = secondsSince(Start);
  return Setup;
}

/// A scheduler whose table G holds every kernel as a confident hit,
/// and the processor that warmed it. The processor stays: a fresh one
/// grows its device queues on first use, which the hit path must not be
/// charged for.
struct Replayer {
  std::unique_ptr<EasScheduler> Scheduler;
  std::unique_ptr<SimProcessor> Proc;
};

Replayer warmReplayer(const HitSetup &Setup, obs::TraceRecorder *Recorder,
                      Tally &Ops) {
  EasConfig Eas;
  Eas.PStates = true;
  Eas.Trace = Recorder;
  Replayer R;
  R.Scheduler = std::make_unique<EasScheduler>(Setup.Family, Metric::edp(),
                                               Eas);
  R.Proc = std::make_unique<SimProcessor>(Setup.Spec);
  const double N = 64.0 * Setup.Spec.defaultGpuProfileSize();
  for (const KernelDesc &K : Setup.Kernels) {
    bool Hit = false;
    for (unsigned Try = 0; Try != 32 && !Hit; ++Try)
      Hit = R.Scheduler->execute(*R.Proc, K, N).TableHit;
    Ops.check(Hit, "hit-stream warm-up: " + K.Name +
                       " never became a table hit");
  }
  return R;
}

struct Replay {
  size_t Kernel;
  double Iterations;
};

/// One batch: every kernel at every size of a fixed 256..2048 grid, in
/// seeded order. The seed moves the order only, so the batch's work, and
/// with it the figures, do not depend on which seed drew it.
std::vector<Replay> makeStream(size_t Kernels, uint64_t Seed) {
  constexpr size_t Sizes = 683;
  std::vector<Replay> Stream;
  for (size_t K = 0; K != Kernels; ++K)
    for (size_t J = 0; J != Sizes; ++J)
      Stream.push_back({K, std::floor(256.0 + 1792.0 * J / (Sizes - 1))});
  Xoshiro256 Rng(Seed);
  for (size_t I = Stream.size(); I > 1; --I)
    std::swap(Stream[I - 1], Stream[Rng.next() % I]);
  return Stream;
}

struct BatchOutcome {
  double Joules = 0.0;
  double SimSec = 0.0;
  uint64_t Allocations = 0;
};

/// Replays one batch; every call must hit. Call latencies go to \p Seg
/// when given.
BatchOutcome runBatch(const HitSetup &Setup, Replayer &R,
                      const std::vector<Replay> &Stream, Segments *Seg,
                      Tally &Ops) {
  SimProcessor &Proc = *R.Proc;
  uint32_t Msr = Proc.meter().readMsr();
  double Start = Proc.now();
  BatchOutcome Out;
  uint64_t Misses = 0;
  if (Seg)
    Seg->reserve(Stream.size());
  {
    AllocTally Allocs;
    for (const Replay &Call : Stream) {
      Clock::time_point T0 = Clock::now();
      EasScheduler::InvocationOutcome Outcome = R.Scheduler->execute(
          Proc, Setup.Kernels[Call.Kernel], Call.Iterations);
      Clock::time_point T1 = Clock::now();
      if (Seg)
        Seg->sample(nsBetween(T0, T1));
      Misses += Outcome.TableHit ? 0 : 1;
    }
    Out.Allocations = Allocs.allocations();
  }
  Ops.attempt(Stream.size());
  Ops.check(Misses == 0, "hit-stream: replayed invocations missed table G",
            Misses);
  Out.Joules = Proc.meter().joulesSince(Msr);
  Out.SimSec = Proc.now() - Start;
  return Out;
}

} // namespace

RunResult perfbench::runHitStream(const Options &Opts) {
  RunResult Result;
  std::unique_ptr<HitSetup> Setup;
  Replayer Warm;
  Result.E2E.SetupS =
      medianSetupSeconds(Opts.Trace ? 1 : SetupReps, [&] {
        Setup = buildSetup();
        Warm = warmReplayer(*Setup, nullptr, Result.Ops);
      });
  Result.Layers.WorkloadsGenerateS = Setup->GenerateSec;
  Result.Layers.PowerCharacterizeS = Setup->CharacterizeSec;
  std::vector<Replay> Stream = makeStream(Setup->Kernels.size(), Opts.Seed);

  double Window = Opts.Trace ? Opts.Seconds / 2.0 : Opts.Seconds;
  Segments Seg;
  BatchOutcome First;
  uint64_t Allocations = 0;
  Seg.start();
  for (unsigned Batch = 0; Batch == 0 || Seg.tick() < Window; ++Batch) {
    BatchOutcome B = runBatch(*Setup, Warm, Stream, &Seg, Result.Ops);
    if (Batch == 0)
      First = B;
    Seg.work(static_cast<double>(Stream.size()), B.SimSec);
    Allocations += B.Allocations;
  }
  Seg.finish();
  Result.Ops.check(Allocations == 0,
                   "hit-stream: table hits allocated (" +
                       std::to_string(Allocations) + " allocations)");
  Summary Inv = Seg.latency();
  std::printf("hit-stream: %.0f hits in %zu segments, %llu allocations\n",
              Seg.totalOps(), Seg.count(),
              static_cast<unsigned long long>(Allocations));
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

  // Traced half: per batch, a recorder and a scheduler warmed under it
  // (the recorder is fixed at construction); only events recorded after
  // the warm-up are folded, so memory stays bounded by one batch.
  SpanStats Spans;
  obs::TraceLog LastLog;
  std::vector<double> TracedRates;
  Clock::time_point TracedStart = Clock::now();
  do {
    obs::TraceRecorder Recorder;
    Replayer Traced = warmReplayer(*Setup, &Recorder, Result.Ops);
    uint64_t FromSeq = Recorder.eventsRecorded();
    Clock::time_point BatchStart = Clock::now();
    BatchOutcome B = runBatch(*Setup, Traced, Stream, nullptr, Result.Ops);
    TracedRates.push_back(static_cast<double>(Stream.size()) /
                          secondsSince(BatchStart));
    Result.Ops.check(B.Joules == First.Joules && B.SimSec == First.SimSec,
                     "hit-stream: tracing changed the simulated outcome");
    LastLog = Recorder.drain();
    Spans.absorb(LastLog, FromSeq);
  } while (secondsSince(TracedStart) < Window);

  PerLayer &L = Result.Layers;
  Spans.fill(L);
  L.CoreDecideOverheadMaxPct = L.CoreDecideOverheadPct;
  L.CoreAllocsPerHit = static_cast<double>(Allocations) / Seg.totalOps();
  L.ObsTraceOverheadPct =
      100.0 * (1.0 - median(std::move(TracedRates)) / Seg.rate());
  writeChromeTrace(Opts, LastLog);
  return Result;
}
