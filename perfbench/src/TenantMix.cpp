//===-- perfbench/src/TenantMix.cpp - The multi-tenant service ------------===//
//
// Part of the ecas project, under the MIT License.
//
// tenant-mix: open loop. One generator thread submits to a
// ServiceFrontEnd with 2 workers, on a schedule fixed in advance from the
// seed, and times each request from its due time. Traffic: SLA0/SLA1/
// SLA2 at 2:5:3 (SLA0 and SLA1 carry deadlines), 16 tenants over the
// desktop suite's kernels, and a seeded 3% from never-seen tenants, so
// table-G misses (profile, search, journal merge records) run beside
// hits. P-states are on; the write-ahead journal, the flight recorder
// and the metrics registry are armed as `ecas-cli serve --history-file
// --metrics-out` arms them. The set-up warms the 16 tenants' tables.
//
// Two phases: a scheduled phase at a fixed rate (on-time share, submit
// latency, queue waits), then saturation bursts sent faster than the
// workers drain, with lanes sized so nothing is rejected, which measure
// capacity.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "SpanStats.h"

#include "ecas/core/EasScheduler.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/obs/MetricNames.h"
#include "ecas/obs/Metrics.h"
#include "ecas/service/Service.h"
#include "ecas/support/Random.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include <sched.h>

using namespace ecas;
using namespace perfbench;

namespace {

constexpr unsigned Workers = 2;
constexpr unsigned Tenants = 16;
constexpr double NewTenantShare = 0.03;
/// Scheduled-phase arrival rate (requests per host second, Poisson).
constexpr double ScheduledRate = 40000.0;
/// Saturation requests per measured second, sent as NumBursts bursts.
constexpr double BurstPerSecond = 150000.0;
constexpr size_t NumBursts = 8;
/// Share of the window the scheduled phase takes; the burst follows.
constexpr double ScheduledShare = 0.6;
/// Deadlines cover host queue wait plus simulated execution; they sit
/// above the host's own scheduling stalls (several ms are common on a
/// shared virtual machine), so misses measure the service, not the box.
constexpr double Sla0DeadlineSec = 0.020;
constexpr double Sla1DeadlineSec = 0.100;
/// A generator later than this at p99 invalidates the run.
constexpr double MaxGenLateP99Sec = 0.002;

struct Request {
  size_t Kernel = 0;
  double Iterations = 0.0;
  RequestContext Ctx;
  /// Due time, host seconds after the phase starts.
  double DueSec = 0.0;
};

struct TenantSetup : DvfsDesktop {
  std::vector<KernelDesc> Kernels;
  std::vector<Request> Scheduled;
  std::vector<Request> Burst;
  double GenerateSec = 0.0;
};

/// Seeded traffic. Never-seen tenants get fresh ids from 1000 up.
std::vector<Request> makeTraffic(size_t Count, double Rate, bool Deadlines,
                                 size_t Kernels, double ProfileSize,
                                 uint64_t &NextNewTenant, Xoshiro256 &Rng) {
  std::vector<Request> Out(Count);
  double Due = 0.0;
  for (Request &R : Out) {
    if (Rate > 0.0)
      Due += -std::log(1.0 - Rng.nextDouble()) / Rate;
    R.DueSec = Due;
    R.Kernel = Rng.next() % Kernels;
    R.Iterations = std::floor(ProfileSize * Rng.nextDouble(1.0, 4.0));
    R.Ctx.TenantId = Rng.nextDouble() < NewTenantShare
                         ? NextNewTenant++
                         : 1 + Rng.next() % Tenants;
    double Draw = Rng.nextDouble() * 10.0;
    R.Ctx.Sla = Draw < 2.0   ? SlaClass::Sla0
                : Draw < 7.0 ? SlaClass::Sla1
                             : SlaClass::Sla2;
    if (Deadlines && R.Ctx.Sla == SlaClass::Sla0)
      R.Ctx.DeadlineSec = Sla0DeadlineSec;
    else if (Deadlines && R.Ctx.Sla == SlaClass::Sla1)
      R.Ctx.DeadlineSec = Sla1DeadlineSec;
  }
  return Out;
}

std::unique_ptr<TenantSetup> buildInputs(const Options &Opts,
                                         double Window) {
  auto Setup =
      std::make_unique<TenantSetup>(TenantSetup{characterizeDvfsDesktop()});
  Clock::time_point Start = Clock::now();
  Setup->Kernels = desktopKernels();
  Xoshiro256 Rng(Opts.Seed);
  uint64_t NextNewTenant = 1000;
  double ProfileSize = Setup->Spec.defaultGpuProfileSize();
  Setup->Scheduled = makeTraffic(
      static_cast<size_t>(ScheduledRate * ScheduledShare * Window),
      ScheduledRate, true, Setup->Kernels.size(), ProfileSize, NextNewTenant,
      Rng);
  Setup->Burst = makeTraffic(
      static_cast<size_t>(BurstPerSecond * (1.0 - ScheduledShare) * Window),
      0.0, false, Setup->Kernels.size(), ProfileSize, NextNewTenant, Rng);
  Setup->GenerateSec = secondsSince(Start);
  return Setup;
}

/// The serving stack: scheduler with journal, registry and flight
/// recorder armed, table G warmed for the 16 tenants.
struct Stack {
  obs::MetricsRegistry Registry;
  obs::FlightRecorder Flight;
  std::unique_ptr<EasScheduler> Scheduler;
  uint64_t WarmInvocations = 0;
  double WarmJoules = 0.0;
};

std::unique_ptr<Stack> buildStack(const TenantSetup &Setup,
                                  const std::string &Dir,
                                  obs::TraceRecorder *Recorder, Tally &Ops) {
  auto S = std::make_unique<Stack>();
  std::string History = Dir + "/tableg.snap";
  std::remove(History.c_str());
  std::remove((History + ".wal").c_str());
  EasConfig Config;
  Config.PStates = true;
  Config.HistoryFile = History;
  Config.Journal.Enabled = true;
  // Every record is still framed, checksummed and written; only the
  // fsync is skipped. Its latency belongs to the disk, which other
  // tenants of the machine share, and it swung capacity by 3x between
  // runs.
  Config.Journal.SyncOnFlush = false;
  Config.Metrics = &S->Registry;
  Config.Flight = &S->Flight;
  Config.Trace = Recorder;
  S->Scheduler =
      std::make_unique<EasScheduler>(Setup.Family, Metric::edp(), Config);
  Ops.check(S->Scheduler->journaling(),
            "tenant-mix: the write-ahead journal did not open");

  SimProcessor Proc(Setup.Spec);
  uint32_t Msr = Proc.meter().readMsr();
  const double N = 64.0 * Setup.Spec.defaultGpuProfileSize();
  for (unsigned T = 1; T <= Tenants; ++T) {
    RequestContext Ctx;
    Ctx.TenantId = T;
    for (const KernelDesc &K : Setup.Kernels) {
      bool Hit = false;
      for (unsigned Try = 0; Try != 32 && !Hit; ++Try, ++S->WarmInvocations)
        Hit = S->Scheduler->execute(Proc, K, N, Ctx).TableHit;
      Ops.check(Hit, "tenant-mix warm-up: " + K.Name +
                         " never became a table hit");
    }
  }
  S->WarmJoules = Proc.meter().joulesSince(Msr);
  return S;
}

double invocationSimSeconds(const obs::MetricsRegistry &Registry) {
  double Sum = 0.0;
  for (const obs::MetricSample &S : Registry.snapshot().Samples)
    if (S.Name == obs::names::InvocationSeconds)
      Sum += S.Hist.Sum;
  return Sum;
}

/// Splits the CPUs this process may use between the load generator (the
/// calling thread, one CPU) and everything it starts meanwhile (the
/// rest). Needs at least three CPUs; with fewer it does nothing.
class GeneratorPinning {
public:
  GeneratorPinning() {
    if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0 ||
        CPU_COUNT(&Allowed) < 3)
      return;
    for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu)
      if (CPU_ISSET(Cpu, &Allowed)) {
        GeneratorCpu = Cpu;
        break;
      }
    cpu_set_t Others = Allowed;
    CPU_CLR(GeneratorCpu, &Others);
    Active = sched_setaffinity(0, sizeof(Others), &Others) == 0;
  }
  ~GeneratorPinning() { restore(); }
  GeneratorPinning(const GeneratorPinning &) = delete;
  GeneratorPinning &operator=(const GeneratorPinning &) = delete;

  /// Moves the calling thread onto the generator CPU; call after the
  /// threads that must stay off it have started.
  void isolateGenerator() {
    if (!Active)
      return;
    cpu_set_t Mine;
    CPU_ZERO(&Mine);
    CPU_SET(GeneratorCpu, &Mine);
    (void)sched_setaffinity(0, sizeof(Mine), &Mine);
  }
  void restore() {
    if (Active)
      (void)sched_setaffinity(0, sizeof(Allowed), &Allowed);
    Active = false;
  }

private:
  cpu_set_t Allowed;
  int GeneratorCpu = -1;
  bool Active = false;
};

/// Waits until every submitted request reached a terminal state.
ServiceStats awaitQuiescence(const ServiceFrontEnd &Service) {
  while (true) {
    ServiceStats S = Service.stats();
    if (S.consistent())
      return S;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// Everything one serving run measured.
struct ServeOutcome {
  ServiceStats Phase1;
  ServiceStats Final;
  obs::MetricsSnapshot Phase1Metrics;
  /// Submit latency from the due time, and how late the generator was,
  /// in 0.1 s segments (4000 requests each): the virtual machine
  /// deschedules the generator for several ms about once a second, and a
  /// short segment confines each such stall to one value of the median.
  Segments Submit{0.1};
  Segments Late{0.1};
  double Wall = 0.0;
  /// Completed per host second, median over the saturation bursts.
  double CapacityPerS = 0.0;
  double SimSec = 0.0;
  double DrainMs = 0.0;
  double ShutdownMs = 0.0;
  HistoryJournal::Stats Journal;
  double WarmJoules = 0.0;
};

/// Serves the scheduled phase and the saturation bursts on a warmed
/// \p S.
ServeOutcome serve(const TenantSetup &Setup, Stack &S, Tally &Ops) {
  ServeOutcome Out;
  Out.WarmJoules = S.WarmJoules;
  EasScheduler &Scheduler = *S.Scheduler;
  HistoryJournal::Stats JournalBefore = Scheduler.journalStats();
  double SimBefore = invocationSimSeconds(S.Registry);

  ServiceConfig Config;
  Config.Workers = Workers;
  // Lanes hold a whole burst, so the saturation phase rejects nothing
  // (lanes are preallocated: no larger than that).
  size_t PerBurst = (Setup.Burst.size() + NumBursts - 1) / NumBursts;
  Config.QueueCapPerClass = std::max<size_t>(PerBurst, 1024);
  Config.Metrics = &S.Registry;
  Config.Flight = &S.Flight;
  // The generator gets a CPU of its own: the workers (which inherit the
  // creating thread's affinity) run on the others. Without this, a worker
  // the generator wakes lands on the generator's CPU and the spinning
  // generator falls milliseconds behind its schedule.
  GeneratorPinning Pin;
  auto Service = std::make_unique<ServiceFrontEnd>(Scheduler, Setup.Spec,
                                                   Config);
  Pin.isolateGenerator();

  // Scheduled phase: spin to each due time, then submit.
  Clock::time_point PhaseStart = Clock::now();
  Out.Submit.start();
  Out.Late.start();
  for (const Request &R : Setup.Scheduled) {
    Clock::time_point Due =
        PhaseStart + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(R.DueSec));
    Clock::time_point Now = Clock::now();
    while (Now < Due)
      Now = Clock::now();
    (void)Service->submit(Setup.Kernels[R.Kernel], R.Iterations, R.Ctx);
    Clock::time_point Done = Clock::now();
    Out.Late.sample(nsBetween(Due, Now));
    Out.Submit.sample(nsBetween(Due, Done));
    Out.Submit.tick();
    Out.Late.tick();
  }
  Out.Submit.finish();
  Out.Late.finish();
  Out.Phase1 = awaitQuiescence(*Service);
  Out.Phase1Metrics = S.Registry.snapshot();

  // Saturation phase: bursts sent back to back, each drained before the
  // next; capacity is the median burst's completions per second.
  std::vector<double> Capacities;
  uint64_t BurstRejected = 0;
  ServiceStats Before = Out.Phase1;
  for (size_t First = 0; First < Setup.Burst.size(); First += PerBurst) {
    size_t Last = std::min(Setup.Burst.size(), First + PerBurst);
    Clock::time_point BurstStart = Clock::now();
    for (size_t I = First; I != Last; ++I) {
      const Request &R = Setup.Burst[I];
      BurstRejected +=
          Service->submit(Setup.Kernels[R.Kernel], R.Iterations, R.Ctx)
                  .admitted()
              ? 0
              : 1;
    }
    ServiceStats After = awaitQuiescence(*Service);
    Capacities.push_back(static_cast<double>(After.Completed -
                                             Before.Completed) /
                         secondsSince(BurstStart));
    Before = After;
  }
  Out.Wall = secondsSince(PhaseStart);
  Ops.check(BurstRejected == 0,
            "tenant-mix: the saturation burst was rejected", BurstRejected);
  Out.CapacityPerS = median(Capacities);
  Out.SimSec = invocationSimSeconds(S.Registry) - SimBefore;
  Out.Journal = Scheduler.journalStats();
  Out.Journal.Appends -= JournalBefore.Appends;
  Out.Journal.AppendedBytes -= JournalBefore.AppendedBytes;
  Out.Journal.Flushes -= JournalBefore.Flushes;

  Clock::time_point DrainStart = Clock::now();
  Out.Final = Service->shutdown();
  Out.DrainMs = 1e3 * secondsSince(DrainStart);
  Service.reset();
  Pin.restore();
  Ops.attempt(Out.Final.Submitted);
  Ops.check(Out.Final.consistent(),
            "tenant-mix: ServiceStats accounting is inconsistent");

  // Every completed request is one table-G invocation; the warm-up
  // accounts for the rest.
  uint64_t Recorded = 0;
  for (const auto &[Key, Rec] : Scheduler.history().entries())
    Recorded += Rec.Invocations;
  Ops.check(Recorded == S.WarmInvocations + Out.Final.Completed,
            "tenant-mix: table G recorded " + std::to_string(Recorded) +
                " invocations for " +
                std::to_string(S.WarmInvocations + Out.Final.Completed));

  Clock::time_point ShutdownStart = Clock::now();
  Ops.check(Scheduler.shutdown().ok(),
            "tenant-mix: scheduler shutdown failed to snapshot table G");
  Out.ShutdownMs = 1e3 * secondsSince(ShutdownStart);
  return Out;
}

/// Requests of the scheduled phase that completed within their
/// deadline, as a share of those offered. A miss is anything rejected,
/// shed, cancelled or completed late; a cancellation that was also a
/// deadline miss is counted twice, so the figure errs low.
double ontimePct(const ServiceStats &S) {
  uint64_t Misses = 0;
  for (unsigned I = 0; I != NumSlaClasses; ++I)
    Misses += S.DeadlineMissesBySla[I];
  uint64_t Late = Misses >= S.Shed ? Misses - S.Shed : 0;
  uint64_t OnTime = S.Completed >= Late ? S.Completed - Late : 0;
  return S.Submitted ? 100.0 * static_cast<double>(OnTime) /
                           static_cast<double>(S.Submitted)
                     : 0.0;
}

} // namespace

RunResult perfbench::runTenantMix(const Options &Opts) {
  RunResult Result;
  std::string Dir = Opts.OutDir;
  // Traced runs keep every event in memory, so the traced run (and its
  // untraced twin) serve a sixteenth of the traffic.
  double Window = Opts.Trace ? Opts.Seconds / 16.0 : Opts.Seconds;
  std::unique_ptr<TenantSetup> Setup;
  std::unique_ptr<Stack> Warm;
  // Set-up covers the inputs, characterization and the table-G warm-up.
  Result.E2E.SetupS =
      medianSetupSeconds(Opts.Trace ? 1 : SetupReps, [&] {
        Warm.reset();
        Setup = buildInputs(Opts, Window);
        Warm = buildStack(*Setup, Dir, nullptr, Result.Ops);
      });
  Result.Layers.WorkloadsGenerateS = Setup->GenerateSec;
  Result.Layers.PowerCharacterizeS = Setup->CharacterizeSec;

  ServeOutcome Out = serve(*Setup, *Warm, Result.Ops);
  Warm.reset();
  Summary Submit = Out.Submit.latency();
  Summary Late = Out.Late.latency();
  printSummary("submit-from-due", Submit, "ns");
  printSummary("generator-lateness", Late, "ns");
  std::printf("tenant-mix: %llu completed in %.3f s, capacity %.0f/s, on "
              "time %.4f%%\n",
              static_cast<unsigned long long>(Out.Final.Completed), Out.Wall,
              Out.CapacityPerS, ontimePct(Out.Phase1));
  for (unsigned I = 0; I != NumSlaClasses; ++I)
    std::printf("  scheduled %s: submitted %llu rejected %llu shed %llu "
                "completed %llu cancelled %llu deadline misses %llu, max "
                "wait %.3f ms\n",
                slaClassName(slaFromIndex(I)),
                static_cast<unsigned long long>(Out.Phase1.SubmittedBySla[I]),
                static_cast<unsigned long long>(Out.Phase1.RejectedBySla[I]),
                static_cast<unsigned long long>(Out.Phase1.ShedBySla[I]),
                static_cast<unsigned long long>(Out.Phase1.CompletedBySla[I]),
                static_cast<unsigned long long>(Out.Phase1.CancelledBySla[I]),
                static_cast<unsigned long long>(
                    Out.Phase1.DeadlineMissesBySla[I]),
                1e3 * Out.Phase1.MaxQueueWaitSec[I]);
  Result.Ops.check(Late.Tail <= 1e9 * MaxGenLateP99Sec,
                   "tenant-mix: the generator ran late (p99 " +
                       std::to_string(Late.Tail / 1e3) + " us)");

  if (!Opts.Trace) {
    EndToEnd &E2E = Result.E2E;
    E2E.InvocationsPerS = Out.CapacityPerS;
    E2E.InvocationP50Ns = Submit.Median;
    E2E.InvocationP99Ns = Submit.Tail;
    E2E.SimSpeedX = Out.SimSec / Out.Wall;
    E2E.SimEnergyJ = Out.WarmJoules;
    E2E.SvcCapacityPerS = Out.CapacityPerS;
    E2E.SvcOntimePct = ontimePct(Out.Phase1);
    E2E.SvcSubmitP50Ns = Submit.Median;
    E2E.SvcSubmitP99Ns = Submit.Tail;
    paperQualityGuard(Result);
    return Result;
  }

  PerLayer &L = Result.Layers;
  // Queue waits of the scheduled phase, from the service's histogram
  // (log buckets: 100 us doubling to ~52 s; quantiles interpolate
  // linearly inside a bucket, so sub-100 us waits read as a share of the
  // first bucket).
  for (unsigned I = 0; I != NumSlaClasses; ++I) {
    const obs::MetricSample *Wait = Out.Phase1Metrics.find(
        obs::names::ServiceQueueWaitSeconds,
        {{"sla", slaClassName(slaFromIndex(I))}});
    if (Wait && Wait->Hist.Count) {
      L.ServiceQueueWaitP50Us[I] = 1e6 * Wait->Hist.quantile(0.5);
      L.ServiceQueueWaitP99Us[I] = 1e6 * Wait->Hist.quantile(0.99);
    }
    L.ServiceMaxQueueWaitMs[I] = 1e3 * Out.Phase1.MaxQueueWaitSec[I];
  }
  uint64_t Misses = 0;
  for (unsigned I = 0; I != NumSlaClasses; ++I)
    Misses += Out.Final.DeadlineMissesBySla[I];
  L.ServiceShed = static_cast<double>(Out.Final.Shed);
  L.ServiceRejected = static_cast<double>(Out.Final.Rejected);
  L.ServiceCancelled = static_cast<double>(Out.Final.Cancelled);
  L.ServiceDeadlineMisses = static_cast<double>(Misses);
  L.ServiceDrainMs = Out.DrainMs;
  L.ServiceGenLateP99Us = Late.Tail / 1e3;
  L.CoreJournalAppends = static_cast<double>(Out.Journal.Appends);
  L.CoreJournalFlushes = static_cast<double>(Out.Journal.Flushes);
  L.CoreJournalBytes = static_cast<double>(Out.Journal.AppendedBytes);
  L.CoreShutdownMs = Out.ShutdownMs;

  // Traced run: the same traffic against a stack built with the
  // recorder armed; the warm-up's events are skipped.
  obs::TraceRecorder Recorder;
  std::unique_ptr<Stack> TracedStack =
      buildStack(*Setup, Dir, &Recorder, Result.Ops);
  uint64_t FromSeq = Recorder.eventsRecorded();
  ServeOutcome Traced = serve(*Setup, *TracedStack, Result.Ops);
  TracedStack.reset();
  Result.Ops.check(Traced.WarmJoules == Out.WarmJoules,
                   "tenant-mix: tracing changed the warm-up's simulated "
                   "energy");
  obs::TraceLog Log = Recorder.drain();
  SpanStats Spans;
  Spans.absorb(Log, FromSeq);
  Spans.fill(L);
  L.CoreDecideOverheadMaxPct = L.CoreDecideOverheadPct;
  L.ObsTraceOverheadPct =
      100.0 * (1.0 - Traced.CapacityPerS / Out.CapacityPerS);
  writeChromeTrace(Opts, Log);
  return Result;
}
