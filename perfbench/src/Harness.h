//===-- perfbench/src/Harness.h - Benchmark plumbing ------------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the command-line
/// options, the host clock, the one timing summary (median, highest
/// supported percentile, sample count) built on ecas::quantileSorted,
/// the failure tally, and the metric record each run fills in. Every
/// workload reports every end-to-end metric (and, traced, every
/// per-layer metric); README.md defines each one once, for all
/// workloads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "ecas/device/KernelDesc.h"
#include "ecas/hw/PlatformSpec.h"
#include "ecas/power/PowerCurve.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}
inline double secondsSince(Clock::time_point From) {
  return secondsBetween(From, Clock::now());
}
inline double nsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::nano>(To - From).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  /// Host seconds one run measures.
  double Seconds = 10.0;
  /// Traced run: report per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// Where traces and the tenant-mix journal go (inside the checkout).
  std::string OutDir = ".bench_out";
};

/// Median and tail of one timing. The tail is the requested percentile
/// when at least ten samples lie beyond it, else the highest of
/// p99.9/p99/p90/p50 that has them (TailQ says which).
struct Summary {
  size_t Count = 0;
  double Median = 0.0;
  double TailQ = 0.0;
  double Tail = 0.0;
};

/// The one summary routine every workload uses (delegates to
/// ecas::quantileSorted).
Summary summarize(std::vector<double> Samples, double WantQ = 0.99);

/// Prints "name: n=.. p50=.. pXX=.." so each timing's sample count and
/// effective tail percentile are on record beside the JSON line.
void printSummary(const char *Name, const Summary &S, const char *Unit);

/// A measured window cut into consecutive segments of about SegmentSec
/// host seconds. Each segment summarizes its own latency samples, work
/// and simulated time when it closes; the run reports medians over
/// segments, so a host stall that lands in one segment moves one value,
/// not the result. Memory is bounded by one segment's samples.
class Segments {
public:
  explicit Segments(double SegmentSec = 0.25) : SegmentSec(SegmentSec) {}

  /// Starts the window (and the first segment) now.
  void start();
  void sample(double Ns) { Samples.push_back(Ns); }
  /// Makes room for \p N more samples, so sample() does not allocate
  /// inside an allocation-counting window.
  void reserve(size_t N) { Samples.reserve(Samples.size() + N); }
  void work(double Ops, double SimSec = 0.0) {
    SegOps += Ops;
    SegSimSec += SimSec;
  }
  /// Closes the current segment if its time is up; call between units
  /// of work. Returns the host seconds since start().
  double tick();
  /// Closes the last segment.
  void finish();

  /// Median over segments of each segment's median and tail.
  Summary latency() const;
  /// Median over segments of work per host second.
  double rate() const;
  /// Median over segments of simulated seconds per host second.
  double simSpeed() const;
  double totalOps() const { return TotalOps; }
  size_t count() const { return Closed.size(); }

private:
  struct Segment {
    Summary Latency;
    double Rate = 0.0;
    double SimSpeed = 0.0;
  };
  void close(Clock::time_point Now);

  double SegmentSec;
  Clock::time_point WindowStart, SegStart;
  std::vector<double> Samples;
  double SegOps = 0.0;
  double SegSimSec = 0.0;
  double TotalOps = 0.0;
  std::vector<Segment> Closed;
};

/// Median of \p Values (0 when empty).
double median(std::vector<double> Values);

/// Counts attempted operations and the ones that failed a correctness
/// check; the first few failure reasons go to stderr.
class Tally {
public:
  void attempt(uint64_t N = 1) { Attempted += N; }
  /// Records \p N failed operations unless \p Ok.
  void check(bool Ok, const std::string &Why, uint64_t N = 1);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  unsigned Reported = 0;
};

/// Every end-to-end metric, one definition for all workloads.
struct EndToEnd {
  double SetupS = 0.0;
  double InvocationsPerS = 0.0;
  double InvocationP50Ns = 0.0;
  double InvocationP99Ns = 0.0;
  double SimSpeedX = 0.0;
  double EdpEffDesktopPct = 0.0;
  double EnergyEffDesktopPct = 0.0;
  double EdpEffTabletPct = 0.0;
  double EnergyEffTabletPct = 0.0;
  double SimEnergyJ = 0.0;
  double SvcCapacityPerS = 0.0;
  double SvcOntimePct = 0.0;
  double SvcSubmitP50Ns = 0.0;
  double SvcSubmitP99Ns = 0.0;
};

/// Every per-layer metric of the traced run. A layer a workload does not
/// exercise reads 0.
struct PerLayer {
  double WorkloadsGenerateS = 0.0;
  double PowerCharacterizeS = 0.0;
  double SimDispatchP50Ns = 0.0;
  double SimDispatchP99Ns = 0.0;
  double SimHostNsPerSimMs = 0.0;
  double ProfileRepP50Ns = 0.0;
  double ProfileRepsPerInvocation = 0.0;
  double CoreSearchSelfP50Ns = 0.0;
  double CoreSearchSelfP99Ns = 0.0;
  double CoreEvalsPerSearch = 0.0;
  double CoreHitSelfP50Ns = 0.0;
  double CoreHitSelfP99Ns = 0.0;
  double CoreTableHitRatio = 0.0;
  double CoreAllocsPerHit = 0.0;
  double CoreDecideOverheadPct = 0.0;
  double CoreDecideOverheadMaxPct = 0.0;
  double CoreModelTimeRelError = 0.0;
  double CoreModelEnergyRelError = 0.0;
  double CoreJournalAppends = 0.0;
  double CoreJournalFlushes = 0.0;
  double CoreJournalBytes = 0.0;
  double CoreShutdownMs = 0.0;
  double ServiceQueueWaitP50Us[3] = {};
  double ServiceQueueWaitP99Us[3] = {};
  double ServiceMaxQueueWaitMs[3] = {};
  double ServiceShed = 0.0;
  double ServiceRejected = 0.0;
  double ServiceCancelled = 0.0;
  double ServiceDeadlineMisses = 0.0;
  double ServiceDrainMs = 0.0;
  double ServiceGenLateP99Us = 0.0;
  double ObsTraceOverheadPct = 0.0;
  double ObsTraceEvents = 0.0;
};

/// What one workload run produced.
struct RunResult {
  Tally Ops;
  EndToEnd E2E;
  PerLayer Layers;
};

/// Runs the set-up \p Phase at least \p MinReps times, and more (up to
/// 15) until the repetitions took SetupMinTotalSec together, so a short
/// set-up is timed as steadily as a long one; a \p MinReps of 1 (traced
/// runs, which do not report setup_s) sets up once. Returns the median host
/// seconds of one repetition; the caller keeps the state the last
/// repetition built.
template <typename FnT> double medianSetupSeconds(unsigned MinReps, FnT Phase) {
  constexpr double SetupMinTotalSec = 1.5;
  constexpr unsigned MaxReps = 15;
  std::vector<double> Times;
  double Total = 0.0;
  while (Times.size() < MinReps ||
         (MinReps > 1 && Total < SetupMinTotalSec &&
          Times.size() < MaxReps)) {
    Clock::time_point Start = Clock::now();
    Phase();
    Times.push_back(secondsSince(Start));
    Total += Times.back();
  }
  return summarize(std::move(Times), 0.5).Median;
}

/// Minimum set-up repetitions per untraced run (setup_s is their median).
inline constexpr unsigned SetupReps = 3;

/// Prints the result line: {"correct", "attempted", "failed", "metrics"}
/// with the end-to-end metrics (untraced) or the per-layer ones
/// (traced).
void printResult(const Options &Opts, const RunResult &Result);

/// The DVFS platform of hit-stream, learn-churn and tenant-mix: the
/// Haswell desktop with 4 synthesized P-states, its characterized curve
/// family, and the host seconds characterizing took.
struct DvfsDesktop {
  ecas::PlatformSpec Spec;
  ecas::PowerCurveFamily Family;
  double CharacterizeSec = 0.0;
};
DvfsDesktop characterizeDvfsDesktop();

/// The desktop suite's distinct kernels. Only the kernels are used, so
/// the suite is generated at a small scale.
std::vector<ecas::KernelDesc> desktopKernels();

/// The four workloads.
RunResult runPaperSuite(const Options &Opts);
RunResult runHitStream(const Options &Opts);
RunResult runLearnChurn(const Options &Opts);
RunResult runTenantMix(const Options &Opts);

/// The paper-quality guard the other three workloads run after their
/// measured window: one EAS pass of both suites under both objectives,
/// checked against the Oracle, filling the four *_eff_*_pct fields.
void paperQualityGuard(RunResult &Result);

/// Closed-loop workloads have one client and no deadlines: every
/// completed invocation is on time, the sustained rate is the capacity,
/// and the submit latency is the invocation latency.
void fillClosedLoopService(EndToEnd &E2E, const Tally &Ops);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
