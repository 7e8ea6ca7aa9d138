//===-- perfbench/src/Harness.cpp - Benchmark plumbing --------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ecas/hw/Presets.h"
#include "ecas/power/Characterizer.h"
#include "ecas/support/Stats.h"
#include "ecas/workloads/Registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

using namespace perfbench;

Summary perfbench::summarize(std::vector<double> Samples, double WantQ) {
  Summary S;
  Samples.erase(std::remove_if(Samples.begin(), Samples.end(),
                               [](double V) { return std::isnan(V); }),
                Samples.end());
  S.Count = Samples.size();
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.Median = ecas::quantileSorted(Samples, 0.5);
  // Highest percentile, not above the one asked for, that still has at
  // least ten samples beyond it.
  const double Candidates[] = {0.999, 0.99, 0.9, 0.5};
  S.TailQ = 0.5;
  for (double Q : Candidates) {
    if (Q > WantQ)
      continue;
    if ((1.0 - Q) * static_cast<double>(S.Count) >= 10.0) {
      S.TailQ = Q;
      break;
    }
  }
  S.Tail = ecas::quantileSorted(Samples, S.TailQ);
  return S;
}

double perfbench::median(std::vector<double> Values) {
  return summarize(std::move(Values), 0.5).Median;
}

void Segments::start() {
  WindowStart = SegStart = Clock::now();
  Samples.clear();
  SegOps = SegSimSec = TotalOps = 0.0;
  Closed.clear();
}

double Segments::tick() {
  Clock::time_point Now = Clock::now();
  if (secondsBetween(SegStart, Now) >= SegmentSec)
    close(Now);
  return secondsBetween(WindowStart, Now);
}

void Segments::finish() {
  if (SegOps > 0.0 || !Samples.empty())
    close(Clock::now());
}

void Segments::close(Clock::time_point Now) {
  double Wall = secondsBetween(SegStart, Now);
  Segment S;
  S.Latency = summarize(std::move(Samples));
  S.Rate = Wall > 0.0 ? SegOps / Wall : 0.0;
  S.SimSpeed = Wall > 0.0 ? SegSimSec / Wall : 0.0;
  Closed.push_back(S);
  TotalOps += SegOps;
  Samples.clear();
  SegOps = SegSimSec = 0.0;
  SegStart = Now;
}

Summary Segments::latency() const {
  // Only segments large enough for the best tail percentile any segment
  // supports take part, so a short closing segment cannot mix a p90 into
  // a median of p99s.
  double TailQ = 0.0;
  for (const Segment &S : Closed)
    if (S.Latency.Count)
      TailQ = std::max(TailQ, S.Latency.TailQ);
  Summary Out;
  Out.TailQ = TailQ;
  std::vector<double> Medians, Tails;
  for (const Segment &S : Closed) {
    if (!S.Latency.Count || S.Latency.TailQ != TailQ)
      continue;
    Out.Count += S.Latency.Count;
    Medians.push_back(S.Latency.Median);
    Tails.push_back(S.Latency.Tail);
  }
  if (Medians.empty())
    return Summary();
  Out.Median = median(std::move(Medians));
  Out.Tail = median(std::move(Tails));
  return Out;
}

double Segments::rate() const {
  std::vector<double> Rates;
  for (const Segment &S : Closed)
    Rates.push_back(S.Rate);
  return median(std::move(Rates));
}

double Segments::simSpeed() const {
  std::vector<double> Speeds;
  for (const Segment &S : Closed)
    Speeds.push_back(S.SimSpeed);
  return median(std::move(Speeds));
}

void perfbench::printSummary(const char *Name, const Summary &S,
                             const char *Unit) {
  std::printf("  %-28s n=%-9zu p50=%-12.6g p%g=%-12.6g %s\n", Name, S.Count,
              S.Median, 100.0 * S.TailQ, S.Tail, Unit);
}

void Tally::check(bool Ok, const std::string &Why, uint64_t N) {
  if (Ok)
    return;
  Failed += N;
  if (Reported < 8) {
    std::fprintf(stderr, "check failed: %s\n", Why.c_str());
    if (++Reported == 8)
      std::fprintf(stderr, "(further check failures not shown)\n");
  }
}

DvfsDesktop perfbench::characterizeDvfsDesktop() {
  DvfsDesktop Out;
  Out.Spec = ecas::haswellDesktop();
  Out.Spec.synthesizePStates(4);
  Clock::time_point Start = Clock::now();
  Out.Family = ecas::characterizeFamily(Out.Spec);
  Out.CharacterizeSec = secondsSince(Start);
  return Out;
}

std::vector<ecas::KernelDesc> perfbench::desktopKernels() {
  ecas::WorkloadConfig Config;
  Config.Scale = 0.02;
  std::map<uint64_t, ecas::KernelDesc> Distinct;
  for (const ecas::Workload &W : ecas::desktopSuite(Config))
    for (const ecas::KernelInvocation &Inv : W.Trace)
      Distinct.emplace(Inv.Kernel.Id, Inv.Kernel);
  std::vector<ecas::KernelDesc> Kernels;
  for (auto &[Id, K] : Distinct)
    Kernels.push_back(K);
  return Kernels;
}

void perfbench::fillClosedLoopService(EndToEnd &E2E, const Tally &Ops) {
  E2E.SvcCapacityPerS = E2E.InvocationsPerS;
  E2E.SvcOntimePct =
      Ops.attempted()
          ? 100.0 * static_cast<double>(Ops.attempted() - Ops.failed()) /
                static_cast<double>(Ops.attempted())
          : 0.0;
  E2E.SvcSubmitP50Ns = E2E.InvocationP50Ns;
  E2E.SvcSubmitP99Ns = E2E.InvocationP99Ns;
}

namespace {

struct Entry {
  std::string Name;
  double Value;
  const char *Unit;
};

void emit(std::string &Out, const Entry &E, bool First) {
  char Buf[96];
  // %.17g keeps every digit the measurement produced.
  std::snprintf(Buf, sizeof(Buf), "%.17g",
                std::isfinite(E.Value) ? E.Value : 0.0);
  if (!First)
    Out += ", ";
  Out += "\"" + E.Name + "\": {\"value\": " + Buf + ", \"unit\": \"" +
         E.Unit + "\"}";
}

std::vector<Entry> endToEndEntries(const EndToEnd &M) {
  return {
      {"setup_s", M.SetupS, "s"},
      {"invocations_per_s", M.InvocationsPerS, "1/s"},
      {"invocation_p50_ns", M.InvocationP50Ns, "ns"},
      {"invocation_p99_ns", M.InvocationP99Ns, "ns"},
      {"sim_speed_x", M.SimSpeedX, "sim_s/host_s"},
      {"edp_eff_desktop_pct", M.EdpEffDesktopPct, "%"},
      {"energy_eff_desktop_pct", M.EnergyEffDesktopPct, "%"},
      {"edp_eff_tablet_pct", M.EdpEffTabletPct, "%"},
      {"energy_eff_tablet_pct", M.EnergyEffTabletPct, "%"},
      {"sim_energy_j", M.SimEnergyJ, "J"},
      {"svc_capacity_per_s", M.SvcCapacityPerS, "1/s"},
      {"svc_ontime_pct", M.SvcOntimePct, "%"},
      {"svc_submit_p50_ns", M.SvcSubmitP50Ns, "ns"},
      {"svc_submit_p99_ns", M.SvcSubmitP99Ns, "ns"},
  };
}

std::vector<Entry> perLayerEntries(const PerLayer &M) {
  std::vector<Entry> Out = {
      {"workloads.generate_s", M.WorkloadsGenerateS, "s"},
      {"power.characterize_s", M.PowerCharacterizeS, "s"},
      {"sim.dispatch_p50_ns", M.SimDispatchP50Ns, "ns"},
      {"sim.dispatch_p99_ns", M.SimDispatchP99Ns, "ns"},
      {"sim.host_ns_per_sim_ms", M.SimHostNsPerSimMs, "ns/ms"},
      {"profile.rep_p50_ns", M.ProfileRepP50Ns, "ns"},
      {"profile.reps_per_invocation", M.ProfileRepsPerInvocation, "count"},
      {"core.search_self_p50_ns", M.CoreSearchSelfP50Ns, "ns"},
      {"core.search_self_p99_ns", M.CoreSearchSelfP99Ns, "ns"},
      {"core.evals_per_search", M.CoreEvalsPerSearch, "count"},
      {"core.hit_self_p50_ns", M.CoreHitSelfP50Ns, "ns"},
      {"core.hit_self_p99_ns", M.CoreHitSelfP99Ns, "ns"},
      {"core.table_hit_ratio", M.CoreTableHitRatio, "ratio"},
      {"core.allocs_per_hit", M.CoreAllocsPerHit, "count"},
      {"core.decide_overhead_pct", M.CoreDecideOverheadPct, "%"},
      {"core.decide_overhead_max_pct", M.CoreDecideOverheadMaxPct, "%"},
      {"core.model_time_rel_error", M.CoreModelTimeRelError, "ratio"},
      {"core.model_energy_rel_error", M.CoreModelEnergyRelError, "ratio"},
      {"core.journal_appends", M.CoreJournalAppends, "count"},
      {"core.journal_flushes", M.CoreJournalFlushes, "count"},
      {"core.journal_bytes", M.CoreJournalBytes, "B"},
      {"core.shutdown_ms", M.CoreShutdownMs, "ms"},
  };
  for (unsigned Sla = 0; Sla != 3; ++Sla) {
    std::string Suffix = ".sla" + std::to_string(Sla);
    Out.push_back({"service.queue_wait_p50_us" + Suffix,
                   M.ServiceQueueWaitP50Us[Sla], "us"});
    Out.push_back({"service.queue_wait_p99_us" + Suffix,
                   M.ServiceQueueWaitP99Us[Sla], "us"});
    Out.push_back({"service.max_queue_wait_ms" + Suffix,
                   M.ServiceMaxQueueWaitMs[Sla], "ms"});
  }
  std::vector<Entry> Tail = {
      {"service.shed", M.ServiceShed, "count"},
      {"service.rejected", M.ServiceRejected, "count"},
      {"service.cancelled", M.ServiceCancelled, "count"},
      {"service.deadline_misses", M.ServiceDeadlineMisses, "count"},
      {"service.drain_ms", M.ServiceDrainMs, "ms"},
      {"service.gen_late_p99_us", M.ServiceGenLateP99Us, "us"},
      {"obs.trace_overhead_pct", M.ObsTraceOverheadPct, "%"},
      {"obs.trace_events", M.ObsTraceEvents, "count"},
  };
  Out.insert(Out.end(), Tail.begin(), Tail.end());
  return Out;
}

} // namespace

void perfbench::printResult(const Options &Opts, const RunResult &Result) {
  std::vector<Entry> Entries = Opts.Trace ? perLayerEntries(Result.Layers)
                                          : endToEndEntries(Result.E2E);
  std::string Metrics;
  for (size_t I = 0; I != Entries.size(); ++I)
    emit(Metrics, Entries[I], I == 0);
  const Tally &Ops = Result.Ops;
  bool Correct = Ops.failed() == 0 && Ops.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  Ops.attempted(), 1)),
              static_cast<unsigned long long>(Ops.failed()), Metrics.c_str());
  std::fflush(stdout);
}
