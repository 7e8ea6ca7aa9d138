//===-- perfbench/src/SpanStats.cpp - Per-layer self times ----------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "SpanStats.h"

#include "ecas/obs/ChromeTrace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

using namespace perfbench;
using ecas::obs::EventKind;
using ecas::obs::TraceEvent;

namespace {

bool is(const TraceEvent &E, const char *Category, const char *Name) {
  return std::strcmp(E.Category, Category) == 0 &&
         std::strcmp(E.Name, Name) == 0;
}

/// One open span on a thread's stack.
struct Frame {
  const TraceEvent *Begin = nullptr;
  /// Host seconds covered by direct children.
  double ChildSec = 0.0;
  /// Invocation frames only: host seconds spent in dispatch and
  /// profiling repetitions anywhere below, and whether it was a hit.
  double ExcludedSec = 0.0;
  bool Hit = false;
};

Frame *innermostInvocation(std::vector<Frame> &Stack) {
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
    if (is(*It->Begin, "eas", "invocation"))
      return &*It;
  return nullptr;
}

} // namespace

SpanStats::Overhead SpanStats::absorb(const ecas::obs::TraceLog &Log,
                                      uint64_t FromSeq) {
  Overhead Local;
  std::map<uint32_t, std::vector<Frame>> Stacks;
  for (const TraceEvent &E : Log.Events) {
    if (E.Seq < FromSeq)
      continue;
    ++Events;
    std::vector<Frame> &Stack = Stacks[E.ThreadId];
    switch (E.Kind) {
    case EventKind::SpanBegin:
      Stack.push_back(Frame{&E});
      break;
    case EventKind::SpanEnd: {
      if (Stack.empty() || std::strcmp(Stack.back().Begin->Name, E.Name))
        break; // unmatched end: a span opened before the recorder
      Frame F = Stack.back();
      Stack.pop_back();
      double Dur = E.HostSeconds - F.Begin->HostSeconds;
      double Self = Dur - F.ChildSec;
      if (!Stack.empty())
        Stack.back().ChildSec += Dur;
      if (is(E, "eas", "dispatch")) {
        DispatchNs.push_back(1e9 * Dur);
        DispatchHostSec += Dur;
        if (E.hasVirtualTime() && F.Begin->hasVirtualTime())
          DispatchSimSec += E.VirtualSeconds - F.Begin->VirtualSeconds;
        if (Frame *Inv = innermostInvocation(Stack))
          Inv->ExcludedSec += Dur;
      } else if (is(E, "eas", "profile")) {
        SearchSelfNs.push_back(1e9 * Self);
      } else if (is(E, "eas", "invocation")) {
        if (F.Hit)
          HitSelfNs.push_back(1e9 * Self);
        Local.DecideHostSec += Dur - F.ExcludedSec;
        if (E.hasVirtualTime() && F.Begin->hasVirtualTime())
          Local.InvocationSimSec +=
              E.VirtualSeconds - F.Begin->VirtualSeconds;
      }
      break;
    }
    case EventKind::SpanComplete:
      if (is(E, "profile", "profile-rep")) {
        ProfileRepNs.push_back(1e9 * E.Value);
        if (!Stack.empty())
          Stack.back().ChildSec += E.Value;
        if (Frame *Inv = innermostInvocation(Stack))
          Inv->ExcludedSec += E.Value;
      }
      break;
    case EventKind::Instant:
      if (is(E, "eas", "table-hit")) {
        if (Frame *Inv = innermostInvocation(Stack))
          Inv->Hit = true;
      } else if (is(E, "eas", "alpha-search")) {
        ++Searches;
        if (const char *At = std::strstr(E.Detail.c_str(), "evals="))
          Evaluations += std::strtod(At + 6, nullptr);
      }
      break;
    case EventKind::Counter:
      if (!std::strcmp(E.Name, "eas.invocations"))
        Invocations += E.Value;
      else if (!std::strcmp(E.Name, "eas.table_hits"))
        TableHits += E.Value;
      else if (!std::strcmp(E.Name, "eas.profile_reps"))
        ProfileReps += E.Value;
      break;
    }
  }
  Total.DecideHostSec += Local.DecideHostSec;
  Total.InvocationSimSec += Local.InvocationSimSec;
  return Local;
}

void SpanStats::fill(PerLayer &Out) const {
  Summary Dispatch = summarize(DispatchNs);
  Summary Rep = summarize(ProfileRepNs);
  Summary Search = summarize(SearchSelfNs);
  Summary Hit = summarize(HitSelfNs);
  printSummary("sim.dispatch", Dispatch, "ns");
  printSummary("profile.rep", Rep, "ns");
  printSummary("core.search_self", Search, "ns");
  printSummary("core.hit_self", Hit, "ns");
  Out.SimDispatchP50Ns = Dispatch.Median;
  Out.SimDispatchP99Ns = Dispatch.Tail;
  Out.SimHostNsPerSimMs =
      DispatchSimSec > 0.0 ? 1e9 * DispatchHostSec / (1e3 * DispatchSimSec)
                           : 0.0;
  Out.ProfileRepP50Ns = Rep.Median;
  Out.ProfileRepsPerInvocation =
      Invocations > 0.0 ? ProfileReps / Invocations : 0.0;
  Out.CoreSearchSelfP50Ns = Search.Median;
  Out.CoreSearchSelfP99Ns = Search.Tail;
  Out.CoreEvalsPerSearch = Searches > 0.0 ? Evaluations / Searches : 0.0;
  Out.CoreHitSelfP50Ns = Hit.Median;
  Out.CoreHitSelfP99Ns = Hit.Tail;
  Out.CoreTableHitRatio = Invocations > 0.0 ? TableHits / Invocations : 0.0;
  Out.CoreDecideOverheadPct = Total.pct();
  Out.ObsTraceEvents = static_cast<double>(Events);
}

void perfbench::writeChromeTrace(const Options &Opts,
                                 ecas::obs::TraceLog Log) {
  constexpr size_t MaxEvents = 50000;
  if (Log.Events.size() > MaxEvents)
    Log.Events.erase(Log.Events.begin(),
                     Log.Events.end() - static_cast<ptrdiff_t>(MaxEvents));
  ecas::obs::ChromeTraceSink Sink(Opts.OutDir + "/" + Opts.Workload +
                                  ".trace.json");
  if (ecas::Status S = Sink.consume(Log); !S.ok())
    std::fprintf(stderr, "warning: trace not written: %s\n",
                 S.message().c_str());
}
