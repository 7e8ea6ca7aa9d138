//===-- perfbench/src/SpanStats.h - Per-layer self times --------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Folds drained TraceLogs — the spans, instants and counters the
/// scheduler already emits through EasConfig::Trace — into per-layer
/// figures. A span's self time is its duration minus the time its child
/// spans cover; spans nest per recording thread.
///
///   eas/invocation   the whole EasScheduler::execute
///     eas/dispatch   the partitioned CPU/GPU run (sim + device)
///     eas/profile    online profiling; its self time is classify + the
///                    joint (alpha, P-state) search
///       profile/profile-rep   one profiling repetition (complete span)
///   instants: eas/table-hit marks a hit, eas/alpha-search carries
///   "evals=N".
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANSTATS_H
#define PERFBENCH_SPANSTATS_H

#include "Harness.h"

#include "ecas/obs/Trace.h"

#include <vector>

namespace perfbench {

class SpanStats {
public:
  /// Decide overhead of one folded log: invocation self time outside
  /// dispatch and profiling repetitions, against the simulated time of
  /// those invocations (Corbera et al.'s share of kernel time).
  struct Overhead {
    double DecideHostSec = 0.0;
    double InvocationSimSec = 0.0;
    double pct() const {
      return InvocationSimSec > 0.0 ? 100.0 * DecideHostSec / InvocationSimSec
                                    : 0.0;
    }
  };

  /// Folds one drained log in — only events recorded at or after
  /// \p FromSeq, so a caller can skip a warm-up — and returns its decide
  /// overhead.
  Overhead absorb(const ecas::obs::TraceLog &Log, uint64_t FromSeq = 0);

  /// Writes the sim/profile/core layer fields of \p Out (all but the
  /// overhead maximum, which needs per-log results the caller holds).
  void fill(PerLayer &Out) const;

private:
  std::vector<double> DispatchNs, ProfileRepNs, SearchSelfNs, HitSelfNs;
  double DispatchHostSec = 0.0;
  double DispatchSimSec = 0.0;
  Overhead Total;
  double Invocations = 0.0;
  double TableHits = 0.0;
  double ProfileReps = 0.0;
  double Searches = 0.0;
  double Evaluations = 0.0;
  uint64_t Events = 0;
};

/// Writes the newest events of \p Log (bounded, so a long run stays a
/// loadable file) as Chrome trace JSON to <OutDir>/<workload>.trace.json.
void writeChromeTrace(const Options &Opts, ecas::obs::TraceLog Log);

} // namespace perfbench

#endif // PERFBENCH_SPANSTATS_H
