//===-- perfbench/src/main.cpp - Benchmark entry point --------------------===//
//
// Part of the ecas project, under the MIT License.
//
// Usage: ecas-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       [--out-dir DIR]
//
// Runs one workload (paper-suite, hit-stream, learn-churn, tenant-mix)
// and prints, as its last line, {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics untraced, the per-layer metrics
// traced. perfbench/run.py builds this binary and forwards the line.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ecas-perfbench --workload paper-suite|hit-stream|"
               "learn-churn|tenant-mix --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I];
    const char *Value = Argv[I + 1];
    if (Flag == "--workload")
      Opts.Workload = Value;
    else if (Flag == "--seed")
      Opts.Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      Opts.Seconds = std::strtod(Value, nullptr);
    else if (Flag == "--trace")
      Opts.Trace = std::strcmp(Value, "0") != 0;
    else if (Flag == "--out-dir")
      Opts.OutDir = Value;
    else
      return usage();
  }
  if (Argc % 2 == 0 || !(Opts.Seconds > 0.0))
    return usage();
  ::mkdir(Opts.OutDir.c_str(), 0755); // EEXIST is fine

  RunResult (*Run)(const Options &) = nullptr;
  if (Opts.Workload == "paper-suite")
    Run = runPaperSuite;
  else if (Opts.Workload == "hit-stream")
    Run = runHitStream;
  else if (Opts.Workload == "learn-churn")
    Run = runLearnChurn;
  else if (Opts.Workload == "tenant-mix")
    Run = runTenantMix;
  else
    return usage();
  // run.py folds this line into the result's fingerprint.
  std::printf("build compiler=%s; build_type=%s\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
              Opts.Trace ? 1 : 0);
  printResult(Opts, Run(Opts));
  return 0;
}
