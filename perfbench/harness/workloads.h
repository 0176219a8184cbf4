//===--- workloads.h - The benchmark's workloads and metrics ----*- C++ -*-===//
//
// Part of the Dryad natural-proofs reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef DRYAD_PERFBENCH_WORKLOADS_H
#define DRYAD_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  std::string Root; ///< repository checkout (corpus, known answers)
  std::string Work; ///< directory for this run's files (socket, store, spans)
  unsigned Jobs = 1; ///< nproc, capped at 4
};

struct Metric {
  std::string Name, Unit;
  double Value = 0;
  bool HigherIsBetter = false;
};

struct RunResult {
  bool Correct = true;
  unsigned long Attempted = 0; ///< requests (or module runs) sent
  unsigned long Failed = 0;    ///< requests that got no verdict at all
  std::vector<Metric> Metrics;
  /// Lines printed before the result: provenance, wrong verdicts, the
  /// chosen tail percentile, correctness failures.
  std::vector<std::string> Notes;
};

RunResult runCorpusCold(const Options &O);
RunResult runReplayHits(const Options &O);

} // namespace perfbench

#endif // DRYAD_PERFBENCH_WORKLOADS_H
