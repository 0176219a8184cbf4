//===--- main.cpp - Repository benchmark harness ------------------------------===//
//
// Part of the Dryad natural-proofs reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_harness --workload corpus-cold|replay-hits --seed N
///                   --seconds S --trace 0|1 --root DIR --work DIR
///
/// Runs one workload, prints every metric by name with its unit and which
/// direction is better, and ends with one JSON line:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// Untraced runs report the end-to-end metrics, traced runs the per-layer
/// ones. Exits 1 when the run is not correct (a seeded bug verified, a
/// generator self-test failure, a setup failure), 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

using namespace perfbench;

static std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

int main(int Argc, char **Argv) {
  Options O;
  O.Root = ".";
  O.Work = ".";
  if (Argc % 2 == 0) {
    std::fprintf(stderr, "every option takes a value\n");
    return 2;
  }
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--root")
      O.Root = V;
    else if (K == "--work")
      O.Work = V;
    else {
      std::fprintf(stderr, "unknown option %s\n", K.c_str());
      return 2;
    }
  }
  if (O.Seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  O.Jobs = static_cast<unsigned>(N < 1 ? 1 : N > 4 ? 4 : N);

  RunResult R;
  if (O.Workload == "corpus-cold")
    R = runCorpusCold(O);
  else if (O.Workload == "replay-hits")
    R = runReplayHits(O);
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", O.Workload.c_str());
    return 2;
  }

  for (const std::string &L : R.Notes)
    std::printf("%s\n", L.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("%-24s %14.6g %-6s (%s is better)\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.HigherIsBetter ? "higher" : "lower");

  std::string J = "{\"correct\": ";
  J += R.Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(R.Attempted);
  J += ", \"failed\": " + std::to_string(R.Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.10g", R.Metrics[I].Value);
    J += (I ? ", \"" : "\"") + jsonEscape(R.Metrics[I].Name) +
         "\": {\"value\": " + Buf + ", \"unit\": \"" +
         jsonEscape(R.Metrics[I].Unit) + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  return R.Correct ? 0 : 1;
}
