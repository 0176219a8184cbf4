//===--- plan.h - The verifier's plan path, replayed with spans --*- C++ -*-===//
//
// Part of the Dryad natural-proofs reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays, through the library's public entry points, the work the
/// verifier does for a module before any solver runs: parse, basic paths,
/// VC generation, natural-proof assembly, lowering to SMT-LIB2 and the
/// content key the journal and proof store file each obligation under.
/// Each call is wrapped in a span. The result lists every obligation with
/// its key, so the harness can count the vacuity probes a request should
/// get and compare keys across edits.
///
//===----------------------------------------------------------------------===//

#ifndef DRYAD_PERFBENCH_PLAN_H
#define DRYAD_PERFBENCH_PLAN_H

#include "trace.h"

#include <string>
#include <vector>

namespace perfbench {

/// A main obligation (a path's Hoare triple) or a call-site check.
struct PlannedObligation {
  std::string Proc;
  std::string Key; ///< content key as filed in the store (`<hash>@z3`)
  /// A main whose path has assumptions: when it is proved, the verifier
  /// probes those assumptions for satisfiability (the vacuity check).
  bool Probed = false;
};

struct Plan {
  bool Ok = false;
  std::string Error;
  std::vector<PlannedObligation> Obligations; ///< in the verifier's order
  // Work done, as counts.
  unsigned PathCount = 0, Vcs = 0, Assertions = 0, Instances = 0;
  size_t Smt2Bytes = 0;

  /// Main obligations that get a vacuity probe once proved.
  unsigned probed() const;
};

/// Plans \p Source as the verifier would with default tactics. Spans are
/// opened under \p Parent for request \p Request.
Plan planModule(const std::string &Source, Tracer &T, long Parent,
                unsigned long Request);

} // namespace perfbench

#endif // DRYAD_PERFBENCH_PLAN_H
