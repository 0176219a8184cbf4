//===--- plan.cpp - The verifier's plan path, replayed with spans -----------===//
//
// Part of the Dryad natural-proofs reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "plan.h"

#include "lang/parser.h"
#include "lang/paths.h"
#include "natural/engine.h"
#include "smt/solver.h"
#include "vcgen/vc.h"
#include "verifier/journal.h"

using namespace perfbench;
using namespace dryad;

unsigned Plan::probed() const {
  unsigned N = 0;
  for (const PlannedObligation &O : Obligations)
    N += O.Probed;
  return N;
}

// The verifier files an obligation under the hash of its full-tactics query
// and this tactic string, suffixed with the backend name. Default options:
// every tactic on, the in-process Z3 backend.
static const char *const TacticConfig = "tactics=ufa";
static const char *const BackendSuffix = "@z3";

Plan perfbench::planModule(const std::string &Source, Tracer &T, long Parent,
                           unsigned long Request) {
  Plan Out;
  Module M;
  DiagEngine Diags;
  {
    Scope S(T, "lang.parse", Parent, Request);
    if (!parseModule(Source, M, Diags)) {
      Out.Error = Diags.str();
      return Out;
    }
  }
  for (const Procedure &P : M.Procs) {
    if (!P.HasBody)
      continue;
    std::vector<BasicPath> Paths;
    {
      Scope S(T, "lang.paths", Parent, Request);
      Paths = extractPaths(M, P, Diags);
    }
    Out.PathCount += Paths.size();
    VCGen Gen(M);
    for (const BasicPath &BP : Paths) {
      std::optional<VCond> VC;
      {
        Scope S(T, "vcgen.generate", Parent, Request);
        VC = Gen.generate(P, BP, Diags);
      }
      if (!VC)
        continue;
      ++Out.Vcs;
      NaturalProof NP;
      {
        Scope S(T, "natural.build", Parent, Request);
        NP = buildNaturalProof(M, *VC);
      }
      Out.Assertions += NP.Assertions.size();
      Out.Instances += NP.Instances.size();

      // Call checks first, then the main: the verifier's plan order.
      auto Obligation = [&](size_t NumAssumptions, const Formula *Goal,
                            bool Main) {
        std::string Smt2;
        {
          Scope S(T, "smt.lower", Parent, Request);
          SmtSolver Solver;
          for (size_t I = 0; I != NumAssumptions; ++I)
            Solver.add(VC->Assumptions[I]);
          for (const Formula *F : NP.Assertions)
            Solver.add(F);
          Solver.addNegated(Goal);
          Smt2 = Solver.toSmt2();
        }
        Out.Smt2Bytes += Smt2.size();
        PlannedObligation O;
        O.Proc = P.Name;
        O.Probed = Main && !VC->Assumptions.empty();
        {
          Scope S(T, "smt.key", Parent, Request);
          O.Key = Journal::contentKey(Smt2, TacticConfig) + BackendSuffix;
        }
        Out.Obligations.push_back(std::move(O));
      };
      for (const CallCheck &C : VC->CallChecks)
        Obligation(C.NumAssumptions, C.Goal, false);
      Obligation(VC->Assumptions.size(), VC->Goal, true);
    }
  }
  Out.Ok = !Diags.hasErrors();
  if (!Out.Ok)
    Out.Error = Diags.str();
  return Out;
}
