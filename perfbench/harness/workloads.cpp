//===--- workloads.cpp - The benchmark's workloads and metrics --------------===//
//
// Part of the Dryad natural-proofs reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two workloads over one input generator:
///
///   corpus-cold  one routine request at a time through Verifier::verifyAll
///                at --jobs nproc, single attempt, 10 s per obligation, no
///                store, no journal: the paper's Fig. 6/7 run, multicore.
///   replay-hits  a daemon primed with every drawn routine; nproc closed-loop
///                clients resubmit them unchanged or with comment-only noise,
///                so every proved obligation is a store hit.
///
/// Each workload's draw has a fixed composition (the routines listed
/// below, each sent once a pass), and the seed decides the order and the
/// comment noise. The solver's work is a function of the query text, which
/// the noise leaves unchanged, so runs with different seeds do the same
/// work.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "corpus.h"
#include "plan.h"
#include "trace.h"

#include "lang/parser.h"
#include "store/remote.h"
#include "store/serve.h"
#include "store/store.h"
#include "verifier/journal.h"
#include "verifier/report.h"
#include "verifier/verifier.h"

#include <z3.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace dryad;

namespace {

// --- workload settings -----------------------------------------------------

/// corpus-cold: the settings of the committed BENCH_*.json captures.
constexpr unsigned ColdTimeoutMs = 10000;
/// corpus-cold on-time limit per routine: the per-obligation limit.
constexpr double ColdLimitMs = 10000;

/// corpus-cold's verifier settings, also used by the seeded-bug gate.
VerifyOptions coldVerifyOptions(unsigned Jobs) {
  VerifyOptions VO;
  VO.Jobs = Jobs;
  VO.TimeoutMs = ColdTimeoutMs;
  VO.Attempts = 1;
  VO.DegradeTactics = false;
  return VO;
}

/// replay-hits on-time limit per request: an unchanged resubmit should
/// come back in well under the vacuity probe timeout.
constexpr double ReplayLimitMs = 2000;
/// Passes a run makes at least, so every run has enough samples for the
/// same tail percentile; more follow while time remains.
constexpr unsigned ColdMinPasses = 1;
constexpr unsigned ReplayMinPasses = 4;
/// Setups per run; setup_s is their median.
constexpr unsigned ColdSetups = 5;
constexpr unsigned DaemonSetups = 2;

/// The routines each workload draws. Every pass sends each of them once,
/// in a seeded order. A pool's composition follows the measured share of
/// each class of corpus routine (perfbench/README.md has the measurement):
/// shares by largest remainder, each class represented by routines at the
/// class's median size.
///
/// corpus-cold, classes from a single-attempt run of the whole corpus (101
/// routines): a vacuity probe left undecided 54 (4 of 8 slots, with the
/// class's 1/2/3-probe mix), a main obligation timed out 33 (2), all
/// decided 7 (1), seeded bug 6 (0: the seeded-bug gate verifies all six
/// every run), false counterexample 1 (1, kept so that both false
/// counterexamples show; the other, mid_insert, also times out).
const char *const ColdPool[] = {
    "fig6/dll:mid_insert",
    "fig7/glib_glist:glist_length",
    "fig7/linux_mmap:remove_vma_list",
    "fig6/traversals:postorder_rec",
    "fig7/glib_gslist:gslist_split_alt",
    "fig6/sorted_list:insert_rec",
    "fig7/glib_gslist:gslist_free",
    "fig6/cyclic:seg_insert_back",
};

/// replay-hits, classes from priming a daemon with every routine that has
/// no timed-out main (68) and replaying each unchanged: a vacuity probe
/// re-run on the hit 50 (8 of 11 slots, one-probe routines, the class
/// median), every answer from the store 11 (2), a counterexample re-solved
/// 7 (1). The store-only pair are routines whose probes the single-attempt
/// run decided too: a probe that only the ladder's second attempt decides
/// is left undecided by some primings, and its routine flips class. The 33
/// routines with a timed-out main are not drawn: a timeout is never stored,
/// so each replay re-runs the daemon's whole ladder, over a minute per main.
const char *const ReplayPool[] = {
    "fig6/avl:leftmost_rec",
    "fig6/bst:find_min_rec",
    "fig6/cyclic:seg_delete_back",
    "fig6/dll:meld",
    "fig6/rbt:find_rec",
    "fig6/sll:insert_front",
    "fig6/traversals:postorder_rec",
    "fig7/glib_glist:glist_free",
    "fig6/sorted_list:find_rec",
    "fig7/glib_gslist:gslist_free",
    "negative/seeded_bugs:bug_weak_invariant",
};

double msSince(Clock::time_point T) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T).count();
}

// --- inputs ------------------------------------------------------------------

/// One drawn routine: its request text and the plan of that text.
struct Input {
  const Routine *R = nullptr;
  std::string Text;
  Plan P;
};

struct Corpus {
  std::vector<ModuleText> Modules;
  std::vector<Routine> Routines;
};

bool loadAll(const Options &O, Corpus &C, std::string &Err) {
  return loadCorpus(O.Root, C.Modules, Err) &&
         loadKnownAnswers(O.Root + "/perfbench/known_answers.txt", C.Modules,
                          C.Routines, Err);
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  return static_cast<bool>(Out);
}

/// A module's whole text, as the corpus file holds it.
std::string moduleText(const ModuleText &M) {
  std::string Full = M.Header;
  for (const ProcText &P : M.Procs)
    Full += P.Head + P.Body + P.Trailer;
  return Full;
}

/// Names a body local must not share to be renamed safely: the module's
/// fields (a rename would rewrite `x.f` accesses), its definitions and its
/// procedures.
std::set<std::string> globalNames(const ModuleText &M) {
  std::set<std::string> Out;
  std::stringstream SS(M.Header);
  std::string Line;
  while (std::getline(SS, Line)) {
    std::stringstream LS(Line);
    std::string Kw, Word;
    LS >> Kw;
    if (Kw == "pred" || Kw == "func") {
      LS >> Word;
      Out.insert(Word.substr(0, Word.find_first_of("[(")));
    } else if (Kw == "fields") {
      LS >> Word; // the field kind
      while (LS >> Word)
        Out.insert(Word.substr(0, Word.find_first_of(",;")));
    }
  }
  for (const ProcText &P : M.Procs)
    Out.insert(P.Name);
  return Out;
}

/// Renders and plans the pool's routines into \p Out.
bool buildInputs(const Corpus &C, const char *const *Pool, size_t N,
                 Tracer &Off, std::vector<Input> &Out, std::string &Err) {
  Out.clear();
  for (size_t I = 0; I != N; ++I) {
    auto It = std::find_if(C.Routines.begin(), C.Routines.end(),
                           [&](const Routine &R) { return R.Id == Pool[I]; });
    if (It == C.Routines.end()) {
      Err = std::string("pool routine not in the corpus: ") + Pool[I];
      return false;
    }
    Input In;
    In.R = &*It;
    In.Text = renderRoutine(C.Modules[It->Module], It->Proc);
    In.P = planModule(In.Text, Off, -1, 0);
    if (!In.P.Ok) {
      Err = It->Id + ": generated request does not plan: " + In.P.Error;
      return false;
    }
    Out.push_back(std::move(In));
  }
  return true;
}

// --- generator self-test and seeded-bug gate -----------------------------------

std::multiset<std::string> keysOf(const Plan &P, const std::string *Proc) {
  std::multiset<std::string> K;
  for (const PlannedObligation &O : P.Obligations)
    if (!Proc || O.Proc == *Proc)
      K.insert(O.Key);
  return K;
}

/// Runs the public plan path over a seeded corpus module and checks the
/// generator's two promises: comment noise changes no content key, and an
/// alpha-renaming edit changes keys of the edited procedure only (and at
/// least one of them). Also checks that rendering a routine alone keeps its
/// keys. Returns an empty string on success.
std::string selfTest(const Corpus &C, uint64_t Seed, Tracer &Off) {
  Rng R(Seed ^ 0x5e1f7e57ULL);
  std::vector<size_t> Cands;
  for (size_t I = 0; I != C.Modules.size(); ++I)
    Cands.push_back(I);
  R.shuffle(Cands);
  for (size_t MI : Cands) {
    const ModuleText &M = C.Modules[MI];
    std::string Full = moduleText(M);
    Plan Base = planModule(Full, Off, -1, 0);
    if (!Base.Ok)
      return M.Rel + ": module does not plan: " + Base.Error;

    Plan Noisy = planModule(commentNoise(Full, R), Off, -1, 0);
    if (keysOf(Noisy, nullptr) != keysOf(Base, nullptr))
      return M.Rel + ": comment-only resubmit changed content keys";

    size_t PI = R.below(M.Procs.size());
    const ProcText &PT = M.Procs[PI];
    std::set<std::string> Outside = globalNames(M);
    std::vector<std::string> Renamable;
    for (const std::string &L : PT.Locals)
      if (!Outside.count(L))
        Renamable.push_back(L);
    if (Renamable.empty())
      continue;
    std::string Alone = renderRoutine(M, PI);
    if (keysOf(planModule(Alone, Off, -1, 0), &PT.Name) !=
        keysOf(Base, &PT.Name))
      return M.Rel + ":" + PT.Name + ": rendering the routine alone changed "
                                      "its content keys";

    const std::string &From = Renamable[R.below(Renamable.size())];
    std::string Edited = M.Header;
    for (const ProcText &P : M.Procs)
      Edited += P.Head +
                (&P == &PT ? renameLocal(P.Body, From, From + "_e0") : P.Body) +
                P.Trailer;
    Plan E = planModule(Edited, Off, -1, 0);
    if (!E.Ok)
      return M.Rel + ":" + PT.Name + ": edit does not plan: " + E.Error;
    for (const ProcText &P : M.Procs)
      if (&P != &PT && keysOf(E, &P.Name) != keysOf(Base, &P.Name))
        return M.Rel + ": renaming " + From + " in " + PT.Name +
               " changed the keys of " + P.Name;
    if (keysOf(E, &PT.Name) == keysOf(Base, &PT.Name))
      return M.Rel + ": renaming " + From + " in " + PT.Name +
             " changed no content key";
    return "";
  }
  return "no corpus module has a routine with a local to rename";
}

/// Verifies every module that holds a routine expected to be rejected
/// (every seeded bug, whether a workload draws it or not), whole and with
/// corpus-cold's settings. Returns one line per seeded bug reported
/// verified or left without a verdict, or an empty string.
std::string seededBugGate(const Options &O, const Corpus &C) {
  std::set<size_t> Modules;
  for (const Routine &R : C.Routines)
    if (!R.ExpectVerified)
      Modules.insert(R.Module);
  std::string Out;
  for (size_t MI : Modules) {
    const ModuleText &M = C.Modules[MI];
    std::string File = O.Work + "/seeded.dryad";
    Module Mod;
    DiagEngine Diags;
    if (!writeFile(File, moduleText(M)) ||
        !parseModuleFile(File, Mod, Diags))
      return M.Rel + ": seeded-bug module does not parse: " + Diags.str();
    std::vector<ProcResult> Results =
        Verifier(Mod, coldVerifyOptions(O.Jobs)).verifyAll(Diags);
    for (const Routine &R : C.Routines) {
      if (R.Module != MI || R.ExpectVerified)
        continue;
      const std::string &Name = M.Procs[R.Proc].Name;
      auto It = std::find_if(Results.begin(), Results.end(),
                             [&](const ProcResult &P) { return P.Proc == Name; });
      std::string Line;
      if (It == Results.end())
        Line = R.Id + ": no verdict from the seeded-bug gate";
      else if (It->Verified)
        Line = "SOUNDNESS VIOLATION: seeded bug verified: " + R.Id;
      if (!Line.empty())
        Out += (Out.empty() ? "" : "\n") + Line;
    }
  }
  return Out;
}

/// Runs the generator self-test and the seeded-bug gate in a child process,
/// once per run and outside every timed phase, so the modules they plan
/// and verify leave no trace in the harness's memory figures. Returns an
/// empty string on success, else what failed.
std::string isolatedChecks(const Options &O) {
  int Fds[2];
  if (pipe(Fds) != 0)
    return "pipe failed";
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    return "fork failed";
  }
  if (Pid == 0) {
    close(Fds[0]);
    Corpus C;
    Tracer Off(false);
    std::string Msg;
    if (!loadAll(O, C, Msg)) {
      Msg = "setup failed: " + Msg;
    } else {
      std::string ST = selfTest(C, O.Seed, Off);
      Msg = ST.empty() ? seededBugGate(O, C)
                       : "generator self-test failed: " + ST;
    }
    ssize_t W = write(Fds[1], Msg.data(), Msg.size());
    _exit(W == static_cast<ssize_t>(Msg.size()) ? 0 : 1);
  }
  close(Fds[1]);
  std::string Msg;
  char Buf[512];
  for (ssize_t N; (N = read(Fds[0], Buf, sizeof(Buf))) > 0;)
    Msg.append(Buf, static_cast<size_t>(N));
  close(Fds[0]);
  int St = 0;
  waitpid(Pid, &St, 0);
  if (!WIFEXITED(St) || WEXITSTATUS(St) != 0)
    return Msg.empty() ? "self-test process failed" : Msg;
  return Msg;
}

// --- judging verdicts -----------------------------------------------------------

/// What one answered request says, checked against the known answer.
struct Judged {
  unsigned NonProbe = 0, NonProbeUndecided = 0; ///< mains and call checks
  unsigned Probes = 0, ProbesUndecided = 0;     ///< vacuity probes
  bool WrongOnCorrect = false; ///< correct code not verified
  bool Unsound = false;        ///< a seeded bug verified
};

/// \p Entries is the routine's obligation count in the verifier's result
/// (mains, call checks, and one entry per undecided or refuted probe);
/// \p Report is the verifier's text report, which lists every obligation of
/// a failed routine that was not proved.
Judged judge(const Input &In, bool Verified, size_t Entries,
             const std::string &Report) {
  Judged J;
  J.NonProbe = In.P.Obligations.size();
  unsigned FailedMains = 0, SkippedProbes = 0;
  std::stringstream SS(Report);
  std::string L;
  while (std::getline(SS, L)) {
    if (L.rfind("    ", 0) != 0)
      continue;
    std::string Head = L.substr(0, L.find(": "));
    if (Head.find("[vacuity") != std::string::npos) {
      SkippedProbes += Head.find("[vacuity skipped]") != std::string::npos;
      continue;
    }
    if (L.find(": counterexample:") == std::string::npos)
      ++J.NonProbeUndecided;
    if (Head.find(" call ") == std::string::npos)
      ++FailedMains;
  }
  // Every proved main with assumptions gets a probe.
  unsigned Probed = In.P.probed();
  J.Probes = Probed > FailedMains ? Probed - FailedMains : 0;
  // A verified routine's extra result entries are its unanswered probes; a
  // failed routine's report names them.
  unsigned Extra =
      static_cast<unsigned>(Entries > J.NonProbe ? Entries - J.NonProbe : 0);
  J.ProbesUndecided = std::min(Verified ? Extra : SkippedProbes, J.Probes);
  J.WrongOnCorrect = In.R->ExpectVerified && !Verified;
  J.Unsound = !In.R->ExpectVerified && Verified;
  return J;
}

// --- tallies and metrics -------------------------------------------------------

struct Tally {
  std::mutex Mu; ///< guards everything below
  std::vector<double> LatencyMs;
  unsigned long Requests = 0, Errors = 0, NoVerdict = 0, Late = 0;
  unsigned long NonProbe = 0, NonProbeUndecided = 0, Probes = 0,
                ProbesUndecided = 0;
  std::set<std::string> Wrong, Unsound, Transport;
  std::map<std::string, std::vector<double>> ByRoutine; ///< latency per routine

  void add(const Input &In, double Ms, double LimitMs, const Judged *J,
           int Exit, const std::string &TransportErr) {
    std::lock_guard<std::mutex> G(Mu);
    ++Requests;
    LatencyMs.push_back(Ms);
    ByRoutine[In.R->Id].push_back(Ms);
    bool Error = false;
    if (!J) {
      ++NoVerdict;
      Transport.insert(In.R->Id + ": " + TransportErr);
      Error = true;
    } else {
      NonProbe += J->NonProbe;
      NonProbeUndecided += J->NonProbeUndecided;
      Probes += J->Probes;
      ProbesUndecided += J->ProbesUndecided;
      if (J->Unsound)
        Unsound.insert(In.R->Id);
      if (J->WrongOnCorrect)
        Wrong.insert(In.R->Id);
      Error = J->WrongOnCorrect || J->Unsound || Exit == 3;
    }
    Errors += Error;
    Late += Error || Ms > LimitMs;
  }
};

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// The highest percentile of a fixed ladder with at least ten samples
/// beyond it; the maximum when there are fewer than twenty samples.
std::pair<double, std::string> tailLatency(const std::vector<double> &V) {
  static const std::pair<double, const char *> Ladder[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"},
      {0.90, "p90"},    {0.75, "p75"}, {0.50, "p50"}};
  double N = static_cast<double>(V.size());
  for (auto [Q, Name] : Ladder)
    if (N * (1 - Q) >= 10)
      return {quantile(V, Q), Name};
  return {V.empty() ? 0 : *std::max_element(V.begin(), V.end()), "max"};
}

/// Peak resident set (VmHWM) of process \p Pid, in MB; 0 when unreadable.
double peakRssMb(const std::string &Pid) {
  std::ifstream In("/proc/" + Pid + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

void addMetric(RunResult &Out, const std::string &Name, double V,
               const std::string &Unit, bool Higher) {
  Out.Metrics.push_back({Name, Unit, V, Higher});
}

/// Fills the end-to-end metrics every workload reports. \p RssMb is the
/// peak resident set of the verifying process (the harness itself on
/// corpus-cold, the daemon otherwise); solver workers are left out, as
/// their peaks depend on which queries each happened to serve.
void endToEnd(RunResult &Out, Tally &T, double SetupS, double WallS,
              unsigned Passes, double LimitMs, double RssMb) {
  Out.Attempted = T.Requests;
  Out.Failed = T.NoVerdict;
  if (!T.Unsound.empty()) {
    Out.Correct = false;
    for (const std::string &Id : T.Unsound)
      Out.Notes.push_back("SOUNDNESS VIOLATION: seeded bug verified: " + Id);
  }
  for (const std::string &Id : T.Wrong)
    Out.Notes.push_back("wrong verdict on correct code: " + Id);
  for (const std::string &E : T.Transport)
    Out.Notes.push_back("request failed: " + E);
  auto [Tail, Label] = tailLatency(T.LatencyMs);
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "latency_tail_ms is %s of %zu samples; %lu of %lu late over "
                "%.0f ms; %lu errors",
                Label.c_str(), T.LatencyMs.size(), T.Late, T.Requests, LimitMs,
                T.Errors);
  Out.Notes.push_back(Buf);
  std::string ByRoutine = "median latency by routine (ms):";
  for (const auto &[Label, Ms] : T.ByRoutine) {
    std::snprintf(Buf, sizeof(Buf), " %s=%.0f", Label.c_str(),
                  quantile(Ms, 0.5));
    ByRoutine += Buf;
  }
  Out.Notes.push_back(ByRoutine);

  double Reqs = std::max(1.0, static_cast<double>(T.Requests));
  addMetric(Out, "setup_s", SetupS, "s", false);
  addMetric(Out, "wall_s", WallS / std::max(1u, Passes), "s", false);
  addMetric(Out, "obligations_per_s",
            static_cast<double>(T.NonProbe) / std::max(WallS, 1e-9), "1/s",
            true);
  addMetric(Out, "latency_p50_ms", quantile(T.LatencyMs, 0.5), "ms", false);
  addMetric(Out, "latency_tail_ms", Tail, "ms", false);
  addMetric(Out, "decided_ratio",
            T.NonProbe ? 1.0 - static_cast<double>(T.NonProbeUndecided) /
                                   static_cast<double>(T.NonProbe)
                       : 0.0,
            "ratio", true);
  addMetric(Out, "vacuity_decided_ratio",
            T.Probes ? 1.0 - static_cast<double>(T.ProbesUndecided) /
                                 static_cast<double>(T.Probes)
                     : 0.0,
            "ratio", true);
  addMetric(Out, "ok_ratio", 1.0 - static_cast<double>(T.Errors) / Reqs,
            "ratio", true);
  addMetric(Out, "on_time_ratio", 1.0 - static_cast<double>(T.Late) / Reqs,
            "ratio", true);
  addMetric(Out, "peak_rss_mb", RssMb, "MB", false);
}

// --- per-layer metrics -------------------------------------------------------------

/// Counters the traced run gathers beside its spans. Per-request averages
/// are taken over Requests.
struct LayerCounts {
  std::mutex Mu; ///< guards everything below
  unsigned long Requests = 0;
  double Paths = 0, Vcs = 0, Assertions = 0, Instances = 0, Smt2Kb = 0;
  double MainCount = 0, MainSolveS = 0, MainTimeouts = 0, MainAttempts = 0;
  double VacCount = 0, VacSolveS = 0, VacTimeouts = 0;
  double Served = 0, SolveS = 0, WarmSpawns = 0, Recycled = 0;
  double StoreHits = 0, StoreMisses = 0, BusyReplies = 0;
  double LookupUs = 0, StoreKeys = 0, QueuedMax = 0, ActiveMax = 0;

  void addPlan(const Plan &P) {
    std::lock_guard<std::mutex> G(Mu);
    ++Requests;
    Paths += P.PathCount;
    Vcs += P.Vcs;
    Assertions += P.Assertions;
    Instances += P.Instances;
    Smt2Kb += static_cast<double>(P.Smt2Bytes) / 1024.0;
  }
};

void perLayer(RunResult &Out, const Tracer &T, const LayerCounts &L,
              double WallS, unsigned Jobs, double Overhead) {
  std::map<std::string, double> Self = T.selfMs(), Total = T.totalMs();
  double N = std::max(1.0, static_cast<double>(L.Requests));
  auto Per = [&](const std::string &Name, double V, const char *Unit) {
    addMetric(Out, Name, V / N, Unit, false);
  };
  Per("lang.parse_ms", Self["lang.parse"], "ms");
  Per("lang.paths", L.Paths, "count");
  Per("lang.paths_ms", Self["lang.paths"], "ms");
  Per("vcgen.vcs", L.Vcs, "count");
  Per("vcgen.generate_ms", Self["vcgen.generate"], "ms");
  Per("natural.assertions", L.Assertions, "count");
  Per("natural.instances", L.Instances, "count");
  Per("natural.build_ms", Self["natural.build"], "ms");
  Per("smt.lower_ms", Self["smt.lower"], "ms");
  Per("smt.smt2_kb", L.Smt2Kb, "kB");
  Per("smt.key_ms", Self["smt.key"], "ms");
  Per("smt.main.count", L.MainCount, "count");
  Per("smt.main.solve_s", L.MainSolveS, "s");
  Per("smt.main.timeouts", L.MainTimeouts, "count");
  Per("smt.main.attempts", L.MainAttempts, "count");
  Per("smt.vacuity.count", L.VacCount, "count");
  Per("smt.vacuity.solve_s", L.VacSolveS, "s");
  Per("smt.vacuity.timeouts", L.VacTimeouts, "count");
  Per("sched.served", L.Served, "count");
  Per("sched.solve_s", L.SolveS, "s");
  addMetric(Out, "sched.slot_util",
            L.SolveS / std::max(1e-9, WallS * Jobs), "ratio", true);
  Per("sched.warm_spawns", L.WarmSpawns, "count");
  Per("sched.recycled", L.Recycled, "count");
  Per("store.hits", L.StoreHits, "count");
  Per("store.misses", L.StoreMisses, "count");
  double Looked = L.StoreHits + L.StoreMisses;
  addMetric(Out, "store.hit_ratio", Looked ? L.StoreHits / Looked : 0, "ratio",
            true);
  addMetric(Out, "store.lookup_us", L.LookupUs, "us", false);
  addMetric(Out, "store.keys", L.StoreKeys, "count", false);
  Per("serve.exchange_ms", Total["serve.exchange"], "ms");
  addMetric(Out, "serve.busy_replies", L.BusyReplies, "count", false);
  addMetric(Out, "serve.queued_max", L.QueuedMax, "count", false);
  addMetric(Out, "serve.active_max", L.ActiveMax, "count", false);
  addMetric(Out, "trace.overhead_ratio", Overhead, "ratio", false);
}

/// Runs \p Setup \p K times and returns the median duration in seconds.
/// \p Reset, untimed, undoes a setup before the next one. The last setup's
/// state is the one the measurement uses.
double medianSetup(unsigned K, const std::function<bool()> &Setup,
                   const std::function<void()> &Reset, bool &Ok,
                   std::vector<double> &S) {
  Ok = true;
  for (unsigned I = 0; I != K && Ok; ++I) {
    if (I)
      Reset();
    Clock::time_point T0 = Clock::now();
    Ok = Setup();
    S.push_back(msSince(T0) / 1000.0);
  }
  return quantile(S, 0.5);
}

/// Hands out requests in whole passes over the pool. Past \p MinPasses, a
/// new pass is started only when the queue is empty and the previous
/// pass's duration still fits before the deadline, so every run ends within
/// about \p Seconds and holds whole passes only — the same mix whatever the
/// speed.
class PassQueue {
public:
  PassQueue(size_t PoolSize, double Seconds, unsigned MinPasses,
            uint64_t Seed)
      : PoolSize(PoolSize), Seconds(Seconds), MinPasses(MinPasses), R(Seed),
        T0(Clock::now()), LastPass(T0) {}

  /// Next pool index, or false when the run is over.
  bool next(size_t &Index) {
    std::lock_guard<std::mutex> G(Mu);
    if (Pos == Order.size()) {
      double Elapsed = msSince(T0) / 1000.0;
      double PassS = msSince(LastPass) / 1000.0;
      if (Passes >= MinPasses && Elapsed + PassS > Seconds)
        return false;
      LastPass = Clock::now();
      Order.resize(PoolSize);
      for (size_t I = 0; I != PoolSize; ++I)
        Order[I] = I;
      R.shuffle(Order);
      Pos = 0;
      ++Passes;
    }
    Index = Order[Pos++];
    return true;
  }
  unsigned passes() const { return Passes; }

private:
  std::mutex Mu; ///< guards everything below
  size_t PoolSize;
  double Seconds;
  unsigned MinPasses;
  Rng R;
  Clock::time_point T0, LastPass;
  std::vector<size_t> Order;
  size_t Pos = 0;
  unsigned Passes = 0;
};

// --- the daemon ------------------------------------------------------------------

/// A verification daemon forked from the harness (runServeDaemon, default
/// settings but for its socket and store) and stopped with SIGTERM, which
/// drains it, fsyncs the store and reaps its workers.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const std::string &Dir, unsigned Jobs, std::string &Err) {
    Sock = Dir + "/d.sock";
    StorePath = Dir + "/proofs.store";
    unlink(StorePath.c_str());
    std::fflush(nullptr);
    Pid = fork();
    if (Pid < 0) {
      Err = "fork failed";
      return false;
    }
    if (Pid == 0) {
      int Log = open((Dir + "/daemon.log").c_str(),
                     O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Log >= 0) {
        dup2(Log, 1);
        dup2(Log, 2);
        close(Log);
      }
      _exit(runServeDaemon(options(Sock, StorePath, Jobs)));
    }
    RemoteOptions RO = clientOptions();
    for (int I = 0; I != 400; ++I) {
      ServeHealth H;
      std::string PErr;
      if (remotePing(RO, H, PErr))
        return true;
      int St = 0;
      if (waitpid(Pid, &St, WNOHANG) == Pid) {
        Pid = -1;
        Err = "daemon exited during start; see " + Dir + "/daemon.log";
        return false;
      }
      usleep(25000);
    }
    Err = "daemon did not answer pings within 10 s";
    return false;
  }

  void stop() {
    if (Pid <= 0)
      return;
    kill(Pid, SIGTERM);
    for (int I = 0; I != 600; ++I) {
      int St = 0;
      if (waitpid(Pid, &St, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      usleep(50000);
    }
    kill(Pid, SIGKILL);
    waitpid(Pid, nullptr, 0);
    Pid = -1;
  }

  /// The daemon's settings: the defaults, but for socket, store and jobs.
  static ServeDaemonOptions options(const std::string &Sock,
                                    const std::string &Store, unsigned Jobs) {
    ServeDaemonOptions SO;
    SO.SocketPath = Sock;
    SO.Verify.StorePath = Store;
    SO.ServeJobs = Jobs;
    return SO;
  }

  RemoteOptions clientOptions() const {
    RemoteOptions RO;
    RO.SocketPath = Sock;
    RO.RequestTimeoutMs = 150000;
    RO.Retries = 0;
    RO.BusyRetries = 0; // a busy reply is a refused request
    RO.Fallback = false;
    return RO;
  }
  const std::string &storePath() const { return StorePath; }
  pid_t pid() const { return Pid; }

private:
  pid_t Pid = -1;
  std::string Sock, StorePath;
};

/// Extracts the number after `"<Key>": ` in a JSON text, searching from
/// the first occurrence of \p After (when given); 0 when absent.
double jsonNumber(const std::string &J, const std::string &Key,
                  const std::string &After = "") {
  size_t From = After.empty() ? 0 : J.find("\"" + After + "\"");
  if (From == std::string::npos)
    return 0;
  size_t P = J.find("\"" + Key + "\": ", From);
  return P == std::string::npos ? 0 : std::atof(J.c_str() + P + Key.size() + 4);
}

/// One request over the wire, judged. Answered is false when no verdict
/// came back (transport failure or refusal).
struct Exchange {
  bool Answered = false;
  ServeResponse Resp;
  std::string Err;
  Judged J;
};

Exchange exchange(const Daemon &D, const Input &In, const std::string &Text) {
  Exchange X;
  RemoteStatus S =
      remoteVerify(D.clientOptions(), In.R->Id + ".dryad", Text, X.Resp, X.Err);
  if (S != RemoteStatus::Ok) {
    if (S == RemoteStatus::Overloaded)
      X.Err = "refused (busy): " + X.Err;
    return X;
  }
  if (X.Resp.Json.empty()) {
    X.Err = "exit " + std::to_string(X.Resp.Exit) + ": " + X.Resp.Diag;
    return X;
  }
  X.Answered = true;
  bool Verified = X.Resp.Json.find("\"verified\": true") != std::string::npos;
  size_t Entries = static_cast<size_t>(jsonNumber(X.Resp.Json, "obligations"));
  X.J = judge(In, Verified, Entries, X.Resp.Report);
  return X;
}

/// Sends every input once from \p Jobs threads (store priming).
bool prime(const Daemon &D, const std::vector<Input> &Inputs, unsigned Jobs,
           std::string &Err) {
  std::atomic<size_t> Next{0};
  std::mutex Mu; ///< guards Err
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I != Jobs; ++I)
    Ts.emplace_back([&] {
      for (size_t K; (K = Next++) < Inputs.size();) {
        Exchange X = exchange(D, Inputs[K], Inputs[K].Text);
        if (!X.Answered || X.J.Unsound) {
          std::lock_guard<std::mutex> G(Mu);
          Err = Inputs[K].R->Id + ": priming failed: " +
                (X.Answered ? "seeded bug verified" : X.Err);
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();
  return Err.empty();
}

/// Store records appended since \p Offset: the daemon's log of every
/// obligation and probe it solved (hits append nothing).
void solvedSince(const std::string &StorePath, size_t Offset,
                 LayerCounts &L) {
  std::ifstream In(StorePath);
  In.seekg(static_cast<std::streamoff>(Offset));
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Sp = Line.find(' ');
    if (Sp == std::string::npos)
      continue;
    std::optional<JournalRecord> R = Journal::parseLine(Line.substr(Sp + 1));
    if (!R)
      continue;
    bool Probe = R->Key.size() > 8 &&
                 R->Key.compare(R->Key.size() - 8, 8, ":vacuity") == 0;
    bool Timeout = R->Failure == FailureKind::Timeout;
    if (Probe) {
      ++L.VacCount;
      L.VacSolveS += R->Seconds;
      L.VacTimeouts += Timeout;
    } else {
      ++L.MainCount;
      L.MainSolveS += R->Seconds;
      L.MainTimeouts += Timeout;
      L.MainAttempts += R->Attempts;
    }
  }
}

size_t fileSize(const std::string &Path) {
  std::ifstream In(Path, std::ios::ate | std::ios::binary);
  return In ? static_cast<size_t>(In.tellg()) : 0;
}

/// Times ProofStore::lookup on a copy of the daemon's segment (opening the
/// live file would repair its tail under the daemon), over every key the
/// drawn inputs plan.
void timeLookups(const std::string &Live, const std::string &Copy,
                 const std::vector<Input> &Inputs, LayerCounts &L) {
  {
    std::ifstream In(Live, std::ios::binary);
    std::ofstream Out(Copy, std::ios::binary | std::ios::trunc);
    Out << In.rdbuf();
  }
  ProofStore S;
  std::string Err;
  if (!S.open(Copy, Err))
    return;
  L.StoreKeys = static_cast<double>(S.size());
  std::vector<std::string> Keys;
  for (const Input &In : Inputs)
    for (const PlannedObligation &O : In.P.Obligations) {
      Keys.push_back(O.Key);
      Keys.push_back(O.Key + ":vacuity");
    }
  unsigned long N = 0;
  size_t Found = 0;
  Clock::time_point T0 = Clock::now();
  for (int Rep = 0; Rep != 200; ++Rep)
    for (const std::string &K : Keys) {
      Found += S.lookup(K) != nullptr;
      ++N;
    }
  L.LookupUs = msSince(T0) * 1000.0 / static_cast<double>(std::max(1ul, N));
  (void)Found;
}

/// Samples the daemon's active/queued counters while a traced run is on.
class PingSampler {
public:
  PingSampler(const Daemon &D, LayerCounts &L) : D(D), L(L) {
    Th = std::thread([this] { loop(); });
  }
  ~PingSampler() {
    {
      std::lock_guard<std::mutex> G(Mu);
      Stop = true;
    }
    Cv.notify_all();
    Th.join();
  }
  PingSampler(const PingSampler &) = delete;
  PingSampler &operator=(const PingSampler &) = delete;

private:
  void loop() {
    std::unique_lock<std::mutex> G(Mu);
    while (!Cv.wait_for(G, std::chrono::milliseconds(100),
                        [this] { return Stop; })) {
      ServeHealth H;
      std::string Err;
      if (remotePing(D.clientOptions(), H, Err)) {
        std::lock_guard<std::mutex> LG(L.Mu);
        L.QueuedMax = std::max(L.QueuedMax, static_cast<double>(H.Queued));
        L.ActiveMax = std::max(L.ActiveMax, static_cast<double>(H.Active));
      }
    }
  }

  const Daemon &D;
  LayerCounts &L;
  std::mutex Mu; ///< guards Stop
  std::condition_variable Cv;
  bool Stop = false;
  std::thread Th; ///< declared last: uses the members above
};

/// Everything a daemon workload needs from setup to teardown.
struct DaemonRun {
  Corpus C;
  std::vector<Input> Inputs;
  Daemon D;
  std::string Error;
};

/// Setup of replay-hits: load the corpus, draw and plan the inputs, start a
/// fresh daemon and prime its store.
bool daemonSetup(const Options &O, DaemonRun &Run, Tracer &Off) {
  return loadAll(O, Run.C, Run.Error) &&
         buildInputs(Run.C, ReplayPool, std::size(ReplayPool), Off,
                     Run.Inputs, Run.Error) &&
         Run.D.start(O.Work, O.Jobs, Run.Error) &&
         prime(Run.D, Run.Inputs, O.Jobs, Run.Error);
}

/// The verifier settings a run uses, for the provenance line.
std::string settingsOf(const VerifyOptions &V) {
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "jobs=%u timeout-ms=%u attempts=%u initial-timeout-ms=%u "
                "degrade=%d vacuity=%d vacuity-timeout-ms=%u warm=%d "
                "recycle-after=%u isolate=%d portfolio=%d mem-limit-mb=%u "
                "tactics=%d%d%d store=%d journal=%d",
                V.Jobs, V.TimeoutMs, V.Attempts, V.InitialTimeoutMs,
                V.DegradeTactics, V.CheckVacuity, V.VacuityTimeoutMs,
                V.WarmWorkers, V.RecycleAfter, V.Isolate, V.Portfolio,
                V.MemLimitMb, V.Natural.Unfold, V.Natural.Frames,
                V.Natural.Axioms, !V.StorePath.empty(), !V.JournalPath.empty());
  return Buf;
}

/// The provenance line (every setting the run used) and the setup times.
void provenance(RunResult &Out, const Options &O, const std::string &Settings,
                const std::vector<double> &Setups) {
  unsigned Maj = 0, Min = 0, Build = 0, Rev = 0;
  Z3_get_version(&Maj, &Min, &Build, &Rev);
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf),
                "provenance: workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%u z3=%u.%u.%u %s",
                O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
                O.Seconds, O.Trace ? 1 : 0, O.Jobs, Maj, Min, Build,
                Settings.c_str());
  std::string Line = "setup samples (s):";
  for (double S : Setups) {
    char T[32];
    std::snprintf(T, sizeof(T), " %.3f", S);
    Line += T;
  }
  Out.Notes.insert(Out.Notes.begin(), {Buf, Line});
}

/// What one measured phase took: wall seconds, whole passes, and mean
/// milliseconds per request (for the tracing overhead).
struct Phase {
  double WallS = 0;
  unsigned Passes = 0;
  double MeanMs = 0;
};

/// Per-request bookkeeping of the daemon loader.
void recordExchange(bool Traced, const Input &In, const std::string &Text,
                    const Exchange &X, double Ms, Tally &T, Tracer &Tr,
                    LayerCounts &L, unsigned long Id) {
  T.add(In, Ms, ReplayLimitMs, X.Answered ? &X.J : nullptr, X.Resp.Exit,
        X.Err);
  if (!Traced)
    return;
  if (!X.Answered && X.Err.rfind("refused", 0) == 0) {
    std::lock_guard<std::mutex> G(L.Mu);
    ++L.BusyReplies;
  }
  {
    Scope S(Tr, "plan.replay", -1, Id);
    L.addPlan(planModule(Text, Tr, S.id(), Id));
  }
  std::lock_guard<std::mutex> G(L.Mu);
  L.StoreHits += X.Resp.StoreHits;
  L.StoreMisses += X.Resp.StoreMisses;
  L.Served += jsonNumber(X.Resp.Json, "served", "workers");
  L.SolveS += jsonNumber(X.Resp.Json, "solve_seconds", "workers");
  L.WarmSpawns += jsonNumber(X.Resp.Json, "warm_spawns", "workers");
  L.Recycled += jsonNumber(X.Resp.Json, "total", "recycles");
}

/// Closed loop over a started daemon: Jobs clients, each sending its next
/// request when the last one is answered. \p Traced adds spans, plan
/// replays and counts.
Phase closedLoop(const Options &O, DaemonRun &Run, bool Traced, Tally &T,
                 Tracer &Tr, LayerCounts &L, uint64_t Salt) {
  PassQueue Q(Run.Inputs.size(), O.Seconds, ReplayMinPasses, O.Seed ^ Salt);
  Rng R(O.Seed ^ Salt ^ 0x9015e);
  std::mutex RMu; ///< guards R
  std::atomic<unsigned long> Ids{1};
  Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I != O.Jobs; ++I)
    Ts.emplace_back([&] {
      size_t K;
      while (Q.next(K)) {
        const Input &In = Run.Inputs[K];
        std::string Text = In.Text;
        {
          std::lock_guard<std::mutex> G(RMu);
          if (R.below(2))
            Text = commentNoise(Text, R);
        }
        unsigned long Id = Ids++;
        Clock::time_point S0 = Clock::now();
        Exchange X;
        {
          Scope S(Tr, "serve.exchange", -1, Id);
          X = exchange(Run.D, In, Text);
        }
        recordExchange(Traced, In, Text, X, msSince(S0), T, Tr, L, Id);
      }
    });
  for (std::thread &Th : Ts)
    Th.join();
  Phase P;
  P.WallS = msSince(T0) / 1000.0;
  P.Passes = Q.passes();
  P.MeanMs = P.WallS * 1000.0 / std::max(1ul, Ids.load() - 1);
  return P;
}

} // namespace

// --- corpus-cold -------------------------------------------------------------------

RunResult perfbench::runCorpusCold(const Options &O) {
  RunResult Out;
  Tracer Off(false);
  Corpus C;
  std::vector<Input> Inputs;
  std::string Err;
  bool Ok = false;
  std::vector<double> Setups;
  std::string Checks = isolatedChecks(O);
  double SetupS = 0;
  if (Checks.empty())
    SetupS = medianSetup(
        ColdSetups,
        [&] {
          return loadAll(O, C, Err) &&
                 buildInputs(C, ColdPool, std::size(ColdPool), Off, Inputs,
                             Err);
        },
        [] {}, Ok, Setups);
  VerifyOptions VO = coldVerifyOptions(O.Jobs);
  provenance(Out, O, "verify: " + settingsOf(VO), Setups);
  if (!Checks.empty() || !Ok) {
    Out.Correct = false;
    Out.Notes.push_back(Checks.empty() ? "setup failed: " + Err : Checks);
    return Out;
  }

  Tracer Tr(O.Trace);
  LayerCounts L;
  // One pass over the inputs, one routine request at a time. Each request
  // is written as a file with fresh comment noise and read back with
  // parseModuleFile, as a CI batch would.
  auto Pass = [&](bool Traced, Tally &T, uint64_t Salt) {
    Tracer &PT = Traced ? Tr : Off;
    Rng R(O.Seed ^ Salt ^ 0x9015e);
    PassQueue Q(Inputs.size(), O.Seconds, ColdMinPasses, O.Seed ^ Salt);
    Clock::time_point T0 = Clock::now();
    size_t K;
    unsigned long Id = 0;
    while (Q.next(K)) {
      const Input &In = Inputs[K];
      std::string Text = commentNoise(In.Text, R);
      std::string File = O.Work + "/request.dryad";
      writeFile(File, Text);
      ++Id;
      Clock::time_point S0 = Clock::now();
      Module M;
      DiagEngine Diags;
      std::vector<ProcResult> Results;
      PoolStats Stats;
      {
        Scope S(PT, "verifier.verify_all", -1, Id);
        if (parseModuleFile(File, M, Diags)) {
          Verifier V(M, VO);
          Results = V.verifyAll(Diags);
          Stats = V.poolStats();
        }
      }
      double Ms = msSince(S0);
      if (Results.size() != 1) {
        T.add(In, Ms, ColdLimitMs, nullptr, 3,
              "module did not parse or plan: " + Diags.str());
        continue;
      }
      bool AllVerified = true, AnyGenuine = false;
      classifyResults(Results, AllVerified, AnyGenuine);
      int Exit = AllVerified ? 0 : AnyGenuine ? 1 : 3;
      const ProcResult &PR = Results.front();
      Judged J = judge(In, PR.Verified, PR.Obligations.size(),
                       formatResults(File, Results));
      T.add(In, Ms, ColdLimitMs, &J, Exit, "");
      if (!Traced)
        continue;
      {
        Scope S(PT, "plan.replay", -1, Id);
        L.addPlan(planModule(Text, PT, S.id(), Id));
      }
      double NonProbeS = 0;
      for (const ObligationResult &OR : PR.Obligations) {
        if (OR.Name.find("[vacuity") != std::string::npos) {
          L.VacTimeouts += OR.Failure == FailureKind::Timeout;
          continue;
        }
        ++L.MainCount;
        NonProbeS += OR.Seconds;
        L.MainSolveS += OR.Seconds;
        L.MainTimeouts += OR.Failure == FailureKind::Timeout;
        L.MainAttempts += OR.Attempts;
      }
      L.VacCount += J.Probes;
      L.VacSolveS += std::max(0.0, PR.Seconds - NonProbeS);
      L.Served += Stats.Served;
      L.SolveS += Stats.SolveSeconds;
      L.WarmSpawns += Stats.WarmSpawns;
      L.Recycled += Stats.recycles();
    }
    Phase Ph;
    Ph.WallS = msSince(T0) / 1000.0;
    Ph.Passes = Q.passes();
    Ph.MeanMs = Ph.WallS * 1000.0 / std::max(1ul, Id);
    return Ph;
  };

  double Overhead = 0;
  Tally T;
  std::optional<Phase> Plain;
  if (O.Trace) {
    Tally Discarded;
    Plain = Pass(false, Discarded, 0x0b5e);
  }
  Phase P = Pass(O.Trace, T, 0x7e57);
  if (Plain)
    Overhead = P.MeanMs / std::max(1e-9, Plain->MeanMs) - 1;
  if (O.Trace)
    Tr.write(O.Work + "/spans.jsonl");

  endToEnd(Out, T, SetupS, P.WallS, P.Passes, ColdLimitMs,
           peakRssMb("self"));
  if (O.Trace) {
    Out.Metrics.clear();
    perLayer(Out, Tr, L, P.WallS, O.Jobs, Overhead);
  }
  return Out;
}

// --- replay-hits -------------------------------------------------------------------

RunResult perfbench::runReplayHits(const Options &O) {
  RunResult Out;
  Tracer Off(false);
  DaemonRun Run;
  bool Ok = false;
  std::vector<double> Setups;
  std::string Checks = isolatedChecks(O);
  double SetupS = 0;
  if (Checks.empty())
    SetupS = medianSetup(
        DaemonSetups,
        [&] { return daemonSetup(O, Run, Off); },
        [&] { Run.D.stop(); }, Ok, Setups);
  ServeDaemonOptions SO = Daemon::options("", "store", O.Jobs);
  provenance(Out, O,
             "daemon: serve-jobs=" + std::to_string(SO.ServeJobs) +
                 " serve-queue=" + std::to_string(SO.ServeQueue) +
                 " deadline-ms=" + std::to_string(SO.DeadlineMs) +
                 " per-request " + settingsOf(SO.Verify),
             Setups);
  if (!Checks.empty() || !Ok) {
    Out.Correct = false;
    Out.Notes.push_back(Checks.empty() ? "setup failed: " + Run.Error
                                       : Checks);
    return Out;
  }

  Tally T;
  LayerCounts L;
  Tracer Tr(O.Trace);
  double Overhead = 0;
  std::optional<Phase> Plain;
  if (O.Trace) {
    // The untraced baseline for the overhead ratio, then the traced phase.
    Tally Discarded;
    Plain = closedLoop(O, Run, false, Discarded, Off, L, 0x0b5e);
  }
  size_t Offset = fileSize(Run.D.storePath());
  Phase P;
  {
    std::optional<PingSampler> Sampler;
    if (O.Trace)
      Sampler.emplace(Run.D, L);
    P = closedLoop(O, Run, O.Trace, T, O.Trace ? Tr : Off, L, 0x7e57);
  }
  if (Plain)
    Overhead = P.MeanMs / std::max(1e-9, Plain->MeanMs) - 1;
  double RssMb = peakRssMb(std::to_string(Run.D.pid()));
  Run.D.stop();
  if (O.Trace) {
    solvedSince(Run.D.storePath(), Offset, L);
    timeLookups(Run.D.storePath(), O.Work + "/proofs.copy", Run.Inputs, L);
    Tr.write(O.Work + "/spans.jsonl");
  }
  endToEnd(Out, T, SetupS, P.WallS, P.Passes, ReplayLimitMs, RssMb);
  if (O.Trace) {
    Out.Metrics.clear();
    perLayer(Out, Tr, L, P.WallS, O.Jobs, Overhead);
  }
  return Out;
}
