//===--- corpus.h - Benchmark inputs: corpus, known answers, edits -*- C++ -*-===//
//
// Part of the Dryad natural-proofs reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's input generator. It reads the `.dryad` corpus as text,
/// splits every module into its declarations and procedures, and produces
/// the only things the verifier ever sees: generated module text. A unit of
/// work is one routine of the corpus, rendered as its whole module with
/// every other procedure reduced to its contract (a contract-only
/// declaration), so the request verifies exactly that routine against the
/// same definitions, axioms and callee contracts as the full module.
///
/// Variations:
///   - comment noise (seeded): comment lines, blank lines and trailing
///     blanks added at line boundaries — the parsed module is unchanged;
///   - alpha-renaming: one `var` local of the routine's body renamed to a
///     fresh name — the program's meaning is unchanged, its queries are not.
///
//===----------------------------------------------------------------------===//

#ifndef DRYAD_PERFBENCH_CORPUS_H
#define DRYAD_PERFBENCH_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a small, portable generator, so one seed gives one input
/// set on every standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t S;
};

struct ProcText {
  std::string Name;
  std::string Head;    ///< `proc` line through the contract
  std::string Body;    ///< `{` line through the closing `}` line
  std::string Trailer; ///< text after the body, up to the next procedure
  std::vector<std::string> Locals; ///< `var` declarations of the body
};

struct ModuleText {
  std::string Rel; ///< e.g. "fig6/sll"
  std::string Header; ///< fields, predicates, functions, axioms
  std::vector<ProcText> Procs;
};

/// Splits a module's source into declarations and procedures. The corpus
/// style is assumed: `proc` at column 0, the body's `{` and `}` alone on
/// their lines at column 0. Returns false when the text does not fit it.
bool splitModule(const std::string &Rel, const std::string &Source,
                 ModuleText &Out, std::string &Err);

/// Loads every module of the corpus under `<Root>/bench/suite/`, in
/// `fig6`, `fig7`, `negative` order.
bool loadCorpus(const std::string &Root, std::vector<ModuleText> &Out,
                std::string &Err);

/// One routine of the corpus and its hand-written expected verdict.
struct Routine {
  size_t Module = 0; ///< index into the loaded corpus
  size_t Proc = 0;   ///< index into ModuleText::Procs
  std::string Id;    ///< "fig6/sll:insert_front"
  bool ExpectVerified = true;
};

/// Reads the known-answer file (`<module> <proc> verified|rejected` per
/// line, `#` comments) and resolves it against the corpus. Every corpus
/// routine must have exactly one answer and every answer a routine.
bool loadKnownAnswers(const std::string &Path,
                      const std::vector<ModuleText> &Corpus,
                      std::vector<Routine> &Out, std::string &Err);

/// The request text for one routine: the whole module with every other
/// procedure reduced to its contract.
std::string renderRoutine(const ModuleText &M, size_t Proc);

/// Adds comment lines, blank lines and trailing blanks at line boundaries.
std::string commentNoise(const std::string &Text, Rng &R);

/// Renames the whole-word occurrences of \p From in \p Body to \p To.
std::string renameLocal(const std::string &Body, const std::string &From,
                        const std::string &To);

} // namespace perfbench

#endif // DRYAD_PERFBENCH_CORPUS_H
