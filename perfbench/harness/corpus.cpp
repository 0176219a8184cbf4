//===--- corpus.cpp - Benchmark inputs: corpus, known answers, edits -------===//
//
// Part of the Dryad natural-proofs reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>

using namespace perfbench;

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

static std::vector<std::string> lines(const std::string &Text) {
  std::vector<std::string> Out;
  std::stringstream SS(Text);
  std::string L;
  while (std::getline(SS, L))
    Out.push_back(L);
  return Out;
}

static bool startsWith(const std::string &S, const char *P) {
  return S.rfind(P, 0) == 0;
}

static bool isIdent(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

bool perfbench::splitModule(const std::string &Rel, const std::string &Source,
                            ModuleText &Out, std::string &Err) {
  Out = ModuleText();
  Out.Rel = Rel;
  std::vector<std::string> Ls = lines(Source);
  size_t I = 0;
  while (I != Ls.size() && !startsWith(Ls[I], "proc "))
    Out.Header += Ls[I++] + "\n";
  while (I != Ls.size()) {
    ProcText P;
    std::string Sig = Ls[I].substr(5);
    P.Name = Sig.substr(0, Sig.find('('));
    while (I != Ls.size() && Ls[I] != "{")
      P.Head += Ls[I++] + "\n";
    if (I == Ls.size()) {
      Err = Rel + ": procedure " + P.Name + " has no `{` line";
      return false;
    }
    while (I != Ls.size() && Ls[I] != "}") {
      const std::string &L = Ls[I];
      size_t V = L.find_first_not_of(' ');
      if (V != std::string::npos && L.compare(V, 4, "var ") == 0) {
        std::string Rest = L.substr(V + 4);
        P.Locals.push_back(Rest.substr(0, Rest.find(':')));
      }
      P.Body += Ls[I++] + "\n";
    }
    if (I == Ls.size()) {
      Err = Rel + ": procedure " + P.Name + " has no closing `}` line";
      return false;
    }
    P.Body += Ls[I++] + "\n";
    while (I != Ls.size() && !startsWith(Ls[I], "proc "))
      P.Trailer += Ls[I++] + "\n";
    Out.Procs.push_back(std::move(P));
  }
  if (Out.Procs.empty()) {
    Err = Rel + ": no procedures";
    return false;
  }
  return true;
}

static bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool perfbench::loadCorpus(const std::string &Root,
                           std::vector<ModuleText> &Out, std::string &Err) {
  Out.clear();
  for (const char *Dir : {"fig6", "fig7", "negative"}) {
    std::string Path = Root + "/bench/suite/" + Dir;
    DIR *D = opendir(Path.c_str());
    if (!D) {
      Err = "cannot open corpus directory " + Path;
      return false;
    }
    std::vector<std::string> Names;
    while (struct dirent *E = readdir(D)) {
      std::string N = E->d_name;
      if (N.size() > 6 && N.compare(N.size() - 6, 6, ".dryad") == 0)
        Names.push_back(N.substr(0, N.size() - 6));
    }
    closedir(D);
    std::sort(Names.begin(), Names.end());
    for (const std::string &N : Names) {
      std::string Source;
      std::string Rel = std::string(Dir) + "/" + N;
      if (!readFile(Path + "/" + N + ".dryad", Source)) {
        Err = "cannot read " + Rel;
        return false;
      }
      Out.emplace_back();
      if (!splitModule(Rel, Source, Out.back(), Err))
        return false;
    }
  }
  return true;
}

bool perfbench::loadKnownAnswers(const std::string &Path,
                                 const std::vector<ModuleText> &Corpus,
                                 std::vector<Routine> &Out, std::string &Err) {
  std::string Text;
  if (!readFile(Path, Text)) {
    Err = "cannot read known-answer file " + Path;
    return false;
  }
  std::map<std::string, bool> Answers;
  for (const std::string &L : lines(Text)) {
    if (L.empty() || L[0] == '#')
      continue;
    std::stringstream SS(L);
    std::string Mod, Proc, Verdict;
    if (!(SS >> Mod >> Proc >> Verdict) ||
        (Verdict != "verified" && Verdict != "rejected")) {
      Err = "malformed known-answer line: " + L;
      return false;
    }
    std::string Id = Mod + ":" + Proc;
    if (!Answers.emplace(Id, Verdict == "verified").second) {
      Err = "duplicate known answer for " + Id;
      return false;
    }
  }
  Out.clear();
  for (size_t MI = 0; MI != Corpus.size(); ++MI)
    for (size_t PI = 0; PI != Corpus[MI].Procs.size(); ++PI) {
      Routine R;
      R.Module = MI;
      R.Proc = PI;
      R.Id = Corpus[MI].Rel + ":" + Corpus[MI].Procs[PI].Name;
      auto It = Answers.find(R.Id);
      if (It == Answers.end()) {
        Err = "no known answer for corpus routine " + R.Id;
        return false;
      }
      R.ExpectVerified = It->second;
      Answers.erase(It);
      Out.push_back(R);
    }
  if (!Answers.empty()) {
    Err = "known answer for a routine not in the corpus: " +
          Answers.begin()->first;
    return false;
  }
  return true;
}

std::string perfbench::renderRoutine(const ModuleText &M, size_t Proc) {
  std::string Out = M.Header;
  for (size_t I = 0; I != M.Procs.size(); ++I) {
    const ProcText &P = M.Procs[I];
    if (I == Proc) {
      Out += P.Head + P.Body;
    } else {
      // Contract-only declaration: the head with a trailing `;`.
      std::string Head = P.Head;
      while (!Head.empty() && (Head.back() == '\n' || Head.back() == ' '))
        Head.pop_back();
      Out += Head + ";\n";
    }
    Out += P.Trailer;
  }
  return Out;
}

std::string perfbench::commentNoise(const std::string &Text, Rng &R) {
  std::string Out;
  unsigned Tag = static_cast<unsigned>(R.below(1u << 20));
  for (const std::string &L : lines(Text)) {
    switch (R.below(8)) {
    case 0: {
      char Buf[48];
      std::snprintf(Buf, sizeof(Buf), "// review note %05x\n", Tag++);
      Out += Buf;
      break;
    }
    case 1:
      Out += "\n";
      break;
    default:
      break;
    }
    Out += L;
    if (R.below(8) == 0)
      Out += "  ";
    Out += "\n";
  }
  return Out;
}

std::string perfbench::renameLocal(const std::string &Body,
                                   const std::string &From,
                                   const std::string &To) {
  std::string Out;
  bool InComment = false;
  for (size_t I = 0; I < Body.size();) {
    if (Body[I] == '\n')
      InComment = false;
    else if (!InComment && Body.compare(I, 2, "//") == 0)
      InComment = true;
    bool Boundary = I == 0 || !isIdent(Body[I - 1]);
    size_t E = I + From.size();
    if (!InComment && Boundary && Body.compare(I, From.size(), From) == 0 &&
        (E == Body.size() || !isIdent(Body[E]))) {
      Out += To;
      I = E;
    } else {
      Out += Body[I++];
    }
  }
  return Out;
}
