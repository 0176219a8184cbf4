//===--- trace.cpp - In-memory spans for the traced benchmark run ----------===//
//
// Part of the Dryad natural-proofs reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
}

long Tracer::begin(const std::string &Name, long Parent,
                   unsigned long Request) {
  if (!Enabled)
    return -1;
  double Now = nowUs();
  std::lock_guard<std::mutex> L(Mu);
  Spans.push_back({Name, Now, Now, Parent, Request});
  return static_cast<long>(Spans.size()) - 1;
}

void Tracer::end(long Id) {
  if (Id < 0)
    return;
  double Now = nowUs();
  std::lock_guard<std::mutex> L(Mu);
  Spans[static_cast<size_t>(Id)].EndUs = Now;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(Mu);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.1f, "
                 "\"end_us\": %.1f, \"parent\": %ld, \"request\": %lu}\n",
                 I, S.Name.c_str(), S.StartUs, S.EndUs, S.Parent, S.Request);
  }
  return std::fclose(F) == 0;
}

std::map<std::string, double> Tracer::totalMs() const {
  std::lock_guard<std::mutex> L(Mu);
  std::map<std::string, double> Out;
  for (const Span &S : Spans)
    Out[S.Name] += (S.EndUs - S.StartUs) / 1000.0;
  return Out;
}

std::map<std::string, double> Tracer::selfMs() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].push_back({S.StartUs, S.EndUs});
  std::map<std::string, double> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Union of the children's intervals, clipped to the parent: children
    // of a parallel phase may overlap each other.
    std::vector<std::pair<double, double>> &C = Children[I];
    std::sort(C.begin(), C.end());
    double Covered = 0, Lo = 0, Hi = -1;
    for (auto [A, B] : C) {
      A = std::max(A, S.StartUs);
      B = std::min(B, S.EndUs);
      if (B <= A)
        continue;
      if (A > Hi) {
        Covered += std::max(0.0, Hi - Lo);
        Lo = A;
        Hi = B;
      } else {
        Hi = std::max(Hi, B);
      }
    }
    Covered += std::max(0.0, Hi - Lo);
    Out[S.Name] += (S.EndUs - S.StartUs - Covered) / 1000.0;
  }
  return Out;
}
