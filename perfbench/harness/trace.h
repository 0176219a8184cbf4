//===--- trace.h - In-memory spans for the traced benchmark run --*- C++ -*-===//
//
// Part of the Dryad natural-proofs reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded around each call the benchmark makes into a layer of the
/// verifier: name, start, end, parent span, and the request the span serves.
/// Spans live in memory and are written out once, when the run ends; self
/// time per layer is a span's duration minus the part of it its children
/// cover. With tracing off every call is a no-op.
///
//===----------------------------------------------------------------------===//

#ifndef DRYAD_PERFBENCH_TRACE_H
#define DRYAD_PERFBENCH_TRACE_H

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string Name;
  double StartUs = 0, EndUs = 0; ///< microseconds since the tracer started
  long Parent = -1;              ///< index of the enclosing span, or -1
  unsigned long Request = 0;     ///< request (or module run) id
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled), T0(Clock::now()) {}

  bool enabled() const { return Enabled; }

  /// Opens a span and returns its id (-1 when tracing is off).
  long begin(const std::string &Name, long Parent, unsigned long Request);
  void end(long Id);

  /// Writes every span as one JSON object per line.
  bool write(const std::string &Path) const;

  /// Per-layer self time in milliseconds: each span's duration minus the
  /// union of its children's intervals, summed by span name.
  std::map<std::string, double> selfMs() const;

  /// Summed duration per span name, in milliseconds.
  std::map<std::string, double> totalMs() const;

private:
  double nowUs() const;

  bool Enabled;
  Clock::time_point T0;
  mutable std::mutex Mu; ///< guards Spans
  std::vector<Span> Spans;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
public:
  Scope(Tracer &T, const std::string &Name, long Parent, unsigned long Request)
      : T(T), Id(T.begin(Name, Parent, Request)) {}
  ~Scope() { T.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  long id() const { return Id; }

private:
  Tracer &T;
  long Id;
};

} // namespace perfbench

#endif // DRYAD_PERFBENCH_TRACE_H
