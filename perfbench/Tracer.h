//===- Tracer.h - Benchmark-side spans around library calls -----*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal in-memory span recorder. Spans are opened by the benchmark
/// around its calls into a module's public functions and named after the
/// module ("lang.parse", "explorer.explore", ...); nothing inside the
/// library is instrumented. Every span belongs to one trace (one per traced
/// job) and stays in memory until the run aggregates it.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_PERFBENCH_TRACER_H
#define CLOSER_PERFBENCH_TRACER_H

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  using Clock = std::chrono::steady_clock;

  /// Closes its span when it goes out of scope.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name) : T(T), Index(T.Spans.size()) {
      T.Spans.push_back({Name, T.CurrentTrace, Clock::now(), {}});
    }
    ~Scope() { T.Spans[Index].End = Clock::now(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    size_t Index;
  };

  /// Starts a new trace; later spans belong to it. Returns its id.
  int beginTrace() { return ++CurrentTrace; }

  Scope span(const char *Name) { return Scope(*this, Name); }

  /// Total duration of the spans called \p Name in trace \p Trace.
  double seconds(int Trace, const std::string &Name) const {
    double Sum = 0;
    for (const Span &S : Spans)
      if (S.Trace == Trace && S.Name == Name)
        Sum += std::chrono::duration<double>(S.End - S.Start).count();
    return Sum;
  }

private:
  struct Span {
    std::string Name;
    int Trace = 0;
    Clock::time_point Start, End;
  };

  std::vector<Span> Spans;
  int CurrentTrace = 0;
};

} // namespace perfbench

#endif // CLOSER_PERFBENCH_TRACER_H
