//===- Observability.cpp - Machine-readable run artifacts -------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "explorer/Observability.h"

#include "explorer/Replay.h"

#include <cmath>

using namespace closer;

namespace {

/// A rate that is always a finite JSON number: zero or denormal-tiny
/// elapsed times (sub-microsecond runs) must not leak inf/nan into the
/// artifact — scripts/check.sh rejects non-finite numbers.
double finiteRate(uint64_t Count, double Seconds) {
  double R = Seconds > 0 ? static_cast<double>(Count) / Seconds : 0.0;
  return std::isfinite(R) ? R : 0.0;
}

} // namespace

json::Value closer::statsToJson(const SearchStats &S) {
  json::Value O = json::Value::object();
  O.add("runs", S.Runs);
  O.add("states_visited", S.StatesVisited);
  O.add("tree_transitions", S.TreeTransitions);
  O.add("transitions", S.Transitions);
  O.add("transitions_replayed", S.TransitionsReplayed);
  O.add("transitions_restored", S.TransitionsRestored);
  O.add("deadlocks", S.Deadlocks);
  O.add("terminations", S.Terminations);
  O.add("assertion_violations", S.AssertionViolations);
  O.add("divergences", S.Divergences);
  O.add("runtime_errors", S.RuntimeErrors);
  O.add("depth_limit_hits", S.DepthLimitHits);
  O.add("sleep_set_prunes", S.SleepSetPrunes);
  O.add("cache_hits", S.CacheHits);
  O.add("cache_inserts", S.CacheInserts);
  O.add("cache_saturated", S.CacheSaturated);
  O.add("reports_dropped", S.ReportsDropped);
  O.add("steals", S.Steals);
  O.add("wakeups", S.Wakeups);
  O.add("arena_bytes", S.ArenaBytes);
  O.add("pool_fresh", S.PoolFresh);
  O.add("visible_ops_covered", S.VisibleOpsCovered);
  O.add("visible_ops_total", S.VisibleOpsTotal);
  O.add("completed", S.Completed);
  O.add("interrupted", S.Interrupted);
  O.add("wall_seconds", S.WallSeconds);
  O.add("busy_s", S.BusySeconds);
  O.add("parked_s", S.ParkedSeconds);
  return O;
}

json::Value closer::optionsToJson(const SearchOptions &Opts) {
  json::Value O = json::Value::object();
  O.add("jobs", static_cast<uint64_t>(Opts.Jobs));
  O.add("max_depth", static_cast<uint64_t>(Opts.MaxDepth));
  O.add("max_runs", Opts.MaxRuns);
  O.add("max_states", Opts.MaxStates);
  O.add("checkpoint_interval", static_cast<uint64_t>(Opts.CheckpointInterval));
  O.add("persistent_sets", Opts.UsePersistentSets);
  O.add("sleep_sets", Opts.UseSleepSets);
  O.add("state_cache_bits", static_cast<uint64_t>(Opts.StateCacheBits));
  O.add("stop_on_first_error", Opts.StopOnFirstError);
  O.add("env_domain_bound", Opts.Runtime.EnvDomainBound);
  O.add("time_budget_seconds", Opts.TimeBudgetSeconds);
  return O;
}

json::Value closer::runArtifactToJson(const SearchResult &R) {
  const SearchStats &S = R.Stats;
  json::Value Root = json::Value::object();
  Root.add("schema", statsJsonSchema());
  Root.add("interrupted", S.Interrupted);
  Root.add("completed", S.Completed);
  Root.add("wall_seconds", S.WallSeconds);
  Root.add("states_per_second", finiteRate(S.StatesVisited, S.WallSeconds));
  Root.add("transitions_per_second",
           finiteRate(S.Transitions, S.WallSeconds));
  Root.add("options", optionsToJson(R.Options));
  Root.add("stats", statsToJson(S));

  json::Value Workers = json::Value::array();
  for (const SearchStats &W : R.Workers)
    Workers.push(statsToJson(W));
  Root.add("workers", std::move(Workers));

  json::Value Reports = json::Value::array();
  for (const ErrorReport &Rep : R.Reports) {
    json::Value O = json::Value::object();
    const char *Kind = "";
    switch (Rep.Kind) {
    case ErrorReport::Type::Deadlock:
      Kind = "deadlock";
      break;
    case ErrorReport::Type::AssertionViolation:
      Kind = "assertion-violation";
      break;
    case ErrorReport::Type::RuntimeError:
      Kind = "runtime-error";
      break;
    case ErrorReport::Type::Divergence:
      Kind = "divergence";
      break;
    }
    O.add("kind", Kind);
    O.add("depth", static_cast<uint64_t>(Rep.Depth));
    O.add("process", static_cast<int64_t>(Rep.Process));
    O.add("state_fingerprint", Rep.StateFp);
    O.add("replay", replayToString(Rep.Choices));
    Reports.push(std::move(O));
  }
  Root.add("reports", std::move(Reports));

  json::Value Resume = json::Value::array();
  for (const std::vector<ReplayStep> &P : R.Resume)
    Resume.push(replayToString(P));
  Root.add("resume", std::move(Resume));
  return Root;
}
