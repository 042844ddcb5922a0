//===- Probe.cpp - Per-call costs of the explore-side layers --------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "Probe.h"
#include "Median.h"

#include "explorer/Footprints.h"
#include "explorer/StateCache.h"
#include "runtime/System.h"
#include "support/Random.h"
#include "vm/Vm.h"

#include <algorithm>
#include <chrono>
#include <vector>

using namespace closer;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double nsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::nano>(B - A).count();
}

/// Cost of one Clock::now() pair, subtracted from every timed sample.
double clockOverheadNs() {
  std::vector<double> Samples;
  for (int I = 0; I != 1001; ++I) {
    auto T0 = Clock::now();
    Samples.push_back(nsBetween(T0, Clock::now()));
  }
  return median(std::move(Samples));
}

/// VS_toss outcomes drawn uniformly from the walk's seeded generator.
class RandomChoices : public ChoiceProvider {
public:
  explicit RandomChoices(uint64_t Seed) : R(Seed) {}
  int64_t choose(ChoiceKind, int64_t Bound) override {
    return Bound > 0 ? R.range(0, Bound) : 0;
  }

private:
  Rng R;
};

} // namespace

ProbeCosts perfbench::runProbe(const Module &Mod,
                               std::shared_ptr<const vm::CompiledModule> Code,
                               const ProbeOptions &Options) {
  System Sys(Mod);
  vm::Vm Engine(std::move(Code));
  Sys.setEngine(&Engine);
  FootprintAnalysis Footprints(Mod);
  RandomChoices Choices(Options.Seed);
  Rng Pick(Options.Seed ^ 0x9e3779b97f4a7c15ull);

  const int N = Sys.processCount();
  std::vector<ObjSet> Fp(static_cast<size_t>(N),
                         ObjSet(Footprints.objectCount()));
  std::vector<std::pair<int, NodeId>> Frames;
  std::vector<int> Enabled;
  SystemSnapshot Snap;
  std::vector<double> Execute, EnabledNs, Reset, Snapshot, Restore,
      Fingerprint, Por;
  std::vector<uint64_t> Fps;
  const double Overhead = clockOverheadNs();

  // Calls that leave the state unchanged are timed in batches of Rep, so
  // the clock's own cost is spread thin; executeTransition and reset move
  // the walk and are timed one call at a time.
  constexpr int Rep = 8;
  auto Batch = [&](std::vector<double> &Out, auto &&Call) {
    auto T0 = Clock::now();
    for (int I = 0; I != Rep; ++I)
      Call();
    Out.push_back(std::max(0.0, nsBetween(T0, Clock::now()) - Overhead) / Rep);
  };
  auto Restart = [&] {
    auto T0 = Clock::now();
    bool Ok = Sys.reset(Choices).ok();
    Reset.push_back(std::max(0.0, nsBetween(T0, Clock::now()) - Overhead));
    return Ok;
  };

  ProbeCosts Costs;
  auto Start = Clock::now();
  bool Live = Restart();
  // The step cap keeps the fingerprint list small on fast walks.
  while (Live && Costs.Steps < 200000 &&
         nsBetween(Start, Clock::now()) < Options.Seconds * 1e9) {
    ++Costs.Steps;
    Batch(EnabledNs, [&] { Sys.enabledProcessesInto(Enabled); });
    uint64_t F = 0;
    Batch(Fingerprint, [&] { F = Sys.fingerprint(); });
    Fps.push_back(F);
    Batch(Por, [&] {
      for (int P = 0; P != N; ++P) {
        Sys.frameStackInto(P, Frames);
        Footprints.processFootprintInto(Frames, Fp[static_cast<size_t>(P)]);
        Sys.currentVisibleObject(P);
      }
    });
    Batch(Snapshot, [&] { Sys.snapshotLightInto(Snap); });
    // The snapshot is of this very state on this path, so restoring it is
    // what a checkpointed backtrack to here does.
    Batch(Restore, [&] { Sys.restore(Snap); });

    if (Enabled.empty() || Sys.depth() >= Options.MaxDepth) {
      Live = Restart();
      continue;
    }
    int P = Enabled[Pick.below(Enabled.size())];
    auto T0 = Clock::now();
    bool Ok = Sys.executeTransition(P, Choices).ok();
    Execute.push_back(std::max(0.0, nsBetween(T0, Clock::now()) - Overhead));
    if (!Ok)
      Live = Restart();
  }

  // The state cache: every distinct fingerprint of the walk is inserted
  // once (a new entry), then all of them again (hits), timed in chunks.
  std::sort(Fps.begin(), Fps.end());
  Fps.erase(std::unique(Fps.begin(), Fps.end()), Fps.end());
  StateCache Cache(23); // grid_cached's table size.
  std::vector<double> Insert, Hit;
  for (std::vector<double> *Out : {&Insert, &Hit}) {
    constexpr size_t Chunk = 256;
    for (size_t B = 0; B < Fps.size(); B += Chunk) {
      size_t E = std::min(Fps.size(), B + Chunk);
      auto T0 = Clock::now();
      for (size_t I = B; I != E; ++I)
        Cache.insert(Fps[I]);
      Out->push_back(std::max(0.0, nsBetween(T0, Clock::now()) - Overhead) /
                     static_cast<double>(E - B));
    }
  }

  Costs.ExecuteNs = median(std::move(Execute));
  Costs.EnabledNs = median(std::move(EnabledNs));
  Costs.ResetNs = median(std::move(Reset));
  Costs.SnapshotNs = median(std::move(Snapshot));
  Costs.RestoreNs = median(std::move(Restore));
  Costs.FingerprintNs = median(std::move(Fingerprint));
  Costs.PorNs = median(std::move(Por));
  Costs.CacheInsertNs = median(std::move(Insert));
  Costs.CacheHitNs = median(std::move(Hit));
  return Costs;
}
