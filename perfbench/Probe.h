//===- Probe.h - Per-call costs of the explore-side layers ------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded random-walk probe over a workload's own closed module. At
/// every global state of the walk it times the public runtime and explorer
/// calls a search makes there: System::executeTransition (with the VM
/// engine installed), enabledProcessesInto, reset, snapshotLightInto,
/// restore and fingerprint; the persistent-set footprint computation
/// (frameStackInto + FootprintAnalysis::processFootprintInto +
/// currentVisibleObject for every process); and StateCache::insert of new
/// and of already-present fingerprints. Each cost is the median over the
/// walk, in nanoseconds per call.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_PERFBENCH_PROBE_H
#define CLOSER_PERFBENCH_PROBE_H

#include "cfg/Cfg.h"

#include <cstdint>
#include <memory>

namespace closer::vm {
struct CompiledModule;
} // namespace closer::vm

namespace perfbench {

struct ProbeCosts {
  double ExecuteNs = 0;
  double EnabledNs = 0;
  double ResetNs = 0;
  double SnapshotNs = 0;
  double RestoreNs = 0;
  double FingerprintNs = 0;
  /// One persistent-set footprint computation over all processes.
  double PorNs = 0;
  double CacheInsertNs = 0;
  double CacheHitNs = 0;
  uint64_t Steps = 0; ///< Global states the walk visited.
};

struct ProbeOptions {
  uint64_t Seed = 1;
  size_t MaxDepth = 60; ///< A walk restarts from s0 at this depth.
  double Seconds = 1;   ///< Sampling stops after this long.
};

ProbeCosts runProbe(const closer::Module &Mod,
                    std::shared_ptr<const closer::vm::CompiledModule> Code,
                    const ProbeOptions &Options);

} // namespace perfbench

#endif // CLOSER_PERFBENCH_PROBE_H
