//===- Workloads.h - Benchmark workloads, jobs, verdicts --------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads of the end-to-end benchmark. Each one is a job a
/// `closer close` / `closer explore` user runs, made of calls into the
/// library's public entry points with the CLI defaults spelled out:
///
///  * close_corpus:  gen-corpus source -> compile() -> emitModuleSource();
///  * switchapp_bug: the §6 stand-in with the trunk-leak bug ->
///                   compile() -> explore(), stopping at the first deadlock;
///  * grid_cached:   a two-process semaphore grid -> compile() -> explore()
///                   with a shared state cache at Jobs = min(nproc, 4).
///
/// runJob() is the untraced job the end-to-end metrics time. runTracedJob()
/// does the same work phase by phase, each phase call wrapped in a span
/// named after the module it enters, for the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_PERFBENCH_WORKLOADS_H
#define CLOSER_PERFBENCH_WORKLOADS_H

#include "Tracer.h"

#include "closing/Pipeline.h"
#include "explorer/Search.h"
#include "support/CorpusGen.h"
#include "switchapp/SwitchApp.h"

#include <memory>
#include <optional>
#include <string>

namespace perfbench {

enum class WorkloadKind { CloseCorpus, SwitchAppBug, GridCached };

/// One workload: how its inputs are generated, the options of its job and
/// the known answer its verdict is checked against.
struct Workload {
  WorkloadKind Kind = WorkloadKind::CloseCorpus;
  const char *Name = "";
  closer::CorpusConfig Corpus;    ///< close_corpus input.
  closer::SwitchAppConfig Switch; ///< switchapp_bug input.
  int GridIters = 0;              ///< grid_cached input.
  size_t Jobs = 1;                ///< explore() worker count.

  bool explores() const { return Kind != WorkloadKind::CloseCorpus; }
  /// The set-up step: the workload's source text. The seed drives the
  /// corpus generator; the other two inputs are fixed by their config.
  std::string generate(uint64_t Seed) const;
  closer::PipelineOptions pipelineOptions() const;
  closer::SearchOptions searchOptions() const;
  /// One line naming the inputs and the job's options.
  std::string describe() const;
};

/// The workload called \p Name, or nothing. \p Smoke selects the
/// reduced-size variant; \p Nproc caps grid_cached's job count.
std::optional<Workload> findWorkload(const std::string &Name, bool Smoke,
                                     size_t Nproc);

/// What one job produced, with its wall-clock timings.
struct JobResult {
  bool CompileOk = false;
  std::string Diagnostics;
  std::unique_ptr<closer::Module> Closed;
  closer::ClosingStats Closing;
  std::shared_ptr<const closer::vm::CompiledModule> Bytecode;
  closer::SearchResult Search; ///< Explore workloads only.
  std::string Emitted;         ///< close_corpus only.
  double VerdictS = 0;         ///< Source text to verdict.
  double CloseS = 0;           ///< The closing part of the job.
  double ExploreS = 0;         ///< The explore() call.
  double ExploreCpuS = 0;      ///< Process CPU time during explore().
};

/// The untraced job: compile(), then explore() or emitModuleSource().
JobResult runJob(const Workload &W, const std::string &Source);

/// Sizes the traced job measures alongside its spans.
struct TraceCounts {
  size_t Nodes = 0;  ///< CFG nodes of the open module.
  size_t DuArcs = 0; ///< Define-use arcs of the open module.
};

/// The same job as runJob(), calling each phase's public function in turn
/// inside a span: lang.parse, lang.sema, cfg.lower, cfg.verify,
/// dataflow.alias, dataflow.defuse, dataflow.taint, closing.close,
/// vm.lower, explorer.explore and cfg.emit. For the explore workloads
/// cfg.emit runs after the job's timing ends, since their job does not emit
/// source.
JobResult runTracedJob(const Workload &W, const std::string &Source,
                       Tracer &T, TraceCounts &Counts);

/// Checks a job's verdict against the workload's known answer. Empty when
/// the verdict is right, else the reason it is not.
std::string checkVerdict(const Workload &W, const JobResult &R);

/// FNV-1a digest of a close_corpus job's emitted source (0 for the other
/// workloads): every job of a run must emit the same bytes.
uint64_t emittedDigest(const Workload &W, const JobResult &R);

} // namespace perfbench

#endif // CLOSER_PERFBENCH_WORKLOADS_H
