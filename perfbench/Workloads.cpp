//===- Workloads.cpp - Benchmark workloads, jobs and verdict oracles ------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "cfg/CfgBuilder.h"
#include "cfg/CfgPrinter.h"
#include "cfg/CfgVerifier.h"
#include "closing/ClosingTransform.h"
#include "dataflow/AliasAnalysis.h"
#include "dataflow/DefUse.h"
#include "dataflow/EnvTaint.h"
#include "explorer/Replay.h"
#include "lang/Ast.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "vm/Bytecode.h"

#include <sys/resource.h>

#include <algorithm>

using namespace closer;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Two processes looping Iters times over wait/signal on one shared
/// semaphore of capacity 2: (2·Iters+1)^2 distinct states, each reachable
/// along combinatorially many interleavings, so only a visited-state cache
/// makes the search feasible.
std::string semGridProgram(int Iters) {
  std::string S;
  std::string N = std::to_string(Iters);
  S += "sem s(2);\n";
  for (const char *P : {"a", "b"}) {
    S += "proc " + std::string(P) + "() {\n";
    S += "  var k;\n";
    S += "  for (k = 0; k < " + N + "; k = k + 1) {\n";
    S += "    sem_wait(s);\n";
    S += "    sem_signal(s);\n";
    S += "  }\n";
    S += "}\n";
  }
  S += "process pa = a();\n";
  S += "process pb = b();\n";
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Workload
//===----------------------------------------------------------------------===//

std::optional<Workload> perfbench::findWorkload(const std::string &Name,
                                                bool Smoke, size_t Nproc) {
  Workload W;
  if (Name == "close_corpus") {
    W.Kind = WorkloadKind::CloseCorpus;
    W.Name = "close_corpus";
    W.Corpus.Procs = Smoke ? 64 : 4096;
    W.Corpus.StmtsPerProc = 64;
  } else if (Name == "switchapp_bug") {
    W.Kind = WorkloadKind::SwitchAppBug;
    W.Name = "switchapp_bug";
    // The smoke size finds its deadlock after 3,875 runs instead of
    // 796,661.
    W.Switch.NumLines = Smoke ? 1 : 2;
    W.Switch.NumTrunks = 1;
    W.Switch.EventsPerLine = 2;
    W.Switch.SeedTrunkLeakBug = true;
  } else if (Name == "grid_cached") {
    W.Kind = WorkloadKind::GridCached;
    W.Name = "grid_cached";
    W.GridIters = Smoke ? 32 : 768;
    W.Jobs = std::clamp<size_t>(Nproc, 1, 4);
  } else {
    return std::nullopt;
  }
  return W;
}

std::string Workload::generate(uint64_t Seed) const {
  switch (Kind) {
  case WorkloadKind::CloseCorpus: {
    CorpusConfig C = Corpus;
    C.Seed = Seed;
    return generateCorpusSource(C);
  }
  case WorkloadKind::SwitchAppBug:
    return generateSwitchAppSource(Switch);
  case WorkloadKind::GridCached:
    return semGridProgram(GridIters);
  }
  return {};
}

PipelineOptions Workload::pipelineOptions() const {
  PipelineOptions P;
  // close_corpus runs the default pipeline; the explore workloads also
  // lower the closed module to bytecode, which explore() then reuses.
  if (explores())
    P.Passes = {"close", "lower-bytecode"};
  return P;
}

SearchOptions Workload::searchOptions() const {
  SearchOptions S;
  S.Exec = ExecMode::Vm;
  S.CheckpointInterval = 8;
  S.MaxRuns = 0;
  S.Jobs = Jobs;
  if (Kind == WorkloadKind::SwitchAppBug) {
    S.MaxDepth = 60;
    S.UsePersistentSets = true;
    S.UseSleepSets = true;
    S.StopOnFirstError = true;
  } else {
    S.MaxDepth = size_t(1) << 24;
    S.UsePersistentSets = false;
    S.UseSleepSets = false;
    S.StateCacheBits = 23;
  }
  return S;
}

std::string Workload::describe() const {
  switch (Kind) {
  case WorkloadKind::CloseCorpus:
    return "gen-corpus procs=" + std::to_string(Corpus.Procs) +
           " stmts-per-proc=" + std::to_string(Corpus.StmtsPerProc) +
           " seed=<--seed>; compile() default passes, emitModuleSource()";
  case WorkloadKind::SwitchAppBug:
    return "gen-switchapp lines=" + std::to_string(Switch.NumLines) +
           " trunks=" + std::to_string(Switch.NumTrunks) +
           " events=" + std::to_string(Switch.EventsPerLine) +
           " bug=1; compile() close,lower-bytecode; explore() jobs=1 exec=vm "
           "depth=60 checkpoint=8 por=1 sleep=1 stop-on-first-error "
           "max-runs=0";
  case WorkloadKind::GridCached:
    return "sem-grid iters=" + std::to_string(GridIters) +
           "; compile() close,lower-bytecode; explore() jobs=" +
           std::to_string(Jobs) +
           " exec=vm state-cache-bits=23 checkpoint=8 por=0 sleep=0 "
           "max-runs=0 to completion";
  }
  return {};
}

//===----------------------------------------------------------------------===//
// Jobs
//===----------------------------------------------------------------------===//

namespace {

/// Process CPU time (user + system) so far, in seconds.
double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

/// The verdict half of a job, shared by the untraced and traced forms:
/// explore() the closed module, or emit its source.
void finishJob(const Workload &W, JobResult &R, Tracer *T) {
  if (!W.explores()) {
    std::optional<Tracer::Scope> S;
    if (T)
      S.emplace(*T, "cfg.emit");
    R.Emitted = emitModuleSource(*R.Closed);
    return;
  }
  SearchOptions Opts = W.searchOptions();
  Opts.VmCode = R.Bytecode;
  double Cpu0 = processCpuSeconds();
  auto T0 = Clock::now();
  {
    std::optional<Tracer::Scope> S;
    if (T)
      S.emplace(*T, "explorer.explore");
    R.Search = explore(*R.Closed, Opts);
  }
  R.ExploreS = secondsBetween(T0, Clock::now());
  R.ExploreCpuS = processCpuSeconds() - Cpu0;
}

} // namespace

JobResult perfbench::runJob(const Workload &W, const std::string &Source) {
  JobResult R;
  auto T0 = Clock::now();
  CompileResult C = compile(Source, W.pipelineOptions());
  auto T1 = Clock::now();
  R.CloseS = secondsBetween(T0, T1);
  R.CompileOk = C.ok();
  if (!R.CompileOk) {
    R.Diagnostics = C.Diags.str();
    return R;
  }
  R.Closed = std::move(C.M);
  R.Closing = C.Closing;
  R.Bytecode = std::move(C.Bytecode);
  finishJob(W, R, nullptr);
  R.VerdictS = secondsBetween(T0, Clock::now());
  return R;
}

JobResult perfbench::runTracedJob(const Workload &W, const std::string &Source,
                                  Tracer &T, TraceCounts &Counts) {
  JobResult R;
  DiagnosticEngine Diags;
  auto Fail = [&] {
    R.Diagnostics = Diags.str();
    return false;
  };
  auto T0 = Clock::now();
  // A lambda so the AST and the analyses are released before the verdict
  // half runs, as compile() releases its pass context before returning.
  auto CloseSide = [&]() -> bool {
    std::unique_ptr<Program> AST;
    {
      auto S = T.span("lang.parse");
      AST = parseMiniC(Source, Diags);
    }
    if (!AST || Diags.hasErrors())
      return Fail();
    {
      auto S = T.span("lang.sema");
      if (!checkProgram(*AST, Diags))
        return Fail();
    }
    std::unique_ptr<Module> Open;
    {
      auto S = T.span("cfg.lower");
      Open = buildModule(*AST, Diags);
    }
    if (!Open)
      return Fail();
    {
      auto S = T.span("cfg.verify");
      if (!verifyModule(*Open, Diags))
        return Fail();
    }
    std::unique_ptr<AliasAnalysis> Alias;
    {
      auto S = T.span("dataflow.alias");
      Alias = std::make_unique<AliasAnalysis>(*Open);
    }
    std::vector<std::unique_ptr<ProcDataflow>> Dataflows;
    std::vector<const ProcDataflow *> DataflowPtrs;
    {
      auto S = T.span("dataflow.defuse");
      for (const ProcCfg &Proc : Open->Procs) {
        Dataflows.push_back(
            std::make_unique<ProcDataflow>(*Open, Proc, *Alias));
        DataflowPtrs.push_back(Dataflows.back().get());
      }
    }
    PipelineOptions P = W.pipelineOptions();
    std::unique_ptr<EnvAnalysis> Analysis;
    {
      auto S = T.span("dataflow.taint");
      Analysis = std::make_unique<EnvAnalysis>(*Open, *Alias, DataflowPtrs,
                                               P.Closing.Taint);
    }
    {
      auto S = T.span("closing.close");
      R.Closed = std::make_unique<Module>(
          closeModule(*Open, *Analysis, P.Closing, &R.Closing));
    }
    {
      auto S = T.span("cfg.verify");
      if (!verifyModule(*R.Closed, Diags))
        return Fail();
    }
    if (W.explores()) {
      auto S = T.span("vm.lower");
      R.Bytecode = vm::compileModule(*R.Closed);
    }
    Counts.Nodes = Open->totalNodes();
    Counts.DuArcs = 0;
    for (const ProcDataflow *DF : DataflowPtrs)
      Counts.DuArcs += DF->arcCount();
    return true;
  };
  R.CompileOk = CloseSide();
  auto T1 = Clock::now();
  R.CloseS = secondsBetween(T0, T1);
  if (!R.CompileOk)
    return R;
  finishJob(W, R, &T);
  R.VerdictS = secondsBetween(T0, Clock::now());
  if (W.explores()) {
    // Outside the job: an explore user never emits source, but the emit
    // phase is still one of the closing side's layers.
    auto S = T.span("cfg.emit");
    R.Emitted = emitModuleSource(*R.Closed);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Verdict oracles
//===----------------------------------------------------------------------===//

std::string perfbench::checkVerdict(const Workload &W, const JobResult &R) {
  if (!R.CompileOk || !R.Closed)
    return "compile failed: " + R.Diagnostics;
  switch (W.Kind) {
  case WorkloadKind::CloseCorpus:
    // Lemma 5's closedness criterion.
    if (!EnvAnalysis(*R.Closed).moduleIsClosed())
      return "closed module still has an environment interface";
    return {};
  case WorkloadKind::SwitchAppBug: {
    for (const ErrorReport &Rep : R.Search.Reports) {
      if (Rep.Kind != ErrorReport::Type::Deadlock)
        continue;
      ReplayResult Replay = replayChoices(*R.Closed, Rep.Choices);
      if (!Replay.Faithful || Replay.Final != GlobalStateKind::Deadlock)
        return "deadlock report does not replay to a deadlock";
      return {};
    }
    return "no deadlock reported";
  }
  case WorkloadKind::GridCached: {
    const SearchStats &S = R.Search.Stats;
    uint64_t Side = 2 * static_cast<uint64_t>(W.GridIters) + 1;
    if (!S.Completed)
      return "search did not complete";
    if (S.CacheSaturated)
      return "state cache saturated";
    if (!R.Search.Reports.empty())
      return "unexpected error reports";
    if (S.CacheInserts != Side * Side)
      return "cache inserts " + std::to_string(S.CacheInserts) +
             " != distinct states " + std::to_string(Side * Side);
    return {};
  }
  }
  return "unknown workload";
}

uint64_t perfbench::emittedDigest(const Workload &W, const JobResult &R) {
  if (W.explores())
    return 0;
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : R.Emitted)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}
