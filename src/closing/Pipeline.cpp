//===- Pipeline.cpp - One-call closing pipeline -----------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "closing/Pipeline.h"

#include "cfg/CfgBuilder.h"
#include "cfg/CfgVerifier.h"
#include "vm/Bytecode.h"

#include <chrono>

using namespace closer;

std::unique_ptr<Module> closer::compileAndVerify(const std::string &Source,
                                                 DiagnosticEngine &Diags) {
  std::unique_ptr<Module> Mod = compileMiniC(Source, Diags);
  if (!Mod)
    return nullptr;
  if (!verifyModule(*Mod, Diags))
    return nullptr;
  return Mod;
}

CompileResult closer::compile(const std::string &Source,
                              const PipelineOptions &Options) {
  PipelineOptions Effective = Options;
  Effective.Passes = Options.expandedPasses();
  CompilationContext Ctx(Source, std::move(Effective));

  for (const Diagnostic &D : Ctx.EffectiveOptions.validate()) {
    switch (D.Kind) {
    case DiagKind::Error:
      Ctx.Diags.error(D.Loc, D.Message);
      break;
    case DiagKind::Warning:
      Ctx.Diags.warning(D.Loc, D.Message);
      break;
    case DiagKind::Note:
      Ctx.Diags.note(D.Loc, D.Message);
      break;
    }
  }
  // Returning Ctx moves its CompileResult slots out and drops the rest.
  if (Ctx.Diags.hasErrors())
    return Ctx;

  PassPipeline Pipeline;
  for (const std::string &Name : Ctx.EffectiveOptions.Passes)
    Pipeline.add(createPass(Name)); // validate() vetted every name.

  auto Start = std::chrono::steady_clock::now();
  bool Ok = Pipeline.run(Ctx);
  std::chrono::duration<double> Elapsed =
      std::chrono::steady_clock::now() - Start;
  Ctx.WallSeconds = Elapsed.count();
  if (Ctx.AM)
    Ctx.Analyses = Ctx.AM->stats();
  if (!Ok)
    Ctx.M.reset();
  return Ctx;
}

json::Value closer::compileArtifactToJson(const CompileResult &R) {
  json::Value Root = json::Value::object();
  Root.add("schema", closeStatsJsonSchema());
  Root.add("ok", R.ok());
  Root.add("wall_seconds", R.WallSeconds);

  const PipelineOptions &O = R.EffectiveOptions;
  json::Value Opts = json::Value::object();
  json::Value PassList = json::Value::array();
  for (const std::string &Name : O.Passes)
    PassList.push(Name);
  Opts.add("passes", std::move(PassList));
  Opts.add("verify_each", O.VerifyEach);
  Opts.add("print_after", O.PrintAfter);
  Opts.add("coarse_taint", O.Closing.Taint.CoarseMode);
  Opts.add("max_representatives",
           static_cast<uint64_t>(O.Partition.MaxRepresentatives));
  Opts.add("naive_domain_bound", O.Naive.DomainBound);
  Root.add("options", std::move(Opts));

  json::Value Passes = json::Value::array();
  for (const PassStat &P : R.Passes) {
    json::Value Entry = json::Value::object();
    Entry.add("name", P.Name);
    Entry.add("wall_seconds", P.WallSeconds);
    Passes.push(std::move(Entry));
  }
  Root.add("passes", std::move(Passes));

  auto CounterToJson = [](const AnalysisCounter &C) {
    json::Value V = json::Value::object();
    V.add("computed", C.Computed);
    V.add("reused", C.Reused);
    return V;
  };
  json::Value Analyses = json::Value::object();
  Analyses.add("alias", CounterToJson(R.Analyses.Alias));
  Analyses.add("defuse", CounterToJson(R.Analyses.DefUse));
  Analyses.add("envtaint", CounterToJson(R.Analyses.EnvTaint));
  Root.add("analyses", std::move(Analyses));

  json::Value Closing = json::Value::object();
  Closing.add("nodes_before", static_cast<uint64_t>(R.Closing.NodesBefore));
  Closing.add("nodes_after", static_cast<uint64_t>(R.Closing.NodesAfter));
  Closing.add("toss_nodes_inserted",
              static_cast<uint64_t>(R.Closing.TossNodesInserted));
  Closing.add("toss_nodes_deduped",
              static_cast<uint64_t>(R.Closing.TossNodesDeduped));
  Closing.add("arcs_dropped", static_cast<uint64_t>(R.Closing.ArcsDropped));
  Closing.add("params_removed",
              static_cast<uint64_t>(R.Closing.ParamsRemoved));
  Closing.add("args_removed", static_cast<uint64_t>(R.Closing.ArgsRemoved));
  Closing.add("payloads_sanitized",
              static_cast<uint64_t>(R.Closing.PayloadsSanitized));
  Closing.add("env_calls_removed",
              static_cast<uint64_t>(R.Closing.EnvCallsRemoved));
  Closing.add("nodes_eliminated",
              static_cast<uint64_t>(R.Closing.NodesEliminated));
  Root.add("closing", std::move(Closing));

  json::Value Partition = json::Value::object();
  Partition.add("inputs_partitioned",
                static_cast<uint64_t>(R.Partition.InputsPartitioned));
  Partition.add("params_partitioned",
                static_cast<uint64_t>(R.Partition.ParamsPartitioned));
  Partition.add("inputs_left_open",
                static_cast<uint64_t>(R.Partition.InputsLeftOpen));
  Partition.add("representatives_total",
                static_cast<uint64_t>(R.Partition.RepresentativesTotal));
  Root.add("partition", std::move(Partition));

  json::Value Naive = json::Value::object();
  Naive.add("env_inputs_rewritten",
            static_cast<uint64_t>(R.Naive.EnvInputsRewritten));
  Naive.add("env_outputs_rewritten",
            static_cast<uint64_t>(R.Naive.EnvOutputsRewritten));
  Naive.add("wrappers_synthesized",
            static_cast<uint64_t>(R.Naive.WrappersSynthesized));
  Root.add("naive", std::move(Naive));

  if (R.Interface)
    Root.add("interface_closed", R.Interface->isClosed());

  if (R.Bytecode) {
    json::Value Bc = json::Value::object();
    Bc.add("instructions", static_cast<uint64_t>(R.Bytecode->Code.size()));
    Bc.add("max_regs", static_cast<uint64_t>(R.Bytecode->MaxRegs));
    Bc.add("procedures", static_cast<uint64_t>(R.Bytecode->Procs.size()));
    Root.add("bytecode", std::move(Bc));
  }

  return Root;
}
