//===- bench_scaling.cpp - E4: closing-time linearity ------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The paper (§4): "The overall time complexity of the above algorithm is
// essentially linear in the size of G_j and G~_j since the transformation
// can be performed by a single traversal of both graphs." This benchmark
// sweeps program size and reports ns per (CFG node + define-use arc) — the
// ratio should stay flat. Writes BENCH_scaling.json: per size, one total
// row and one row per pipeline phase.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "cfg/CfgBuilder.h"
#include "cfg/CfgPrinter.h"
#include "dataflow/DefUse.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "support/CorpusGen.h"

#include <chrono>

using namespace closer;

namespace {

/// One end-to-end run of the closing pipeline with every phase timed
/// separately, so a superlinear term is attributable to the phase that
/// grows, not just visible in the total.
struct PhaseProfile {
  // Phase wall times, seconds, pipeline order.
  double Parse = 0, Sema = 0, Lower = 0, Alias = 0, DefUse = 0, Taint = 0,
         Close = 0, Emit = 0;
  size_t Nodes = 0;
  size_t DuArcs = 0;

  double total() const {
    return Parse + Sema + Lower + Alias + DefUse + Taint + Close + Emit;
  }
  /// The closing pipeline proper — the analyses plus the Figure 1
  /// transform. Frontend and source
  /// emission are excluded: they are shared with every other tool mode
  /// and are not what the paper's linearity claim (§4) is about.
  double closing() const { return Alias + DefUse + Taint + Close; }
  /// Per-phase minimum of two runs — the usual min-of-reps noise filter,
  /// applied phase-wise (phases are independent measurements of the same
  /// deterministic work).
  void minWith(const PhaseProfile &O) {
    Parse = std::min(Parse, O.Parse);
    Sema = std::min(Sema, O.Sema);
    Lower = std::min(Lower, O.Lower);
    Alias = std::min(Alias, O.Alias);
    DefUse = std::min(DefUse, O.DefUse);
    Taint = std::min(Taint, O.Taint);
    Close = std::min(Close, O.Close);
    Emit = std::min(Emit, O.Emit);
  }
};

PhaseProfile profileClose(const std::string &Src) {
  using Clock = std::chrono::steady_clock;
  auto Sec = [](Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double>(B - A).count();
  };
  PhaseProfile P;
  DiagnosticEngine Diags;

  auto T0 = Clock::now();
  auto AST = parseMiniC(Src, Diags);
  auto T1 = Clock::now();
  bool SemaOk = AST && checkProgram(*AST, Diags);
  auto T2 = Clock::now();
  std::unique_ptr<Module> Mod =
      SemaOk ? buildModule(*AST, Diags) : nullptr;
  auto T3 = Clock::now();
  if (!Mod) {
    std::fprintf(stderr, "bench workload failed to compile:\n%s\n",
                 Diags.str().c_str());
    std::abort();
  }
  AliasAnalysis Alias(*Mod);
  auto T4 = Clock::now();
  std::vector<std::unique_ptr<ProcDataflow>> Dataflows;
  std::vector<const ProcDataflow *> DataflowPtrs;
  for (const ProcCfg &Proc : Mod->Procs) {
    Dataflows.push_back(std::make_unique<ProcDataflow>(*Mod, Proc, Alias));
    DataflowPtrs.push_back(Dataflows.back().get());
  }
  auto T5 = Clock::now();
  EnvAnalysis Analysis(*Mod, Alias, DataflowPtrs);
  auto T6 = Clock::now();
  Module Closed = closeModule(*Mod, Analysis);
  auto T7 = Clock::now();
  std::string Out = emitModuleSource(Closed);
  auto T8 = Clock::now();

  P.Parse = Sec(T0, T1);
  P.Sema = Sec(T1, T2);
  P.Lower = Sec(T2, T3);
  P.Alias = Sec(T3, T4);
  P.DefUse = Sec(T4, T5);
  P.Taint = Sec(T5, T6);
  P.Close = Sec(T6, T7);
  P.Emit = Sec(T7, T8);
  P.Nodes = Mod->totalNodes();
  for (const ProcDataflow *DF : DataflowPtrs)
    P.DuArcs += DF->arcCount();
  return P;
}

/// Emits one total row (config \p Name) plus one row per phase (config
/// "<Name>_<phase>"). The total row also carries `close_ns_per_unit`, the
/// closing-pipeline subtotal (alias + defuse + taint + close) — the series
/// scripts/check.sh gates for linearity. Gate shape, chosen from measured
/// behaviour: per-unit cost is flat (within noise) from N=8192 up — the
/// growing term this series originally exposed (still rising at N=8192) is
/// gone — while N=512 sits below the rest of the series because a ~500-stmt
/// module fits in cache between phases. Even the parse phase, a single
/// linear text scan, costs ~1.8x more per unit at N=131072 than at N=512 on
/// the same code, so a tight small-to-large ratio would gate the memory
/// hierarchy, not the algorithm. check.sh therefore asserts (a) the top
/// step N=32768 -> N=131072 stays within 1.3x (a superlinear term cannot
/// hide: it keeps growing where cache capacity is already exhausted) and
/// (b) the whole N=512 -> N=131072 envelope stays bounded.
void emitProfile(BenchJson &Json, const std::string &Name,
                 const PhaseProfile &P) {
  size_t Units = scalingUnits(P.Nodes, P.DuArcs);
  auto PerUnit = [Units](double Seconds) {
    return Units ? Seconds * 1e9 / static_cast<double>(Units) : 0;
  };
  Json.record(Name)
      .count("nodes", P.Nodes)
      .count("du_arcs", P.DuArcs)
      .num("seconds", P.total())
      .num("ns_per_unit", PerUnit(P.total()))
      .num("close_seconds", P.closing())
      .num("close_ns_per_unit", PerUnit(P.closing()));
  const std::pair<const char *, double> Phases[] = {
      {"parse", P.Parse}, {"sema", P.Sema},   {"lower", P.Lower},
      {"alias", P.Alias}, {"defuse", P.DefUse}, {"taint", P.Taint},
      {"close", P.Close}, {"emit", P.Emit}};
  for (const auto &[Phase, Seconds] : Phases)
    Json.record(Name + "_" + Phase)
        .num("seconds", Seconds)
        .num("ns_per_unit", PerUnit(Seconds));
}

} // namespace

int main() {
  std::printf("E4: transformation cost vs program size (expect flat "
              "ns_per_unit — 'essentially linear', paper section 4)\n\n");

  // Machine-readable trajectory of the closing cost, phase by phase. The
  // single-procedure scaling series runs to ~1M generated nodes; the
  // multi-procedure corpus series stresses the interprocedural fixpoint.
  // Every size repeats and keeps the per-phase minimum (noise filter) —
  // min-of-reps at the large sizes too, because the gate below compares
  // large against small and a one-shot large sample carries scheduler
  // noise straight into the ratio.
  BenchJson Json;
  for (size_t N = 512; N <= 131072; N *= 4) {
    int Reps = N <= 8192 ? 5 : 3;
    std::string Src = scalingProgram(N);
    PhaseProfile Best = profileClose(Src);
    for (int R = 1; R < Reps; ++R)
      Best.minWith(profileClose(Src));
    emitProfile(Json, "close_N" + std::to_string(N), Best);
  }
  for (int Procs : {8, 32, 128}) {
    CorpusConfig Config;
    Config.Procs = Procs;
    Config.StmtsPerProc = 64;
    std::string Src = generateCorpusSource(Config);
    PhaseProfile Best = profileClose(Src);
    if (Procs <= 32)
      Best.minWith(profileClose(Src));
    emitProfile(Json, "corpus_P" + std::to_string(Procs), Best);
  }
  return Json.write("BENCH_scaling.json") ? 0 : 1;
}
