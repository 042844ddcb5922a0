#!/usr/bin/env bash
# check.sh - the repo's one-stop verification gate.
#
# Runs the tier-1 line (configure, build, full ctest), then validates the
# machine-readable artifacts the tree emits:
#   * the sanitizer suites (Tsan: state cache, work pool, steal
#     equivalence, lexer atom table, name table; Asan+UBSan: pass
#     pipeline, vm, runtime, analysis cache, domain partition; all with
#     asserts on) are re-run by name (the full ctest pass above includes
#     them too; this step fails if one drops out of discovery);
#   * the benchmark's own smoke mode (`perfbench/run.py --smoke`) builds
#     perfbench/ against src/ and checks every workload's verdict;
#   * bench_experiments' rows must uphold each paper claim (E1-E3, E5-E9);
#   * bench_scaling gates closing linearity (E4);
#   * the steal_grid bench series gates sequential throughput, parallel
#     speedup (multi-core boxes only) and steady-state allocation;
#   * a missing bench binary fails these gates rather than skipping them;
#   * any BENCH_*.json benchmark outputs lying around the build tree must
#     parse as JSON arrays of flat records with a "config" field and only
#     finite numbers (a zero-elapsed run must clamp, not emit inf/nan);
#   * a smoke `closer explore --time-budget ... --stats-json` run on the
#     generated switchapp must produce a schema-tagged, well-formed
#     artifact even when the search is cut short;
#   * a cached parallel smoke run (`--state-cache --jobs 4`) must report
#     the cache counters in the stats artifact;
#   * `closer close --stats-json` runs must produce well-formed
#     closer-close-stats-v1 artifacts: per-pass timings, analysis
#     computed/reused counters (cold close computes each analysis exactly
#     once; partition -> close shows genuine reuse) and the closing stats.
#
# Usage: scripts/check.sh [build-dir]   (default: build)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

echo "== tier-1: configure + build + ctest =="
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j
(cd "$BUILD" && ctest --output-on-failure -j)

echo "== sanitizer suites =="
# Re-run the sanitizer suites by name, so a suite that silently drops out
# of discovery fails the gate instead of passing it vacuously:
#   * Tsan: the concurrent state cache; the explorer's work pool (claim
#     order, termination, stop delivery); the jobs x checkpoint x cache x
#     exec equivalence matrix; and the lexer's atom table and the AST's
#     name table (support/Symbol), which a batch close's threads share;
#   * Asan+UBSan: the pass pipeline (module replacement, in-place
#     mutation); the bytecode VM, whose checked-arithmetic handlers (div/mod
#     by zero, signed overflow) enforce "deterministic RuntimeError, never
#     UB"; the runtime's flat cell arrays and channel rings; the analysis
#     cache (stale/garbled blobs) and the domain partition (multi-param
#     erase compaction).
# Both sanitizer binaries compile src/ with asserts on.
# (no `grep -q`: with pipefail, its early exit would SIGPIPE ctest)
for filter in 'Tsan\.StateCache' \
              'Tsan\.(Scheduler|StealEquivalence)' \
              'Tsan\.LexerTest\.' \
              'Tsan\.SymbolTest\.' \
              'Asan\.PassPipeline' \
              'Asan\.Vm' \
              'Asan\.RuntimeTest\.' \
              'Asan\.RuntimeEdgeTest\.' \
              'Asan\.(AnalysisCache|BatchClose|DomainPartition)'; do
  if ! (cd "$BUILD" && ctest -N -R "$filter" | grep -E "$filter" >/dev/null); then
    echo "error: no tests match '$filter'" >&2
    exit 1
  fi
  (cd "$BUILD" && ctest --output-on-failure -R "$filter")
done

echo "== perfbench smoke =="
# perfbench/ compiles src/ on its own (Release, into $CARGO_TARGET_DIR or
# .bench_build) and calls compile(), explore() and SearchResult::Workers,
# so an src/ change that breaks the benchmark build or one of its verdict
# oracles must fail here rather than only when the benchmark runs.
python3 perfbench/run.py --smoke

echo "== artifact schema checks =="
validate_bench() {
  python3 - "$1" <<'EOF'
import json, math, sys
path = sys.argv[1]

def reject_nonfinite(tok):
    raise ValueError(f"{path}: non-finite number {tok!r} in JSON")

with open(path) as f:
    data = json.load(f, parse_constant=reject_nonfinite)
assert isinstance(data, list), f"{path}: top level must be an array"
for rec in data:
    assert isinstance(rec, dict), f"{path}: records must be objects"
    assert "config" in rec, f"{path}: record missing 'config'"
    for key, val in rec.items():
        # parse_constant catches Infinity/NaN tokens; an overflowing
        # literal like 1e999 still parses to inf, so re-check the values.
        if isinstance(val, float):
            assert math.isfinite(val), f"{path}: {key} is non-finite ({val})"
print(f"ok: {path} ({len(data)} records)")
EOF
}

found=0
while IFS= read -r bench_json; do
  found=1
  validate_bench "$bench_json"
done < <(find "$BUILD" -maxdepth 2 -name 'BENCH_*.json' | sort)
[ "$found" = 1 ] || echo "note: no BENCH_*.json artifacts in $BUILD (benches not run)"

# Runs bench binary $1 in $BUILD/bench with the remaining arguments; a
# binary that was not built fails the gate instead of skipping it.
run_bench() {
  if [ ! -x "$BUILD/bench/$1" ]; then
    echo "error: $BUILD/bench/$1 not built" >&2
    exit 1
  fi
  (cd "$BUILD/bench" && "./$@" >/dev/null)
}

echo "== paper claims gate (bench_experiments) =="
# Each claim EXPERIMENTS.md reproduces, asserted on the rows it cites.
# Every failing claim is listed before the gate exits.
run_bench bench_experiments
validate_bench "$BUILD/bench/BENCH_experiments.json"
python3 - "$BUILD/bench/BENCH_experiments.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rows = {rec["config"]: rec for rec in json.load(f)}
failed = []
def claim(ok, what):
    if not ok:
        failed.append(what)

# E1: Figure 2 closes to 8 nodes, one toss node, parameter x removed.
fig2, fig3 = rows["e1_figure2"], rows["e2_figure3"]
claim((fig2["nodes_after"], fig2["toss_nodes"], fig2["params_removed"])
      == (8, 1, 1), "E1: closed Figure 2 is not 8 nodes / 1 toss / 1 param")
# E2: close(q) == close(p) modulo the name; 2^10 complete paths.
claim(fig3["same_as_figure2"] == 1, "E2: close(q) differs from close(p)")
claim(fig2["paths"] == 1024 and fig2["completed"] == 1,
      "E2: closed Figure 2 does not have 1024 complete paths")
# E3: closed costs what naive D=2 costs; naive grows at every doubling.
naive = [rows[f"e3_naive_D{2 ** k}"]["states"] for k in range(1, 11)]
claim(rows["e3_closed"]["states"] == naive[0],
      "E3: closed states differ from naive D=2 states")
claim(all(a < b for a, b in zip(naive, naive[1:])),
      "E3: naive states do not rise at every doubling of D")
# E5: Theorem 7, on a corpus where both sides have something to catch.
c = rows["e5_corpus"]
claim(c["closed_deadlocky"] == c["naive_deadlocky"] > 0,
      "E5: closing lost a deadlock (or the corpus has none)")
claim(c["closed_violating_preserved"] == c["naive_violating_preserved"] > 0,
      "E5: closing lost a preserved-assertion violation (or there is none)")
# E6: every size closes fully; the seeded trunk leak is a deadlock.
claim(all(rows[f"e6_lines{n}"]["closed"] == 1 for n in (1, 2, 4, 8, 16, 32)),
      "E6: a switchapp size did not close")
claim(rows["e6_seeded_leak"]["deadlocks"] > 0,
      "E6: the seeded trunk leak was not found")
# E7: the reduction cuts states everywhere and keeps the deadlocks.
for w in ("pairs2", "pairs3", "pairs4", "philosophers3", "philosophers4"):
    claim(rows[f"e7_{w}_persistent_sleep"]["states"]
          < rows[f"e7_{w}_full"]["states"],
          f"E7: persistent+sleep does not cut states on {w}")
claim(all(r["deadlocks"] > 0 for k, r in rows.items()
          if k.startswith("e7_philosophers")),
      "E7: a philosophers row lost its deadlock")
# E8: coarse taint costs tosses and states; dedup shares toss nodes only.
precise, coarse = rows["e8_taint_precise"], rows["e8_taint_coarse"]
claim(coarse["toss_nodes"] > precise["toss_nodes"]
      and coarse["states"] > precise["states"],
      "E8: coarse taint is not less precise than define-use taint")
plain, dedup = rows["e8_toss_plain"], rows["e8_toss_dedup"]
claim(dedup["toss_nodes"] < plain["toss_nodes"]
      and dedup["paths"] == plain["paths"],
      "E8: dedup does not share toss nodes at the same path count")
# E9: partitioning sits between elimination and the naive environment.
claim(rows["e9_eliminated"]["states"] < rows["e9_partitioned"]["states"]
      < rows["e9_naive_D128"]["states"],
      "E9: not eliminated < partitioned < naive states")

for what in failed:
    print(f"error: {what}", file=sys.stderr)
if failed:
    sys.exit(1)
print(f"ok: paper claims hold on {len(rows)} rows "
      f"(E5 deadlocks {c['closed_deadlocky']}/{c['naive_deadlocky']}, "
      f"preserved violations "
      f"{c['closed_violating_preserved']}/{c['naive_violating_preserved']})")
EOF

echo "== closing linearity gate (bench_scaling) =="
# Gates the `close_ns_per_unit` series (alias + defuse + taint + close, ns
# per CFG-node+du-arc — the closing pipeline proper; frontend and emission
# excluded). Two assertions, sized from measured behaviour on this series
# (rationale in bench_scaling.cpp's emitProfile comment):
#   (a) top step N=32768 -> N=131072 within 1.3x: both points are past
#       cache capacity, so a superlinear term cannot hide there — the
#       original defect was still growing at this end of the range;
#   (b) whole N=512 -> N=131072 envelope bounded: the small end sits below
#       the series only because a ~500-stmt module fits in cache between
#       phases (pure parsing shows the same ~1.8x hierarchy step), so the
#       envelope bounds that constant factor without gating the machine.
run_bench bench_scaling
validate_bench "$BUILD/bench/BENCH_scaling.json"
python3 - "$BUILD/bench/BENCH_scaling.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    rows = {rec["config"]: rec for rec in json.load(f)}
def per_unit(n):
    return rows[f"close_N{n}"]["close_ns_per_unit"]
small, mid, big = per_unit(512), per_unit(32768), per_unit(131072)
step = big / mid
assert step <= 1.30, \
    f"superlinear closing: N=32768 -> N=131072 ns/unit grew {step:.2f}x (> 1.30x)"
envelope = big / small
assert envelope <= 2.25, \
    f"closing cost blow-up: N=512 -> N=131072 ns/unit grew {envelope:.2f}x (> 2.25x)"
print(f"ok: close ns/unit N512={small:.0f} N32768={mid:.0f} N131072={big:.0f} "
      f"(top step {step:.2f}x, envelope {envelope:.2f}x)")
EOF

echo "== work-stealing scheduler gate (bench_statespace --steal-only) =="
# The steal_grid series: cached grid at j=1 and j=min(nproc,4), three
# alternating j1/jN pairs. The bench binary itself enforces j1-vs-jN tree
# identity in every pair and the zero-steady-state-allocation gate
# (pool_fresh * 50 < states) on every j1 run — a nonzero exit here is one
# of those tripping. On top, gate the median throughput of each side (one
# j1 sample swings +-30% on a shared host):
#   (a) j1 must hold the cached-grid anchor (1,120,314 states/sec at PR 4)
#       within a 0.80x noise floor — the parallel machinery must not tax
#       the sequential path;
#   (b) only when the box has real parallelism (nproc > 1): jN must reach
#       0.55 x jobs x j1 — near-linear scaling, with headroom for the
#       shared fingerprint table. A single-core box runs the jN row for
#       the counter plumbing but skips the speedup assertion.
run_bench bench_statespace --steal-only
validate_bench "$BUILD/bench/BENCH_statespace_steal.json"
NPROC="$(nproc 2>/dev/null || echo 1)"
python3 - "$BUILD/bench/BENCH_statespace_steal.json" "$NPROC" <<'EOF'
import json, sys
path, nproc = sys.argv[1], int(sys.argv[2])
with open(path) as f:
    rows = {rec["config"]: rec for rec in json.load(f)}
j1 = rows["steal_grid_j1"]
jn = next(rows[k] for k in rows if k != "steal_grid_j1")
def samples(row):
    return "/".join(f"{row[f'pair{i}_states_per_sec']:.0f}" for i in (1, 2, 3))
print(f"steal_grid states/s per pair: j1 {samples(j1)}, "
      f"j{jn['jobs']} {samples(jn)}")
anchor = 1120314.0  # cached_grid_j1, PR 4 (ROADMAP perf anchors)
assert j1["median_states_per_sec"] >= 0.80 * anchor, \
    f"steal_grid j1 median throughput {j1['median_states_per_sec']:.0f} " \
    f"below 0.80x the cached-grid anchor ({anchor:.0f})"
if nproc > 1:
    jobs = jn["jobs"]
    speedup = jn["median_states_per_sec"] / j1["median_states_per_sec"]
    assert speedup >= 0.55 * jobs, \
        f"steal_grid j{jobs} median speedup {speedup:.2f}x below 0.55 x {jobs}"
    print(f"ok: steal_grid median j1={j1['median_states_per_sec']:.0f}/s "
          f"j{jobs} speedup {speedup:.2f}x "
          f"(steals={jn['steals']}, by-worker={jn['steals_by_worker']})")
else:
    print(f"ok: steal_grid median j1={j1['median_states_per_sec']:.0f}/s "
          f"(single core: speedup gate skipped; "
          f"pool_fresh={j1['pool_fresh']}, states={j1['states']})")
EOF

echo "== explore --stats-json smoke =="
CLOSER="$BUILD/tools/closer"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
"$CLOSER" gen-switchapp --lines 3 --trunks 2 > "$TMP/switchapp.mc"
# Exit 2 means the search reported errors - fine for a smoke run.
rc=0
"$CLOSER" explore "$TMP/switchapp.mc" --depth 30 --max-runs 100000000 \
  --time-budget 1 --jobs 4 --stats-json "$TMP/stats.json" \
  >/dev/null 2>&1 || rc=$?
if [ "$rc" != 0 ] && [ "$rc" != 2 ]; then
  echo "error: explore smoke run exited with $rc" >&2
  exit 1
fi
python3 - "$TMP/stats.json" <<'EOF'
import json, math, sys
path = sys.argv[1]

def reject_nonfinite(tok):
    raise ValueError(f"{path}: non-finite number {tok!r} in JSON")

with open(path) as f:
    art = json.load(f, parse_constant=reject_nonfinite)
assert art["schema"] == "closer-explore-stats-v1", art.get("schema")
for key in ("stats", "options", "workers", "reports", "resume"):
    assert key in art, f"missing '{key}'"
for key in ("wall_seconds", "states_per_second", "transitions_per_second"):
    assert math.isfinite(art[key]), f"{key} is non-finite ({art[key]})"
assert art["stats"]["states_visited"] > 0, "empty run"
if art["interrupted"]:
    assert art["resume"], "interrupted run must carry resume prefixes"
print(f"ok: {path} (interrupted={art['interrupted']}, "
      f"states={art['stats']['states_visited']})")
EOF

echo "== explore --state-cache --jobs 4 smoke =="
rc=0
"$CLOSER" explore examples/minic/bounded_buffer.mc --depth 40 \
  --max-runs 100000000 --state-cache=16 --jobs 4 \
  --stats-json "$TMP/cached.json" >/dev/null 2>&1 || rc=$?
if [ "$rc" != 0 ] && [ "$rc" != 2 ]; then
  echo "error: cached explore smoke run exited with $rc" >&2
  exit 1
fi
python3 - "$TMP/cached.json" <<'EOF'
import json, sys
path = sys.argv[1]

def reject_nonfinite(tok):
    raise ValueError(f"{path}: non-finite number {tok!r} in JSON")

with open(path) as f:
    art = json.load(f, parse_constant=reject_nonfinite)
assert art["schema"] == "closer-explore-stats-v1", art.get("schema")
stats, options = art["stats"], art["options"]
for key in ("cache_hits", "cache_inserts", "cache_saturated"):
    assert key in stats, f"stats missing '{key}'"
assert options.get("state_cache_bits") == 16, options.get("state_cache_bits")
assert options.get("jobs") == 4, options.get("jobs")
assert stats["cache_inserts"] > 0, "cache never inserted"
assert stats["cache_saturated"] == 0, "smoke run saturated a 2^16 cache"
print(f"ok: {path} (cache_inserts={stats['cache_inserts']}, "
      f"cache_hits={stats['cache_hits']})")
EOF

echo "== close --stats-json smoke (cold close) =="
"$CLOSER" close examples/minic/figure2.mc \
  --stats-json "$TMP/close.json" >/dev/null 2>&1
python3 - "$TMP/close.json" <<'EOF'
import json, sys
path = sys.argv[1]

def reject_nonfinite(tok):
    raise ValueError(f"{path}: non-finite number {tok!r} in JSON")

with open(path) as f:
    art = json.load(f, parse_constant=reject_nonfinite)
assert art["schema"] == "closer-close-stats-v1", art.get("schema")
assert art["ok"] is True
for key in ("options", "passes", "analyses", "closing", "partition", "naive"):
    assert key in art, f"missing '{key}'"
names = [p["name"] for p in art["passes"]]
assert names == ["parse", "sema", "lower", "verify", "close"], names
for p in art["passes"]:
    assert isinstance(p["wall_seconds"], (int, float)) and p["wall_seconds"] >= 0
for a in ("alias", "defuse", "envtaint"):
    rec = art["analyses"][a]
    assert "computed" in rec and "reused" in rec, a
# Cold close: each analysis computed exactly once (define-use once per
# procedure), nothing served from a warm cache beforehand.
assert art["analyses"]["alias"]["computed"] == 1, art["analyses"]
assert art["analyses"]["envtaint"]["computed"] == 1, art["analyses"]
assert art["analyses"]["defuse"]["reused"] == 0, art["analyses"]
closing = art["closing"]
for key in ("nodes_before", "nodes_after", "toss_nodes_inserted",
            "params_removed", "env_calls_removed"):
    assert key in closing, f"closing missing '{key}'"
assert closing["nodes_before"] > 0
print(f"ok: {path} (passes={names}, "
      f"defuse_computed={art['analyses']['defuse']['computed']})")
EOF

echo "== close --partition --stats-json smoke (warm cache) =="
"$CLOSER" close examples/minic/resource_manager.mc --partition \
  --verify-each --stats-json "$TMP/partition.json" >/dev/null 2>&1
python3 - "$TMP/partition.json" <<'EOF'
import json, sys
path = sys.argv[1]

def reject_nonfinite(tok):
    raise ValueError(f"{path}: non-finite number {tok!r} in JSON")

with open(path) as f:
    art = json.load(f, parse_constant=reject_nonfinite)
assert art["schema"] == "closer-close-stats-v1", art.get("schema")
assert art["ok"] is True
names = [p["name"] for p in art["passes"]]
assert names == ["parse", "sema", "lower", "verify", "partition", "close"], names
assert art["options"]["verify_each"] is True
assert art["partition"]["inputs_partitioned"] + \
       art["partition"]["params_partitioned"] > 0, art["partition"]
# partition warmed the cache; close must have reused, not recomputed.
analyses = art["analyses"]
reused = sum(analyses[a]["reused"] for a in ("alias", "defuse", "envtaint"))
assert reused > 0, analyses
assert analyses["alias"]["computed"] == 1, analyses
print(f"ok: {path} (reused={reused})")
EOF

echo "== incremental close gate (analysis cache) =="
# Cold -> warm -> one-proc edit over a persistent --analysis-cache DIR.
# The warm run must restore everything; the edited run must recompute only
# the touched procedure's def-use graph (plus the interprocedural taint
# fixpoint, which legitimately depends on every procedure) and reuse the
# rest from the cache.
"$CLOSER" gen-corpus --procs 6 --stmts 24 --seed 3 > "$TMP/corpus.mc"
"$CLOSER" gen-corpus --procs 6 --stmts 24 --seed 3 --tweak 2 \
  > "$TMP/corpus_tweaked.mc"
if cmp -s "$TMP/corpus.mc" "$TMP/corpus_tweaked.mc"; then
  echo "error: --tweak produced an identical corpus" >&2
  exit 1
fi
"$CLOSER" close "$TMP/corpus.mc" --analysis-cache "$TMP/acache" \
  --stats-json "$TMP/incr_cold.json" >/dev/null 2>&1
"$CLOSER" close "$TMP/corpus.mc" --analysis-cache "$TMP/acache" \
  --stats-json "$TMP/incr_warm.json" >/dev/null 2>&1
"$CLOSER" close "$TMP/corpus_tweaked.mc" --analysis-cache "$TMP/acache" \
  --stats-json "$TMP/incr_edit.json" >/dev/null 2>&1
python3 - "$TMP/incr_cold.json" "$TMP/incr_warm.json" "$TMP/incr_edit.json" <<'EOF'
import json, sys
cold, warm, edit = (json.load(open(p)) for p in sys.argv[1:4])
for art in (cold, warm, edit):
    assert art["schema"] == "closer-close-stats-v1", art.get("schema")
    assert art["ok"] is True
    assert "analysis_cache" in art, "cache enabled but no analysis_cache block"

# Cold: nothing to restore, everything computed, entries persisted.
assert cold["analysis_cache"]["defuse_restored"] == 0, cold["analysis_cache"]
assert cold["analysis_cache"]["entries_saved"] > 0, cold["analysis_cache"]
assert cold["analyses"]["defuse"]["computed"] == 6, cold["analyses"]

# Warm: everything served from the cache, nothing recomputed.
assert warm["analysis_cache"]["alias_restored"] == 1, warm["analysis_cache"]
assert warm["analysis_cache"]["defuse_restored"] == 6, warm["analysis_cache"]
assert warm["analysis_cache"]["taint_restored"] == 1, warm["analysis_cache"]
assert warm["analyses"]["alias"]["computed"] == 0, warm["analyses"]
assert warm["analyses"]["defuse"]["computed"] == 0, warm["analyses"]
assert warm["analyses"]["envtaint"]["computed"] == 0, warm["analyses"]

# One-proc edit: only the touched procedure's def-use graph recomputes;
# the other five restore. Taint is interprocedural, so it recomputes.
assert edit["analysis_cache"]["defuse_restored"] == 5, edit["analysis_cache"]
assert edit["analyses"]["defuse"]["computed"] == 1, edit["analyses"]
assert edit["analyses"]["defuse"]["reused"] == 5, edit["analyses"]
assert edit["analyses"]["envtaint"]["computed"] == 1, edit["analyses"]
print(f"ok: incremental close (warm restored {warm['analysis_cache']['defuse_restored']} "
      f"defuse graphs; one-proc edit recomputed "
      f"{edit['analyses']['defuse']['computed']}, reused "
      f"{edit['analyses']['defuse']['reused']})")
EOF

echo "== all checks passed =="
