//===- Observability.h - Machine-readable run artifacts --------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explorer's diagnostic surface, in machine-readable form. VeriSoft's
/// §6 case study was usable because the tool reported what happened during
/// search (states, transitions, reductions, errors); this module turns a
/// closer::explore() result into a JSON artifact (`closer explore
/// --stats-json FILE`) that downstream tooling — scripts/check.sh, perf
/// tracking, dashboards — can consume without scraping the human-readable
/// line:
///
///  * every SearchStats field, snake-cased, field-for-field;
///  * per-worker breakdowns (seeding pass first, then one per worker);
///  * wall clock / states-per-second and the *effective* search options
///    (after explore()'s normalization — what actually ran);
///  * error reports as (kind, depth, process, state fingerprint, replay)
///    records;
///  * for interrupted runs, the resume prefixes of the abandoned subtrees.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_EXPLORER_OBSERVABILITY_H
#define CLOSER_EXPLORER_OBSERVABILITY_H

#include "explorer/Search.h"
#include "support/Json.h"

#include <string>

namespace closer {

/// Current value of the artifact's "schema" discriminator field.
inline const char *statsJsonSchema() { return "closer-explore-stats-v1"; }

/// Every SearchStats field as an ordered JSON object (snake_case keys;
/// BusySeconds and ParkedSeconds appear as busy_s and parked_s).
json::Value statsToJson(const SearchStats &S);

/// The search options that shaped a run, for artifact self-description.
json::Value optionsToJson(const SearchOptions &Opts);

/// The full run artifact of an explore() result. Options come from
/// R.Options — the normalized set the search actually used.
json::Value runArtifactToJson(const SearchResult &R);

} // namespace closer

#endif // CLOSER_EXPLORER_OBSERVABILITY_H
