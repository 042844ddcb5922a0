//===- partial_env.cpp - Manual stubs plus automatic closing ----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The paper's intended methodology (§1): "a developer provides manually an
// implementation for a partial model of the environment, in order to
// capture more precisely certain areas of interest, and then applies our
// algorithm to close the remainder of the system."
//
// Here the system under test is a payment terminal. The developer cares
// about the *card reader* behavior, so they write a precise stub process
// for it (it follows the real insert/PIN/remove protocol). The *network
// gateway* side is left open — the transformation closes it.
//
//===----------------------------------------------------------------------===//

#include "closing/Pipeline.h"
#include "explorer/Search.h"

#include <cstdio>
#include <string>

using namespace closer;

int main() {
  // The system under test: reads card events, asks the bank gateway for
  // authorization (whose reply is environment data - left open).
  const char *SystemUnderTest = R"(
chan card[2];
chan outcome[4];

proc terminal() {
  var ev;
  var auth;
  var active = 0;
  ev = recv(card);
  while (ev != 'shutdown') {
    if (ev == 'insert') {
      active = 1;
      auth = env_input();     // Bank gateway reply: left to E_S.
      if (auth > 0)
        send(outcome, 'approved');
      else
        send(outcome, 'declined');
    }
    if (ev == 'remove') {
      VS_assert(active == 1); // Card can only be removed if present.
      active = 0;
    }
    ev = recv(card);
  }
}
)";

  // The developer's manual environment stub: a faithful card reader that
  // always inserts before removing. This is ordinary MiniC appended to the
  // program; the closing transformation leaves it untouched (it reads no
  // environment data).
  const char *CardReaderStub = R"(
proc card_reader() {
  var rounds;
  for (rounds = 0; rounds < 2; rounds = rounds + 1) {
    send(card, 'insert');
    send(card, 'remove');
  }
  send(card, 'shutdown');
}

process term = terminal();
process reader = card_reader();
)";

  std::string Combined = std::string(SystemUnderTest) + CardReaderStub;

  CompileResult R = compile(Combined);
  if (!R.ok()) {
    std::printf("closing failed:\n%s\n", R.Diags.str().c_str());
    return 1;
  }

  std::printf("=== partial-environment methodology ===\n");
  std::printf("manual stub:   card_reader (kept verbatim — %s)\n",
              R.Closing.ParamsRemoved == 0 ? "no parameters removed"
                                           : "unexpected!");
  std::printf("auto-closed:   bank gateway (%zu env call(s) eliminated, "
              "%zu toss(es) inserted)\n\n",
              R.Closing.EnvCallsRemoved, R.Closing.TossNodesInserted);

  SearchOptions Opts;
  Opts.MaxDepth = 40;
  SearchResult Search = explore(*R.M, Opts);
  std::printf("exploration: %s\n", Search.Stats.str().c_str());

  if (Search.Stats.AssertionViolations == 0)
    std::printf("\nthe active-card invariant holds for every gateway "
                "behavior,\ngiven the stubbed card-reader protocol.\n");
  else
    std::printf("\nfinding:\n%s", Search.Reports[0].str().c_str());

  // Contrast: with a fully most-general card reader (no stub) the
  // VS_assert(active == 1) would be violated by a remove-before-insert
  // sequence. Show that too, by opening the card channel to the env.
  const char *NoStub = R"(
chan card[2];
chan outcome[4];

proc terminal() {
  var ev;
  var auth;
  var active = 0;
  var rounds;
  for (rounds = 0; rounds < 4; rounds = rounds + 1) {
    ev = env_input();
    if (ev == 1) {
      active = 1;
      auth = env_input();
      if (auth > 0)
        send(outcome, 'approved');
      else
        send(outcome, 'declined');
    }
    if (ev == 2) {
      VS_assert(active == 1);
      active = 0;
    }
  }
}

process term = terminal();
)";
  CompileResult R2 = compile(NoStub);
  if (!R2.ok()) {
    std::printf("closing failed:\n%s\n", R2.Diags.str().c_str());
    return 1;
  }
  SearchResult Search2 = explore(*R2.M, Opts);
  std::printf("\n=== same system, fully most-general environment ===\n");
  std::printf("exploration: %s\n", Search2.Stats.str().c_str());
  std::printf("the unconstrained environment can remove a card that was "
              "never inserted —\nthe violation below is *possible* but the "
              "developer may deem it unrealistic;\nthat is exactly why the "
              "paper recommends partial manual stubs (§1, §3).\n");
  if (!Search2.Reports.empty())
    std::printf("\nfinding:\n%s", Search2.Reports[0].str().c_str());
  // The stub is what keeps the invariant: without it the violation exists.
  return Search.Stats.AssertionViolations == 0 &&
                 Search2.Stats.AssertionViolations != 0
             ? 0
             : 1;
}
