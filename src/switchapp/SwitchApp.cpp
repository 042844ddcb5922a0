//===- SwitchApp.cpp - Synthetic call-processing application ----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// Message encoding on the control channel `msgs`: KIND * 100 + LINE.
//   kind 1: origination request       kind 2: call release
//   kind 9: line handler finished     (line ids are 0-based)
// Optional servers get dedicated channels; 999 is their done marker.
//
//===----------------------------------------------------------------------===//

#include "switchapp/SwitchApp.h"

using namespace closer;

namespace {

std::string itoa(long long V) { return std::to_string(V); }

} // namespace

std::string closer::generateSwitchAppSource(const SwitchAppConfig &Config) {
  const int Lines = Config.NumLines;
  const int Trunks = Config.NumTrunks;
  const int Events = Config.EventsPerLine;
  // Generous queue capacity: handlers never block on their control sends,
  // so every external-event schedule can drain.
  const int MsgCap = Lines * (Events + 1) + 1;

  std::string S;
  S += "// Synthetic call-processing application (5ESS-style case study).\n";
  S += "// lines=" + itoa(Lines) + " trunks=" + itoa(Trunks) +
       " events/line=" + itoa(Events) + "\n\n";

  S += "chan msgs[" + itoa(MsgCap) + "];\n";
  if (Config.WithRegistration)
    S += "chan regs[" + itoa(MsgCap) + "];\n";
  if (Config.WithHandoff)
    S += "chan hoffs[" + itoa(MsgCap) + "];\n";
  if (Config.WithForwarding)
    S += "chan fwd_ctl[" + itoa(MsgCap) + "];\n";
  S += "sem trunks(" + itoa(Trunks) + ");\n";
  S += "shared gauge = 0;\n";
  S += "\n";

  //===------------------------------------------------------------------===//
  // Line handler: the open boundary. External events and dialed digits
  // arrive from the environment; tones go back out. One variant per
  // subscriber class; the variant index adds class-specific (untainted)
  // accounting code so code size scales with the variant count.
  //===------------------------------------------------------------------===//
  const int Variants = Config.HandlerVariants < 1 ? 1 : Config.HandlerVariants;
  for (int V = 0; V != Variants; ++V) {
    std::string Suffix = Variants == 1 ? "" : "_v" + itoa(V);
    S += "proc line_handler" + Suffix + "(line) {\n";
    S += "  var ev;\n";
    S += "  var digits;\n";
    S += "  var k;\n";
    S += "  var usage = 0;\n";
    S += "  for (k = 0; k < " + itoa(Events) + "; k = k + 1) {\n";
    S += "    ev = env_input();\n";
    S += "    switch (ev % 4) {\n";
    S += "    case 0:\n";
    S += "      // Origination: collect digits, notify the router.\n";
    S += "      digits = env_input();\n";
    if (Config.WithForwarding)
      S += "      send(fwd_ctl, 300 + line);\n";
    S += "      send(msgs, 100 + line);\n";
    S += "      env_output(digits);\n";
    S += "    case 1:\n";
    S += "      // Subscriber hangs up.\n";
    S += "      send(msgs, 200 + line);\n";
    if (Config.WithRegistration) {
      S += "    case 2:\n";
      S += "      // Location registration (or roaming re-registration).\n";
      S += "      send(regs, line);\n";
    }
    if (Config.WithHandoff) {
      S += "    case 3:\n";
      S += "      // Radio handoff between cells.\n";
      S += "      send(hoffs, line);\n";
    }
    S += "    default:\n";
    S += "      // Idle tick: nothing observable.\n";
    S += "      env_output(0);\n";
    S += "    }\n";
    // Class-specific usage accounting (untainted, preserved by closing).
    for (int Acc = 0; Acc <= V % 4; ++Acc)
      S += "    usage = usage + " + itoa(Acc + 1) + ";\n";
    S += "    VS_assert(usage <= " + itoa((V % 4 + 1) * (V % 4 + 2) / 2 *
                                          Events) +
         ");\n";
    S += "  }\n";
    S += "  send(msgs, 900 + line);\n";
    if (Config.WithRegistration)
      S += "  send(regs, 999);\n";
    if (Config.WithHandoff)
      S += "  send(hoffs, 999);\n";
    if (Config.WithForwarding)
      S += "  send(fwd_ctl, 999);\n";
    S += "}\n\n";
  }

  //===------------------------------------------------------------------===//
  // Call router: allocates trunks to originations, releases them on
  // hangups, and checks the active-call gauge invariant.
  //===------------------------------------------------------------------===//
  S += "proc router() {\n";
  S += "  var m;\n";
  S += "  var kind;\n";
  S += "  var done = 0;\n";
  S += "  var active = 0;\n";
  S += "  while (done < " + itoa(Lines) + ") {\n";
  S += "    m = recv(msgs);\n";
  S += "    kind = m / 100;\n";
  S += "    switch (kind) {\n";
  S += "    case 1:\n";
  S += "      if (active < " + itoa(Trunks) + ") {\n";
  S += "        sem_wait(trunks);\n";
  S += "        active = active + 1;\n";
  S += "        VS_assert(active <= " + itoa(Trunks) + ");\n";
  S += "        write(gauge, active);\n";
  S += "      }\n";
  S += "    case 2:\n";
  S += "      if (active > 0) {\n";
  S += "        sem_signal(trunks);\n";
  S += "        active = active - 1;\n";
  S += "        write(gauge, active);\n";
  S += "      }\n";
  S += "      VS_assert(active >= 0);\n";
  S += "    case 9:\n";
  S += "      done = done + 1;\n";
  S += "    default:\n";
  S += "      ;\n";
  S += "    }\n";
  S += "  }\n";
  S += "  // Shutdown: release trunks still held by unreleased calls so\n";
  S += "  // the auxiliary servers cannot starve after the router exits.\n";
  S += "  while (active > 0) {\n";
  S += "    sem_signal(trunks);\n";
  S += "    active = active - 1;\n";
  S += "  }\n";
  S += "}\n\n";

  //===------------------------------------------------------------------===//
  // Registration server: per-line registration flags plus a population
  // counter with an asserted invariant.
  //===------------------------------------------------------------------===//
  if (Config.WithRegistration) {
    S += "var regd[" + itoa(Lines) + "];\n\n";
    S += "proc registration() {\n";
    S += "  var l;\n";
    S += "  var count = 0;\n";
    S += "  var done = 0;\n";
    S += "  while (done < " + itoa(Lines) + ") {\n";
    S += "    l = recv(regs);\n";
    S += "    if (l == 999) {\n";
    S += "      done = done + 1;\n";
    S += "    } else {\n";
    S += "      if (regd[l] == 1) {\n";
    S += "        regd[l] = 0;\n";
    S += "        count = count - 1;\n";
    S += "      } else {\n";
    S += "        regd[l] = 1;\n";
    S += "        count = count + 1;\n";
    S += "      }\n";
    S += "      VS_assert(count >= 0);\n";
    S += "      VS_assert(count <= " + itoa(Lines) + ");\n";
    S += "    }\n";
    S += "  }\n";
    S += "}\n\n";
  }

  //===------------------------------------------------------------------===//
  // Handoff controller: briefly double-holds a trunk while re-homing a
  // call. The seeded defect forgets the release on every other handoff.
  //===------------------------------------------------------------------===//
  if (Config.WithHandoff) {
    S += "proc handoff() {\n";
    S += "  var l;\n";
    S += "  var done = 0;\n";
    S += "  var flips = 0;\n";
    S += "  while (done < " + itoa(Lines) + ") {\n";
    S += "    l = recv(hoffs);\n";
    S += "    if (l == 999) {\n";
    S += "      done = done + 1;\n";
    S += "    } else {\n";
    S += "      sem_wait(trunks);\n";
    S += "      flips = flips + 1;\n";
    if (Config.SeedTrunkLeakBug) {
      S += "      if (flips % 2 == 0)\n";
      S += "        sem_signal(trunks);\n";
      S += "      // BUG: odd-numbered handoffs leak the trunk.\n";
    } else {
      S += "      sem_signal(trunks);\n";
    }
    S += "    }\n";
    S += "  }\n";
    S += "}\n\n";
  }

  //===------------------------------------------------------------------===//
  // Forwarding agent: consults environment data (the dialed-digit
  // analysis) to decide whether to re-route through a trunk. After
  // closing, that decision becomes a VS_toss.
  //===------------------------------------------------------------------===//
  if (Config.WithForwarding) {
    S += "proc forwarder() {\n";
    S += "  var r;\n";
    S += "  var decision;\n";
    S += "  var done = 0;\n";
    S += "  while (done < " + itoa(Lines) + ") {\n";
    S += "    r = recv(fwd_ctl);\n";
    S += "    if (r == 999) {\n";
    S += "      done = done + 1;\n";
    S += "    } else {\n";
    S += "      decision = env_input();\n";
    S += "      if (decision % 2 == 1) {\n";
    S += "        sem_wait(trunks);\n";
    S += "        sem_signal(trunks);\n";
    S += "      }\n";
    S += "    }\n";
    S += "  }\n";
    S += "}\n\n";
  }

  for (int L = 0; L < Lines; ++L) {
    std::string Suffix = Variants == 1 ? "" : "_v" + itoa(L % Variants);
    S += "process line" + itoa(L) + " = line_handler" + Suffix + "(" +
         itoa(L) + ");\n";
  }
  S += "process rtr = router();\n";
  if (Config.WithRegistration)
    S += "process regsrv = registration();\n";
  if (Config.WithHandoff)
    S += "process hoffctl = handoff();\n";
  if (Config.WithForwarding)
    S += "process fwd = forwarder();\n";
  return S;
}
