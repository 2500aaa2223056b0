#!/usr/bin/env python3
"""Summarize a cdpf trace into per-stage / per-iteration markdown tables.

Input: a trace recorded with `--trace <file>` from any bench or example —
Chrome trace format JSON (an object with a `traceEvents` array).

Output (markdown, to stdout or --out):

  * a header with the event count, the events the writer dropped (from the
    trace's `otherData.dropped`; "not recorded" when the trace has no such
    field) and the number of `trial-run` spans;
  * a per-stage table: for every span name, the event count and the total /
    mean / min / max duration in milliseconds, sorted by total time — the
    "where does the iteration go" view;
  * a per-iteration table (when the trace contains `cdpf-iteration` spans):
    one row per filter iteration with its duration and the per-phase
    breakdown (propagate / correct / likelihood / assign), attributing each
    phase span to the iteration span that contains it on the same thread;
  * instant-event counts by name, when the trace holds any (the library
    records none of its own: radio traffic is counted by the `comm-*`
    metrics counters and the `comm-bytes-total` counter track, not traced
    per message).

Requires only the Python standard library. Exits 1 when the trace dropped
any event (the summary is still written), 2 on a missing file.

Usage:
  tools/trace_summary.py trace.json [--out summary.md]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import defaultdict

# The four CDPF iteration phases, in execution order. `cdpf-ne-assign`
# replaces `cdpf-likelihood` when neighborhood estimation is on; both are
# listed and empty columns are dropped.
PHASE_NAMES = ["cdpf-propagate", "cdpf-correct", "cdpf-likelihood",
               "cdpf-ne-assign", "cdpf-assign"]
ITERATION_SPAN = "cdpf-iteration"
TRIAL_SPAN = "trial-run"


def load_trace(path: pathlib.Path) -> tuple[list[dict], int | None]:
    """Load the Chrome trace's events, with timestamps and durations
    normalized to ns (`ts_ns` / `dur_ns` keys), and the writer's dropped
    event count (None when the trace does not record one)."""
    trace = json.loads(path.read_text())
    events = trace.get("traceEvents", [])
    for e in events:
        # Chrome format carries microseconds; normalize back to ns.
        e["ts_ns"] = e.get("ts", 0.0) * 1e3
        e["dur_ns"] = e.get("dur", 0.0) * 1e3
    dropped = trace.get("otherData", {}).get("dropped")
    return events, None if dropped is None else int(dropped)


def fmt_ms(ns: float) -> str:
    return f"{ns / 1e6:.3f}"


def stage_table(events: list[dict]) -> str:
    spans = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            spans[e["name"]].append(e["dur_ns"])
    if not spans:
        return "_No spans recorded (was the binary built with " \
               "`-DCDPF_TRACING=ON`?)_\n"
    lines = ["| stage | count | total (ms) | mean (ms) | min (ms) | max (ms) |",
             "|---|---|---|---|---|---|"]
    for name, durs in sorted(spans.items(), key=lambda kv: -sum(kv[1])):
        lines.append(
            f"| `{name}` | {len(durs)} | {fmt_ms(sum(durs))} "
            f"| {fmt_ms(sum(durs) / len(durs))} | {fmt_ms(min(durs))} "
            f"| {fmt_ms(max(durs))} |")
    return "\n".join(lines) + "\n"


def iteration_table(events: list[dict]) -> str:
    iterations = sorted(
        (e for e in events
         if e.get("ph") == "X" and e["name"] == ITERATION_SPAN),
        key=lambda e: e["ts_ns"])
    if not iterations:
        return ""
    phases = [e for e in events
              if e.get("ph") == "X" and e["name"] in PHASE_NAMES]

    rows = []
    used_phases = set()
    for index, it in enumerate(iterations):
        t0, t1 = it["ts_ns"], it["ts_ns"] + it["dur_ns"]
        row = {"index": index, "total": it["dur_ns"]}
        for p in phases:
            if p.get("tid") == it.get("tid") and t0 <= p["ts_ns"] and \
                    p["ts_ns"] + p["dur_ns"] <= t1:
                row[p["name"]] = row.get(p["name"], 0.0) + p["dur_ns"]
                used_phases.add(p["name"])
        rows.append(row)

    columns = [n for n in PHASE_NAMES if n in used_phases]
    header = "| iteration | total (ms) | " + \
        " | ".join(f"`{c}` (ms)" for c in columns) + " |"
    sep = "|---" * (len(columns) + 2) + "|"
    lines = [header, sep]
    for row in rows:
        cells = [str(row["index"]), fmt_ms(row["total"])]
        cells += [fmt_ms(row.get(c, 0.0)) for c in columns]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def instant_table(events: list[dict]) -> str:
    counts = defaultdict(int)
    for e in events:
        if e.get("ph") == "i":
            counts[e["name"]] += 1
    if not counts:
        return ""
    lines = ["| event | count |", "|---|---|"]
    for name, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        lines.append(f"| `{name}` | {count} |")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", type=pathlib.Path,
                        help="Chrome trace JSON file")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write markdown here instead of stdout")
    args = parser.parse_args()

    if not args.trace.is_file():
        print(f"trace_summary: no such file: {args.trace}", file=sys.stderr)
        return 2
    events, dropped = load_trace(args.trace)
    trials = sum(1 for e in events
                 if e.get("ph") == "X" and e["name"] == TRIAL_SPAN)

    sections = [f"# Trace summary: `{args.trace.name}`\n",
                f"{len(events)} events; dropped: "
                f"{'not recorded' if dropped is None else dropped}; "
                f"`{TRIAL_SPAN}` spans: {trials}\n",
                "## Per-stage\n", stage_table(events)]
    iteration = iteration_table(events)
    if iteration:
        sections += ["## Per-iteration\n", iteration]
    instants = instant_table(events)
    if instants:
        sections += ["## Instant events\n", instants]
    output = "\n".join(sections)

    if args.out:
        args.out.write_text(output)
    else:
        try:
            print(output)
        except BrokenPipeError:  # e.g. piped into `head`
            pass
    if dropped:
        print(f"trace_summary: the trace dropped {dropped} events; its spans "
              "do not cover the whole run", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
