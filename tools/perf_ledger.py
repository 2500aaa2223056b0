#!/usr/bin/env python3
"""Record and summarize the end-to-end perf ledger (BENCH_perfbench.json).

The ledger is append-only (EXPERIMENTS.md, "End-to-end perf ledger"). Each
entry holds interleaved runs of ``perfbench/run.py`` on a parent tree and on
the changed tree, plus a per-workload, per-metric summary.

  tools/perf_ledger.py record --parent <rev> --change "<one line>" \\
      [--pairs 10] [--seed 7] [--workdir DIR]
  tools/perf_ledger.py summary
  tools/perf_ledger.py [--ledger FILE] check [--expect FILE]
  tools/perf_ledger.py figure --parent-build DIR --change-build DIR \
      --bench <name> [--pairs 3] [-- <bench args>]

``record`` extracts the parent with ``git archive <rev>`` into the work
directory, then runs each gated workload of BENCHMARK.json ``--pairs`` times
on both trees, serially, for BENCHMARK.json's ``run_seconds``, with
``perfbench/run.py`` unchanged. Pair i runs the parent first when i is even
and the change first when i is odd. The change is the working tree this
script lives in, committed or not. The new entry is appended to the ledger
and its summary printed.

``summary`` prints the last entry's table: per workload and metric, each side's
median and interquartile range, the change's wins over the pairs, the ratio of
medians, and a verdict against BENCHMARK.json's bound for that metric:

  worse     the change's median is worse than the parent's by more than the
            bound (relative);
  gain      the change is better in at least 9 of every 10 pairs and its
            median beats the parent's by more than the parent's IQR;
  identical every pair tied;
  ok        anything else (within the bound, no resolved gain).

``check`` recomputes every entry's summary from its runs and fails if a
stored summary differs; with ``--expect`` it also compares the printed table
of the last entry with a file. It makes no benchmark run.

``figure`` times one paper artifact, the number a user waits for: the bench
binary ``<build>/bench/<name>`` of a parent build and of a change build, at
``--workers=1`` and at ``--workers=<nproc>``, in ``--pairs`` interleaved
pairs per worker count (same order rule as ``record``). It prints every
run's wall time and, per worker count, both medians and their ratio. It
fails unless every run's stdout is byte-identical: the figure must not move.
It writes nothing to the ledger.

Exit codes: 0 success, 1 a check failed (for ``figure``: stdout differed),
2 bad usage, 3 a benchmark run failed or its correctness gate failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = "cdpf-perfbench-ledger/1"
HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type", "cxx_flags", "cdpf_tracing")
GAIN_WIN_FRACTION = 0.9
REL_TOL = 1e-12


def fail(message: str, code: int) -> None:
    print("perf_ledger: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path: pathlib.Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {path}: {err}", 2)
    raise AssertionError  # unreachable


def metric_specs(benchmark: dict) -> dict[str, dict]:
    return {m["name"]: m for m in benchmark["end_to_end"]}


# ---------------------------------------------------------------------------
# Summary


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], benchmark: dict) -> dict:
    """Per workload and metric: both sides' quartiles, wins, ties, ratio."""
    specs = metric_specs(benchmark)
    summary: dict[str, dict] = {}
    workloads = sorted({r["workload"] for r in runs})
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        pairs: dict[int, dict[str, dict]] = {}
        for r in mine:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["report"]
        complete = [p for _, p in sorted(pairs.items()) if {"parent", "change"} <= p.keys()]
        table: dict[str, dict] = {}
        for name, spec in specs.items():
            parent = [p["parent"]["metrics"][name]["value"] for p in complete]
            change = [p["change"]["metrics"][name]["value"] for p in complete]
            if not parent:
                continue
            higher = spec["better"] == "higher"
            wins = sum(1 for a, b in zip(parent, change) if (b > a if higher else b < a))
            ties = sum(1 for a, b in zip(parent, change) if a == b)
            pq, cq = quartiles(parent), quartiles(change)
            table[name] = {
                "parent": pq,
                "change": cq,
                "change_wins": wins,
                "ties": ties,
                "pairs": len(complete),
                "median_ratio_change_over_parent":
                    cq["median"] / pq["median"] if pq["median"] else math.nan,
                "parent_iqr": pq["q3"] - pq["q1"],
            }
        table["_gate"] = {
            "all_correct_and_no_failures":
                all(r["report"].get("correct") is True and r["report"].get("failed") == 0
                    for r in mine),
            "runs": len(mine),
        }
        summary[workload] = table
    return summary


def verdict(row: dict, spec: dict) -> str:
    parent, change = row["parent"]["median"], row["change"]["median"]
    if row["ties"] == row["pairs"]:
        return "identical"
    higher = spec["better"] == "higher"
    worse_by = (parent - change) if higher else (change - parent)
    if parent and worse_by / abs(parent) > spec["bound"]:
        return "worse"
    better_by = -worse_by
    if (row["change_wins"] >= GAIN_WIN_FRACTION * row["pairs"]
            and better_by > row["parent_iqr"]):
        return "gain"
    return "ok"


def fmt(value: float) -> str:
    return f"{value:.4g}"


def render(entry: dict, benchmark: dict) -> str:
    specs = metric_specs(benchmark)
    lines = [f"change: {entry['change']}",
             f"parent: {entry['parent_revision']}  host: {entry['host'].get('cpu_model')}"
             f", nproc {entry['host'].get('nproc')}, {entry['host'].get('compiler')}"]
    header = (f"{'workload':<12} {'metric':<20} {'parent median [q1, q3]':<28} "
              f"{'change median [q1, q3]':<28} {'ratio':>7} {'wins':>6} {'bound':>6}  verdict")
    lines.append(header)
    for workload, table in entry["summary"].items():
        for name, row in table.items():
            if name.startswith("_"):
                continue
            spec = specs[name]
            p, c = row["parent"], row["change"]
            lines.append(
                f"{workload:<12} {name:<20} "
                f"{fmt(p['median']) + ' [' + fmt(p['q1']) + ', ' + fmt(p['q3']) + ']':<28} "
                f"{fmt(c['median']) + ' [' + fmt(c['q1']) + ', ' + fmt(c['q3']) + ']':<28} "
                f"{row['median_ratio_change_over_parent']:>7.3f} "
                f"{str(row['change_wins']) + '/' + str(row['pairs']):>6} "
                f"{spec['bound']:>6.2f}  {verdict(row, spec)}")
        gate = table["_gate"]
        lines.append(f"{workload:<12} gate: correct and failed == 0 in all "
                     f"{gate['runs']} runs: {str(gate['all_correct_and_no_failures']).lower()}")
    return "\n".join(lines) + "\n"


def same(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


# ---------------------------------------------------------------------------
# Recording


def run_perfbench(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} in {tree} exited {done.returncode}", 3)
    lines = done.stdout.strip().splitlines()
    context = next((json.loads(l[len("context "):]) for l in lines
                    if l.startswith("context ")), None)
    if context is None or not lines:
        fail(f"no context/report line from {' '.join(cmd)} in {tree}", 3)
    return {"context": context, "report": json.loads(lines[-1])}


def extract_parent(revision: str, dest: pathlib.Path) -> None:
    dest.mkdir(parents=True, exist_ok=True)
    archive = dest.parent / (dest.name + ".tar")
    with open(archive, "wb") as fh:
        done = subprocess.run(["git", "-C", str(ROOT), "archive", revision], stdout=fh,
                              check=False)
    if done.returncode != 0:
        fail(f"git archive {revision} failed", 2)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()


def record(args, benchmark: dict) -> int:
    ledger_path = pathlib.Path(args.ledger)
    ledger = load_json(ledger_path)
    if ledger.get("schema") != SCHEMA:
        fail(f"{ledger_path}: schema is not {SCHEMA}", 2)
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", args.parent],
                         stdout=subprocess.PIPE, text=True, check=False)
    if rev.returncode != 0:
        fail(f"unknown parent revision {args.parent}", 2)
    parent_rev = rev.stdout.strip()
    workdir = pathlib.Path(args.workdir).resolve()
    parent_tree = workdir / f"parent-{parent_rev}"
    if not (parent_tree / "perfbench" / "run.py").is_file():
        extract_parent(parent_rev, parent_tree)
    trees = {"parent": parent_tree, "change": ROOT}
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    runs = []
    for workload in workloads:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_perfbench(trees[side], workload, args.seed, seconds)
                runs.append({"workload": workload, "pair": pair, "side": side, **result})
                metric = result["report"]["metrics"]["trials_per_s"]["value"]
                print(f"{workload} pair {pair} {side}: trials_per_s {metric:.4g}",
                      file=sys.stderr, flush=True)
    entry = {
        "change": args.change,
        "parent_revision": parent_rev,
        "host": {k: runs[0]["context"].get(k) for k in HOST_KEYS},
        "protocol": {
            "workloads": workloads,
            "seed": args.seed,
            "seconds": seconds,
            "trace": 0,
            "pairs_per_workload": args.pairs,
            "order": "pair i runs parent first when i is even, change first when i is "
                     "odd; all runs serial",
            "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                       f"--seconds {seconds:g} --trace 0",
            "recorded_by": "tools/perf_ledger.py record",
            "revision_note": "the parent ran from a git archive and reads 'unknown'; "
                             "the change ran from the working tree and reads its HEAD. "
                             "The run's 'side' names the tree.",
        },
        "runs": runs,
    }
    entry["summary"] = summarize(runs, benchmark)
    ledger["entries"].append(entry)
    with open(ledger_path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    sys.stdout.write(render(entry, benchmark))
    return 0


# ---------------------------------------------------------------------------
# Figure wall time


def time_bench(binary: pathlib.Path, bench_args: list[str]) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run([str(binary), *bench_args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        fail(f"{binary} {' '.join(bench_args)} exited {done.returncode}", 3)
    return elapsed, done.stdout


def figure(args) -> int:
    binaries = {side: pathlib.Path(build) / "bench" / args.bench
                for side, build in (("parent", args.parent_build),
                                    ("change", args.change_build))}
    for side, binary in binaries.items():
        if not os.access(binary, os.X_OK):
            fail(f"{side} bench {binary} is not an executable", 2)
    reference = None
    identical = True
    rows = []
    for workers in sorted({1, os.cpu_count() or 1}):
        seconds = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                elapsed, stdout = time_bench(binaries[side],
                                             [f"--workers={workers}", *args.bench_args])
                seconds[side].append(elapsed)
                same_stdout = reference is None or stdout == reference
                reference = stdout if reference is None else reference
                identical = identical and same_stdout
                print(f"{args.bench} --workers={workers} pair {pair} {side}: {elapsed:.2f} s"
                      + ("" if same_stdout else "  STDOUT DIFFERS"), flush=True)
        parent = statistics.median(seconds["parent"])
        change = statistics.median(seconds["change"])
        rows.append(f"{workers:>7}  {parent:>12.2f}  {change:>12.2f}  {change / parent:>6.3f}")
    print(f"{'workers':>7}  {'parent med s':>12}  {'change med s':>12}  {'ratio':>6}")
    print("\n".join(rows))
    if not identical:
        print("perf_ledger: figure stdout differs between runs", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                        help="metric bounds and gated workloads (default: BENCHMARK.json)")
    parser.add_argument("--ledger", default=str(ROOT / "BENCH_perfbench.json"))
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the interleaved protocol and append an entry")
    rec.add_argument("--parent", required=True, help="git revision of the parent")
    rec.add_argument("--change", required=True, help="one-line description of the change")
    rec.add_argument("--pairs", type=int, default=10)
    rec.add_argument("--seed", type=int, default=7)
    rec.add_argument("--workdir", default=str(ROOT / ".bench_build" / "ledger"),
                     help="where the parent tree is extracted")
    sub.add_parser("summary", help="print the last entry's summary table")
    chk = sub.add_parser("check", help="recompute stored summaries; no benchmark runs")
    chk.add_argument("--expect", help="file holding the last entry's expected table")
    fig = sub.add_parser("figure", help="time one bench binary of two builds; no ledger")
    fig.add_argument("--parent-build", required=True, help="parent build directory")
    fig.add_argument("--change-build", required=True, help="change build directory")
    fig.add_argument("--bench", required=True, help="bench binary name, e.g. "
                     "paper_figures")
    fig.add_argument("--pairs", type=int, default=3)
    fig.add_argument("bench_args", nargs="*", help="passed to the bench after --workers "
                     "(put them after --)")
    args = parser.parse_args()
    if args.command == "figure":
        if args.pairs < 1:
            fail("--pairs must be at least 1", 2)
        return figure(args)

    benchmark = load_json(pathlib.Path(args.benchmark))
    if args.command == "record":
        if args.pairs < 1:
            fail("--pairs must be at least 1", 2)
        return record(args, benchmark)

    ledger = load_json(pathlib.Path(args.ledger))
    entries = ledger.get("entries") or []
    if ledger.get("schema") != SCHEMA or not entries:
        fail(f"{args.ledger}: not a {SCHEMA} ledger with entries", 2)
    if args.command == "summary":
        sys.stdout.write(render(entries[-1], benchmark))
        return 0

    status = 0
    for index, entry in enumerate(entries):
        if not same(summarize(entry["runs"], benchmark), entry["summary"]):
            print(f"perf_ledger: entry {index}: stored summary differs from its runs",
                  file=sys.stderr)
            status = 1
    if args.expect:
        expected = pathlib.Path(args.expect).read_text(encoding="utf-8")
        actual = render(entries[-1], benchmark)
        if actual != expected:
            print("perf_ledger: summary table differs from " + args.expect, file=sys.stderr)
            sys.stderr.write(actual)
            status = 1
    if status == 0:
        print(f"perf_ledger: {len(entries)} entries consistent")
    return status


if __name__ == "__main__":
    sys.exit(main())
