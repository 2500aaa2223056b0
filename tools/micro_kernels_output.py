#!/usr/bin/env python3
"""Check that micro_kernels honours google-benchmark's output flags.

Runs one cheap benchmark of the given micro_kernels binary three times:

  * with --benchmark_format=json, whose stdout must parse as one JSON
    document listing that benchmark;
  * with --benchmark_color=false, whose stdout must carry no ANSI escape;
  * with --benchmark_out=FILE --benchmark_out_format=json, which must write
    one JSON document with a host `context` object listing that benchmark
    (the record path of CI's perf-smoke job and of BENCH_cdpf.json).

Usage:
  tools/micro_kernels_output.py --bench build/bench/micro_kernels
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

_BENCHMARK = "BM_NetworkConstruction/density:5"
_FILTER = f"--benchmark_filter={_BENCHMARK}$"
_MIN_TIME = "--benchmark_min_time=0.01"


def run(bench: str, *flags: str) -> str:
    proc = subprocess.run(
        [bench, _FILTER, _MIN_TIME, *flags], capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        sys.exit(f"{bench} {' '.join(flags)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True, help="path to micro_kernels")
    args = parser.parse_args(argv)

    try:
        report = json.loads(run(args.bench, "--benchmark_format=json"))
    except json.JSONDecodeError as err:
        print(f"--benchmark_format=json stdout is not JSON: {err}")
        return 1
    names = [b.get("name") for b in report.get("benchmarks", [])]
    if _BENCHMARK not in names:
        print(f"JSON report lacks the filtered benchmark: {names}")
        return 1

    if "\x1b" in run(args.bench, "--benchmark_color=false"):
        print("--benchmark_color=false stdout contains an ANSI escape")
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "record.json"
        run(args.bench, f"--benchmark_out={out}", "--benchmark_out_format=json")
        try:
            record = json.loads(out.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"--benchmark_out did not write one JSON document: {err}")
            return 1
    if not isinstance(record.get("context"), dict):
        print("--benchmark_out record lacks a context object")
        return 1
    names = [b.get("name") for b in record.get("benchmarks", [])]
    if _BENCHMARK not in names:
        print(f"--benchmark_out record lacks the filtered benchmark: {names}")
        return 1
    print("micro_kernels_output: JSON format, colour flag and JSON record honoured")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
