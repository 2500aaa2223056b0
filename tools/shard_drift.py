#!/usr/bin/env python3
"""Compare two cdpf-shard/1 snapshots slot by slot.

A change that is meant to move results only by rounding (a cheaper kernel,
a reordered sum) is checked by running the same sharded experiment on the
parent and on the change and comparing the two snapshots:

  paper_figures --shard=0/1 --shard-out=parent.json   # parent tree
  paper_figures --shard=0/1 --shard-out=change.json   # changed tree
  tools/shard_drift.py parent.json change.json --rtol 1e-9

Both snapshots must describe the same run: schema, experiment, config
digest, shard and slot count, the same slots and the same number of values
in each slot. The values are compared as IEEE-754 bit patterns. For each
value column (position within a slot record) the report gives how many
slots hold bit-identical values, the largest relative difference
|a - b| / max(|a|, |b|) and the slot where it occurs. NaN against NaN counts
as identical; NaN against a number counts as an infinite difference.

Exit codes: 0 every difference is within --rtol (default 0: bit-identical),
1 some difference exceeds --rtol, 2 bad usage or the snapshots describe
different runs.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import struct
import sys

SCHEMA = "cdpf-shard/1"
HEADER_KEYS = ("experiment", "config", "shard_index", "shard_count", "slot_count")


def fail(message: str) -> None:
    print("shard_drift: " + message, file=sys.stderr)
    sys.exit(2)


def decode(text: str) -> float:
    if len(text) != 18 or not text.startswith("0x"):
        fail(f"bad double encoding '{text}' (want 0x + 16 hex digits)")
    return struct.unpack("<d", struct.pack("<Q", int(text[2:], 16)))[0]


def load(path: pathlib.Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read {path}: {error}")
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        fail(f"{path}: not a {SCHEMA} snapshot")
    slots = {}
    for entry in doc.get("slots", []):
        slots[entry["slot"]] = [(value, decode(value)) for value in entry["values"]]
    doc["slots"] = slots
    return doc


def relative_difference(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path, help="reference snapshot (the parent)")
    parser.add_argument("change", type=pathlib.Path, help="snapshot to compare with it")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference allowed (default 0)")
    args = parser.parse_args(argv)
    if not args.rtol >= 0.0:
        fail("--rtol must be a non-negative number")

    base = load(args.base)
    change = load(args.change)
    for key in HEADER_KEYS:
        if base.get(key) != change.get(key):
            fail(f"the snapshots differ in {key}: {base.get(key)!r} vs {change.get(key)!r}")
    if base["slots"].keys() != change["slots"].keys():
        fail("the snapshots hold different slots")

    columns: list[dict] = []
    for slot in sorted(base["slots"]):
        a_values, b_values = base["slots"][slot], change["slots"][slot]
        if len(a_values) != len(b_values):
            fail(f"slot {slot} holds {len(a_values)} values in the base "
                 f"and {len(b_values)} in the change")
        for j, ((a_bits, a), (b_bits, b)) in enumerate(zip(a_values, b_values)):
            while len(columns) <= j:
                columns.append({"slots": 0, "identical": 0, "max": 0.0, "worst": None})
            column = columns[j]
            column["slots"] += 1
            if a_bits == b_bits:
                column["identical"] += 1
                continue
            diff = relative_difference(a, b)
            if column["worst"] is None or diff > column["max"]:
                column["max"], column["worst"] = diff, slot

    print(f"{base['experiment']}: {len(base['slots'])} slots, "
          f"{args.base} -> {args.change}")
    print(f"{'column':>6}  {'identical':>11}  {'max rel diff':>12}  worst slot")
    exceeded = []
    identical = total = 0
    for j, column in enumerate(columns):
        identical += column["identical"]
        total += column["slots"]
        worst = "-" if column["worst"] is None else str(column["worst"])
        print(f"{j:>6}  {column['identical']:>5}/{column['slots']:<5}  "
              f"{column['max']:>12.3e}  {worst}")
        if column["max"] > args.rtol:
            exceeded.append(j)
    print(f"{identical} of {total} values bit-identical")
    if exceeded:
        print(f"exceeds --rtol {args.rtol:g}: column "
              + ", ".join(str(j) for j in exceeded))
        return 1
    print(f"every difference is within --rtol {args.rtol:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
