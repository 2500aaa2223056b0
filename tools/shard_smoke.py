#!/usr/bin/env python3
"""End-to-end check of the sharded execution plane on a real bench binary.

Runs one figure/table bench three ways —

  1. unsharded with two worker threads (the reference),
  2. as N single-threaded shard processes, each writing a cdpf-shard/1
     snapshot,
  3. the bench's own in-process ``--merge=shard0,shard1,...``,

— and asserts that the merge reproduces the unsharded run *exactly*:
every CSV file the reference run wrote (``paper_figures`` writes one per
figure) must match byte for byte, and stdout must match after dropping only
the CSV confirmation lines, which name per-mode paths. Any other difference
is a determinism bug in the shard/merge plane and fails the check.

Used by the ``shard-smoke`` CI job and the ``shard_smoke`` ctest:

  tools/shard_smoke.py --bench build/bench/paper_figures
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys
import tempfile

# Lines whose content legitimately differs between a compute run and a
# merge run: the CSV confirmation line names per-mode paths (the files
# themselves are compared byte-for-byte). The wall-clock sweep footer goes
# to stderr, so stdout carries nothing else that varies between runs.
_VOLATILE = re.compile(r"^\(CSV written to ")


def run(cmd: list[str], cwd: pathlib.Path) -> str:
    proc = subprocess.run(
        cmd, cwd=cwd, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"shard_smoke: {' '.join(cmd)} exited {proc.returncode}\n"
            f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}"
        )
    return proc.stdout


def significant(stdout: str) -> str:
    return "\n".join(
        line for line in stdout.splitlines() if not _VOLATILE.match(line)
    )


def check_equal(what: str, reference, candidate) -> None:
    if reference != candidate:
        raise SystemExit(
            f"shard_smoke: {what} differs from the unsharded reference\n"
            f"--- reference ---\n{reference}\n--- candidate ---\n{candidate}"
        )
    print(f"  ok: {what} is byte-identical to the unsharded run")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True,
                        help="path to a sharding-aware bench binary")
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument(
        "--flags",
        default="--densities=5 --trials=3 --seed=7",
        help="bench flags defining the (small) experiment to replay",
    )
    args = parser.parse_args(argv)

    bench = pathlib.Path(args.bench).resolve()
    if not bench.exists():
        raise SystemExit(f"shard_smoke: no such bench binary: {bench}")
    flags = args.flags.split()

    with tempfile.TemporaryDirectory(prefix="cdpf-shard-smoke-") as tmp:
        tmpdir = pathlib.Path(tmp)
        ref_dir = tmpdir / "reference"
        merged_dir = tmpdir / "merged"
        ref_dir.mkdir()
        merged_dir.mkdir()

        print(f"reference: unsharded run of {bench.name}")
        # Different worker counts on purpose: sharding must be bitwise
        # reproducible regardless of intra-process parallelism, so this also
        # checks run_slots_ordered's threaded dispatch against its serial one.
        ref_out = run(
            [str(bench), *flags, "--workers=2", "--csv=out.csv"], ref_dir
        )
        ref_csvs = sorted(path.name for path in ref_dir.glob("*.csv"))
        if not ref_csvs:
            raise SystemExit(f"shard_smoke: {bench.name} wrote no CSV file")

        print(f"sharded: {args.shards} processes")
        snapshots = []
        for i in range(args.shards):
            snapshot = tmpdir / f"shard{i}.json"
            run(
                [str(bench), *flags, "--workers=1",
                 f"--shard={i}/{args.shards}", f"--shard-out={snapshot}"],
                tmpdir,
            )
            snapshots.append(str(snapshot))

        merged_out = run(
            [str(bench), *flags, f"--merge={','.join(snapshots)}",
             "--csv=out.csv"],
            merged_dir,
        )
        check_equal("--merge CSV file names", ref_csvs,
                    sorted(path.name for path in merged_dir.glob("*.csv")))
        for name in ref_csvs:
            check_equal(f"--merge CSV {name}", (ref_dir / name).read_bytes(),
                        (merged_dir / name).read_bytes())
        check_equal("--merge stdout", significant(ref_out),
                    significant(merged_out))

    print("shard smoke: the merge reproduces the unsharded run")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
