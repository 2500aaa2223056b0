#!/usr/bin/env python3
"""Vectorization gate: the marked loops of each source file must vectorize,
and no compiled object may hold a fused multiply-add.

Compiles every SOURCE (--source, repeated) with the given compiler flags
plus -fopt-info-vec-optimized and reads GCC's report. Every line of a SOURCE
that carries the marker comment `cdpf-check: vectorized` must be reported as
a vectorized loop three times: with 64-byte vectors (the AVX-512F clone of a
target_clones function), with 32-byte vectors (its AVX2 clone) and with
16-byte vectors (its baseline x86-64 clone, SSE2). GCC reports a loop under
`#pragma omp simd` at the pragma's line, so such a loop carries the marker
there. Each SOURCE must mark at least one loop.

Each object is then disassembled with objdump, and any vfmadd*, vfmsub*,
vfnmadd* or vfnmsub* instruction fails the gate. A fused multiply-add rounds
once where the scalar source rounds twice, so a clone that contracts one
changes results bit for bit; the source files are compiled with
-ffp-contract=off so that no clone does, even where its target has FMA.

    tools/check_vectorized.py --compiler g++ --source src/core/batch_kernels.cpp \\
        --source src/geom/grid_index.cpp \\
        -- -std=c++20 -Isrc -O2 -g -DNDEBUG -ffp-contract=off \\
           -fno-trapping-math -fvect-cost-model=dynamic -fno-math-errno -fopenmp-simd

The report format is GCC's, so with any other compiler the gate prints
why it skipped and exits 0, as the other lint gates do when their tool is
missing. Exit status: 0 when every marked loop vectorized in every clone and
the object holds no FMA (or skipped), 1 when either fails, 2 on bad
arguments, a failed compile or no objdump.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

MARKER = "cdpf-check: vectorized"
REPORT_RE = re.compile(r":(\d+):\d+: optimized: loop vectorized using (\d+) byte vectors")
REQUIRED_WIDTHS = (64, 32, 16)
# Fused multiply-add mnemonics of every x86 FMA extension (FMA3, FMA4,
# AVX-512), packed and scalar, including the add/sub-alternating forms.
FMA_RE = re.compile(r"\bvfn?m(?:add|sub)\w*")


def is_gcc(compiler: str) -> bool:
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                             check=False).stdout
    except OSError:
        return False
    return "Free Software Foundation" in out and "clang" not in out.lower()


def check_source(compiler: str, objdump: str, source: pathlib.Path,
                 marked: list[int], flags: list[str]) -> int:
    """Compile one source and check its marked loops and its object: 0 when
    they pass, 1 when they fail, 2 on a failed compile or disassembly."""
    with tempfile.TemporaryDirectory() as tmp:
        obj = os.path.join(tmp, "kernel.o")
        cmd = [compiler, *flags, "-fopt-info-vec-optimized", "-c", str(source), "-o", obj]
        run = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if run.returncode != 0:
            print(" ".join(cmd), file=sys.stderr)
            print(run.stderr, file=sys.stderr)
            return 2
        disassembly = subprocess.run([objdump, "-d", "--no-show-raw-insn", obj],
                                     capture_output=True, text=True, check=False)
    if disassembly.returncode != 0:
        print(disassembly.stderr, file=sys.stderr)
        return 2

    widths: dict[int, set[int]] = {}
    name = source.name
    for line in run.stderr.splitlines():
        if name not in line:
            continue
        m = REPORT_RE.search(line)
        if m:
            widths.setdefault(int(m.group(1)), set()).add(int(m.group(2)))

    failed = False
    for line_no in marked:
        missing = [w for w in REQUIRED_WIDTHS if w not in widths.get(line_no, set())]
        if missing:
            failed = True
            print(f"{source}:{line_no}: loop not vectorized with "
                  f"{', '.join(f'{w}-byte' for w in missing)} vectors")
    if failed:
        print(run.stderr, file=sys.stderr)
    fused = [line.strip() for line in disassembly.stdout.splitlines()
             if FMA_RE.search(line)]
    if fused:
        failed = True
        print(f"{source}: object holds {len(fused)} fused multiply-add "
              f"instruction(s), e.g. {fused[0]!r}; compile it with -ffp-contract=off")
    if failed:
        return 1
    print(f"check_vectorized: {len(marked)} marked loop(s) of {name} vectorized "
          f"with {', '.join(f'{w}-byte' for w in REQUIRED_WIDTHS)} vectors; "
          "no fused multiply-add in the object")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compiler", required=True)
    parser.add_argument("--source", required=True, type=pathlib.Path, action="append",
                        help="a kernel source file; repeat for several")
    parser.add_argument("flags", nargs="*", help="compiler flags (after --)")
    args = parser.parse_args()

    marked: dict[pathlib.Path, list[int]] = {}
    for source in args.source:
        if not source.is_file():
            print(f"check_vectorized: no such source: {source}", file=sys.stderr)
            return 2
        marked[source] = [i + 1 for i, line in enumerate(source.read_text().splitlines())
                          if MARKER in line]
        if not marked[source]:
            print(f"check_vectorized: {source} marks no loop ({MARKER!r})", file=sys.stderr)
            return 2
    if not is_gcc(args.compiler):
        print(f"check_vectorized: skipped, {args.compiler} is not GCC")
        return 0

    objdump = shutil.which("objdump")
    if objdump is None:
        print("check_vectorized: no objdump on PATH to disassemble the object",
              file=sys.stderr)
        return 2

    status = 0
    for source, lines in marked.items():
        status = max(status, check_source(args.compiler, objdump, source, lines, args.flags))
    return status


if __name__ == "__main__":
    sys.exit(main())
