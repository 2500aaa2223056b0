#!/usr/bin/env python3
"""Find library functions that only tests reach.

    python3 tools/dead_symbols.py [--build-dir DIR] [--jobs N]

Builds the tree (tests, benches and examples, with CDPF_TRACING=ON) and the
perfbench program (out of tree, from perfbench/) into DIR with
`-O1 -g1 -fno-inline -ffunction-sections -fdata-sections`, linked with
`--gc-sections`. With inlining off every function a binary calls stays an
out-of-line symbol, and the linker drops every function nothing calls.

A *product* is a bench, an example or perfbench. micro_kernels is a bench
but not a product: it times kernels the products run, so a function that
only micro_kernels reaches is as dead as one that only tests reach.
A *candidate* is a `cdpf::` function that the src/ libraries define, or that
a test binary or micro_kernels holds and whose code comes from a src/ header.
The check fails on every candidate that no product holds and no entry of
the allow-list (tools/dead_symbols_allow.txt) matches, and on every
allow-list entry that matches none of them, so the list only shrinks.
Instances of one template count as one function: a template a product
instantiates is live whatever types or lambdas the tests hand it.

The trace macros only add calls, so the CDPF_TRACING=ON products reach a
superset of what the default build reaches. Code used only in constant
expressions leaves no symbol: grep before deleting what this reports.

Allow-list lines are `<pattern> # <reason>`; a pattern is a demangled
signature in which `*` matches any run of characters. Every entry needs a
reason.

    python3 tools/dead_symbols.py --lists DIR [--allow FILE]

skips the builds and reads the two symbol lists a build writes,
DIR/candidates.txt and DIR/products.txt (one demangled signature a line).
A build also leaves its compiler output in DIR/build.log.

Exit codes: 0 clean, 1 findings, 2 bad usage or a failed build.
"""
import argparse
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_ALLOW = ROOT / "tools" / "dead_symbols_allow.txt"
DEFAULT_BUILD = ROOT / "build-dead-symbols"

CXX_FLAGS = "-O1 -g1 -fno-inline -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"
# Mangled prefixes of functions in namespace cdpf, const members and the
# local entities (lambdas) of cdpf functions included; std:: templates
# instantiated on cdpf types start with _ZNSt and stay out.
CDPF_PREFIXES = ("_ZN4cdpf", "_ZNK4cdpf", "_ZZN4cdpf", "_ZZNK4cdpf")
TEXT_TYPES = set("TtWwi")
NOT_A_PRODUCT = {"micro_kernels"}
CLONE_SUFFIX = re.compile(r"( \[clone [^\]]*\])+$")
OPERATOR = re.compile(r"operator(<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>|\(\)|\[\])")
ANONYMOUS = "(anonymous namespace)"
TRAILING_QUALIFIERS = (" const", " volatile", " &", " &&", " noexcept")


def fail(message):
    print("dead_symbols: " + message, file=sys.stderr)
    sys.exit(2)


def run(cmd, log):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    log.write(done.stdout)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-8000:])
        fail("command failed: " + " ".join(str(c) for c in cmd))


def configure_and_build(source, build, jobs, log, target=None):
    run(["cmake", "-S", source, "-B", build,
         "-DCMAKE_BUILD_TYPE=DeadSymbols",  # no per-type flags: ours alone
         "-DCMAKE_CXX_FLAGS=" + CXX_FLAGS,
         "-DCMAKE_EXE_LINKER_FLAGS=" + LINK_FLAGS,
         "-DCDPF_TRACING=ON"], log)
    cmd = ["cmake", "--build", build, "-j", str(jobs)]
    if target:
        cmd += ["--target", target]
    run(cmd, log)


def executables(directory):
    return sorted(p for p in directory.iterdir()
                  if p.is_file() and os.access(p, os.X_OK))


def cdpf_symbols(paths, with_lines):
    """Mangled cdpf:: text symbols defined in `paths` -> source file or ''."""
    if not paths:
        return {}
    cmd = ["nm", "--defined-only"] + (["-l"] if with_lines else []) + \
          [str(p) for p in paths]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout
    symbols = {}
    for line in out.splitlines():
        fields = line.split(None, 2)
        if len(fields) != 3 or fields[1] not in TEXT_TYPES:
            continue
        name, _, where = fields[2].partition("\t")
        if name.startswith(CDPF_PREFIXES):
            symbols[name] = where.rsplit(":", 1)[0]
    return symbols


def function_key(signature):
    """The name a function is judged by.

    A plain function is its whole signature, so overloads stay apart. A
    template instance, or a member or lambda of one, becomes its qualified
    name with every template argument list shown as <…> and every other
    parenthesized group as (…): one template is one function, whatever
    types or lambdas a caller instantiates it with.
    """
    masked, operators = signature, []

    def mask(match):
        operators.append(match.group(0))
        return f"\x03{len(operators) - 1}\x03"

    masked = OPERATOR.sub(mask, masked.replace(ANONYMOUS, "\x04"))
    body = masked.rstrip()
    while body.endswith(TRAILING_QUALIFIERS):
        body = body.rsplit(" ", 1)[0].rstrip()
    if not body.endswith(")"):
        return signature
    depth = 0
    for open_at in range(len(body) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(body[open_at], 0)
        if depth == 0:
            break
    name = body[:open_at]
    if "<" not in name:
        return signature
    previous = None
    while previous != name:
        previous = name
        name = re.sub(r"<[^<>()]*>", "\x01", name)
        name = re.sub(r"\([^<>()]*\)", "\x02", name)
    if not name.startswith("cdpf::"):
        name = name[name.index(" cdpf::") + 1:]  # drop the return type
    name = name.replace("\x01", "<…>").replace("\x02", "(…)").replace("\x04", ANONYMOUS)
    name = re.sub("\x03(\\d+)\x03", lambda m: operators[int(m.group(1))], name)
    return name + "(…)"


def demangle(mangled):
    if not mangled:
        return set()
    out = subprocess.run(["c++filt"], input="\n".join(mangled), text=True,
                         stdout=subprocess.PIPE, check=True).stdout
    return {function_key(CLONE_SUFFIX.sub("", s)) for s in out.splitlines()}


def collect(build):
    """Write and return (candidates, products) from a finished build."""
    tree = build / "tree"
    src = str(ROOT / "src") + os.sep
    libraries = sorted((tree / "src").rglob("libcdpf_*.a"))
    tests = executables(tree / "tests")
    benches = executables(tree / "bench")
    products = [b for b in benches if b.name not in NOT_A_PRODUCT]
    products += executables(tree / "examples")
    products.append(build / "perfbench" / "perfbench")
    reachers = tests + [b for b in benches if b.name in NOT_A_PRODUCT]
    if not libraries or not tests or len(products) < 2:
        fail(f"{build} holds no complete build")

    candidates = set(cdpf_symbols(libraries, with_lines=False))
    candidates |= {name for name, where in cdpf_symbols(reachers, True).items()
                   if os.path.abspath(where).startswith(src)}
    candidates = demangle(sorted(candidates))
    reached = demangle(sorted(cdpf_symbols(products, with_lines=False)))
    for name, names in (("candidates", candidates), ("products", reached)):
        (build / f"{name}.txt").write_text("".join(s + "\n" for s in sorted(names)))
    return candidates, reached


def read_list(path):
    try:
        return {line for line in path.read_text().splitlines() if line.strip()}
    except OSError as err:
        fail(f"cannot read {path}: {err}")


def read_allow(path):
    """[(line number, pattern text, compiled pattern)]; fails on a bare entry."""
    try:
        lines = path.read_text().splitlines()
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    entries = []
    for number, line in enumerate(lines, 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        pattern, _, reason = line.partition(" # ")
        pattern = pattern.strip()
        if not reason.strip():
            fail(f"{path}:{number}: entry without a ' # reason': {line.strip()}")
        regex = re.compile(".*".join(re.escape(p) for p in pattern.split("*")))
        entries.append((number, pattern, regex))
    return entries


def check(candidates, reached, allow_path):
    entries = read_allow(allow_path)
    dead = sorted(candidates - reached)
    used = set()
    unlisted = []
    for symbol in dead:
        hits = [e for e in entries if e[2].fullmatch(symbol)]
        used.update(e[0] for e in hits)
        if not hits:
            unlisted.append(symbol)
    stale = [e for e in entries if e[0] not in used]

    print(f"dead_symbols: {len(candidates)} candidate(s), {len(reached)} reached "
          f"by products, {len(dead)} reached only by tests or nothing, "
          f"{len(dead) - len(unlisted)} of them allowed")
    for symbol in unlisted:
        print(f"  only tests reach: {symbol}")
    for number, pattern, _ in stale:
        print(f"  {allow_path.name}:{number}: stale entry, matches nothing "
              f"dead: {pattern}")
    if unlisted or stale:
        print(f"dead_symbols: FAIL, {len(unlisted)} unlisted symbol(s), "
              f"{len(stale)} stale entr{'y' if len(stale) == 1 else 'ies'}")
        return 1
    print("dead_symbols: clean")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=pathlib.Path, default=DEFAULT_BUILD,
                        help="where both builds go (default: build-dead-symbols/)")
    parser.add_argument("--jobs", type=int, default=max(1, min(4, os.cpu_count() or 1)))
    parser.add_argument("--lists", type=pathlib.Path,
                        help="read candidates.txt and products.txt from here "
                             "instead of building")
    parser.add_argument("--allow", type=pathlib.Path, default=DEFAULT_ALLOW)
    args = parser.parse_args()

    if args.lists:
        candidates = read_list(args.lists / "candidates.txt")
        reached = read_list(args.lists / "products.txt")
    else:
        build = args.build_dir.resolve()
        build.mkdir(parents=True, exist_ok=True)
        with open(build / "build.log", "w") as log:
            configure_and_build(ROOT, build / "tree", args.jobs, log)
            configure_and_build(ROOT / "perfbench", build / "perfbench", args.jobs,
                                log, target="perfbench")
        candidates, reached = collect(build)
    return check(candidates, reached, args.allow)


if __name__ == "__main__":
    sys.exit(main())
