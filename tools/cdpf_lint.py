#!/usr/bin/env python3
"""Project-specific static lint for the cdpf codebase.

Enforces invariant-preserving idioms that generic tools (clang-tidy,
compiler warnings) cannot express:

  entry-check          Public entry points in src/core/*.cpp that accept
                       numeric or config parameters must validate them with
                       CDPF_CHECK / CDPF_CHECK_MSG / CDPF_ASSERT. The paper's
                       correctness argument leans on preconditions (positive
                       totals, positive radii); silent acceptance of bad
                       inputs turns them into NaN weights three calls later.

  no-std-rand          No rand()/srand()/std::rand anywhere. All randomness
                       must flow through cdpf::rng so trials are reproducible
                       and per-worker streams are independent.

  weight-accumulation  No naked `x += <weight term>` accumulation of particle
                       weights outside src/support/statistics.hpp. Weight
                       totals feed the divide/combine conservation invariant
                       and the correction step's normalization; they must use
                       cdpf::support::NeumaierSum / weight_total so the
                       rounding error stays independent of particle count.

  ordered-containers   No std::unordered_map / std::unordered_set (or their
                       multi- forms) in src/. Their iteration order is
                       implementation-defined, and the determinism contract
                       (bit-identical results on any standard library) needs
                       every order that reaches an RNG draw, a sum or an
                       output to be chosen by the code: use a sorted vector,
                       a dense id-indexed array or std::map instead.

  example-includes     examples/ may only use the library's public surface:
                       no library-internal headers (support/check.hpp,
                       support/log.hpp) and no `detail/` headers.

  no-fmod              No fmod/fmodf/fmodl calls in src/. fmod is a libm
                       call, and the duty-cycle schedule once paid it per
                       node per step; where the operands allow, one
                       truncated quotient gives the same remainder exactly
                       in a few instructions (wsn::DutyCycleSchedule::
                       is_awake shows how, and why it is exact).

  trace-span-names     Every CDPF_TRACE_SPAN in src/ must name its span with
                       a kebab-case string literal, and the name must be
                       unique across the tree. Span names are stable
                       identifiers: tools/trace_summary.py groups by them and
                       trace viewers search by them, so a duplicated or
                       ad-hoc-cased name silently merges unrelated stages.

  no-explicit-simd     No SIMD intrinsics headers (<immintrin.h> and its
                       x86 siblings, <arm_neon.h>) and no `target` /
                       `target_clones` attribute naming an FMA-capable target
                       (`fma`, any `arch=`, `avx512*`). Vector code comes from
                       compiler auto-vectorization of the scalar source, and
                       every clone must round as that source does: C++
                       defaults to -ffp-contract=fast, so a clone that may
                       use FMA contracts a*b+c into one rounding and changes
                       results bit for bit. One exception: `avx512f` is
                       allowed in a source file that the root CMakeLists.txt
                       hands to tools/check_vectorized.py (`--source`), since
                       that gate compiles the file with its own flags
                       (-ffp-contract=off among them) and fails if the object
                       holds any fused multiply-add. The shared attribute
                       macro CDPF_KERNEL_CLONES (src/support/kernel_clones.hpp,
                       which waives its own definition) clones for avx512f,
                       so it may be used only in such a file as well.

A finding can be waived on a specific line with a trailing or preceding
comment `// cdpf-lint: allow(<rule>)` — use sparingly and say why.

Exit status: 0 when clean, 1 when any finding is reported.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

ALLOW_RE = re.compile(r"//\s*cdpf-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

CHECK_MACROS = ("CDPF_CHECK", "CDPF_CHECK_MSG", "CDPF_ASSERT")

# A "pure weight term": a .weight / ->weight member access or an element of a
# `weights` array. Products of pure weight terms (w * w for ESS) still count.
WEIGHT_TERM = r"(?:[A-Za-z_][\w.\[\]>-]*(?:\.|->)weight|weights\[[^\]]+\])"
# Searched (not anchored) so `for (...) t += p.weight;` on one line is still
# caught; the lookbehind keeps the LHS a whole token.
WEIGHT_ACCUM_RE = re.compile(
    rf"(?<![\w.\[\]>-])[A-Za-z_][\w.\[\]>-]*\s*\+=\s*{WEIGHT_TERM}"
    rf"(?:\s*\*\s*{WEIGHT_TERM})*\s*;"
)

RAND_RE = re.compile(r"(?<![\w:])(?:std::)?(?:s?rand)\s*\(")

SIMD_HEADER_RE = re.compile(
    r"#\s*include\s*<(?:[a-z0-9]*intrin\.h|arm_neon\.h)>")
TARGET_ATTR_RE = re.compile(r"\btarget(?:_clones)?\s*\((?P<targets>[^()]*)\)")
TARGET_NAME_RE = re.compile(r'"([^"]*)"')
# The source files the object gate (tools/check_vectorized.py) compiles and
# disassembles, as the root CMakeLists.txt registers them.
GATED_COMMAND_RE = re.compile(r"check_vectorized\.py([^)]*)")
GATED_SOURCE_RE = re.compile(r"--source\s+\$\{CMAKE_CURRENT_SOURCE_DIR\}/(\S+)")
# A use of the macro: any mention outside a preprocessor line.
KERNEL_CLONES_USE_RE = re.compile(r"^(?!\s*#).*\bCDPF_KERNEL_CLONES\b")

FMOD_RE = re.compile(r"(?<![\w.>])(?:std::)?fmod[fl]?\s*\(")

UNORDERED_RE = re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\b")

INTERNAL_HEADERS_RE = re.compile(
    r'#\s*include\s+"(?:support/check\.hpp|support/log\.hpp|[^"]*/detail/[^"]*)"'
)

# Matches the start of a namespace-scope function definition and captures the
# parameter list. Intentionally conservative: one-line signatures plus
# continuation lines until the closing paren.
FUNC_DEF_RE = re.compile(
    r"^(?:[A-Za-z_][\w:<>,&\s\*]*?)\s+"          # return type
    r"(?P<name>[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)"  # possibly qualified name
    r"\s*\((?P<params>[^;{}]*)$|"
    r"^(?:[A-Za-z_][\w:<>,&\s\*]*?)\s+"
    r"(?P<name2>[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)"
    r"\s*\((?P<params2>[^;{}()]*)\)\s*(?:const\s*)?\{"
)


class Finding:
    def __init__(self, path: pathlib.Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(lines: list[str], index: int, rule: str) -> bool:
    """True when line `index` (0-based) carries or follows an allow pragma."""
    for probe in (index, index - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                return True
    return False


def lint_no_std_rand(path: pathlib.Path, lines: list[str]) -> list[Finding]:
    findings = []
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        if RAND_RE.search(code) and not allowed(lines, i, "no-std-rand"):
            findings.append(
                Finding(path, i + 1, "no-std-rand",
                        "rand()/srand() is banned; use cdpf::rng streams"))
    return findings


def fma_capable_targets(targets: str, object_gated: bool) -> list[str]:
    """The target names of one attribute's string arguments that may use FMA.

    `avx512f` passes only in a file the object gate checks for FMA."""
    names = [name.strip() for arg in TARGET_NAME_RE.findall(targets)
             for name in arg.split(",")]
    return [name for name in names
            if "fma" in name or name.startswith("arch=")
            or (name.startswith("avx512") and not (name == "avx512f" and object_gated))]


def lint_no_explicit_simd(path: pathlib.Path, lines: list[str],
                          object_gated: bool) -> list[Finding]:
    findings = []
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        if allowed(lines, i, "no-explicit-simd"):
            continue
        if SIMD_HEADER_RE.search(code):
            findings.append(
                Finding(path, i + 1, "no-explicit-simd",
                        "SIMD intrinsics are banned; write scalar loops the "
                        "compiler vectorizes"))
        if KERNEL_CLONES_USE_RE.search(code) and not object_gated:
            findings.append(
                Finding(path, i + 1, "no-explicit-simd",
                        "CDPF_KERNEL_CLONES clones for avx512f; use it only in a "
                        "file tools/check_vectorized.py checks"))
        for m in TARGET_ATTR_RE.finditer(code):
            banned = fma_capable_targets(m.group("targets"), object_gated)
            if banned:
                findings.append(
                    Finding(path, i + 1, "no-explicit-simd",
                            f"target {', '.join(banned)} may contract "
                            "multiply-adds into FMA and change results; "
                            "clone for \"avx2\" and \"default\" only, or for "
                            "\"avx512f\" in a file tools/check_vectorized.py "
                            "checks"))
    return findings


def lint_ordered_containers(path: pathlib.Path, lines: list[str]) -> list[Finding]:
    findings = []
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        if UNORDERED_RE.search(code) and not allowed(lines, i, "ordered-containers"):
            findings.append(
                Finding(path, i + 1, "ordered-containers",
                        "hash containers iterate in an implementation-defined "
                        "order; use a sorted vector, an id-indexed array or "
                        "std::map"))
    return findings


def lint_no_fmod(path: pathlib.Path, lines: list[str]) -> list[Finding]:
    findings = []
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        if FMOD_RE.search(code) and not allowed(lines, i, "no-fmod"):
            findings.append(
                Finding(path, i + 1, "no-fmod",
                        "libm fmod is slow on hot paths; take the remainder "
                        "from a truncated quotient where the operands make "
                        "it exact (see DutyCycleSchedule::is_awake)"))
    return findings


def lint_weight_accumulation(path: pathlib.Path, lines: list[str]) -> list[Finding]:
    if path.match("src/support/statistics.hpp"):
        return []
    findings = []
    for i, line in enumerate(lines):
        if WEIGHT_ACCUM_RE.search(line) and not allowed(lines, i, "weight-accumulation"):
            findings.append(
                Finding(path, i + 1, "weight-accumulation",
                        "naked weight accumulation; use "
                        "support::NeumaierSum / support::weight_total"))
    return findings


def lint_example_includes(path: pathlib.Path, lines: list[str]) -> list[Finding]:
    findings = []
    for i, line in enumerate(lines):
        if INTERNAL_HEADERS_RE.search(line) and not allowed(lines, i, "example-includes"):
            findings.append(
                Finding(path, i + 1, "example-includes",
                        "examples must not include library-internal headers"))
    return findings


def function_definitions(lines: list[str]):
    """Yield (start_index, name, params, body_lines) for namespace-scope
    function definitions, skipping anonymous-namespace internals and lambdas.
    Heuristic brace matching — good enough for this codebase's style."""
    anon_depth = 0
    brace_depth = 0
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        stripped = line.split("//", 1)[0]
        if re.match(r"^\s*namespace\s*\{", stripped):
            anon_depth = brace_depth + 1
        m = FUNC_DEF_RE.match(stripped)
        if m and brace_depth <= 1 and not (anon_depth and brace_depth >= anon_depth):
            name = m.group("name") or m.group("name2")
            params = m.group("params") if m.group("params") is not None else m.group("params2")
            j = i
            sig = stripped
            # Accumulate continuation lines until the opening brace.
            while "{" not in sig and j + 1 < n:
                j += 1
                nxt = lines[j].split("//", 1)[0]
                sig += " " + nxt.strip()
            if "{" not in sig or ";" in sig.split("{", 1)[0].replace(params, ""):
                i += 1
                brace_depth += stripped.count("{") - stripped.count("}")
                continue
            params = sig[sig.find("(") + 1:sig.rfind(")")]
            # Collect the body by brace matching from the signature end.
            depth = 0
            body = []
            k = i
            started = False
            while k < n:
                code = lines[k].split("//", 1)[0]
                for ch in code:
                    if ch == "{":
                        depth += 1
                        started = True
                    elif ch == "}":
                        depth -= 1
                body.append(lines[k])
                if started and depth == 0:
                    break
                k += 1
            yield i, name, params, body
            i = k + 1
            continue
        brace_depth += stripped.count("{") - stripped.count("}")
        i += 1
    return


# Floating-point parameters are where NaN/Inf poisoning enters; size_t count
# arithmetic (e.g. the cost model) has no meaningful precondition to assert.
NUMERIC_PARAM_RE = re.compile(r"\b(?:double|float)\b")
CONFIG_PARAM_RE = re.compile(r"\bConfig\b|\bconfig\b")


TRACE_SPAN_RE = re.compile(r"CDPF_TRACE_SPAN\s*\(\s*(?P<arg>[^)]*)\)")
KEBAB_NAME_RE = re.compile(r'^"[a-z][a-z0-9]*(?:-[a-z0-9]+)*"$')


def lint_trace_span_names(files: list[tuple[pathlib.Path, list[str]]]) -> list[Finding]:
    """Span names must be unique kebab-case string literals (tree-wide)."""
    findings = []
    seen: dict[str, tuple[pathlib.Path, int]] = {}
    for path, lines in files:
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            for m in TRACE_SPAN_RE.finditer(code):
                if "#define" in code or allowed(lines, i, "trace-span-names"):
                    continue
                arg = m.group("arg").strip()
                if not KEBAB_NAME_RE.match(arg):
                    findings.append(
                        Finding(path, i + 1, "trace-span-names",
                                f"span name {arg or '<empty>'} must be a "
                                'kebab-case string literal ("like-this")'))
                    continue
                if arg in seen:
                    first_path, first_line = seen[arg]
                    findings.append(
                        Finding(path, i + 1, "trace-span-names",
                                f"span name {arg} already used at "
                                f"{first_path}:{first_line}; names must be "
                                "unique so per-stage summaries stay unambiguous"))
                else:
                    seen[arg] = (path, i + 1)
    return findings


def lint_entry_check(path: pathlib.Path, lines: list[str]) -> list[Finding]:
    findings = []
    for start, name, params, body in function_definitions(lines):
        if allowed(lines, start, "entry-check"):
            continue
        params = params.strip()
        if not params or params == "void":
            continue
        if not (NUMERIC_PARAM_RE.search(params) or CONFIG_PARAM_RE.search(params)):
            continue
        body_text = "\n".join(body)
        if not any(macro in body_text for macro in CHECK_MACROS):
            findings.append(
                Finding(path, start + 1, "entry-check",
                        f"public entry point `{name}` takes numeric/config "
                        "parameters but never validates them with "
                        "CDPF_CHECK/CDPF_ASSERT"))
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"cdpf_lint: {root} does not look like the repo root "
              "(no src/ directory)", file=sys.stderr)
        return 2

    findings: list[Finding] = []

    cmake_lists = root / "CMakeLists.txt"
    object_gated = set()
    if cmake_lists.is_file():
        for command in GATED_COMMAND_RE.findall(cmake_lists.read_text()):
            object_gated.update(GATED_SOURCE_RE.findall(command))

    rand_scope = []
    for sub in ("src", "examples", "bench", "tests"):
        rand_scope += sorted((root / sub).rglob("*.cpp"))
        rand_scope += sorted((root / sub).rglob("*.hpp"))
    for path in rand_scope:
        lines = path.read_text().splitlines()
        relative = path.relative_to(root)
        findings += lint_no_std_rand(relative, lines)
        findings += lint_no_explicit_simd(relative, lines,
                                          relative.as_posix() in object_gated)

    for path in sorted((root / "src").rglob("*.cpp")) + sorted(
            (root / "src").rglob("*.hpp")):
        lines = path.read_text().splitlines()
        findings += lint_weight_accumulation(path.relative_to(root), lines)
        findings += lint_ordered_containers(path.relative_to(root), lines)
        findings += lint_no_fmod(path.relative_to(root), lines)

    for path in sorted((root / "examples").glob("*.cpp")):
        lines = path.read_text().splitlines()
        findings += lint_example_includes(path.relative_to(root), lines)

    trace_files = []
    for path in sorted((root / "src").rglob("*.cpp")) + sorted(
            (root / "src").rglob("*.hpp")):
        trace_files.append((path.relative_to(root), path.read_text().splitlines()))
    findings += lint_trace_span_names(trace_files)

    # Entry-check scope: every core translation unit, plus the hot-path
    # kernels that live outside core/*.cpp — the inline bearing-kernel header
    # and prefix-sum resampling. These carry the same NaN-poisoning risk as
    # the core entry points, so they get the same precondition lint.
    entry_check_scope = sorted((root / "src" / "core").glob("*.cpp"))
    entry_check_scope += sorted((root / "src" / "core").glob("batch_kernels*.hpp"))
    entry_check_scope += sorted((root / "src" / "filters").glob("resampling.cpp"))
    for path in entry_check_scope:
        lines = path.read_text().splitlines()
        findings += lint_entry_check(path.relative_to(root), lines)

    for finding in findings:
        print(finding)
    if findings:
        print(f"\ncdpf_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("cdpf_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
