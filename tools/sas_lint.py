#!/usr/bin/env python3
"""sas-lint -- project-specific invariant checker for the SimilarityAtScale tree.

The codebase runs on a handful of invariants that used to exist only as
comments. This tool machine-checks them over src/**/*.{hpp,cpp} with a
hybrid of lexical rules (on comment/string-scrubbed text, so prose never
trips a rule) and compiler-backed checks (g++ -fsyntax-only):

  R1  avx512-confinement   AVX512 intrinsics / pragmas / target attributes
                           only in the two -mavx512vpopcntdq TUs
                           (popcount_stream.cpp, popcount_scatter.cpp) --
                           the GCC 12 VPOPCNTQ const-fold bug makes per-TU
                           isolation load-bearing, not stylistic.
  R2  tag-registry         no numeric message-tag literal at a
                           send/send_value/recv/recv_value call site and
                           no kTag* constant minted outside the central
                           registry (bsp/tags.hpp) or the reserved
                           internal range (bsp/comm.hpp).
  R3  typed-errors         no bare `throw std::runtime_error` / `abort()` /
                           `std::sto*(` parse in src/ -- failures must use
                           the sas::error taxonomy so exit codes and rank
                           annotation work.
  R4  stage-spans          every public stage entry point opens an
                           obs::Span (or a StageRecorder scope), so traces
                           cover the whole pipeline.
  R5  header-hygiene       every header has `#pragma once` and compiles
                           standalone (g++ -std=c++20 -fsyntax-only -Isrc).
  R6  script-compile       every .py under tools/ and scripts/ passes
                           `py_compile` -- script rot fails the lint job.
  R7  no-swallowed-catch   no `catch (...)` in src/ whose body neither
                           rethrows nor translates (throw / rethrow /
                           current_exception / make_exception_ptr) -- a
                           silently swallowed failure defeats the error
                           taxonomy AND the in-run recovery layer, which
                           classifies the escaped exception to decide
                           retry vs quarantine vs abort.

Suppressions: `// sas-lint: allow(R3 reason...)` on the offending line or
the line directly above masks that rule there; masked counts are reported.

Exit status: 0 when the tree is clean, 1 when any violation survives,
2 on usage / self-test harness errors.

`--self-test` runs the rule engine over tests/lint_fixtures/ and verifies
each seeded rN_* fixture trips exactly rule N, the clean fixture passes,
and suppressions mask-and-count. CI runs both modes; locally use
`cmake --build build --target lint`.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import py_compile
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass

RULES = {
    "R1": "avx512-confinement",
    "R2": "tag-registry",
    "R3": "typed-errors",
    "R4": "stage-spans",
    "R5": "header-hygiene",
    "R6": "script-compile",
    "R7": "no-swallowed-catch",
}

# The two TUs CMake compiles with -mavx512vpopcntdq (basenames).
R1_ALLOWED_FILES = {"popcount_stream.cpp", "popcount_scatter.cpp"}

# Files allowed to mint tag constants: the central user-tag registry and
# the reserved internal (negative) range.
R2_REGISTRY_FILES = {"src/bsp/tags.hpp", "src/bsp/comm.hpp"}

# Public stage entry points (R4): wherever one of these is *defined* in
# src/, its body must open an observability span. Extend this list when a
# new pipeline stage lands.
R4_ENTRY_POINTS = {
    "run_batched_pipeline",
    "ring_ata_accumulate",
    "summa_ata_accumulate",
    "targeted_ata_accumulate",
    "all_pairs_candidate_pass",
    "lsh_candidate_pass",
    "sketch_similarity_at_scale",
}

SUPPRESS_RE = re.compile(r"sas-lint:\s*allow\((R\d)\b[^)]*\)")

# Scrub order matters: raw strings before line comments before ordinary
# strings, so each region is claimed by its true syntactic role.
_SCRUB_RE = re.compile(
    r'R"(?P<delim>[^()\s\\"]{0,16})\((?:.|\n)*?\)(?P=delim)"'
    r"|//[^\n]*"
    r"|/\*(?:.|\n)*?\*/"
    r"|'(?:\\.|[^'\\\n])*'"
    r'|"(?:\\.|[^"\\\n])*"'
)


def scrub(text: str, keep_strings: bool = False) -> str:
    """Blank comments (and, unless keep_strings, string/char literals)
    with spaces, preserving newlines so line numbers survive."""

    def blank(match: re.Match) -> str:
        token = match.group(0)
        if keep_strings and not (
            token.startswith("//") or token.startswith("/*")
        ):
            return token
        return "".join(ch if ch == "\n" else " " for ch in token)

    return _SCRUB_RE.sub(blank, text)


@dataclass
class Violation:
    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False


def line_of(text: str, index: int) -> int:
    return text.count("\n", 0, index) + 1


def match_delim(text: str, start: int, open_ch: str, close_ch: str) -> int:
    """Index just past the delimiter matching text[start] (must be
    open_ch), or -1 when unbalanced."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def split_top_level(args_text: str) -> list[str]:
    """Split an argument list on top-level commas (tracking (), [], {})."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in args_text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


# ---------------------------------------------------------------------------
# R1 -- AVX512 confinement
# ---------------------------------------------------------------------------

# Intrinsics / vector types are identifiers; pragmas and target
# attributes carry the ISA name in directive text or a string literal, so
# R1 scans comment-scrubbed text with strings KEPT.
R1_RE = re.compile(
    r"_mm512_\w+"
    r"|\b__m512\w*"
    r"|#\s*pragma\s[^\n]*avx512"
    r'|target\s*\(\s*"[^"]*avx512',
    re.IGNORECASE,
)


def check_r1(rel: str, code_with_strings: str) -> list[Violation]:
    if os.path.basename(rel) in R1_ALLOWED_FILES:
        return []
    out = []
    for m in R1_RE.finditer(code_with_strings):
        out.append(
            Violation(
                "R1",
                rel,
                line_of(code_with_strings, m.start()),
                f"AVX512 reference '{m.group(0).strip()}' outside the "
                "-mavx512vpopcntdq TUs (popcount_stream.cpp / "
                "popcount_scatter.cpp)",
            )
        )
    return out


# ---------------------------------------------------------------------------
# R2 -- tag registry
# ---------------------------------------------------------------------------

R2_CALL_RE = re.compile(
    r"(?:\.\s*|(?<![\w.:]))(send_value|send|recv_value|recv)\s*[<(]"
)
R2_KTAG_RE = re.compile(r"\bconstexpr\s+int\s+(kTag\w*)\s*=\s*([-+]?\d+)\s*[;,]")
R2_INT_RE = re.compile(r"[-+]?\d+")


def check_r2(rel: str, code: str) -> list[Violation]:
    if rel in R2_REGISTRY_FILES:
        return []
    out = []
    for m in R2_CALL_RE.finditer(code):
        i = m.end() - 1
        if code[i] == "<":  # explicit template args: skip to the '('
            close = match_delim(code, i, "<", ">")
            if close == -1:
                continue
            i = close
            while i < len(code) and code[i].isspace():
                i += 1
            if i >= len(code) or code[i] != "(":
                continue
        end = match_delim(code, i, "(", ")")
        if end == -1:
            continue
        args = split_top_level(code[i + 1 : end - 1])
        if len(args) < 2:
            continue
        tag = args[1].strip()
        if R2_INT_RE.fullmatch(tag):
            out.append(
                Violation(
                    "R2",
                    rel,
                    line_of(code, m.start()),
                    f"numeric message-tag literal {tag} at {m.group(1)}() "
                    "call site -- mint a named tag in bsp/tags.hpp",
                )
            )
    for m in R2_KTAG_RE.finditer(code):
        out.append(
            Violation(
                "R2",
                rel,
                line_of(code, m.start()),
                f"tag constant {m.group(1)} = {m.group(2)} minted outside "
                "the central registry (bsp/tags.hpp)",
            )
        )
    return out


# ---------------------------------------------------------------------------
# R3 -- typed errors
# ---------------------------------------------------------------------------

R3_PATTERNS = (
    (
        re.compile(r"\bthrow\s+std::runtime_error\b"),
        "bare `throw std::runtime_error` -- use the sas::error taxonomy "
        "(error::ConfigError / CorruptInput / ... carry exit codes and "
        "rank annotation)",
    ),
    (
        re.compile(r"(?<![\w:.>])(?:std::)?abort\s*\(\s*\)"),
        "`abort()` tears the process down without unwinding the BSP "
        "runtime -- throw a sas::error instead",
    ),
    (
        re.compile(r"\bstd::sto(?:i|l|ll|ul|ull|f|d|ld)\s*\("),
        "`std::sto*` throws untyped std::invalid_argument / "
        "std::out_of_range and accepts trailing junk -- parse with "
        "std::from_chars and throw error::ConfigError / CorruptInput",
    ),
)


def check_r3(rel: str, code: str) -> list[Violation]:
    out = []
    for pattern, message in R3_PATTERNS:
        for m in pattern.finditer(code):
            out.append(Violation("R3", rel, line_of(code, m.start()), message))
    return out


# ---------------------------------------------------------------------------
# R4 -- stage spans
# ---------------------------------------------------------------------------

# ring_rotate (distmat/ring.hpp) opens one obs::Span per rotation step.
R4_SPAN_RE = re.compile(
    r"obs::(Span|CollectiveScope|BatchScope)\b|StageRecorder|\.scope\s*\("
    r"|\bring_rotate\s*[<(]"
)


def check_r4(rel: str, code: str) -> list[Violation]:
    out = []
    for name in R4_ENTRY_POINTS:
        for m in re.finditer(r"\b" + re.escape(name) + r"\s*\(", code):
            open_paren = code.index("(", m.start())
            end = match_delim(code, open_paren, "(", ")")
            if end == -1:
                continue
            # Definition when the parameter list is followed by an
            # (optionally qualified) body; a `;` means declaration/call.
            i = end
            while i < len(code) and (
                code[i].isspace() or code[i : i + 5] == "const"
            ):
                i += 5 if code[i : i + 5] == "const" else 1
            if code[i : i + 8] == "noexcept":
                i += 8
                while i < len(code) and code[i].isspace():
                    i += 1
            if i >= len(code) or code[i] != "{":
                continue
            body_end = match_delim(code, i, "{", "}")
            if body_end == -1:
                continue
            if not R4_SPAN_RE.search(code[i:body_end]):
                out.append(
                    Violation(
                        "R4",
                        rel,
                        line_of(code, m.start()),
                        f"stage entry point {name}() opens no obs::Span / "
                        "StageRecorder scope -- traces would skip this stage",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# R7 -- no swallowed catch-all
# ---------------------------------------------------------------------------

R7_CATCH_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)\s*\{")
# A body containing any of these handles the exception honestly: a bare
# rethrow, a typed throw, or capture/translation into an exception_ptr.
R7_HANDLED_RE = re.compile(
    r"\bthrow\b|\bcurrent_exception\b|\bmake_exception_ptr\b|\brethrow_exception\b"
)


def check_r7(rel: str, code: str) -> list[Violation]:
    out = []
    for m in R7_CATCH_RE.finditer(code):
        brace = m.end() - 1
        body_end = match_delim(code, brace, "{", "}")
        if body_end == -1:
            continue
        if R7_HANDLED_RE.search(code[brace:body_end]):
            continue
        out.append(
            Violation(
                "R7",
                rel,
                line_of(code, m.start()),
                "`catch (...)` swallows the exception (no rethrow, no "
                "translation) -- the recovery layer can no longer classify "
                "the failure; rethrow, translate to a sas::error, or "
                "suppress with a reason",
            )
        )
    return out


# ---------------------------------------------------------------------------
# R5 -- header hygiene
# ---------------------------------------------------------------------------


def check_r5_pragma(rel: str, code: str) -> list[Violation]:
    if not rel.endswith(".hpp"):
        return []
    if re.search(r"^\s*#\s*pragma\s+once\b", code, re.MULTILINE):
        return []
    return [Violation("R5", rel, 1, "header lacks `#pragma once`")]


def compile_header(root: str, path: str, include_dir: str) -> str:
    """Return g++'s stderr when `path` fails to compile standalone, else ''."""
    cmd = [
        "g++",
        "-std=c++20",
        "-fsyntax-only",
        "-x",
        "c++",
        "-I",
        include_dir,
        path,
    ]
    proc = subprocess.run(
        cmd, cwd=root, capture_output=True, text=True, check=False
    )
    if proc.returncode == 0:
        return ""
    stderr = proc.stderr.strip()
    return stderr if stderr else f"g++ exited {proc.returncode}"


def check_r5_compile(root: str, headers: list[str], include_dir: str) -> list[Violation]:
    out = []
    with concurrent.futures.ThreadPoolExecutor(
        max_workers=min(8, os.cpu_count() or 1)
    ) as pool:
        futures = {
            pool.submit(compile_header, root, h, include_dir): h for h in headers
        }
        for future in concurrent.futures.as_completed(futures):
            rel = futures[future]
            stderr = future.result()
            if stderr:
                first = stderr.splitlines()[0]
                out.append(
                    Violation(
                        "R5",
                        rel,
                        1,
                        f"header does not compile standalone: {first}",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# R6 -- python script compile
# ---------------------------------------------------------------------------


def check_r6(root: str) -> list[Violation]:
    out = []
    for sub in ("tools", "scripts"):
        directory = os.path.join(root, sub)
        if not os.path.isdir(directory):
            continue
        for entry in sorted(os.listdir(directory)):
            if not entry.endswith(".py"):
                continue
            rel = f"{sub}/{entry}"
            with tempfile.NamedTemporaryFile(suffix=".pyc") as scratch:
                try:
                    py_compile.compile(
                        os.path.join(directory, entry), cfile=scratch.name, doraise=True
                    )
                except py_compile.PyCompileError as err:
                    out.append(
                        Violation(
                            "R6", rel, 1, f"py_compile failed: {err.msg.splitlines()[0]}"
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def collect_suppressions(text: str) -> dict[int, set[str]]:
    """Map line number -> rules suppressed there (the annotated line and
    the one below it)."""
    allowed: dict[int, set[str]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        for m in SUPPRESS_RE.finditer(line):
            for covered in (number, number + 1):
                allowed.setdefault(covered, set()).add(m.group(1))
    return allowed


def lint_file(root: str, rel: str) -> tuple[list[Violation], int]:
    """All lexical-rule findings for one file; returns (violations kept,
    suppressed count). Compile-backed checks run separately."""
    with open(os.path.join(root, rel), encoding="utf-8") as handle:
        raw = handle.read()
    code = scrub(raw)
    code_with_strings = scrub(raw, keep_strings=True)
    findings = (
        check_r1(rel, code_with_strings)
        + check_r2(rel, code)
        + check_r3(rel, code)
        + check_r4(rel, code)
        + check_r5_pragma(rel, code)
        + check_r7(rel, code)
    )
    allowed = collect_suppressions(raw)
    kept: list[Violation] = []
    suppressed = 0
    for violation in findings:
        if violation.rule in allowed.get(violation.line, set()):
            violation.suppressed = True
            suppressed += 1
        kept.append(violation)
    return kept, suppressed


def tree_files(root: str, subdir: str = "src") -> list[str]:
    out = []
    for base, _dirs, names in os.walk(os.path.join(root, subdir)):
        for name in sorted(names):
            if name.endswith((".hpp", ".cpp")):
                out.append(os.path.relpath(os.path.join(base, name), root))
    return sorted(out)


def run_lint(root: str, no_compile: bool) -> int:
    files = tree_files(root)
    if not files:
        print(f"sas-lint: no sources under {root}/src", file=sys.stderr)
        return 2
    violations: list[Violation] = []
    suppressed_total = 0
    for rel in files:
        found, suppressed = lint_file(root, rel)
        violations.extend(found)
        suppressed_total += suppressed
    if not no_compile:
        headers = [f for f in files if f.endswith(".hpp")]
        violations.extend(check_r5_compile(root, headers, "src"))
    violations.extend(check_r6(root))

    active = [v for v in violations if not v.suppressed]
    for violation in sorted(active, key=lambda v: (v.path, v.line, v.rule)):
        print(
            f"{violation.path}:{violation.line}: [{violation.rule} "
            f"{RULES[violation.rule]}] {violation.message}"
        )

    print(
        f"sas-lint: scanned {len(files)} file(s): "
        f"{len(active)} violation(s), {suppressed_total} suppressed"
    )
    for rule in sorted(RULES):
        rule_active = sum(1 for v in active if v.rule == rule)
        rule_masked = sum(1 for v in violations if v.suppressed and v.rule == rule)
        print(
            f"  {rule} {RULES[rule]:<20} {rule_active} violation(s), "
            f"{rule_masked} suppressed"
        )
    return 1 if active else 0


# ---------------------------------------------------------------------------
# Self-test over the seeded fixtures
# ---------------------------------------------------------------------------


def run_self_test(root: str, no_compile: bool) -> int:
    fixtures = os.path.join(root, "tests", "lint_fixtures")
    if not os.path.isdir(fixtures):
        print(f"sas-lint --self-test: missing {fixtures}", file=sys.stderr)
        return 2
    failures = []

    def fixture_findings(name: str) -> tuple[list[Violation], int]:
        rel = os.path.relpath(os.path.join(fixtures, name), root)
        found, suppressed = lint_file(root, rel)
        if not no_compile and name.endswith(".hpp"):
            found.extend(check_r5_compile(root, [rel], "src"))
        return found, suppressed

    for name in sorted(os.listdir(fixtures)):
        prefix = name.split("_", 1)[0]
        if prefix.upper() not in RULES:
            continue
        expected = prefix.upper()
        found, _ = fixture_findings(name)
        active_rules = {v.rule for v in found if not v.suppressed}
        if expected not in active_rules:
            failures.append(f"{name}: expected a {expected} violation, got {sorted(active_rules)}")
        elif active_rules != {expected}:
            failures.append(
                f"{name}: expected only {expected}, got {sorted(active_rules)}"
            )

    found, suppressed = fixture_findings("clean_ok.cpp")
    if [v for v in found if not v.suppressed] or suppressed:
        failures.append("clean_ok.cpp: expected no findings")

    found, suppressed = fixture_findings("suppressed_ok.cpp")
    if [v for v in found if not v.suppressed]:
        failures.append("suppressed_ok.cpp: suppression did not mask the violation")
    if suppressed < 1:
        failures.append("suppressed_ok.cpp: suppression was not counted")

    if failures:
        for failure in failures:
            print(f"sas-lint self-test FAIL: {failure}", file=sys.stderr)
        return 2
    print("sas-lint self-test: all fixtures behaved (each rN fixture trips "
          "exactly rule N; clean passes; suppressions mask and count)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the tree containing this script)",
    )
    parser.add_argument(
        "--no-compile",
        action="store_true",
        help="skip the g++ standalone-header compile of R5 (quick mode)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the rule engine against tests/lint_fixtures/",
    )
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    if args.self_test:
        return run_self_test(root, args.no_compile)
    return run_lint(root, args.no_compile)


if __name__ == "__main__":
    sys.exit(main())
