#!/usr/bin/env python3
"""Determinism lint for the tarr sources.

The repo's observability contract (docs/OBSERVABILITY.md) promises
byte-identical traces, reports, and counterexamples across same-seed runs.
This lint bans the C++ constructs that silently break that promise:

  unordered-iteration   range-for / begin() iteration over a
                        std::unordered_map / std::unordered_set — hash-table
                        order leaks into whatever the loop feeds
  unordered-container   declaration of an unordered container at all; use
                        std::map / std::set (or sort before iterating and
                        allowlist the declaration)
  std-rand              std::rand / srand — a hidden global RNG; use
                        tarr::Rng with an explicit seed
  pointer-keyed         std::map / std::set keyed on a pointer type — the
                        iteration order is the allocator's
  locale                setlocale / std::locale / imbue — number formatting
                        becomes environment-dependent
  wallclock-assert      an ordering assertion (EXPECT_/ASSERT_ LT, LE, GT,
                        GE, NEAR) on a seconds or millis value, or on a
                        variable assigned from one — its outcome depends on
                        host speed; assert a tarr::prof counter or scope
                        call count instead.  GE(x, 0) is exempt: no clock
                        can fail a non-negativity check.
  number-format         a "%.17g" format string outside
                        src/common/serialize.cpp — byte-diffed artifacts
                        format numbers through tarr::append_number /
                        format_number, so equal values print equal bytes

Suppressions, either of:
  * inline, on the offending line:  // lint:allow(determinism): <why>
  * an entry in tools/lint_determinism_allow.txt:
        <path-relative-to-repo>:<rule>  # <why>

Usage: tools/lint_determinism.py [--root DIR] [FILE...]
Lints src/, bench/, examples/ and tests/ by default; exits 1 if any
unsuppressed finding remains.
"""

import argparse
import re
import sys
from pathlib import Path

RULES = {
    "unordered-iteration": "iteration order of an unordered container is "
    "hash-layout-dependent",
    "unordered-container": "prefer std::map/std::set, or sort before "
    "iterating and allowlist this declaration",
    "std-rand": "std::rand is a hidden global RNG; use tarr::Rng with an "
    "explicit seed",
    "pointer-keyed": "pointer-keyed ordering depends on the allocator",
    "locale": "locale-dependent formatting varies with the environment",
    "wallclock-assert": "wall-clock ordering depends on host speed; assert "
    "a prof counter or scope call count",
    "number-format": "format numbers through tarr::format_number "
    "(common/serialize.hpp), the one formatter artifacts share",
}

INLINE_ALLOW = re.compile(r"//\s*lint:allow\(determinism\)")
UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s*"
    r"&?\s*(\w+)\s*[;={(]"
)
UNORDERED_TYPE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b")
RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*?:\s*\(?\s*(\w+)[\s.)]*\)")
BEGIN_ITER = re.compile(r"\b(\w+)\s*\.\s*(?:begin|cbegin)\s*\(")
STD_RAND = re.compile(r"\b(?:std::)?s?rand\s*\(")
POINTER_KEYED = re.compile(r"\bstd::(?:map|set|multimap|multiset)\s*<\s*"
                           r"(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*")
LOCALE = re.compile(r"\bsetlocale\s*\(|\bstd::locale\b|\.\s*imbue\s*\(")
WALL_NAME = re.compile(r"\w*(?:seconds|millis)\w*")
WALL_ASSIGN = re.compile(r"\b(\w+)\s*=(?!=)[^;]*?\b\w*(?:seconds|millis)")
ORDER_ASSERT = re.compile(r"\b(?:EXPECT|ASSERT)_(LT|LE|GT|GE|NEAR)\s*\((.*)")
NON_NEGATIVE = re.compile(r"[^,]*,\s*0(?:\.0*)?\s*\)")
# Matched on the raw line: string literals are blanked before the other
# rules run, and this one looks for a format string.
NUMBER_FORMAT = re.compile(r'"[^"]*%\.17g')


def strip_comments_and_strings(line: str) -> str:
    """Blank out string/char literals and // comments so the patterns only
    see code (crude but deterministic; block comments are rare in-tree)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            i += 1
            out.append(quote)
            continue
        out.append(c)
        i += 1
    return "".join(out)


def lint_file(path: Path):
    """Yield (lineno, rule, detail) findings for one file."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        yield 0, "unreadable", str(e)
        return
    unordered_vars = set()
    for m in UNORDERED_DECL.finditer(text):
        unordered_vars.add(m.group(1))
    wall_vars = {m.group(1) for m in WALL_ASSIGN.finditer(text)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if INLINE_ALLOW.search(raw):
            continue
        if NUMBER_FORMAT.search(raw):
            yield lineno, "number-format", raw.strip()
        line = strip_comments_and_strings(raw)
        if UNORDERED_TYPE.search(line) and "#include" not in line:
            yield lineno, "unordered-container", line.strip()
        for m in RANGE_FOR.finditer(line):
            if m.group(1) in unordered_vars:
                yield lineno, "unordered-iteration", line.strip()
        for m in BEGIN_ITER.finditer(line):
            if m.group(1) in unordered_vars:
                yield lineno, "unordered-iteration", line.strip()
        if STD_RAND.search(line):
            yield lineno, "std-rand", line.strip()
        if POINTER_KEYED.search(line):
            yield lineno, "pointer-keyed", line.strip()
        if LOCALE.search(line):
            yield lineno, "locale", line.strip()
        m = ORDER_ASSERT.search(line)
        if m:
            kind, args = m.groups()
            names = set(re.findall(r"\w+", args))
            on_wall = (any(WALL_NAME.fullmatch(n) for n in names)
                       or names & wall_vars)
            if on_wall and not (kind == "GE" and NON_NEGATIVE.match(args)):
                yield lineno, "wallclock-assert", line.strip()


def load_allowlist(repo_root: Path):
    allow = set()
    allow_file = repo_root / "tools" / "lint_determinism_allow.txt"
    if not allow_file.exists():
        return allow
    for raw in allow_file.read_text(encoding="utf-8").splitlines():
        entry = raw.split("#", 1)[0].strip()
        if not entry:
            continue
        path, _, rule = entry.rpartition(":")
        allow.add((path, rule))
    return allow


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="*", type=Path,
                    help="files to lint (default: all of --root)")
    ap.add_argument("--root", type=Path, default=None,
                    help="directory to lint recursively "
                         "(default: src/, bench/, examples/ and tests/)")
    args = ap.parse_args()

    repo_root = Path(__file__).resolve().parent.parent
    files = args.files
    if not files:
        # Default scope covers everything that feeds byte-identity-gated
        # artifacts (the library, the bench snapshot writers, the CLIs) and
        # the tests, which must pass on any host.
        roots = ([args.root] if args.root is not None else
                 [repo_root / "src", repo_root / "bench",
                  repo_root / "examples", repo_root / "tests"])
        files = []
        for root in roots:
            files += sorted(root.rglob("*.cpp")) + sorted(root.rglob("*.hpp"))

    allow = load_allowlist(repo_root)
    findings = []
    for path in files:
        try:
            rel = str(path.resolve().relative_to(repo_root))
        except ValueError:
            rel = str(path)
        for lineno, rule, detail in lint_file(path):
            if (rel, rule) in allow:
                continue
            findings.append((rel, lineno, rule, detail))

    findings.sort()
    for rel, lineno, rule, detail in findings:
        print(f"{rel}:{lineno}: [{rule}] {detail}")
        print(f"    {RULES.get(rule, '')}")
    if findings:
        print(f"\n{len(findings)} determinism finding(s). Fix them, add an "
              "inline '// lint:allow(determinism): <why>' on the line, or "
              "justify an entry in tools/lint_determinism_allow.txt.")
        return 1
    print(f"determinism lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
