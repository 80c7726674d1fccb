#!/usr/bin/env python3
"""Project-specific determinism lint for fscache.

Enforces rules no off-the-shelf checker knows, all in service of one
property: simulation output must be a pure function of configuration
and seeds (the SweepRunner contract — FS_JOBS=k output bit-identical
to FS_JOBS=1, and any two runs of the same binary identical).

Rules
-----
raw-random
    src/sim, src/partition, src/ranking, src/cache must not construct
    their own randomness (std::rand, srand, random_device, mt19937,
    drand48, ...). All randomness flows through src/common's seeded
    fscache::Rng so a cell's streams are derived from its seed.

wall-clock
    Same scope: no reads of real time (time(), clock_gettime,
    std::chrono::*_clock::now, gettimeofday). Wall-clock values leak
    nondeterminism into results and break run-to-run identity.
    (Benchmark timing lives in bench/, outside the scope.)

unordered-aggregation
    src/stats and src/sim are result-aggregation paths: tables, JSON
    and metrics built there must not depend on hash-container
    iteration order, so unordered_map/unordered_set are banned there
    outright (use std::map, sorted vectors, or index-keyed vectors).
    The rule also covers every header under src/: an alias such as
    `using AddrSet = std::unordered_set<Addr>` declared in a header
    elsewhere would otherwise carry the container into those paths
    under a name the rule does not see.

include-layering
    The src/ subsystems form a DAG, set out in LAYERS below: common
    at the bottom, sim and core at the top. A quoted #include from
    one subsystem into another it may not depend on is a back-edge;
    the CMake link lines cannot catch one that only reaches a
    header. A directory under src/ that the table does not name
    fires too, so a new subsystem gets its place in the DAG when it
    is added.

float-accum
    Accumulating into a float/double in src/stats without a named
    policy hides a numerical-stability decision. Any `x += ...` or
    its spelled-out form `x = x + ...` where x is float/double must
    carry a policy annotation (see below), as must std::accumulate
    folding into a float (floating init argument or float target).

hot-path-container
    src/cache, src/ranking and src/sim sit on the per-access hot
    path: node-based hash containers (unordered_map/unordered_set)
    cost a pointer chase plus an allocation per operation there, and
    their iteration order is a latent determinism hazard. Use
    common/flat_map.hh (open addressing, zero steady-state
    allocation) or index-keyed vectors instead. In src/sim and in
    every src/ header the stricter unordered-aggregation rule
    already bans these containers and takes precedence, so a line
    fires exactly one of the two rules.

unchecked-sto
    tools/ and bench/ must not call bare std::sto* (stoi, stoull,
    stod, ...): those accept trailing junk ("12abc" parses as 12) and
    throw ungreppable std::invalid_argument on garbage. Use the
    checked parsers in common/arg_parser.hh (parseInt64Arg,
    parseU64Arg, parseDoubleArg) which validate the full token and
    exit with a diagnostic naming the flag and the offending value.

swallowed-exception
    src/ must not contain a `catch (...)` whose handler neither
    rethrows (`throw;`) nor converts the error into a typed outcome.
    A silently swallowed exception is how state corruption escapes
    the self-checking layer (src/check): the error vanishes and the
    sweep keeps aggregating garbage. The two sanctioned catch-all
    sites — the thread pool's exception trampoline and the sweep's
    per-cell outcome — are allowlisted by path below;
    anything else must rethrow or use // fs-lint: allow(...) with a
    justification.

signal-handler-safety
    A function installed as a signal handler (spotted via
    `.sa_handler = f` / `.sa_sigaction = f` assignments and
    `signal(SIG, f)` calls in the same file) may only call
    async-signal-safe functions: a SIGSEGV can arrive mid-malloc,
    so heap allocation, stdio, std::string, locks, exit() or throw
    inside the handler deadlocks or corrupts state exactly when the
    crash report matters most. The check is lexical over the
    handler's own body (helpers it calls are not followed — keep
    handlers self-contained: format into a stack buffer and hand it
    to write(2), so the body stays auditable).

Suppressions / policies
-----------------------
A finding is suppressed by a directive comment on the same line or
the line directly above it:

    // fs-lint: allow(<rule>) <justification — required>
    // fs-lint: float-accum(<policy-name>) <optional notes>

Examples:

    sum_ += x;  // fs-lint: float-accum(naive-sum) bounded count, see DESIGN.md
    // fs-lint: allow(wall-clock) progress meter only, never in results
    auto t0 = Clock::now();

An allow() with no justification text is itself an error: the whole
point is leaving a paper trail for the next reader.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------- rules

RAW_RANDOM_PATTERNS = [
    (re.compile(r"\bstd::rand\b|(?<![\w:])s?rand\s*\("), "std::rand/srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"\b[dlm]rand48\b|\brandom\s*\(\s*\)"), "libc rand48/random"),
]

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bstd::time\b|(?<![\w:_.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(r"\b(?:system|steady|high_resolution)_clock\b"),
     "std::chrono clock"),
    (re.compile(r"\bgettimeofday\b|\bclock_gettime\b|\btimespec_get\b"),
     "POSIX clock read"),
    (re.compile(r"(?<![\w:_.])clock\s*\(\s*\)"), "clock()"),
]

UNORDERED_PATTERN = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")

UNCHECKED_STO_PATTERN = re.compile(
    r"\bstd::sto(?:i|l|ll|ul|ull|f|d|ld)\b")

CATCH_ALL_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
THROW_RE = re.compile(r"\bthrow\b")

# Signal-handler installation sites. The captured name is the
# handler; SIG_DFL/SIG_IGN and other SIG_* constants are skipped.
HANDLER_ASSIGN_RE = re.compile(
    r"\.sa_(?:handler|sigaction)\s*=\s*(?:&\s*)?([A-Za-z_]\w*)")
HANDLER_SIGNAL_RE = re.compile(
    r"\b(?:std::)?signal\s*\([^,()]+,\s*(?:&\s*)?([A-Za-z_]\w*)\s*\)")

# Not async-signal-safe (POSIX 2.4.3). write()/sigaction()/raise()
# and friends stay legal; these are the common hazards.
UNSAFE_IN_HANDLER = [
    (re.compile(r"\b(?:malloc|calloc|realloc|free|strdup)\s*\("),
     "heap allocation"),
    (re.compile(r"(?<![\w:.])(?:new|delete)\b"), "new/delete"),
    (re.compile(r"\b(?:v?f?printf|s(?:n)?printf|vsnprintf|puts|"
                r"fputs|fputc|putchar|fwrite|fread|fflush|fopen|"
                r"fclose|perror)\s*\("), "stdio"),
    (re.compile(r"\bstd::c(?:out|err|log)\b"), "iostream"),
    (re.compile(r"\bstd::(?:string|vector|ostringstream)\b"),
     "allocating container"),
    (re.compile(r"\b(?:lock_guard|unique_lock|scoped_lock|mutex)\b"
                r"|\.lock\s*\("), "lock"),
    (re.compile(r"(?<![\w_])exit\s*\("), "exit() (use _exit/_Exit)"),
    (re.compile(r"\bthrow\b"), "throw"),
]

# The sanctioned catch-all sites: the pool forwards the captured
# exception_ptr to the submitter, and the sweep records the error in
# the cell's CellOutcome, which values() rethrows. Both "produce a
# typed outcome".
SWALLOW_ALLOWLIST = frozenset({
    "src/runner/thread_pool.cc",
    "src/runner/sweep_runner.hh",
})

# Include DAG: src/ directory -> the directories it may include
# from (its own is always allowed). Mirrors the link structure of
# src/CMakeLists.txt, transitively closed.
LAYERS = {
    "common": set(),
    "stats": {"common"},
    "trace": {"common"},
    "cache": {"common"},
    "alloc": {"common"},
    "ranking": {"common", "cache"},
    "check": {"common", "cache", "ranking"},
    "analytic": {"common", "cache", "ranking", "check"},
    "partition": {"common", "cache", "ranking", "check", "analytic"},
    "runner": {"common", "cache", "ranking", "check"},
    "sim": {"common", "stats", "trace", "cache", "alloc", "ranking",
            "check", "analytic", "partition", "runner"},
    "core": {"common", "stats", "trace", "cache", "alloc", "ranking",
             "check", "analytic", "partition", "runner", "sim"},
}

QUOTED_INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')

# Scopes are path prefixes relative to the scanned root.
RANDOM_SCOPE = ("src/sim", "src/partition", "src/ranking", "src/cache")
AGGREGATION_SCOPE = ("src/stats", "src/sim")
HOT_PATH_SCOPE = ("src/cache", "src/ranking", "src/sim")
ACCUM_SCOPE = ("src/stats",)
STO_SCOPE = ("tools", "bench")
SWALLOW_SCOPE = ("src",)
SIGNAL_SCOPE = ("src",)

ALL_RULES = ("raw-random", "wall-clock", "unordered-aggregation",
             "include-layering", "hot-path-container", "float-accum",
             "unchecked-sto", "swallowed-exception",
             "signal-handler-safety")

DIRECTIVE_RE = re.compile(
    r"//\s*fs-lint:\s*(allow|float-accum)\(([\w-]+)\)\s*(.*)")

# `double name` / `float &name` followed by something that is not an
# opening paren (which would make `name` a function). Heuristic: does
# not see through typedefs or containers-of-double; the goal is the
# common accumulator shapes (members, locals, params).
FLOAT_DECL_RE = re.compile(
    r"\b(?:double|float)\s+[&*]?\s*([A-Za-z_]\w*)\s*[;=,){\[]")

COMPOUND_ADD_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:\+|-)=(?!=)")

# The spelled-out form of the same accumulation: `x = x + ...` /
# `x = x - ...`. Same hazard, historically invisible to the rule.
SELF_ASSIGN_ADD_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?<![=!<>])=(?![=])\s*\1\s*[+\-]")

# std::accumulate folds with operator+ one element at a time — the
# exact numerical-stability decision float-accum exists to surface.
# Flagged when the init argument is a floating literal or the result
# lands in a declared float/double.
ACCUMULATE_CALL_RE = re.compile(r"\bstd::accumulate\s*\(")
FLOAT_LITERAL_RE = re.compile(r"\b\d+\.\d*(?:[eE][+-]?\d+)?[fF]?")


class Finding:
    def __init__(self, path: str, line: int, rule: str, msg: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def strip_code_noise(line: str) -> str:
    """Remove string/char literals and // comments from one line.

    Good enough for lint purposes; multi-line comments are handled by
    the caller. Keeps column structure irrelevant — we only report
    line numbers.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '"' or c == "'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append('""' if quote == '"' else "''")
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def parse_directives(lines: list[str]):
    """Map line number -> (kind, rule-or-policy, justification)."""
    directives = {}
    for no, raw in enumerate(lines, 1):
        m = DIRECTIVE_RE.search(raw)
        if m:
            directives[no] = (m.group(1), m.group(2), m.group(3).strip())
    return directives


def directive_for(directives, comment_only, lineno: int):
    """Find the directive governing `lineno`.

    A directive applies to its own line, or — so justifications can
    span several comment lines — to the first code line below the
    contiguous comment block it sits in.
    """
    if lineno in directives:
        return directives[lineno]
    no = lineno - 1
    while no >= 1 and no in comment_only:
        if no in directives:
            return directives[no]
        no -= 1
    return None


def in_scope(rel: str, scope) -> bool:
    return any(rel == p or rel.startswith(p + "/") for p in scope)


def code_lines(text: str):
    """Yield (lineno, code) with comments and literals stripped."""
    in_block = False
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block = False
        # Drop /* ... */ spans, tracking an unclosed one.
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " + line[end + 2:]
        yield no, strip_code_noise(line)


def float_names(paths) -> set:
    """Names declared float/double across a .cc and its sibling .hh."""
    names = set()
    for p in paths:
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        for _, code in code_lines(text):
            for m in FLOAT_DECL_RE.finditer(code):
                names.add(m.group(1))
    return names


def swallowed_catch_lines(text: str):
    """Line numbers of `catch (...)` handlers containing no throw.

    Reassembles the comment/literal-stripped lines (preserving line
    numbering) and brace-matches each catch-all's block; a handler
    that never mentions `throw` neither rethrows nor constructs a
    typed error, so the exception dies there.
    """
    stripped = dict(code_lines(text))
    total = text.count("\n") + 1
    joined = "\n".join(stripped.get(no, "")
                       for no in range(1, total + 1))
    for m in CATCH_ALL_RE.finditer(joined):
        lineno = joined.count("\n", 0, m.start()) + 1
        brace = joined.find("{", m.end())
        if brace < 0:
            continue
        depth = 0
        i = brace
        while i < len(joined):
            if joined[i] == "{":
                depth += 1
            elif joined[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if not THROW_RE.search(joined[brace:i + 1]):
            yield lineno


def handler_unsafe_lines(text: str):
    """Yield (lineno, handler, hazard) for unsafe handler bodies.

    Collects every function name installed as a signal handler in
    this file, brace-matches each one's definition (same file), and
    scans the body lexically for non-async-signal-safe calls.
    Helpers the handler calls are not followed.
    """
    stripped = dict(code_lines(text))
    total = text.count("\n") + 1
    joined = "\n".join(stripped.get(no, "")
                       for no in range(1, total + 1))
    handlers = set()
    for pat in (HANDLER_ASSIGN_RE, HANDLER_SIGNAL_RE):
        for m in pat.finditer(joined):
            name = m.group(1)
            if not name.startswith("SIG_") and name != "nullptr":
                handlers.add(name)
    for name in sorted(handlers):
        defn = re.compile(
            r"\b" + re.escape(name) + r"\s*\([^;{}()]*\)\s*\{")
        for m in defn.finditer(joined):
            brace = m.end() - 1
            depth = 0
            i = brace
            while i < len(joined):
                if joined[i] == "{":
                    depth += 1
                elif joined[i] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            body = joined[brace:i + 1]
            start = joined.count("\n", 0, brace) + 1
            for off, line in enumerate(body.split("\n")):
                for upat, what in UNSAFE_IN_HANDLER:
                    if upat.search(line):
                        yield start + off, name, what


def layering_findings(rel: str, lines: list[str], code: dict):
    """Yield (lineno, msg) for includes that break the src/ DAG.

    `code` maps line numbers to comment-stripped code, so an include
    inside a block comment is not read.
    """
    parts = rel.split("/")
    if len(parts) < 3 or parts[0] != "src":
        return
    layer = parts[1]
    allowed = LAYERS.get(layer)
    if allowed is None:
        yield 1, (f"src/{layer} is not in the layering table; add it "
                  "to LAYERS in fscache_lint.py with the directories "
                  "it may include from")
        return
    for no, raw in enumerate(lines, 1):
        m = QUOTED_INCLUDE_RE.match(raw.lstrip())
        if m is None or not code.get(no, "").lstrip().startswith("#"):
            continue
        dep = m.group(1).split("/")[0]
        if "/" in m.group(1) and dep != layer and dep in LAYERS \
                and dep not in allowed:
            names = ", ".join(sorted(allowed)) or "none"
            yield no, (f"src/{layer} must not include src/{dep} "
                       f"(allowed: {names}); this is a back-edge in "
                       "the subsystem DAG")


def check_file(root: Path, path: Path, findings: list):
    rel = path.relative_to(root).as_posix()
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        findings.append(Finding(rel, 0, "io", f"unreadable: {e}"))
        return

    raw_lines = text.splitlines()
    directives = parse_directives(raw_lines)
    comment_only = {no for no, raw in enumerate(raw_lines, 1)
                    if raw.lstrip().startswith("//")}

    def report(no: int, rule: str, msg: str):
        d = directive_for(directives, comment_only, no)
        if d is not None:
            kind, arg, just = d
            if kind == "allow" and arg == rule:
                if not just:
                    findings.append(Finding(
                        rel, no, rule,
                        "allow() directive needs a justification"))
                return
            if kind == "float-accum" and rule == "float-accum":
                return  # named policy, any name counts
        findings.append(Finding(rel, no, rule, msg))

    scoped_random = in_scope(rel, RANDOM_SCOPE)
    scoped_agg = (in_scope(rel, AGGREGATION_SCOPE) or
                  (in_scope(rel, ("src",)) and path.suffix == ".hh"))
    scoped_hot = in_scope(rel, HOT_PATH_SCOPE)
    scoped_accum = in_scope(rel, ACCUM_SCOPE)
    scoped_sto = in_scope(rel, STO_SCOPE)
    scoped_swallow = (in_scope(rel, SWALLOW_SCOPE) and
                      rel not in SWALLOW_ALLOWLIST)

    stripped = dict(code_lines(text))
    for no, msg in layering_findings(rel, raw_lines, stripped):
        report(no, "include-layering", msg)

    if in_scope(rel, SIGNAL_SCOPE):
        for no, name, what in handler_unsafe_lines(text):
            report(no, "signal-handler-safety",
                   f"{what} inside signal handler '{name}' is not "
                   "async-signal-safe (a signal can arrive "
                   "mid-malloc/mid-lock); use write(2) on a "
                   "preformatted stack buffer, or _exit")

    if scoped_swallow:
        for no in swallowed_catch_lines(text):
            report(no, "swallowed-exception",
                   "catch (...) that neither rethrows nor produces "
                   "a typed outcome swallows errors (including "
                   "StateCorruptionError); rethrow, convert to a "
                   "typed error, or justify with an allow()")

    accum_names = set()
    if scoped_accum:
        sibling = []
        if path.suffix == ".cc":
            hh = path.with_suffix(".hh")
            if hh.exists():
                sibling = [hh]
        accum_names = float_names([path] + sibling)

    for no, code in stripped.items():
        if code.lstrip().startswith("#"):
            continue  # includes/defines aren't uses
        if scoped_random:
            for pat, what in RAW_RANDOM_PATTERNS:
                if pat.search(code):
                    report(no, "raw-random",
                           f"{what}: randomness outside src/common's "
                           "seeded Rng breaks reproducibility")
            for pat, what in WALL_CLOCK_PATTERNS:
                if pat.search(code):
                    report(no, "wall-clock",
                           f"{what}: wall-clock read in simulation "
                           "code breaks run-to-run determinism")
        if scoped_sto and UNCHECKED_STO_PATTERN.search(code):
            report(no, "unchecked-sto",
                   "bare std::sto* accepts trailing junk and throws "
                   "on garbage; use the checked parsers in "
                   "common/arg_parser.hh (parseInt64Arg, "
                   "parseU64Arg, parseDoubleArg)")
        if scoped_agg and UNORDERED_PATTERN.search(code):
            report(no, "unordered-aggregation",
                   "hash-container in a result-aggregation path; "
                   "iteration order is unspecified — use std::map, "
                   "a sorted vector, or an index-keyed vector")
        elif scoped_hot and UNORDERED_PATTERN.search(code):
            report(no, "hot-path-container",
                   "node-based hash container on the per-access hot "
                   "path; use common/flat_map.hh or an index-keyed "
                   "vector (pointer chase + allocation per op)")
        if scoped_accum:
            for m in COMPOUND_ADD_RE.finditer(code):
                if m.group(1) in accum_names:
                    report(no, "float-accum",
                           f"accumulation into float/double "
                           f"'{m.group(1)}' without a named policy; "
                           "annotate with // fs-lint: "
                           "float-accum(<policy>)")
            for m in SELF_ASSIGN_ADD_RE.finditer(code):
                if m.group(1) in accum_names:
                    report(no, "float-accum",
                           f"accumulation into float/double "
                           f"'{m.group(1)}' (spelled x = x + ...) "
                           "without a named policy; annotate with "
                           "// fs-lint: float-accum(<policy>)")
            if ACCUMULATE_CALL_RE.search(code):
                tail = code[ACCUMULATE_CALL_RE.search(code).end():]
                target = re.match(
                    r"\s*(?:double\b|float\b)?\s*([A-Za-z_]\w*)\s*=",
                    code)
                into_float = (
                    FLOAT_LITERAL_RE.search(tail) is not None or
                    (target is not None and
                     target.group(1) in accum_names))
                if into_float:
                    report(no, "float-accum",
                           "std::accumulate into float/double folds "
                           "with operator+ element by element; name "
                           "the policy with // fs-lint: "
                           "float-accum(<policy>) or use a "
                           "compensated sum")


def scan(root: Path, files=None) -> list:
    findings: list = []
    if files is None:
        files = []
        for sub in ("src", "tools", "bench"):
            d = root / sub
            if d.is_dir():
                files.extend(p for p in d.rglob("*")
                             if p.suffix in (".cc", ".hh"))
        # The bundled bad-snippet fixtures are *supposed* to fail.
        lint_fx = root / "tools" / "lint_fixtures"
        files = sorted(p for p in files if lint_fx not in p.parents)
    for f in files:
        check_file(root, f, findings)
    return findings


# ------------------------------------------------------------ self-test

def self_test(repo_root: Path) -> int:
    """Run the linter against the bundled bad-snippet fixtures.

    The fixture tree mirrors a repo root (src/sim, src/stats, ...) so
    the path-scoped rules fire exactly as they would on real code.
    Expected findings are asserted precisely: a rule that stops
    firing on its fixture means the lint has silently rotted.
    """
    fixture_root = repo_root / "tools" / "lint_fixtures"
    if not fixture_root.is_dir():
        print(f"self-test: fixture dir missing: {fixture_root}",
              file=sys.stderr)
        return 2
    findings = scan(fixture_root)
    got = {(f.path, f.line, f.rule) for f in findings}
    expected = {
        ("src/sim/bad_clock.cc", 9, "wall-clock"),
        ("src/sim/bad_clock.cc", 12, "wall-clock"),
        ("src/sim/bad_clock.cc", 18, "wall-clock"),
        ("src/cache/bad_container.cc", 12, "hot-path-container"),
        ("src/cache/bad_container.cc", 13, "hot-path-container"),
        ("src/cache/bad_container.cc", 18, "hot-path-container"),
        ("src/ranking/bad_random.cc", 8, "raw-random"),
        ("src/ranking/bad_random.cc", 12, "raw-random"),
        ("src/ranking/bad_random.cc", 15, "raw-random"),
        ("src/stats/bad_accum.cc", 15, "float-accum"),
        ("src/stats/bad_accum.cc", 23, "unordered-aggregation"),
        ("src/stats/bad_accum.cc", 32, "float-accum"),
        ("src/stats/bad_accum.cc", 38, "float-accum"),
        ("src/stats/bad_accum.cc", 44, "float-accum"),
        ("tools/bad_sto.cc", 9, "unchecked-sto"),
        ("tools/bad_sto.cc", 10, "unchecked-sto"),
        ("src/runner/bad_catch.cc", 11, "swallowed-exception"),
        ("src/check/bad_handler.cc", 11, "signal-handler-safety"),
        ("src/check/bad_handler.cc", 12, "signal-handler-safety"),
        ("src/check/bad_handler.cc", 13, "signal-handler-safety"),
        ("src/check/bad_handler.cc", 14, "signal-handler-safety"),
        ("src/stats/bad_layering.cc", 12, "include-layering"),
        ("src/stats/bad_layering.cc", 13, "include-layering"),
        ("src/common/bad_alias.hh", 21, "unordered-aggregation"),
    }
    ok = True
    for miss in sorted(expected - got):
        print(f"self-test: expected finding not produced: {miss}",
              file=sys.stderr)
        ok = False
    for extra in sorted(got - expected):
        print(f"self-test: unexpected finding: {extra}", file=sys.stderr)
        ok = False
    if not ok:
        return 2
    print(f"self-test: ok ({len(expected)} expected findings, "
          "suppressed and allowed lines stayed quiet)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="fscache determinism lint (see module docstring)")
    ap.add_argument("paths", nargs="*", type=Path,
                    help="files to lint (default: all of src/)")
    ap.add_argument("--root", type=Path, default=None,
                    help="repo root (default: this script's repo)")
    ap.add_argument("--self-test", action="store_true",
                    help="lint the bundled bad-snippet fixtures and "
                         "verify the expected findings fire")
    args = ap.parse_args(argv)

    repo_root = (args.root or Path(__file__).resolve().parent.parent)
    repo_root = repo_root.resolve()

    if args.self_test:
        return self_test(repo_root)

    files = None
    if args.paths:
        files = []
        for p in args.paths:
            p = p.resolve()
            if p.is_dir():
                files.extend(sorted(
                    q for q in p.rglob("*") if q.suffix in (".cc", ".hh")))
            else:
                files.append(p)
    findings = scan(repo_root, files)
    for f in findings:
        print(f)
    if findings:
        print(f"fscache_lint: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
