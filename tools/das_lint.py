#!/usr/bin/env python3
"""das_lint: DASSA's custom invariant lint over src/ and include/.

Rules (see docs/ANALYSIS.md for rationale and how to add one):

  no-const-cast    const_cast is banned in src/ and include/. Reads are
                   const (ArraySource::read_slab); casting constness
                   away hides mutation from the engine's contracts.
  no-naked-new     Array new / delete are banned; scalar `new` is only
                   allowed feeding a smart pointer on the same line
                   (for types with private constructors, where
                   make_shared cannot be used).
  dassa-throw      Every `throw` in src/ must raise a dassa:: error
                   type, so callers (and the fuzz harness) can rely on
                   catching dassa::Error for any library failure.
  counter-prefix   Counter names live in one place (counters.hpp) and
                   must sit in a registered dotted namespace:
                   io io.codec io.cache mpi mem dsp.fft dsp.butter
                   dsp.resample haee trace.  String literals fed to the
                   registry directly in src/ must match too. New
                   subsystems register their namespace here.
  trace-span-macro Spans are opened only through DASSA_TRACE_SPAN.
                   Naming trace::detail::SpanGuard anywhere outside
                   common/trace.hpp bypasses the macro's single
                   enable-check shape and its scope naming, so the
                   type itself is off-limits to the rest of the tree.
  include-hygiene  Headers carry #pragma once, never `using namespace`
                   at namespace scope, and never include <iostream>
                   (iostream's static init order and weight do not
                   belong in library headers).
  entry-guard      Public API entry points (out-of-line definitions in
                   src/*.cpp taking arguments) must validate input:
                   the body must contain DASSA_CHECK / a validate
                   helper / a typed throw. Findings are ratcheted
                   against tools/das_lint_baseline.txt: legacy
                   unguarded functions are listed there; new ones
                   fail the lint.
  no-raw-intrinsics CPU intrinsics (_mm_* / _mm256_* / __m128 / __m256
                   / NEON vld1/vst1 / <immintrin.h> / <arm_neon.h>)
                   live only in the SIMD layer
                   (include/dassa/common/simd.hpp, src/common/simd.cpp).
                   Everywhere else targets the dassa::simd API so the
                   runtime dispatcher (DASSA_SIMD) stays the single
                   point of truth for what instruction set runs.
  no-direct-stderr Diagnostics go through the structured logger
                   (DASSA_LOG / DASSA_SLOG); the only sanctioned raw
                   stderr write is the console sink in
                   src/common/log.cpp. Also runs over tools/ (the only
                   rule that does). Per-file findings are ratcheted
                   against the baseline, keyed by write count, so the
                   count can only go down.
  sync-primitive   Naked std synchronisation types (std::mutex,
                   std::shared_mutex, std::condition_variable, the lock
                   adapters, and their headers) are banned outside
                   include/dassa/common/sync.hpp. Everything else uses
                   dassa::Mutex / SharedMutex / CondVar and the
                   MutexLock / ReaderLock / WriterLock scopes, which
                   carry the Clang thread-safety capability annotations
                   -- a naked std type is invisible to -Wthread-safety.
  no-naked-socket  Raw socket syscalls (socket/bind/listen/accept/
                   connect/...) and <sys/socket.h>/<sys/un.h> live only
                   in the serve socket layer (dassa/serve/socket.hpp,
                   src/serve/socket.cpp), which owns framing, EINTR
                   retries, MSG_NOSIGNAL, and the byte counters.
                   Everywhere else talks serve::Connection /
                   serve::Listener so no frame can bypass the audited
                   I/O path.

Zero findings is enforced by ctest (`tools_das_lint`). To accept a new
entry-guard / no-direct-stderr finding deliberately, run with
--update-baseline and commit the diff; every other rule has no baseline
and must stay clean.

Every rule ships a positive and a negative fixture; `--self-test` runs
all of them (ctest `tools_das_lint_selftest`) so a regressed regex
fails fast instead of silently passing everything.

Usage:
    python3 tools/das_lint.py [--repo DIR] [--update-baseline]
    python3 tools/das_lint.py --self-test
"""

import argparse
import pathlib
import re
import sys

CANONICAL_COUNTER_PREFIX = re.compile(
    r"^(io|mpi|mem|dsp|haee|trace|telemetry|ingest|serve|stats)\.")
# Registered counter namespaces: everything before the final dot of a
# counter name must appear here. Adding a subsystem (e.g. the DASH5 v3
# storage engine's io.codec / io.cache) means adding its namespace.
# Histogram names fed to global_metrics().histogram("...") are held to
# the same register (serve.lat is the request-tracing stage family).
CANONICAL_COUNTER_NAMESPACES = frozenset({
    "io", "io.codec", "io.cache", "io.pool", "io.repack", "io.index",
    "mpi", "mem",
    "dsp.fft", "dsp.butter", "dsp.resample",
    "haee", "haee.stage",
    "trace",
    "telemetry",
    "log",
    "ingest", "ingest.queue",
    "serve", "serve.queue", "serve.batch", "serve.lat",
    "stats",
})
STD_EXCEPTIONS = (
    "std::", "runtime_error", "logic_error", "invalid_argument",
    "out_of_range", "length_error", "bad_alloc", "exception",
)
DASSA_ERROR_TYPES = (
    "Error", "InvalidArgument", "IoError", "FormatError", "MpiError",
    "StateError",
)
GUARD_TOKENS = re.compile(
    r"DASSA_CHECK|DASSA_BOUNDS_CHECK|validate|throw\s|\bresolve\("
    r"|\bcheck_\w+\(")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literal contents, preserving
    line structure so reported line numbers stay meaningful."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, rule, path, line, message, key=None):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        # Stable identity for the baseline (line numbers drift).
        self.key = key or f"{rule}:{path}:{message}"

    def __str__(self):
        return f"{self.rule}  {self.path}:{self.line}  {self.message}"


def iter_lines(scrubbed):
    return enumerate(scrubbed.splitlines(), start=1)


def rule_no_const_cast(path, scrubbed, raw):
    for lineno, line in iter_lines(scrubbed):
        if "const_cast" in line:
            yield Finding("no-const-cast", path, lineno,
                          "const_cast is banned")


def rule_no_naked_new(path, scrubbed, raw):
    for lineno, line in iter_lines(scrubbed):
        if re.search(r"\bdelete\b", line):
            # Deleted special member functions are idiomatic.
            if re.search(r"=\s*delete", line):
                continue
            yield Finding("no-naked-new", path, lineno,
                          "manual delete is banned (use RAII)")
        m = re.search(r"\bnew\b(\s*\(\s*std::nothrow\s*\))?", line)
        if m and not re.search(r"\bnew\b\s*\(", line):
            if re.search(r"\bnew\b[^;]*\[", line):
                yield Finding("no-naked-new", path, lineno,
                              "array new[] is banned (use std::vector)")
            elif not re.search(r"(make_unique|make_shared|shared_ptr|"
                               r"unique_ptr)", line):
                yield Finding("no-naked-new", path, lineno,
                              "naked new outside a smart pointer")


def rule_dassa_throw(path, scrubbed, raw):
    if not str(path).startswith("src/"):
        return
    for lineno, line in iter_lines(scrubbed):
        m = re.search(r"\bthrow\s+([A-Za-z_][\w:]*)", line)
        if not m:
            continue
        what = m.group(1)
        if what.startswith("dassa::") or what in DASSA_ERROR_TYPES:
            continue
        yield Finding("dassa-throw", path, lineno,
                      f"throws non-DASSA type '{what}'")


def counter_name_problem(name):
    """Return a description of what is wrong with counter `name`, or
    None if it is canonical: top-level prefix registered AND the dotted
    namespace (everything before the final dot) listed in
    CANONICAL_COUNTER_NAMESPACES."""
    if not CANONICAL_COUNTER_PREFIX.match(name):
        return ("outside canonical namespaces "
                "io|mpi|mem|dsp|haee|trace|telemetry|ingest|serve|stats")
    namespace = name.rsplit(".", 1)[0]
    if namespace not in CANONICAL_COUNTER_NAMESPACES:
        return (f"namespace '{namespace}' not registered in "
                "CANONICAL_COUNTER_NAMESPACES")
    return None


def rule_counter_prefix(path, scrubbed, raw):
    raw_lines = raw.splitlines()
    if path.endswith("common/counters.hpp"):
        for lineno, line in enumerate(raw_lines, start=1):
            m = re.search(r'inline constexpr const char\* k\w+\s*=?\s*'
                          r'"([^"]+)"', line)
            if not m:
                # Multi-line constant: name on one line, literal later.
                m = re.match(r'\s*"([^"]+)";', line)
            if m:
                problem = counter_name_problem(m.group(1))
                if problem:
                    yield Finding("counter-prefix", path, lineno,
                                  f"counter '{m.group(1)}' {problem}")
        return
    for lineno, line in enumerate(raw_lines, start=1):
        # Only calls on a counter registry count (pipeline stage names
        # etc. also flow through methods called `add`): by-name charges
        # on global_counters(), and the cell lookup `.counter("name")`
        # that hot sites resolve once and hold.
        m = re.search(r'(?:counters\(\)\s*\.\s*(?:add|high_water|get)'
                      r'|(?:\.|->)\s*counter)\(\s*"([^"]+)"', line)
        if m:
            problem = counter_name_problem(m.group(1))
            if problem:
                yield Finding("counter-prefix", path, lineno,
                              f"counter literal '{m.group(1)}' {problem}")
        # Histogram names share the metric namespace register: a
        # das_top or Prometheus consumer sees them next to the
        # counters, so they obey the same naming discipline.
        m = re.search(r'\.\s*histogram\(\s*"([^"]+)"', line)
        if m:
            problem = counter_name_problem(m.group(1))
            if problem:
                yield Finding("counter-prefix", path, lineno,
                              f"histogram literal '{m.group(1)}' {problem}")


def rule_include_hygiene(path, scrubbed, raw):
    if not path.endswith((".hpp", ".h")):
        return
    if "#pragma once" not in raw:
        yield Finding("include-hygiene", path, 1, "missing #pragma once")
    for lineno, line in iter_lines(scrubbed):
        if re.search(r"^\s*using\s+namespace\b", line):
            yield Finding("include-hygiene", path, lineno,
                          "using-namespace at namespace scope in a header")
        if re.search(r'#\s*include\s*<iostream>', line):
            yield Finding("include-hygiene", path, lineno,
                          "<iostream> in a header")


def rule_no_direct_stderr(path, scrubbed, raw):
    """All diagnostics flow through the structured logger (DASSA_LOG /
    DASSA_SLOG), which owns the one sanctioned stderr write in
    src/common/log.cpp. Direct std::cerr / fprintf(stderr, ...) anywhere
    else bypasses level filtering, rank/thread attribution, and the
    JSONL sink. Findings are ratcheted per file against the baseline:
    the legacy tool usage printers are listed there; new direct writes
    fail the lint."""
    if path == "src/common/log.cpp":
        return  # the console sink itself
    hits = 0
    first_line = 0
    for lineno, line in iter_lines(scrubbed):
        if re.search(r"\bstd::cerr\b|\bfprintf\s*\(\s*stderr\b"
                     r"|\bperror\s*\(", line):
            hits += 1
            if first_line == 0:
                first_line = lineno
    if hits:
        # The count is part of the key: adding a stderr write to an
        # already-baselined file changes the key and fails the lint
        # (and removing one flags the baseline entry as stale, so the
        # ratchet only ever tightens).
        yield Finding(
            "no-direct-stderr", path, first_line,
            f"{hits} direct stderr write(s); route diagnostics through "
            "DASSA_LOG / DASSA_SLOG",
            key=f"no-direct-stderr:{path}:{hits}")


def rule_trace_span_macro(path, scrubbed, raw):
    """SpanGuard is an implementation detail of DASSA_TRACE_SPAN; any
    other spelling of it in the tree is a macro bypass."""
    if path.endswith("common/trace.hpp"):
        return
    for lineno, line in iter_lines(scrubbed):
        if "SpanGuard" in line:
            yield Finding("trace-span-macro", path, lineno,
                          "construct spans via DASSA_TRACE_SPAN, not "
                          "trace::detail::SpanGuard")


SIMD_LAYER_FILES = frozenset({
    "include/dassa/common/simd.hpp",
    "src/common/simd.cpp",
})
RAW_INTRINSIC = re.compile(
    r"\b_mm_\w+|\b_mm256_\w+|\b__m128i?d?\b|\b__m256i?d?\b"
    r"|\bvld1q?_\w+|\bvst1q?_\w+|\b(?:u?int|float)(?:8|16|32|64)x\d+_t\b"
    r"|#\s*include\s*<(?:immintrin|emmintrin|tmmintrin|smmintrin|"
    r"arm_neon)\.h>")


def rule_no_raw_intrinsics(path, scrubbed, raw):
    """Vector intrinsics are confined to the SIMD layer; the rest of the
    tree calls dassa::simd so the DASSA_SIMD runtime dispatcher remains
    the single decision point for which instruction set runs."""
    if path in SIMD_LAYER_FILES:
        return
    for lineno, line in iter_lines(scrubbed):
        m = RAW_INTRINSIC.search(line)
        if m:
            yield Finding("no-raw-intrinsics", path, lineno,
                          f"raw intrinsic '{m.group(0)}' outside the "
                          "SIMD layer (use dassa::simd)")


FUNC_DEF = re.compile(
    r"^[A-Za-z_][\w:<>,&*\s\[\]]*?"      # return type (line starts at col 0)
    r"\b((?:[A-Za-z_]\w*::)*[A-Za-z_~]\w*)"  # qualified function name
    r"\s*\(([^;{}]*)\)"                  # parameter list
    r"(\s*const)?\s*\{",                 # opening brace (possibly const)
    re.M | re.S)


ANON_NAMESPACE = re.compile(r"\bnamespace\s*\{")


def matching_brace(text, open_idx):
    """Index of the `}` closing the `{` at `open_idx` (len(text) if the
    brace is never closed)."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def rule_entry_guard(path, scrubbed, raw):
    """Out-of-line definitions in src/*.cpp with parameters must
    validate input near the top of the body."""
    if not (str(path).startswith("src/") and path.endswith(".cpp")):
        return
    # Local helpers inside anonymous namespaces are not public API; they
    # are only reachable through a guarded entry point. The extents come
    # from brace matching: the `}  // namespace` close marker is a
    # comment, blank in the scrubbed text.
    anonymous = [(m.start(), matching_brace(scrubbed, m.end() - 1))
                 for m in ANON_NAMESPACE.finditer(scrubbed)]
    for m in FUNC_DEF.finditer(scrubbed):
        name, params = m.group(1), m.group(2).strip()
        if not params or params == "void":
            continue
        if any(lo < m.start() < hi for lo, hi in anonymous):
            continue
        body = scrubbed[m.end():matching_brace(scrubbed, m.end() - 1)]
        lineno = scrubbed[:m.start()].count("\n") + 1
        if not GUARD_TOKENS.search(body):
            yield Finding(
                "entry-guard", path, lineno,
                f"'{name}' takes arguments but has no DASSA_CHECK / "
                "validation in its body",
                key=f"entry-guard:{path}:{name}")


SYNC_EXEMPT_FILES = frozenset({
    "include/dassa/common/sync.hpp",
})
NAKED_SYNC = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|condition_variable(?:_any)?|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock)\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")


def rule_sync_primitive(path, scrubbed, raw):
    """Synchronisation flows through the annotated wrappers in
    include/dassa/common/sync.hpp (dassa::Mutex / SharedMutex / CondVar
    plus the MutexLock / ReaderLock / WriterLock scopes). A naked std
    sync type carries no capability annotation, so Clang's
    -Wthread-safety analysis cannot see what it guards."""
    if path in SYNC_EXEMPT_FILES:
        return
    for lineno, line in iter_lines(scrubbed):
        m = NAKED_SYNC.search(line)
        if m:
            yield Finding(
                "sync-primitive", path, lineno,
                f"naked '{m.group(0)}' outside sync.hpp (use dassa::Mutex"
                " / MutexLock / CondVar so -Wthread-safety can check it)")


SOCKET_LAYER_FILES = frozenset({
    "include/dassa/serve/socket.hpp",
    "src/serve/socket.cpp",
})
# Free-function syscall names only: method spellings (`conn.shutdown()`,
# `listener_->accept()`) are excluded by the lookbehind, and plain
# send/recv stay off the list because mpi::Comm declares methods with
# those names. The socket layer neither sends nor receives outside
# write_full/read_full anyway.
NAKED_SOCKET = re.compile(
    r"(?<![\w.>:])(?:::)?(?:socket|bind|listen|accept4?|connect|sendto|"
    r"recvfrom|sendmsg|recvmsg|setsockopt|getsockname)\s*\("
    r"|#\s*include\s*<sys/(?:socket|un)\.h>")


def rule_no_naked_socket(path, scrubbed, raw):
    """Raw socket syscalls live only in the serve socket layer, which
    owns length-prefixed framing, EINTR retries, MSG_NOSIGNAL, and the
    serve.bytes_* counters. Anywhere else must go through
    serve::Connection / serve::Listener, so no request or response can
    bypass the audited I/O path (or its accounting)."""
    if path in SOCKET_LAYER_FILES:
        return
    for lineno, line in iter_lines(scrubbed):
        m = NAKED_SOCKET.search(line)
        if m:
            yield Finding("no-naked-socket", path, lineno,
                          f"raw socket call '{m.group(0).strip()}' outside "
                          "the serve socket layer (use serve::Connection)")


RULES = [
    rule_no_const_cast,
    rule_no_naked_new,
    rule_dassa_throw,
    rule_counter_prefix,
    rule_include_hygiene,
    rule_no_direct_stderr,
    rule_trace_span_macro,
    rule_no_raw_intrinsics,
    rule_entry_guard,
    rule_sync_primitive,
    rule_no_naked_socket,
]

# tools/ is CLI glue, not library code: argument-parsing idioms
# (<iostream> in arg_parse.hpp, unguarded helpers) are fine there, but
# diagnostics must still go through the structured logger.
TOOLS_RULES = [rule_no_direct_stderr]

# ---------------------------------------------------------------------------
# Self-test fixtures: one positive (must flag) and one negative (must
# stay clean) snippet per rule, run by --self-test / ctest
# tools_das_lint_selftest. Paths are synthetic but shaped like the real
# tree so path-scoped rules fire.
# ---------------------------------------------------------------------------

SELF_TEST_FIXTURES = [
    # (rule, synthetic path, code, expect_finding)
    (rule_no_const_cast, "src/fix/pos.cpp",
     "void f(const int* q) {\n  int* p = const_cast<int*>(q);\n"
     "  (void)p;\n}\n", True),
    (rule_no_const_cast, "src/fix/neg.cpp",
     "void f(const int* q) {\n  const int* p = q;\n  (void)p;\n}\n", False),
    (rule_no_naked_new, "src/fix/pos.cpp",
     "void f() {\n  int* p = new int[3];\n  (void)p;\n}\n", True),
    (rule_no_naked_new, "src/fix/neg.cpp",
     "#include <memory>\nvoid f() {\n"
     "  auto p = std::make_unique<int>(1);\n  (void)p;\n}\n", False),
    (rule_dassa_throw, "src/fix/pos.cpp",
     "void f() {\n  throw std::runtime_error(\"boom\");\n}\n", True),
    (rule_dassa_throw, "src/fix/neg.cpp",
     "void f() {\n  throw InvalidArgument(\"boom\");\n}\n", False),
    (rule_counter_prefix, "src/fix/pos.cpp",
     "void f() {\n  global_counters().add(\"bogus.subsystem.calls\", 1);\n"
     "}\n", True),
    (rule_counter_prefix, "src/fix/neg.cpp",
     "void f() {\n  global_counters().add(\"io.codec.bytes\", 1);\n}\n",
     False),
    (rule_counter_prefix, "src/fix/pos.cpp",
     "void f() {\n  static Counter& c =\n"
     "      global_counters().counter(\"bogus.subsystem.calls\");\n"
     "  c.add();\n}\n", True),
    (rule_counter_prefix, "src/fix/neg.cpp",
     "void f() {\n  static Counter& c =\n"
     "      global_counters().counter(\"io.codec.bytes\");\n"
     "  c.add();\n}\n", False),
    (rule_counter_prefix, "src/fix/pos.cpp",
     "void f() {\n"
     "  global_metrics().histogram(\"rogue.lat.decode\").record_ns(1);\n"
     "}\n", True),
    (rule_counter_prefix, "src/fix/neg.cpp",
     "void f() {\n"
     "  global_metrics().histogram(\"serve.lat.decode\").record_ns(1);\n"
     "}\n", False),
    (rule_include_hygiene, "include/dassa/fix/pos.hpp",
     "#include <iostream>\nusing namespace std;\n", True),
    (rule_include_hygiene, "include/dassa/fix/neg.hpp",
     "#pragma once\n#include <vector>\n", False),
    (rule_no_direct_stderr, "src/fix/pos.cpp",
     "#include <iostream>\nvoid f() {\n  std::cerr << \"oops\\n\";\n}\n",
     True),
    (rule_no_direct_stderr, "src/fix/neg.cpp",
     "void f() {\n  DASSA_LOG(kWarn, \"oops\");\n}\n", False),
    (rule_trace_span_macro, "src/fix/pos.cpp",
     "void f() {\n  trace::detail::SpanGuard g(\"cat\", \"name\");\n}\n",
     True),
    (rule_trace_span_macro, "src/fix/neg.cpp",
     "void f() {\n  DASSA_TRACE_SPAN(\"cat\", \"name\");\n}\n", False),
    (rule_no_raw_intrinsics, "src/fix/pos.cpp",
     "#include <immintrin.h>\nvoid f(__m256d* v) {\n  (void)v;\n}\n", True),
    (rule_no_raw_intrinsics, "src/fix/neg.cpp",
     "void f(double* v, std::size_t n) {\n"
     "  dassa::simd::scale(v, n, 2.0);\n}\n", False),
    (rule_no_raw_intrinsics, "src/common/simd.cpp",
     "#include <immintrin.h>\n", False),  # the SIMD layer itself
    (rule_entry_guard, "src/fix/pos.cpp",
     "int scale(int v) {\n  return v * 2;\n}\n", True),
    (rule_entry_guard, "src/fix/neg.cpp",
     "int scale(int v) {\n"
     "  DASSA_CHECK(v >= 0, \"v must be non-negative\");\n"
     "  return v * 2;\n}\n", False),
    (rule_entry_guard, "src/fix/pos.cpp",
     "namespace {\nint twice(int v) {\n  return v * 2;\n}\n"
     "}  // namespace\n\nint scale(int v) {\n  return twice(v);\n}\n",
     True),  # a public definition after a closed anonymous namespace
    (rule_entry_guard, "src/fix/neg.cpp",
     "namespace {\nint twice(int v) {\n  return v * 2;\n}\n"
     "}  // namespace\n", False),
    (rule_sync_primitive, "src/fix/pos.cpp",
     "#include <mutex>\nstruct S {\n  std::mutex mu;\n};\n", True),
    (rule_sync_primitive, "src/fix/neg.cpp",
     "#include \"dassa/common/sync.hpp\"\nstruct S {\n"
     "  dassa::Mutex mu;\n};\n", False),
    (rule_sync_primitive, "include/dassa/common/sync.hpp",
     "#include <mutex>\nclass Mutex {\n  std::mutex mu_;\n};\n",
     False),  # the wrapper layer itself
    (rule_no_naked_socket, "src/fix/pos.cpp",
     "#include <sys/socket.h>\nvoid f() {\n"
     "  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n  (void)fd;\n}\n",
     True),
    (rule_no_naked_socket, "src/fix/neg.cpp",
     "#include \"dassa/serve/socket.hpp\"\nvoid f() {\n"
     "  auto conn = dassa::serve::connect_local(\"/tmp/s.sock\");\n"
     "  conn.shutdown();\n}\n", False),
    (rule_no_naked_socket, "src/serve/socket.cpp",
     "#include <sys/socket.h>\nvoid f() {\n"
     "  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n  (void)fd;\n}\n",
     False),  # the audited socket layer itself
    (rule_no_naked_socket, "src/serve/stats.cpp",
     "#include \"dassa/serve/socket.hpp\"\nvoid f() {\n"
     "  dassa::serve::Listener listener(\"/tmp/stats.sock\");\n"
     "  auto conn = listener.accept();\n  conn->shutdown();\n}\n",
     False),  # the stats layer is NOT exempt; it must stay on the API
]


def self_test():
    """Run every fixture through its rule; return the exit code."""
    failures = []
    for rule, path, code, expect in SELF_TEST_FIXTURES:
        scrubbed = strip_comments_and_strings(code)
        found = list(rule(path, scrubbed, code))
        if bool(found) != expect:
            want = "a finding" if expect else "no findings"
            got = (", ".join(str(f) for f in found)
                   if found else "none")
            failures.append(
                f"{rule.__name__} on {path}: expected {want}, got {got}")
    for f in failures:
        print(f"self-test FAIL  {f}", file=sys.stderr)
    if failures:
        print(f"das_lint --self-test: {len(failures)} fixture(s) failed",
              file=sys.stderr)
        return 1
    print(f"das_lint --self-test: {len(SELF_TEST_FIXTURES)} fixture(s) ok")
    return 0

# Rules whose findings are ratcheted against tools/das_lint_baseline.txt
# instead of being hard failures. Everything else must stay at zero.
BASELINED_RULES = frozenset({"entry-guard", "no-direct-stderr"})


def lint(repo):
    findings = []
    for root, rules in ((repo / "src", RULES), (repo / "include", RULES),
                        (repo / "tools", TOOLS_RULES)):
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".cpp", ".hpp", ".h"):
                continue
            rel = str(path.relative_to(repo))
            raw = path.read_text(encoding="utf-8", errors="replace")
            scrubbed = strip_comments_and_strings(raw)
            for rule in rules:
                findings.extend(rule(rel, scrubbed, raw))
    return findings


def load_baseline(path):
    if not path.exists():
        return set()
    keys = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            keys.add(line)
    return keys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", default=pathlib.Path(__file__).parent.parent,
                        type=pathlib.Path)
    parser.add_argument("--update-baseline", action="store_true",
                        help="accept current entry-guard findings into "
                             "the baseline file")
    parser.add_argument("--self-test", action="store_true",
                        help="run every rule against its positive and "
                             "negative fixtures and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    repo = args.repo.resolve()
    baseline_path = repo / "tools" / "das_lint_baseline.txt"

    findings = lint(repo)
    baseline = load_baseline(baseline_path)

    if args.update_baseline:
        accepted = sorted(f.key for f in findings
                          if f.rule in BASELINED_RULES)
        header = ("# das_lint baseline for the ratcheted rules "
                  "(entry-guard, no-direct-stderr):\n# legacy findings "
                  "accepted as-is. New findings must either be fixed or "
                  "be\n# added here via `python3 tools/das_lint.py "
                  "--update-baseline` in the same\n# review.\n")
        baseline_path.write_text(header + "\n".join(accepted) + "\n")
        print(f"das_lint: baseline updated with {len(accepted)} entries")
        return 0

    fresh = [f for f in findings
             if f.rule not in BASELINED_RULES or f.key not in baseline]
    used = {f.key for f in findings
            if f.rule in BASELINED_RULES and f.key in baseline}
    stale = sorted(baseline - used)

    for f in fresh:
        print(f, file=sys.stderr)
    for key in stale:
        print(f"stale-baseline  {key}  (fixed? remove it from "
              f"{baseline_path.name})", file=sys.stderr)

    checked = len(findings)
    if fresh or stale:
        print(f"das_lint: {len(fresh)} finding(s), {len(stale)} stale "
              "baseline entr(y/ies)", file=sys.stderr)
        return 1
    print(f"das_lint: clean ({checked} baselined finding(s) accepted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
