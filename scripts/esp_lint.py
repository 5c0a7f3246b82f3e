#!/usr/bin/env python3
"""Project-invariant analyzer: rules clang-tidy cannot express.

Two backends share one rule engine:

  * AST mode (--mode ast): drives libclang over compile_commands.json, so
    calls are resolved through the real overload set, annotations are read
    from the declaration the compiler saw, and lock scopes follow the AST.
  * Structural mode (--mode regex): a brace/paragraph-aware text analysis of
    the same rules -- approximate but dependency-free, so the gate runs on
    every toolchain (including ones without libclang).

--mode auto (the default) uses AST when libclang AND a compilation database
are available, structural otherwise.  In --mode ast a missing libclang exits
with code 77 (the ctest SKIP convention) instead of silently passing.

Line rules (both backends)
--------------------------
raw-sync-primitive   No std::mutex / std::condition_variable / std::lock_guard /
                     std::unique_lock / std::scoped_lock / std::shared_mutex
                     outside src/common/thread_annotations.h.  Everything must
                     go through the annotated esp::Mutex / esp::MutexLock /
                     esp::CondVar wrappers so the Clang thread-safety leg sees
                     every acquisition.
detached-thread      No std::thread::detach().  Detached threads outlive
                     engine teardown and turn shutdown races into heisenbugs;
                     every thread in this codebase is joined.
unseeded-rng         Benchmarks must not construct RNGs without an explicit
                     seed (std::random_device, time()-seeded engines, or
                     esp::Rng with no argument).  Bench numbers must be
                     reproducible run to run.
unbounded-queue      Runtime code (src/runtime/) must not build unbounded
                     FIFOs (std::deque / std::queue / std::list as a channel).
                     Backpressure is load-bearing: the paper's latency model
                     assumes bounded buffers.
hot-path-alloc       The per-record hot path (src/runtime/record.h,
                     spsc_queue.h, chain.h, claim.h, fanin_lanes.h) must
                     not introduce heap allocation: no operator new,
                     std::make_shared / std::make_unique.  The zero-alloc steady state is a
                     measured invariant (AllocCounting tests); the single
                     sanctioned boxing path carries an explicit allow.
bare-nolint          Every NOLINT marker must carry a specific check name and
                     a reason: NOLINT(<check>) followed by an explanation on
                     the same line.
bare-effect-escape   Every ESP_EFFECTS_ESCAPE_BEGIN must carry a trailing
                     `// <why this effect is sanctioned here>` comment; an
                     unexplained escape is an unexplained hole in the
                     hot-path effect contract.
swallowed-exception  Runtime code (src/runtime/) must not contain a
                     `catch (...)` whose block neither rethrows nor records
                     the failure (ReportTaskFailure / FailureEvent /
                     failures_).  A silently swallowed exception turns a task
                     crash into a wedge the supervisor cannot see; every
                     failure must reach the FailureEvent log or propagate.

Graph rules (both backends; the AST backend resolves calls exactly)
-------------------------------------------------------------------
blocking-in-nonblocking  A function annotated ESP_NONBLOCKING (or, for the
                     allocation/throw subset, ESP_NONALLOCATING) must not
                     lock, wait, sleep, allocate or throw outside an
                     ESP_EFFECTS_ESCAPE region, and must not call a function
                     annotated ESP_BLOCKING or one observed to block
                     directly.  This re-checks the Clang 19 function-effects
                     contract on toolchains where the attributes are no-ops.
throw-in-noexcept    A `throw` statement lexically inside a noexcept function
                     but outside every try block (and escape region) is a
                     guaranteed std::terminate; one level of calls into a
                     function that throws unconditionally is also checked.
lock-order-cycle     Builds the mutex acquisition-order graph from
                     ESP_REQUIRES annotations and nested MutexLock scopes
                     (plus depth-1 call edges into functions that acquire),
                     and rejects any cycle: an A->B order in one function and
                     B->A in another is a latent deadlock no single
                     translation unit can see.
unguarded-mutex-field  Within a blank-line-delimited run of member
                     declarations that contains at least one
                     ESP_GUARDED_BY field, every other mutable member must
                     either be guarded, be a synchronisation/atomic/const
                     member, or carry an explicit allow naming its actual
                     discipline.  Mutex-adjacent state with no stated
                     discipline is where data races hide.

Suppressions
------------
A violating line (or, for includes, the include line) can be allowed with:

    // esp-lint: allow(<rule>) -- <reason>

The reason is mandatory.  Suppressions without one are themselves violations.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

EXIT_SKIP = 77  # ctest SKIP_RETURN_CODE: AST backend requested but unavailable

ALLOW_RE = re.compile(r"esp-lint:\s*allow\(([a-z-]+)\)\s*--\s*(\S.*)")
ALLOW_BARE_RE = re.compile(r"esp-lint:\s*allow\(([a-z-]+)\)(?!\s*--\s*\S)")

RAW_SYNC_RE = re.compile(
    r"std::(mutex|condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_mutex|shared_lock|recursive_mutex|timed_mutex)\b"
)
DETACH_RE = re.compile(r"\.\s*detach\s*\(\s*\)")
UNSEEDED_RNG_RE = re.compile(
    r"std::random_device\b"
    r"|std::(mt19937(_64)?|minstd_rand0?|default_random_engine)\s+\w+\s*;"
    r"|\bRng\s+\w+\s*;"
    r"|\bRng\s+\w+\s*\{\s*\}"
)
UNBOUNDED_QUEUE_RE = re.compile(r"std::(deque|queue|list)\s*<")
# Heap `new Type` / make_shared / make_unique; deliberately does NOT match
# placement new (`new (ptr) Type`), which constructs in existing storage.
HOT_PATH_ALLOC_RE = re.compile(r"std::make_(shared|unique)\s*<|\bnew\s+[A-Za-z_:]")
HOT_PATH_FILES = {
    Path("src/runtime/record.h"),
    Path("src/runtime/spsc_queue.h"),
    Path("src/runtime/chain.h"),
    Path("src/runtime/claim.h"),
    Path("src/runtime/fanin_lanes.h"),
}
NOLINT_RE = re.compile(r"//\s*NOLINT(NEXTLINE)?(?P<rest>.*)")
NOLINT_OK_RE = re.compile(r"^\((?P<checks>[\w\-.,*]+)\)\s*(?P<reason>\S.*)?$")

THREAD_ANNOTATIONS_HDR = Path("src/common/thread_annotations.h")
FUNCTION_EFFECTS_HDR = Path("src/common/function_effects.h")

CATCH_ALL_RE = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
# A catch-all block is fine when it rethrows (bare `throw;`) or records the
# failure where the supervisor can see it.
SWALLOW_OK_RE = re.compile(r"\bthrow\b|\bReportTaskFailure\b|\bFailureEvent\b|\bfailures_\b")

ESCAPE_BEGIN = "ESP_EFFECTS_ESCAPE_BEGIN"
ESCAPE_END = "ESP_EFFECTS_ESCAPE_END"

# Direct blocking operations the effect rules look for inside a body
# (outside escape regions).  MutexLock/lock_guard constructions, condvar
# waits and notifies, sleeps and joins.
BLOCKING_OP_RE = re.compile(
    r"\bMutexLock\s+\w+\s*[({]"
    r"|std::(lock_guard|unique_lock|scoped_lock)\b"
    r"|\.\s*(Wait|WaitFor|WaitUntil|wait|wait_for|wait_until)\s*\("
    r"|\.\s*(NotifyAll|NotifyOne|notify_all|notify_one)\s*\("
    r"|\bsleep_for\s*\(|\bsleep_until\s*\(|\.\s*join\s*\(|\.\s*lock\s*\(\s*\)"
)
ALLOC_OP_RE = HOT_PATH_ALLOC_RE  # same placement-new-tolerant pattern
THROW_RE = re.compile(r"\bthrow\b")

MUTEXLOCK_ACQ_RE = re.compile(r"\bMutexLock\s+\w+\s*\(\s*([^()]*?)\s*\)")
REQUIRES_RE = re.compile(r"\bESP_REQUIRES\s*\(\s*([^()]*?)\s*\)")
ACQUIRE_RE = re.compile(r"\bESP_ACQUIRE\s*\(\s*([^()]*?)\s*\)")

CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
NOT_CALLS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "static_cast", "reinterpret_cast",
    "const_cast", "dynamic_cast", "static_assert", "defined", "assert",
    "new", "delete", "throw", "typeid", "operator",
}

# Effect annotations as they appear in source.  The *_IF conditional forms
# are intentionally NOT treated as unconditional contracts (the condition is
# instantiation-dependent), but calls INTO them are never flagged either.
ANN_NONBLOCKING = "ESP_NONBLOCKING"
ANN_NONALLOCATING = "ESP_NONALLOCATING"
ANN_BLOCKING = "ESP_BLOCKING"


@dataclass
class Fact:
    """One analyzed function body, backend-independent."""
    rel: Path
    name: str
    line: int
    annotations: set[str] = field(default_factory=set)
    noexcept: bool = False
    requires: list[str] = field(default_factory=list)   # mutexes held on entry
    acquires: list[tuple[str, int]] = field(default_factory=list)  # (mutex, line)
    # (held-mutex, acquired-mutex, line) pairs observed as NESTED scopes.
    nested: list[tuple[str, str, int]] = field(default_factory=list)
    # (name, line, escaped, mutexes-held-at-call-site)
    calls: list[tuple[str, int, bool, frozenset]] = field(default_factory=list)
    blocking_ops: list[tuple[str, int]] = field(default_factory=list)  # outside escapes
    alloc_ops: list[tuple[str, int]] = field(default_factory=list)     # outside escapes
    throws: list[int] = field(default_factory=list)  # outside try + escapes


class Report:
    def __init__(self, root: Path):
        self.root = root
        self.violations: list[str] = []
        self._allows: dict[Path, dict[int, str]] = {}

    def allows_for(self, rel: Path, text: str) -> dict[int, str]:
        cached = self._allows.get(rel)
        if cached is None:
            cached = {}
            for lineno, line in enumerate(text.splitlines(), start=1):
                m = ALLOW_RE.search(line)
                if m:
                    cached[lineno] = m.group(1)
            self._allows[rel] = cached
        return cached

    def add(self, rel: Path, lineno: int, rule: str, message: str) -> None:
        if self._allows.get(rel, {}).get(lineno) == rule:
            return
        self.violations.append(f"{rel}:{lineno}: [{rule}] {message}")


# --------------------------------------------------------------------------
# Text utilities shared by both backends.

def sanitize(text: str) -> str:
    """Replaces comments and string/char literals with spaces, preserving
    offsets and newlines, so positional scans never match inside them."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        else:
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def match_brace(text: str, open_pos: int) -> int:
    """Returns the position of the `}` matching the `{` at open_pos (or
    len(text) when unbalanced).  `text` must be sanitized."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def spans_containing(spans: list[tuple[int, int]], pos: int) -> bool:
    return any(a <= pos <= b for a, b in spans)


def escape_spans(text: str) -> list[tuple[int, int]]:
    """Character spans covered by ESP_EFFECTS_ESCAPE_BEGIN/END pairs."""
    spans = []
    pos = 0
    while True:
        a = text.find(ESCAPE_BEGIN, pos)
        if a < 0:
            break
        b = text.find(ESCAPE_END, a)
        b = len(text) if b < 0 else b + len(ESCAPE_END)
        spans.append((a, b))
        pos = b
    return spans


def try_spans(san: str) -> list[tuple[int, int]]:
    """Character spans of try { ... } blocks (sanitized text)."""
    spans = []
    for m in re.finditer(r"\btry\b", san):
        brace = san.find("{", m.end())
        if brace < 0:
            continue
        spans.append((brace, match_brace(san, brace)))
    return spans


def normalize_mutex(expr: str) -> str:
    """`task->sampler_mutex` -> `sampler_mutex`; `channel.mutex` -> `mutex`."""
    expr = expr.strip()
    expr = re.sub(r"^\*", "", expr)
    for sep in ("->", "."):
        if sep in expr:
            expr = expr.rsplit(sep, 1)[1]
    return expr.strip()


# --------------------------------------------------------------------------
# Structural (regex) fact extraction.

SIGNATURE_NAME_RE = re.compile(r"([A-Za-z_~]\w*)\s*\(")
STMT_BREAK = (";", "}", "{")


def body_facts(rel: Path, raw: str, san: str, sig_end: int, body_open: int,
               name: str, line: int) -> Fact:
    """Builds a Fact for the function whose body `{` is at body_open."""
    body_close = match_brace(san, body_open)
    body = san[body_open:body_close + 1]
    base = body_open
    fact = Fact(rel=rel, name=name, line=line)

    esc = escape_spans(raw)
    tries = try_spans(san)

    sig = san[sig_end:body_open]
    fact.noexcept = bool(re.search(r"\bnoexcept\b(?!\s*\(\s*false\s*\))", sig))
    for m in REQUIRES_RE.finditer(sig):
        fact.requires += [normalize_mutex(x) for x in m.group(1).split(",") if x.strip()]
    for m in ACQUIRE_RE.finditer(sig):
        fact.acquires += [(normalize_mutex(x), line)
                          for x in m.group(1).split(",") if x.strip()]
    for ann in (ANN_NONBLOCKING, ANN_NONALLOCATING, ANN_BLOCKING):
        # Exact-token match so ESP_NONBLOCKING_IF(...) does not register as
        # an unconditional ESP_NONBLOCKING contract.
        if re.search(rf"\b{ann}\b(?!_IF)", sig):
            fact.annotations.add(ann)

    # Acquisitions with their scope extents; nested pairs become graph edges
    # and the per-call held sets for depth-1 lock-order edges.
    scopes: list[tuple[str, int, int]] = []  # (mutex, start, end) body offsets
    for m in MUTEXLOCK_ACQ_RE.finditer(body):
        pos = base + m.start()
        mutex = normalize_mutex(m.group(1))
        if not mutex:
            continue
        lineno = line_of(san, pos)
        # Scope extent: the enclosing brace block of the declaration.
        depth_here = body[:m.start()].count("{") - body[:m.start()].count("}")
        end = m.start()
        depth = depth_here
        for i in range(m.start(), len(body)):
            if body[i] == "{":
                depth += 1
            elif body[i] == "}":
                depth -= 1
                if depth < depth_here:
                    end = i
                    break
        else:
            end = len(body)
        for held, s_start, s_end in scopes:
            if s_start <= m.start() < s_end:
                fact.nested.append((held, mutex, lineno))
        scopes.append((mutex, m.start(), end))
        fact.acquires.append((mutex, lineno))
        if not spans_containing(esc, pos):
            fact.blocking_ops.append((f"MutexLock({mutex})", lineno))

    for m in BLOCKING_OP_RE.finditer(body):
        pos = base + m.start()
        if m.group(0).startswith("MutexLock"):
            continue  # already recorded with its scope above
        if not spans_containing(esc, pos):
            fact.blocking_ops.append((m.group(0).strip(), line_of(san, pos)))

    for m in ALLOC_OP_RE.finditer(body):
        pos = base + m.start()
        if not spans_containing(esc, pos):
            fact.alloc_ops.append((m.group(0).strip(), line_of(san, pos)))

    for m in THROW_RE.finditer(body):
        pos = base + m.start()
        if spans_containing(esc, pos) or spans_containing(tries, pos):
            continue
        fact.throws.append(line_of(san, pos))

    requires_set = frozenset(fact.requires)
    for m in CALL_RE.finditer(body):
        callee = m.group(1)
        if callee in NOT_CALLS or callee == name:
            continue
        pos = base + m.start()
        held = requires_set | {mx for mx, s, e in scopes if s <= m.start() < e}
        fact.calls.append((callee, line_of(san, pos),
                           spans_containing(esc, pos), frozenset(held)))
    return fact


# A function body opens at a `{` that follows a parameter list's `)`,
# possibly with qualifiers / effect annotations / a trailing return type in
# between.  `struct X {`, `enum {`, array initializers etc. never match.
FUNC_BODY_RE = re.compile(
    r"\)\s*(?:(?:const|override|final"
    r"|noexcept(?:\s*\([^()]*\))?"
    r"|ESP_\w+(?:\s*\([^()]*\))?"
    r"|->\s*[\w:<>,\s*&\[\]]+)\s*)*\{")


def structural_facts(rel: Path, raw: str) -> list[Fact]:
    """Captures every function definition in the file (annotated or not --
    plain functions still contribute lock-acquisition edges and throw
    facts) by matching `)` [qualifiers] `{` outside any captured body."""
    san = sanitize(raw)
    facts: list[Fact] = []
    captured: list[tuple[int, int]] = []
    for m in FUNC_BODY_RE.finditer(san):
        brace = m.end() - 1
        # Nested matches (if/while/lambdas) live inside an already captured
        # body; the enclosing function's scan covers them.
        if spans_containing(captured, brace):
            continue
        stmt = max(san.rfind(c, 0, m.start()) for c in STMT_BREAK) + 1
        sig_text = san[stmt:brace]
        nm = SIGNATURE_NAME_RE.search(sig_text)
        if not nm:
            continue  # lambda / unnamed construct
        name = nm.group(1)
        if name in NOT_CALLS or name.startswith("ESP_"):
            continue  # control statement or annotated field initializer
        captured.append((brace, match_brace(san, brace)))
        facts.append(body_facts(rel, raw, san, stmt, brace, name,
                                line_of(san, stmt + len(sig_text) - len(sig_text.lstrip()))))
    return facts


# --------------------------------------------------------------------------
# AST (libclang) fact extraction.

def load_libclang():
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        pass
    # Distro packages often ship only a versioned soname
    # (libclang-XX.so.1 under /usr/lib/llvm-XX); probe the usual spots.
    import glob
    candidates = sorted(
        glob.glob("/usr/lib/llvm-*/lib/libclang*.so*")
        + glob.glob("/usr/lib/*/libclang*.so*"), reverse=True)
    for lib in candidates:
        try:
            cindex.Config.set_library_file(lib)
            cindex.Index.create()
            return cindex
        except Exception:
            continue
    return None


def ast_facts(cindex, root: Path, build_dir: Path,
              sources: list[Path]) -> list[Fact] | None:
    """Parses every file in compile_commands.json that is inside `root` and
    extracts the same Fact shape as the structural backend, with calls
    resolved through the referenced declaration."""
    ccj = build_dir / "compile_commands.json"
    if not ccj.exists():
        return None
    try:
        entries = json.loads(ccj.read_text())
    except (OSError, ValueError):
        return None

    wanted = {str((root / s).resolve()) for s in sources}
    index = cindex.Index.create()
    facts: list[Fact] = []
    file_cache: dict[str, tuple[str, str, list, list]] = {}

    def file_info(path: str):
        info = file_cache.get(path)
        if info is None:
            try:
                raw = Path(path).read_text(encoding="utf-8")
            except OSError:
                raw = ""
            san = sanitize(raw)
            file_cache[path] = info = (raw, san, escape_spans(raw), try_spans(san))
        return info

    def offset(loc) -> int:
        return getattr(loc, "offset", 0)

    def walk_function(cur, rel: Path, raw: str, san: str, esc, tries):
        ext = cur.extent
        start, end = offset(ext.start), offset(ext.end)
        sig = raw[start:min(end, start + max(0, raw.find("{", start) - start))]
        fact = Fact(rel=rel, name=cur.spelling or "<anon>",
                    line=cur.location.line)
        for ann in (ANN_NONBLOCKING, ANN_NONALLOCATING, ANN_BLOCKING):
            if re.search(rf"\b{ann}\b(?!_IF)", sig):
                fact.annotations.add(ann)
        for m in REQUIRES_RE.finditer(sig):
            fact.requires += [normalize_mutex(x)
                              for x in m.group(1).split(",") if x.strip()]
        try:
            kinds = cindex.ExceptionSpecificationKind
            fact.noexcept = cur.exception_specification_kind in (
                kinds.BASIC_NOEXCEPT, kinds.COMPUTED_NOEXCEPT)
        except Exception:
            fact.noexcept = bool(re.search(r"\bnoexcept\b(?!\s*\(\s*false\s*\))", sig))

        open_scopes: list[tuple[str, int, int]] = []  # (mutex, start, end)

        def visit(node, in_try: bool):
            k = node.kind.name
            pos = offset(node.extent.start)
            lineno = node.location.line or fact.line
            escaped = spans_containing(esc, pos)
            if k == "CXX_TRY_STMT":
                for ch in node.get_children():
                    visit(ch, True)
                return
            if k == "CXX_THROW_EXPR" and not in_try and not escaped:
                fact.throws.append(lineno)
            if k == "CXX_NEW_EXPR" and not escaped:
                # Placement new has placement args; skip it like the regex.
                src = san[pos:pos + 24]
                if not re.match(r"(::)?\s*new\s*\(", src):
                    fact.alloc_ops.append(("new", lineno))
            if k == "VAR_DECL" and "MutexLock" in (node.type.spelling or ""):
                toks = [t.spelling for t in node.get_tokens()]
                try:
                    lp = toks.index("(")
                    rp = len(toks) - 1 - toks[::-1].index(")")
                    mutex = normalize_mutex("".join(toks[lp + 1:rp]))
                except ValueError:
                    mutex = ""
                if mutex:
                    scope_end = offset(node.semantic_parent.extent.end) \
                        if node.semantic_parent else end
                    for held, s_start, s_end in open_scopes:
                        if s_start <= pos < s_end:
                            fact.nested.append((held, mutex, lineno))
                    open_scopes.append((mutex, pos, scope_end))
                    fact.acquires.append((mutex, lineno))
                    if not escaped:
                        fact.blocking_ops.append((f"MutexLock({mutex})", lineno))
            if k == "CALL_EXPR":
                ref = node.referenced
                callee = (ref.spelling if ref is not None else node.spelling) or ""
                if callee and callee not in NOT_CALLS:
                    held = frozenset(fact.requires) | frozenset(
                        mx for mx, s_start, s_end in open_scopes
                        if s_start <= pos < s_end)
                    fact.calls.append((callee, lineno, escaped, held))
                    if not escaped and re.fullmatch(
                            r"sleep_for|sleep_until|wait|wait_for|wait_until|"
                            r"Wait|WaitFor|WaitUntil|notify_all|notify_one|"
                            r"NotifyAll|NotifyOne|join|lock|make_shared|make_unique",
                            callee):
                        op = ("alloc" if callee.startswith("make_") else "block")
                        (fact.alloc_ops if op == "alloc"
                         else fact.blocking_ops).append((callee, lineno))
            for ch in node.get_children():
                visit(ch, in_try)

        for ch in cur.get_children():
            if ch.kind.name == "COMPOUND_STMT":
                visit(ch, False)
        return fact

    parsed: set[str] = set()
    for entry in entries:
        fpath = str(Path(entry.get("directory", "."), entry["file"]).resolve())
        if fpath not in wanted or fpath in parsed:
            continue
        parsed.add(fpath)
        args = [a for a in entry.get("arguments") or entry.get("command", "").split()
                if a][1:]
        # Strip compiler-output args the parser chokes on.
        clean_args, skip = [], False
        for a in args:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            if a == fpath or a.endswith((".o", ".cpp", ".cc")):
                continue
            clean_args.append(a)
        try:
            tu = index.parse(fpath, args=clean_args)
        except Exception:
            continue
        for cur in tu.cursor.walk_preorder():
            if cur.kind.name not in ("FUNCTION_DECL", "CXX_METHOD",
                                     "CONSTRUCTOR", "DESTRUCTOR",
                                     "FUNCTION_TEMPLATE"):
                continue
            if not cur.is_definition():
                continue
            loc_file = cur.location.file
            if loc_file is None:
                continue
            fres = str(Path(loc_file.name).resolve())
            try:
                rel = Path(fres).relative_to(root.resolve())
            except ValueError:
                continue
            raw, san, esc, tries = file_info(fres)
            if not raw:
                continue
            f = walk_function(cur, rel, raw, san, esc, tries)
            if f is not None:
                facts.append(f)
    return facts


# --------------------------------------------------------------------------
# Shared graph rules over Facts.

def run_fact_rules(facts: list[Fact], report: Report) -> None:
    by_name: dict[str, list[Fact]] = {}
    for f in facts:
        by_name.setdefault(f.name, []).append(f)

    def name_is_blocking(callee: str) -> Fact | None:
        """A callee counts as blocking when EVERY known definition of that
        name is annotated ESP_BLOCKING or observed to block directly (an
        overload set with a nonblocking member stays un-flagged)."""
        defs = by_name.get(callee)
        if not defs:
            return None
        for d in defs:
            if ANN_BLOCKING in d.annotations:
                continue
            if ANN_NONBLOCKING in d.annotations or not d.blocking_ops:
                return None
        return defs[0]

    # ---- blocking-in-nonblocking (+ the alloc/throw subset for
    # ESP_NONALLOCATING) ---------------------------------------------------
    for f in facts:
        nonblocking = ANN_NONBLOCKING in f.annotations
        nonallocating = nonblocking or ANN_NONALLOCATING in f.annotations
        if nonblocking:
            for op, lineno in f.blocking_ops:
                report.add(f.rel, lineno, "blocking-in-nonblocking",
                           f"'{op}' inside ESP_NONBLOCKING {f.name}(); wrap a "
                           f"sanctioned cold edge in ESP_EFFECTS_ESCAPE with a reason")
            for callee, lineno, escaped, _held in f.calls:
                if escaped:
                    continue
                blocked = name_is_blocking(callee)
                if blocked is not None:
                    report.add(f.rel, lineno, "blocking-in-nonblocking",
                               f"ESP_NONBLOCKING {f.name}() calls {callee}() "
                               f"({blocked.rel}:{blocked.line}), which blocks")
        if nonallocating:
            for op, lineno in f.alloc_ops:
                report.add(f.rel, lineno, "blocking-in-nonblocking",
                           f"allocation '{op}' inside effect-annotated {f.name}()")
            for lineno in f.throws:
                report.add(f.rel, lineno, "blocking-in-nonblocking",
                           f"throw inside effect-annotated {f.name}() outside "
                           f"any try/escape region")

    # ---- throw-in-noexcept ----------------------------------------------
    throwers = {name for name, defs in by_name.items()
                if defs and all(d.throws for d in defs)}
    for f in facts:
        if not f.noexcept:
            continue
        for lineno in f.throws:
            report.add(f.rel, lineno, "throw-in-noexcept",
                       f"throw inside noexcept {f.name}() outside any try "
                       f"block is a guaranteed std::terminate")
        for callee, lineno, escaped, _held in f.calls:
            if escaped or callee not in throwers:
                continue
            d = by_name[callee][0]
            report.add(f.rel, lineno, "throw-in-noexcept",
                       f"noexcept {f.name}() calls {callee}() "
                       f"({d.rel}:{d.line}), which always throws")

    # ---- lock-order-cycle -----------------------------------------------
    # Edge A->B: B acquired while A is held -- from nested MutexLock scopes,
    # from ESP_REQUIRES(A) + acquisition of B, and (depth-1) from
    # ESP_REQUIRES(A)/enclosing scope + a call into a function that acquires.
    edges: dict[tuple[str, str], tuple[Path, int]] = {}

    def add_edge(a: str, b: str, rel: Path, lineno: int) -> None:
        if a == b:
            return
        edges.setdefault((a, b), (rel, lineno))

    for f in facts:
        for held, acquired, lineno in f.nested:
            add_edge(held, acquired, f.rel, lineno)
        for held in f.requires:
            for acquired, lineno in f.acquires:
                add_edge(held, acquired, f.rel, lineno)
        for callee, lineno, _escaped, held_here in f.calls:
            if not held_here:
                continue
            for d in by_name.get(callee, []):
                for acquired, _ in d.acquires:
                    for held in held_here:
                        add_edge(held, acquired, f.rel, lineno)

    graph: dict[str, set[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    color: dict[str, int] = {}
    stack: list[str] = []

    def dfs(v: str) -> list[str] | None:
        color[v] = 1
        stack.append(v)
        for w in graph[v]:
            if color.get(w, 0) == 1:
                return stack[stack.index(w):] + [w]
            if color.get(w, 0) == 0:
                cyc = dfs(w)
                if cyc is not None:
                    return cyc
        stack.pop()
        color[v] = 2
        return None

    reported_cycles: set[frozenset] = set()
    for v in graph:
        if color.get(v, 0) == 0:
            cyc = dfs(v)
            if cyc is not None:
                key = frozenset(cyc)
                if key not in reported_cycles:
                    reported_cycles.add(key)
                    rel, lineno = edges.get((cyc[0], cyc[1]),
                                            (Path("<graph>"), 0))
                    report.add(rel, lineno, "lock-order-cycle",
                               "lock acquisition order forms a cycle: "
                               + " -> ".join(cyc)
                               + "; two threads taking these locks in "
                                 "opposing order deadlock")
                stack.clear()
                color.clear()


# --------------------------------------------------------------------------
# Paragraph rule: unguarded-mutex-field.

FIELD_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?[\w:][\w:<>,\s*&]*?\s+([A-Za-z_]\w*)\s*"
    r"(?:ESP_GUARDED_BY\s*\([^)]*\)\s*)?"
    r"(?:=\s*[^;]*|\{[^;]*\})?\s*;")
FIELD_SKIP_RE = re.compile(
    r"\bconst\b|\bconstexpr\b|\bstatic\b|\bstd::atomic\b|\bMutex\b|\bCondVar\b"
    r"|\bstd::thread\b|\busing\b|\btypedef\b|\bfriend\b|\breturn\b"
    r"|\bstruct\b|\bclass\b|\benum\b|\bpublic\b|\bprivate\b|\bprotected\b")
MUTEX_DECL_RE = re.compile(r"\b(?:mutable\s+)?(?:esp::)?Mutex\s+\w+\s*;")


def check_unguarded_mutex_fields(rel: Path, raw: str, report: Report) -> None:
    """`Mutex-adjacent` is literal: the rule fires only within the
    blank-line-delimited declaration run that declares the Mutex itself.
    Fields guarded by that mutex belong next to it; anything else declared
    there must be atomic, const, or carry an allow naming its discipline."""
    lines = raw.splitlines()
    para: list[tuple[int, str]] = []

    def flush() -> None:
        if not para:
            return
        if not any(MUTEX_DECL_RE.search(ln.split("//")[0]) for _, ln in para):
            para.clear()
            return
        for lineno, ln in para:
            if "ESP_GUARDED_BY" in ln:
                continue
            code = ln.split("//")[0]
            if FIELD_SKIP_RE.search(code):
                continue
            # A parenthesis outside the guarded-by macro means this is a
            # function declaration / complex initializer -- out of scope for
            # a field rule (static_cast initializers are matched below).
            code_wo_cast = re.sub(r"\b(?:static|reinterpret|const)_cast<[^>]*>\s*\([^)]*\)",
                                  "", code)
            if "(" in code_wo_cast:
                continue
            m = FIELD_DECL_RE.match(code_wo_cast)
            if not m:
                continue
            report.add(rel, lineno, "unguarded-mutex-field",
                       f"member '{m.group(1)}' sits in a declaration block "
                       f"with ESP_GUARDED_BY fields but has no guard, atomic "
                       f"type, or allow naming its discipline")
        para.clear()

    for lineno, ln in enumerate(lines, start=1):
        if ln.strip() == "":
            flush()
        else:
            para.append((lineno, ln))
    flush()


# --------------------------------------------------------------------------
# Line rules (carried over from the original linter).

def check_swallowed_exceptions(rel: Path, text: str, report: Report) -> None:
    """Block-level rule: `catch (...)` in src/runtime must rethrow or record."""
    lines = text.splitlines()
    for m in CATCH_ALL_RE.finditer(text):
        lineno = text.count("\n", 0, m.start()) + 1
        catch_line = lines[lineno - 1] if lineno <= len(lines) else ""
        allow = ALLOW_RE.search(catch_line)
        if allow and allow.group(1) == "swallowed-exception":
            continue
        brace = text.find("{", m.end())
        if brace < 0:
            continue
        depth = 0
        i = brace
        while i < len(text):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        body = text[brace:i + 1]
        if not SWALLOW_OK_RE.search(body):
            report.add(rel, lineno, "swallowed-exception",
                       "catch (...) in runtime code neither rethrows nor "
                       "records a FailureEvent; a swallowed exception is a "
                       "crash the supervisor cannot see")


def strip_strings(line: str) -> str:
    """Blank out string/char literals so patterns inside them don't match."""
    return re.sub(r'"(\\.|[^"\\])*"|\'(\\.|[^\'\\])*\'', '""', line)


def run_line_rules(rel: Path, text: str, report: Report) -> None:
    in_runtime = rel.parts[:2] == ("src", "runtime")
    in_bench = rel.parts[:1] == ("bench",)
    is_wrapper_header = rel in (THREAD_ANNOTATIONS_HDR, FUNCTION_EFFECTS_HDR)

    if in_runtime:
        check_swallowed_exceptions(rel, text, report)
    check_unguarded_mutex_fields(rel, text, report)

    in_block_comment = False
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        # Track /* ... */ regions so commented-out code is ignored.
        line = raw_line
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0 and line.find("*/", start) < 0:
            in_block_comment = True
            line = line[:start]

        bare_allow = ALLOW_BARE_RE.search(line)
        if bare_allow:
            report.violations.append(
                f"{rel}:{lineno}: [suppression] esp-lint allow({bare_allow.group(1)}) "
                f"without a '-- reason'")
            continue

        comment_pos = line.find("//")
        code = line[:comment_pos] if comment_pos >= 0 else line
        code = strip_strings(code)

        if not is_wrapper_header and RAW_SYNC_RE.search(code):
            report.add(rel, lineno, "raw-sync-primitive",
                       "raw std synchronisation primitive; use esp::Mutex / "
                       "esp::MutexLock / esp::CondVar (common/thread_annotations.h)")

        if DETACH_RE.search(code) and "thread" in code:
            report.add(rel, lineno, "detached-thread",
                       "detached thread; all threads must be joined")

        if in_bench and UNSEEDED_RNG_RE.search(code):
            report.add(rel, lineno, "unseeded-rng",
                       "benchmark RNG without an explicit seed; results must "
                       "be reproducible")

        if in_runtime and UNBOUNDED_QUEUE_RE.search(code):
            report.add(rel, lineno, "unbounded-queue",
                       "unbounded FIFO in runtime code; channels must be "
                       "bounded for backpressure")

        if rel in HOT_PATH_FILES and HOT_PATH_ALLOC_RE.search(code):
            report.add(rel, lineno, "hot-path-alloc",
                       "heap allocation on the per-record hot path; the "
                       "zero-alloc steady state is a measured invariant "
                       "(AllocCounting tests)")

        if ESCAPE_BEGIN in code and not code.lstrip().startswith("#"):
            trailing = line[comment_pos:] if comment_pos >= 0 else ""
            if not re.match(r"//\s*\S", trailing):
                report.add(rel, lineno, "bare-effect-escape",
                           "ESP_EFFECTS_ESCAPE_BEGIN without a trailing "
                           "'// <why this effect is sanctioned here>' comment")

        if comment_pos >= 0:
            nolint = NOLINT_RE.search(line[comment_pos:])
            if nolint:
                rest = nolint.group("rest").strip()
                ok = NOLINT_OK_RE.match(rest)
                if not ok or not ok.group("reason"):
                    report.add(rel, lineno, "bare-nolint",
                               "NOLINT must name the check and carry a reason: "
                               "// NOLINT(<check>) <why>")


# --------------------------------------------------------------------------
# Drivers.

def tracked_sources(root: Path) -> list[Path]:
    """Sources to analyze.  In the repo: git-tracked files under the source
    trees, minus the lint self-test fixtures (they contain violations ON
    PURPOSE and are exercised via --root by tests/lint_test).  Under --root:
    every C++ file in the tree."""
    if root.resolve() == REPO.resolve():
        out = subprocess.run(
            ["git", "ls-files", "src/*", "tests/*", "bench/*", "examples/*",
             ":!tests/lint_test/*"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout
        names = out.splitlines()
    else:
        names = [str(p.relative_to(root))
                 for p in sorted(root.rglob("*")) if p.is_file()]
    return [Path(p) for p in names
            if p.endswith((".h", ".cpp", ".cc", ".hpp"))]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=["auto", "ast", "regex"], default="auto",
                    help="analysis backend (default: auto)")
    ap.add_argument("--ast", action="store_true",
                    help="alias for --mode ast")
    ap.add_argument("--root", type=Path, default=REPO,
                    help="tree to analyze (default: the repository); used by "
                         "tests/lint_test to scan fixture trees")
    ap.add_argument("--build-dir", type=Path, default=None,
                    help="build dir holding compile_commands.json "
                         "(default: <root>/build)")
    args = ap.parse_args()
    mode = "ast" if args.ast else args.mode
    root = args.root.resolve()
    build_dir = (args.build_dir or root / "build").resolve()

    report = Report(root)
    sources = tracked_sources(root)

    texts: dict[Path, str] = {}
    for rel in sources:
        try:
            texts[rel] = (root / rel).read_text(encoding="utf-8")
        except OSError as err:
            report.violations.append(f"{rel}: unreadable ({err})")
    for rel, text in texts.items():
        report.allows_for(rel, text)  # pre-populate suppression map

    backend = "structural"
    facts: list[Fact] | None = None
    if mode in ("ast", "auto"):
        cindex = load_libclang()
        if cindex is not None:
            facts = ast_facts(cindex, root, build_dir, sources)
            if facts is not None:
                backend = "ast"
        if mode == "ast" and facts is None:
            print("esp_lint: AST mode unavailable "
                  "(libclang or compile_commands.json missing)", file=sys.stderr)
            return EXIT_SKIP
    if facts is None:
        facts = []
        for rel, text in texts.items():
            facts.extend(structural_facts(rel, text))

    for rel, text in texts.items():
        run_line_rules(rel, text, report)
    run_fact_rules(facts, report)

    if report.violations:
        print(f"esp_lint[{backend}]: {len(report.violations)} violation(s)",
              file=sys.stderr)
        for v in sorted(set(report.violations)):
            print(f"  {v}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
