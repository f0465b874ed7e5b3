#!/usr/bin/env python3
"""Project-specific static lint for the namtree codebase.

Generic tooling (-Wall, clang-tidy) cannot see the hazards that are specific
to this repo's simulated-RDMA coroutine architecture, so this script scans
`src/` for three of them:

1. spawn-unsafe-params (error)
   A `sim::Task` coroutine that is *detached* with `sim::Spawn(...)` keeps
   running after the spawning statement finishes. Reference or pointer
   parameters are captured into the coroutine frame, so they must outlive
   the whole simulation, not just the call — a classic silent
   use-after-free that ASan only catches if the exact interleaving occurs.
   Suppress a finding whose lifetime has been audited with a comment on (or
   directly above) the definition:
       // namtree-lint: safe-coro-ref(<why the referents outlive the task>)

2. blocking-primitive (error)
   `std::mutex` / `std::condition_variable` / `std::thread` / `sleep_for`
   block a *real* OS thread. Inside the discrete-event simulator one
   blocked thread deadlocks the entire virtual world, so everything under
   src/ must use the sim primitives (sim::Semaphore, sim::Gate, ...).
   There is no suppression: nothing under src/ runs on real threads.

3. task-not-coroutine (error)
   A function returning `sim::Task` whose body contains no co_await /
   co_return / co_yield is not a coroutine at all: it compiles (moving a
   Task through), but it runs eagerly at call time instead of lazily at
   await time, which silently breaks virtual-time ordering.

4. unbounded-verb-retry (error)
   An infinite loop (`for (;;)` / `while (true)`) that co_awaits fabric
   verbs or RemoteOps primitives with no visible pacing or failure guard
   spins forever when the remote side never changes — e.g. on a lock word
   orphaned by a crashed holder — and hammers the simulated NIC at a fixed
   rate while doing so. Retry loops around verbs must back off (sim::Delay
   / the RemoteOps backoff), honour a deadline/lease, or check liveness
   and failure statuses (`alive()`, `IsAborted`, `IsUnavailable`).
   Suppress an audited loop with a comment on (or directly above) it:
       // namtree-lint: bounded-loop(<why the loop terminates>)

5. unchained-writes (error)
   Two consecutive co_awaited signaled write-class verbs (Write /
   CompareAndSwap / FetchAndAdd) aimed at the same destination page ring
   two doorbells and pay two NIC completions where one doorbell-batched
   chain (Fabric::PostChain; see RemoteOps::WriteUnlockPage and
   docs/batching.md) would do. Suppress an audited sequence with a comment
   on (or directly above) either verb:
       // namtree-lint: unchained-ok(<why chaining does not apply>)

6. hand-rolled-chase (error)
   An `if`/`while` condition that consults both the fence key
   (`high_key()`) and the right sibling (`right_sibling()`) is a
   hand-rolled B-link chase decision. The inclusive/exclusive fence
   contract is subtle (inner nodes cover their high key, leaves do not,
   head/drained nodes chase through) and was historically re-derived —
   inconsistently — at every descent site. The predicate now lives in
   one place: `PageView::NeedsChase(key)` (src/btree/page.h), and whole
   descend/chase loops belong in the shared traversal engine
   (src/index/traversal.cc). Exempt: traversal.cc itself and the
   bulk-load path (tree_build.cc). Suppress an audited site with a
   comment on (or directly above) the condition:
       // namtree-lint: chase-ok(<why NeedsChase does not apply>)

7. discarded-status (error)
   An expression statement that calls a function returning `Status` (or
   `sim::Task<Status>`, via co_await) and ignores the result silently
   swallows protocol failures — kUnavailable after a crash, kTimedOut
   after retry exhaustion, Corruption from an audit sweep. The compiler
   enforces most of this through `[[nodiscard]]` on Status itself; this
   rule additionally catches the `(void)`-less discard in code paths built
   with warnings relaxed, and keeps the policy visible in review. Cast to
   void and annotate an audited drop with a comment on (or directly above)
   the statement:
       // namtree-lint: status-ok(<why the failure cannot matter here>)

8. raw-counter-field (error)
   A `uint64_t foo = 0;` field in a src/ header whose name reads like an
   event counter (hits, misses, retries, round_trips, ...) is a
   hand-threaded counter: invisible to the metrics registry, it must be
   plumbed field-by-field into every result struct and JSON emitter — the
   pattern the unified registry (src/common/metrics.h,
   docs/observability.md) replaced after five generations of drift.
   Declare a `metrics::Counter` handle and register it instead. Exempt:
   the registry and histogram primitives themselves. Suppress an audited
   field (e.g. a materialized aggregate that is a *copy* of registry data,
   or a cursor that is not an event count) with a comment on (or directly
   above) the declaration:
       // namtree-lint: metric-ok(<why this is not a registry counter>)

9. unresolved-ambiguous-retry (error)
   A loop that co_awaits a non-idempotent atomic verb (CompareAndSwap /
   FetchAndAdd) re-posts it on the next iteration. Under network faults a
   kLost completion is *ambiguous* — the swap/add may have landed and lost
   only its ACK — so a blind re-post can double-apply (a duplicated
   release FAA is exactly what the auditor's kUnresolvedAmbiguousRetry
   violation reports at runtime; see docs/fault_model.md §8). The loop
   body must resolve the ambiguity with a read-back (an awaited
   Read-class verb: ReadWord, ReadPageUnlocked, ...) before re-posting.
   Suppress an audited re-post with a comment on (or directly above) the
   loop or the atomic:
       // namtree-lint: retry-ok(<why the re-post cannot double-apply>)

With --verbose the script additionally *notes* every awaited Task coroutine
taking reference/pointer parameters. These are not errors here: the repo
convention is that a Task is co_await-ed immediately by its caller, whose
frame keeps the referents alive. The spawn rule above polices exactly the
case where that convention breaks down.

Exit status: 0 when no errors, 1 when findings exist, 2 on usage errors.
"""

import argparse
import os
import re
import sys

SUPPRESS_RE = re.compile(
    r"namtree-lint:\s*(safe-coro-ref|bounded-loop|"
    r"unchained-ok|chase-ok|status-ok|metric-ok|retry-ok)\(")

# Files allowed to spell out fence/sibling chase decisions inline: the
# shared traversal engine owns the descend/chase state machine, and the
# bulk loader wires sibling chains while building them.
CHASE_ALLOWED_FILES = {"traversal.cc", "tree_build.cc"}

# An if/while header; the condition is paren-matched from the match end.
CHASE_COND_RE = re.compile(r"\b(?:if|while)\s*\(")

# Files exempt from raw-counter-field: the metric primitives themselves.
RAW_COUNTER_ALLOWED_FILES = {"metrics.h", "histogram.h"}

# A zero-initialised uint64_t field declaration in a header.
RAW_COUNTER_FIELD_RE = re.compile(
    r"\buint64_t\s+(?P<name>[A-Za-z_]\w*)\s*=\s*0\s*;")

# Field names that read like event counters. Matched against whole
# underscore-separated words so e.g. `region_bytes` stays quiet while
# `dropped_verbs` and `count_` are caught.
COUNTERISH_WORDS = (
    "count|counts|counted|hits|misses|retries|restarts|trips|waits|rounds|"
    "steals|drops|dropped|timeouts|doorbells|ops|errors|failures|aborts|"
    "spans|events|reads|writes|verbs|probes|lookups|inserts|updates|"
    "deletes|scans|calls|completions")
COUNTERISH_NAME_RE = re.compile(
    r"(?:^|_)(?:" + COUNTERISH_WORDS + r")(?:_|$)")

BLOCKING_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|condition_variable(_any)?|"
    r"thread|jthread)\b|std::this_thread::sleep"
)

# A function definition returning sim::Task<...>. Captures the name and the
# parameter list; the body is brace-matched from the match end.
TASK_DEF_RE = re.compile(
    r"(?:static\s+)?(?:sim::)?Task<[^;{}()]*>\s+"
    r"(?P<name>[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*"
    r"\((?P<params>[^;{}]*?)\)\s*(?:const\s*)?(?:noexcept\s*)?\{",
    re.DOTALL,
)

SPAWN_RE = re.compile(
    r"\bSpawn\s*\(\s*[^,]+,\s*"
    r"(?:[A-Za-z_][\w.\->:]*\.)?"  # optional object prefix: rig.  obj->
    r"(?P<callee>[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*\("
)

INFINITE_LOOP_RE = re.compile(
    r"\bfor\s*\(\s*;\s*;\s*\)|\bwhile\s*\(\s*(?:true|1)\s*\)"
)

# A co_await whose expression mentions a fabric verb or RemoteOps primitive.
VERB_AWAIT_RE = re.compile(
    r"\bco_await\b[^;]*?\b(?:Read(?:Page(?:Unlocked)?|Batch|ClientEpoch)?|"
    r"Write(?:UnlockPage)?|CompareAndSwap|FetchAndAdd|Call|"
    r"(?:Try)?LockPage|UnlockPage|AllocPage(?:RoundRobin)?)\s*\(",
    re.DOTALL,
)

# Pacing / failure-guard evidence that bounds a verb retry loop.
RETRY_GUARD_RE = re.compile(
    r"\bDelay\s*\(|backoff|deadline|lease|\balive\s*\(|"
    r"\bIsAborted\s*\(|\bIsUnavailable\s*\("
)

# A co_awaited signaled write-class fabric verb. The match ends at the
# opening paren of the call so the argument list can be paren-matched.
AWAITED_WRITE_RE = re.compile(
    r"\bco_await\b[^;{}]*?\b(?:Write|CompareAndSwap|FetchAndAdd)\s*\(")

# Any loop header (the unresolved-ambiguous-retry rule covers bounded
# retry loops too, not just infinite ones).
LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")

# A co_awaited non-idempotent atomic verb: re-posted blindly, it can
# double-apply when the first post lost only its completion.
ATOMIC_AWAIT_RE = re.compile(
    r"\bco_await\b[^;]*?\b(?:CompareAndSwap|FetchAndAdd)\s*\(", re.DOTALL)

# Ambiguity-resolution evidence: an awaited Read-class verb or wrapper
# (ReadWord, ReadPageUnlocked, ReadBatch, ...) inside the same loop body.
READ_BACK_RE = re.compile(r"\bco_await\b[^;]*?\bRead\w*\s*\(", re.DOTALL)

# A function returning Status or sim::Task<Status> (definition or member
# declaration); the names feed the discarded-status rule.
STATUS_FN_RE = re.compile(
    r"(?:static\s+|virtual\s+)?"
    r"(?:(?:sim::)?Task<\s*(?:common::)?Status\s*>|(?:common::)?Status)\s+"
    r"(?P<name>[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*\(")

# The same name declared with a void-ish return anywhere in the tree makes
# the call-site join ambiguous (the rule matches by unqualified name, not
# by overload resolution); such names are skipped rather than risk flagging
# a genuinely value-less call.
VOID_FN_RE = re.compile(
    r"(?:static\s+|virtual\s+)?(?:void|(?:sim::)?Task<\s*(?:void\s*)?>)\s+"
    r"(?P<name>[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*\(")

# A call at statement position: the previous token ends a statement or
# opens a block, optionally via co_await, with an optional object prefix.
STATUS_CALL_RE = re.compile(
    r"(?P<lead>[;{}])\s*(?P<await>co_await\s+)?"
    r"(?:[A-Za-z_][\w]*(?:\.|->|::))*"
    r"(?P<callee>[A-Za-z_]\w*)\s*\(")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                j += 1
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2
                       else text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def match_brace_block(text, open_index):
    """Returns the index one past the brace that closes text[open_index]."""
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def match_paren(text, open_index):
    """Returns the index one past the paren that closes text[open_index]."""
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def dest_base(arg):
    """Normalises a verb-destination expression to its base page pointer:
    whitespace-insensitive, and `ptr.Plus(offset)` folds onto `ptr` (the
    version-word sub-address of the same page)."""
    return re.sub(r"\s+", "", arg).split(".Plus(")[0]


def line_of(text, index):
    return text.count("\n", 0, index) + 1


def split_params(params):
    """Splits a parameter list on top-level commas (angle-bracket aware)."""
    parts = []
    depth = 0
    current = []
    for ch in params:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def param_is_indirect(param):
    """True when the parameter is passed by reference or pointer."""
    return "&" in param or "*" in param


def is_suppressed(raw_lines, line):
    """Checks `line` and the line above it for a namtree-lint annotation."""
    for candidate in (line, line - 1):
        if 1 <= candidate <= len(raw_lines):
            if SUPPRESS_RE.search(raw_lines[candidate - 1]):
                return True
    return False


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: error: [{self.rule}] {self.message}"


def collect_sources(root):
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                yield os.path.join(dirpath, name)


def lint_tree(src_root, verbose):
    findings = []
    notes = []
    task_defs = {}  # name -> list of (path, line, params, body)
    spawned = {}  # callee name -> list of (path, line)
    status_fns = set()  # unqualified names returning Status / Task<Status>
    void_fns = set()  # names with a void-ish overload: ambiguous, skipped
    scanned = []  # (rel, raw_lines, clean) for the second pass

    files = list(collect_sources(src_root))
    for path in files:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        clean = strip_comments_and_strings(raw)
        rel = os.path.relpath(path, os.path.dirname(src_root))
        scanned.append((rel, raw_lines, clean))

        # Status-returning function names (for rule discarded-status).
        for m in STATUS_FN_RE.finditer(clean):
            status_fns.add(m.group("name").split("::")[-1])
        for m in VOID_FN_RE.finditer(clean):
            void_fns.add(m.group("name").split("::")[-1])

        # Rule: blocking-primitive.
        for m in BLOCKING_RE.finditer(clean):
            findings.append(Finding(
                "blocking-primitive", rel, line_of(clean, m.start()),
                f"'{m.group(0)}' blocks a real OS thread inside the "
                "virtual-time simulator; use the sim:: primitives"))

        # Task definitions (for rules spawn-unsafe-params /
        # task-not-coroutine and the advisory note).
        for m in TASK_DEF_RE.finditer(clean):
            name = m.group("name").split("::")[-1]
            body_end = match_brace_block(clean, m.end() - 1)
            body = clean[m.end():body_end]
            line = line_of(clean, m.start())
            params = split_params(m.group("params"))
            task_defs.setdefault(name, []).append((rel, line, params, body))

            if not re.search(r"\bco_(await|return|yield)\b", body):
                findings.append(Finding(
                    "task-not-coroutine", rel, line,
                    f"'{name}' returns sim::Task but its body never "
                    "co_awaits/co_returns; it runs eagerly at call time "
                    "instead of lazily at await time"))
            elif verbose:
                indirect = [p for p in params if param_is_indirect(p)]
                if indirect:
                    notes.append(
                        f"{rel}:{line}: note: [coro-indirect-param] "
                        f"'{name}' takes {len(indirect)} reference/pointer "
                        "parameter(s); fine only while every caller "
                        "co_awaits it immediately")

        # Rule: unbounded-verb-retry.
        for m in INFINITE_LOOP_RE.finditer(clean):
            line = line_of(clean, m.start())
            open_brace = clean.find("{", m.end())
            # Skip braceless loop bodies and anything that isn't a loop
            # header (e.g. `{` far away because the body is one statement).
            if open_brace == -1 or clean[m.end():open_brace].strip():
                continue
            body = clean[open_brace:match_brace_block(clean, open_brace)]
            if not VERB_AWAIT_RE.search(body):
                continue
            if RETRY_GUARD_RE.search(body):
                continue
            if is_suppressed(raw_lines, line):
                continue
            findings.append(Finding(
                "unbounded-verb-retry", rel, line,
                "infinite loop co_awaits fabric verbs with no backoff, "
                "deadline/lease, or liveness/failure guard; it spins "
                "forever on an orphaned lock word. Add backoff or a "
                "bound, or annotate with "
                "'// namtree-lint: bounded-loop(...)'"))

        # Rule: unresolved-ambiguous-retry — a loop that re-posts a
        # non-idempotent atomic verb without a read-back cannot tell a
        # dropped verb (safe to re-post) from a dropped completion (the
        # effect landed; re-posting double-applies).
        for m in LOOP_RE.finditer(clean):
            header_open = clean.find("(", m.start())
            header_close = match_paren(clean, header_open)
            open_brace = clean.find("{", header_close)
            if open_brace == -1 or clean[header_close:open_brace].strip():
                continue  # braceless body, or not a loop header after all
            body = clean[open_brace:match_brace_block(clean, open_brace)]
            atomic = ATOMIC_AWAIT_RE.search(body)
            if not atomic:
                continue
            if READ_BACK_RE.search(body):
                continue  # the loop resolves ambiguity before re-posting
            loop_line = line_of(clean, m.start())
            atomic_line = line_of(clean, open_brace + atomic.start())
            if (is_suppressed(raw_lines, loop_line)
                    or is_suppressed(raw_lines, atomic_line)):
                continue
            findings.append(Finding(
                "unresolved-ambiguous-retry", rel, atomic_line,
                "loop re-posts a non-idempotent atomic verb "
                "(CompareAndSwap/FetchAndAdd) with no read-back in the "
                "body: a lost completion is ambiguous, and a blind re-post "
                "double-applies a landed effect (the auditor's "
                "kUnresolvedAmbiguousRetry at runtime). Resolve via a "
                "Read-class verb first (cf. RemoteOps lock/unlock paths), "
                "or annotate with '// namtree-lint: retry-ok(...)'"))

        # Rule: unchained-writes — two co_awaited signaled write-class
        # verbs to the same destination, with nothing but trivial
        # statements between them, belong in one PostChain.
        awaited = []
        for m in AWAITED_WRITE_RE.finditer(clean):
            open_paren = m.end() - 1
            close = match_paren(clean, open_paren)
            args = split_params(clean[open_paren + 1:close - 1])
            # Fabric verbs are (client, destination, ...): need both.
            if len(args) < 2:
                continue
            awaited.append(
                (m.start(), close, dest_base(args[1])))
        for (a_start, a_end, a_dest), (b_start, _, b_dest) in zip(
                awaited, awaited[1:]):
            between = clean[a_end:b_start]
            # Same statement run only: no new scope, at most the first
            # verb's terminator plus one trivial statement in between.
            if "{" in between or "}" in between or between.count(";") > 2:
                continue
            if not a_dest or a_dest != b_dest:
                continue
            line_a = line_of(clean, a_start)
            line_b = line_of(clean, b_start)
            if (is_suppressed(raw_lines, line_a)
                    or is_suppressed(raw_lines, line_b)):
                continue
            findings.append(Finding(
                "unchained-writes", rel, line_b,
                "consecutive signaled write-class verbs to the same "
                f"destination ('{a_dest}') ring two doorbells where one "
                "doorbell-batched chain would do; post them via "
                "Fabric::PostChain (cf. RemoteOps::WriteUnlockPage), or "
                "annotate with '// namtree-lint: unchained-ok(...)'"))

        # Rule: hand-rolled-chase — an if/while condition consulting both
        # the fence key and the right sibling re-derives the B-link chase
        # predicate inline instead of using PageView::NeedsChase (or the
        # traversal engine's descent loop).
        if os.path.basename(path) not in CHASE_ALLOWED_FILES:
            for m in CHASE_COND_RE.finditer(clean):
                open_paren = clean.find("(", m.start())
                cond = clean[open_paren:match_paren(clean, open_paren)]
                if "high_key" not in cond or "right_sibling" not in cond:
                    continue
                line = line_of(clean, m.start())
                if is_suppressed(raw_lines, line):
                    continue
                findings.append(Finding(
                    "hand-rolled-chase", rel, line,
                    "condition consults both high_key() and "
                    "right_sibling(): a hand-rolled B-link chase decision. "
                    "Use PageView::NeedsChase(key) (src/btree/page.h) — or "
                    "the traversal engine's descent — so the "
                    "inclusive/exclusive fence contract stays in one "
                    "place, or annotate with "
                    "'// namtree-lint: chase-ok(...)'"))

        # Rule: raw-counter-field — hand-threaded counter fields in
        # headers belong on the metrics registry (docs/observability.md).
        if (path.endswith((".h", ".hpp"))
                and os.path.basename(path) not in RAW_COUNTER_ALLOWED_FILES):
            for m in RAW_COUNTER_FIELD_RE.finditer(clean):
                name = m.group("name")
                if not COUNTERISH_NAME_RE.search(name):
                    continue
                line = line_of(clean, m.start())
                if is_suppressed(raw_lines, line):
                    continue
                findings.append(Finding(
                    "raw-counter-field", rel, line,
                    f"'uint64_t {name} = 0;' is a hand-threaded counter "
                    "field, invisible to the metrics registry and plumbed "
                    "by hand into every consumer. Declare a "
                    "metrics::Counter and register it "
                    "(src/common/metrics.h, docs/observability.md), or "
                    "annotate the audited field with "
                    "'// namtree-lint: metric-ok(...)'"))

        # Spawn call sites.
        for m in SPAWN_RE.finditer(clean):
            callee = m.group("callee").split("::")[-1]
            if callee == "Spawn":
                continue
            spawned.setdefault(callee, []).append(
                (rel, line_of(clean, m.start())))

    # Rule: discarded-status — an expression statement calling a function
    # known (by name, across the tree) to return Status / Task<Status>,
    # with the result unused. A `(void)` cast naturally falls outside the
    # statement-position pattern, so annotated drops stay quiet.
    for rel, raw_lines, clean in scanned:
        for m in STATUS_CALL_RE.finditer(clean):
            callee = m.group("callee")
            if callee not in status_fns or callee in void_fns:
                continue
            open_paren = clean.rfind("(", 0, m.end())
            close = match_paren(clean, open_paren)
            rest = clean[close:].lstrip()
            if not rest.startswith(";"):
                continue  # part of a larger expression: the value is used
            line = line_of(clean, open_paren)
            if is_suppressed(raw_lines, line):
                continue
            verb = ("co_await of a Task<Status> coroutine"
                    if m.group("await") else "call")
            findings.append(Finding(
                "discarded-status", rel, line,
                f"{verb} '{m.group('callee')}' returns Status but the "
                "result is discarded, silently swallowing failures "
                "(kUnavailable, kTimedOut, Corruption). Check it, or cast "
                "to void and annotate with "
                "'// namtree-lint: status-ok(...)'"))

    # Rule: spawn-unsafe-params — join spawn sites against definitions.
    for callee, sites in sorted(spawned.items()):
        for def_rel, def_line, params, _body in task_defs.get(callee, []):
            indirect = [p for p in params if param_is_indirect(p)]
            if not indirect:
                continue
            def_path = os.path.join(os.path.dirname(src_root), def_rel)
            with open(def_path, encoding="utf-8") as f:
                def_raw_lines = f.read().splitlines()
            if is_suppressed(def_raw_lines, def_line):
                continue
            site = ", ".join(f"{p}:{l}" for p, l in sites[:3])
            findings.append(Finding(
                "spawn-unsafe-params", def_rel, def_line,
                f"'{callee}' is detached with sim::Spawn ({site}) but takes "
                f"reference/pointer parameter(s) ({'; '.join(indirect)}); "
                "the frame outlives the call, so the referents can dangle. "
                "Pass by value, or annotate the audited lifetime with "
                "'// namtree-lint: safe-coro-ref(...)'"))

    return findings, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=None,
                        help="source tree to scan (default: <repo>/src)")
    parser.add_argument("--verbose", action="store_true",
                        help="also print advisory notes")
    args = parser.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src_root = os.path.abspath(args.root or os.path.join(repo, "src"))
    if not os.path.isdir(src_root):
        print(f"lint_namtree: no such directory: {src_root}", file=sys.stderr)
        return 2

    findings, notes = lint_tree(src_root, args.verbose)
    for note in notes:
        print(note)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_namtree: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_namtree: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
