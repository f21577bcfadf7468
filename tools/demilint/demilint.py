#!/usr/bin/env python3
"""demilint: repo-specific datapath-invariant checks for the Demikernel reproduction.

Runs as a CTest case (label `lint`). Pure stdlib — no clang, no pip. The rules encode
invariants the compiler cannot see:

  fastpath-abort     no aborting checks (DEMI_CHECK/assert/abort/throw) inside a region
                     marked `// demilint: fastpath` — release datapaths must be abort-free.
                     DEMI_DCHECK is permitted (compiled out under NDEBUG).
  fastpath-alloc     no heap allocation or unbounded container growth inside fastpath
                     regions — the datapath allocates only from the DMA pool it polls.
  fastpath-syscall   no blocking syscalls or stdio inside fastpath regions — a poll loop
                     that sleeps in the kernel has lost its microsecond budget (paper §3).
  lock-in-fastpath   no mutex acquisition (std::mutex/lock_guard/unique_lock/...) inside
                     fastpath regions — the shared-nothing datapath is lock-free by design
                     (paper §4); a lock on the poll loop is a cross-core serialization bug.
  shard-local        types/fields annotated `// demilint: shard-local` are owned by exactly
                     one shard's worker thread. They may not be referenced inside
                     `// demilint: control-plane` regions (ShardGroup code running on the
                     spawning thread), and worker-context code may not index another
                     shard's slot (`shards_[x]` with x != shard_id).
  shared-state       no mutable namespace-scope or function-local static state in datapath
                     files (src/net/, src/liboses/, src/memory/) — a mutable global on the
                     shared-nothing datapath is a silent cross-shard race. `const`,
                     `constexpr` and `thread_local` are fine; deliberate shared state needs
                     `// demilint: allow(shared-state) why`.
  atomic-justify     every `std::atomic` object declaration and every explicit
                     `std::memory_order_*` argument in src/ carries a
                     `// demilint: atomic(<invariant>)` comment naming the invariant that
                     makes the ordering sufficient — "it compiles" is not a memory model.
  nodiscard-status   every Status-returning declaration in a src/ header carries
                     [[nodiscard]]; Result<T> must be class-level [[nodiscard]].
  dropped-qtoken     no `(void)`-cast call to a PDPIX op that returns a qtoken (Push,
                     PushTo, Pop, Accept, Connect) in src/: PDPIX hands every such op a
                     qtoken the application must redeem, or its table slot leaks.
  metric-drift       every metric registered in src/ appears in the docs/OBSERVABILITY.md
                     reference table with the same (name, kind, unit), and every table row
                     is registered so (both directions).
  doc-links          markdown links in the repo's .md files resolve, and backticked repo
                     paths in README.md, DESIGN.md, EXPERIMENTS.md and docs/ name a file, a
                     directory or a file stem that exists (CHANGES.md and ROADMAP.md record
                     history and plans, so their backticks are not checked).
  trace-name-drift   trace event names in src/observability/trace.cc equal the documented
                     tracer event schema.
  header-guard       src/**/*.h guards follow SRC_PATH_TO_FILE_H_.
  include-style      quoted includes are full repo paths ("src/...").

Region and suppression directives (in source comments):

  // demilint: fastpath             begin a fastpath region
  // demilint: end-fastpath         end it
  // demilint: control-plane        begin a region that runs on the spawning/control thread
  // demilint: end-control-plane    end it
  // demilint: worker-context       begin a region that runs on a worker's own thread
  // demilint: end-worker-context   end it
  // demilint: shard-local          trailing: this type/field is owned by one shard thread
  // demilint: atomic(<invariant>)  trailing or preceding: justifies an atomic/ordering site
  // demilint: allow(rule) why      suppress `rule` on this line or the next code line

Usage:
  demilint.py --root REPO_ROOT        lint the tree (exit 1 on violations)
  demilint.py --selftest              run the rules over tools/demilint/fixtures (and the
                                      miniature repo in fixtures/repo/) and verify every
                                      seeded violation is caught (exit 1 on a miss or an
                                      unexpected diagnostic)
"""

import argparse
import os
import re
import sys

# Anchored to end-of-line so prose that merely *mentions* the directive doesn't open a region.
FASTPATH_BEGIN = re.compile(r"//\s*demilint:\s*fastpath\s*$")
FASTPATH_END = re.compile(r"//\s*demilint:\s*end-fastpath\s*$")
CONTROL_BEGIN = re.compile(r"//\s*demilint:\s*control-plane\s*$")
CONTROL_END = re.compile(r"//\s*demilint:\s*end-control-plane\s*$")
WORKER_BEGIN = re.compile(r"//\s*demilint:\s*worker-context\s*$")
WORKER_END = re.compile(r"//\s*demilint:\s*end-worker-context\s*$")
SHARD_LOCAL = re.compile(r"//\s*demilint:\s*shard-local\s*$")
ATOMIC_JUSTIFY = re.compile(r"//\s*demilint:\s*atomic\(")
ALLOW = re.compile(r"//\s*demilint:\s*allow\(([a-z-]+)\)")
EXPECT = re.compile(r"(?://|<!--)\s*demilint-expect:\s*([a-z-]+)")

# fastpath-abort: aborting constructs. DEMI_DCHECK is fine (debug-only); the negative
# lookbehind keeps DEMI_CHECK from matching inside it.
RE_ABORT = re.compile(
    r"(?<![A-Za-z0-9_])(?:DEMI_CHECK(?:_MSG)?|assert|abort|exit|_exit)\s*\(|(?<![A-Za-z0-9_])throw\s"
)

# fastpath-alloc: general-heap allocation and growable-container calls.
RE_ALLOC = re.compile(
    r"(?<![A-Za-z0-9_])new\s|"
    r"(?<![A-Za-z0-9_.>])(?:malloc|calloc|realloc|strdup)\s*\(|"
    r"\b(?:push_back|emplace_back|emplace|resize|reserve)\s*\(|"
    r"\bmake_(?:unique|shared)\b|"
    r"\.insert\s*\(|->insert\s*\("
)

# fastpath-syscall: blocking I/O and stdio. Only free-function spellings — `x.close()` or
# `Foo::write()` are methods, not syscalls.
RE_SYSCALL = re.compile(
    r"(?<![A-Za-z0-9_.:>])"
    r"(?:read|write|pread|pwrite|recv|recvfrom|recvmsg|send|sendto|sendmsg|accept|connect|"
    r"poll|ppoll|select|epoll_wait|sleep|usleep|nanosleep|open|close|fsync|fdatasync|ioctl|"
    r"printf|fprintf|puts|fputs|fflush|fwrite|fread)\s*\("
)

# lock-in-fastpath: mutex types, RAII guards, and raw lock calls. `.lock()` also catches
# weak_ptr::lock-style spellings, which is deliberate: promoting a weak_ptr on the poll
# loop is a shared_ptr refcount bounce that deserves a look (annotate if intended).
RE_LOCK = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|"
    r"shared_timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
    r"(?<![A-Za-z0-9_])pthread_(?:mutex|rwlock|spin)_\w+\s*\(|"
    r"\.lock\s*\(\s*\)|->lock\s*\(\s*\)"
)

# shared-state: a `static` (or `inline static`) object declaration that is not const,
# constexpr, or thread_local. Function declarations/definitions are excluded separately
# (their name is followed by a parameter list before any initializer).
RE_STATIC_CANDIDATE = re.compile(r"^\s*(?:inline\s+)?static\s+(?!const\b|constexpr\b|thread_local\b)")

# atomic-justify: an owning std::atomic declaration — `std::atomic<T> name` followed by an
# initializer or terminator. References/pointers to atomics (`std::atomic<T>&`, `...*`) are
# uses of someone else's atomic: the owner carries the justification.
RE_ATOMIC_DECL = re.compile(r"std::atomic<[^<>]*>\s+\w+\s*[{=;,)]|std::atomic<[^<>]*>\s+\w+\s*$")
RE_MEMORY_ORDER = re.compile(r"std::memory_order_(?:relaxed|consume|acquire|release|acq_rel|seq_cst)")

# nodiscard-status: a Status-returning declaration/definition line in a header.
RE_STATUS_DECL = re.compile(r"^\s*(?:virtual\s+|static\s+|inline\s+|constexpr\s+)*Status\s+\w+\s*\(")

# dropped-qtoken: a `(void)` cast discarding the qtoken of a PDPIX op, called bare or through
# an object (`(void)os.Push(...)`, `(void)os_->Pop(...)`).
RE_DROPPED_QTOKEN = re.compile(
    r"\(\s*void\s*\)\s*(?:[A-Za-z_][\w:]*\s*(?:\.|->)\s*)*(?:Push|PushTo|Pop|Accept|Connect)\s*\(")

# metric-drift: a registration is Register<Kind>("name" [+ label], "unit", ...) — the kind is
# in the method name, and a labelled family (`"tenant.mem_used" + label`) is checked once.
RE_METRIC_REG = re.compile(
    r'Register(Counter|Gauge|Histogram)\s*\(\s*"([a-z0-9_.]+)"(?:\s*\+\s*\w+)?\s*,\s*"([^"]*)"')
RE_TRACE_NAME = re.compile(r"return\s+\"([a-z0-9_]+)\"\s*;")
# A reference-table row: | `name` | kind | unit | meaning |
RE_DOC_METRIC = re.compile(r"^\| `([a-z0-9_]+\.[a-z0-9_]+)` \| (\w+) \| ([^|]*?) \|", re.M)
RE_DOC_TRACE = re.compile(r"^\| `([a-z0-9_]+)` \|", re.M)
RE_INCLUDE_Q = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

# doc-links: markdown link targets, and inline code spans that may hold repo paths.
RE_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
RE_CODE_SPAN = re.compile(r"`([^`]+)`")
RE_BRACES = re.compile(r"\{([^{}]*)\}")
# Backticked paths are checked only in the documents that describe the tree as it is.
PATH_CHECKED_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/")

# Directories whose files are the shared-nothing datapath: mutable static state here is a
# cross-shard race by construction. `src/fixtures/` is the selftest namespace — fixture
# files pose as datapath files so the rule can be regression-tested.
DATAPATH_DIRS = ("src/net/", "src/liboses/", "src/memory/", "src/fixtures/")

RE_CLASS_DECL = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)")
RE_FIELD_DECL = re.compile(r"\b([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^}]*\})?\s*;")
RE_SHARDS_INDEX = re.compile(r"\bshards_\s*\[\s*([A-Za-z_]\w*)\s*\]")


class Diagnostic:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(lines):
    """Per-line code text with comments and string/char literals blanked, so pattern rules
    don't fire on prose or literals. Keeps line count identical."""
    out = []
    in_block = False
    for raw in lines:
        buf = []
        i = 0
        n = len(raw)
        while i < n:
            if in_block:
                if raw.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            c = raw[i]
            if raw.startswith("//", i):
                break
            if raw.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if c in ('"', "'"):
                quote = c
                buf.append(" ")
                i += 1
                while i < n and raw[i] != quote:
                    i += 2 if raw[i] == "\\" else 1
                i += 1
                continue
            buf.append(c)
            i += 1
        out.append("".join(buf))
    return out


def collect_allows(lines):
    """Map line number (1-based) -> set of allowed rules. An allow on a comment-only line
    also covers the next non-blank line."""
    allows = {}
    for idx, raw in enumerate(lines, start=1):
        for m in ALLOW.finditer(raw):
            allows.setdefault(idx, set()).add(m.group(1))
            stripped = raw.strip()
            if stripped.startswith("//"):  # standalone directive: cover the next code line
                for j in range(idx + 1, len(lines) + 1):
                    if lines[j - 1].strip():
                        allows.setdefault(j, set()).add(m.group(1))
                        break
    return allows


def collect_shard_local_names(text):
    """Identifiers declared with a trailing `// demilint: shard-local` annotation.

    On a class/struct declaration line the class name is registered; on a member/variable
    declaration line the declared identifier is."""
    names = set()
    lines = text.splitlines()
    code = strip_comments_and_strings(lines)
    for idx, raw in enumerate(lines, start=1):
        if not SHARD_LOCAL.search(raw):
            continue
        line = code[idx - 1]
        m = RE_CLASS_DECL.search(line)
        if m:
            names.add(m.group(1))
            continue
        m = RE_FIELD_DECL.search(line)
        if m:
            names.add(m.group(1))
    return names


def lint_file(path, rel, text, shard_local_names=None):
    """All per-file rules. Returns a list of Diagnostic. `shard_local_names` is the
    repo-wide set of `// demilint: shard-local` identifiers (the file's own annotations
    are always included)."""
    diags = []
    lines = text.splitlines()
    code = strip_comments_and_strings(lines)
    allows = collect_allows(lines)
    shard_local = set(shard_local_names or ())
    shard_local |= collect_shard_local_names(text)
    shard_local_re = None
    if shard_local:
        shard_local_re = re.compile(
            r"(?<![A-Za-z0-9_])(?:" + "|".join(re.escape(n) for n in sorted(shard_local)) +
            r")(?![A-Za-z0-9_])")

    def emit(lineno, rule, message):
        if rule not in allows.get(lineno, ()):  # suppressed by demilint: allow(rule)
            diags.append(Diagnostic(rel, lineno, rule, message))

    # --- region rules (fastpath / control-plane / worker-context) ---
    in_fast = False
    fast_open_line = 0
    in_control = False
    in_worker = False
    for idx, raw in enumerate(lines, start=1):
        if FASTPATH_BEGIN.search(raw):
            if in_fast:
                emit(idx, "fastpath-abort", "nested `demilint: fastpath` region")
            in_fast = True
            fast_open_line = idx
            continue
        if FASTPATH_END.search(raw):
            if not in_fast:
                emit(idx, "fastpath-abort", "`end-fastpath` without an open region")
            in_fast = False
            continue
        if CONTROL_BEGIN.search(raw):
            if in_control:
                emit(idx, "shard-local", "nested `demilint: control-plane` region")
            in_control = True
            continue
        if CONTROL_END.search(raw):
            if not in_control:
                emit(idx, "shard-local", "`end-control-plane` without an open region")
            in_control = False
            continue
        if WORKER_BEGIN.search(raw):
            if in_worker:
                emit(idx, "shard-local", "nested `demilint: worker-context` region")
            in_worker = True
            continue
        if WORKER_END.search(raw):
            if not in_worker:
                emit(idx, "shard-local", "`end-worker-context` without an open region")
            in_worker = False
            continue
        line = code[idx - 1]
        if in_control and shard_local_re is not None and shard_local_re.search(line):
            emit(idx, "shard-local",
                 "shard-local state referenced from control-plane code (runs on the "
                 "spawning thread, not the owning shard's worker)")
        if in_worker:
            for m in RE_SHARDS_INDEX.finditer(line):
                if m.group(1) != "shard_id":
                    emit(idx, "shard-local",
                         f"worker-context code indexes another shard's slot "
                         f"(shards_[{m.group(1)}]); a worker may only touch its own shard")
        if not in_fast:
            continue
        if RE_ABORT.search(line):
            emit(idx, "fastpath-abort",
                 "aborting check on the fast path (use DEMI_DCHECK or an error return)")
        if RE_ALLOC.search(line):
            emit(idx, "fastpath-alloc",
                 "heap allocation / container growth on the fast path")
        if RE_SYSCALL.search(line):
            emit(idx, "fastpath-syscall", "blocking syscall or stdio on the fast path")
        if RE_LOCK.search(line):
            emit(idx, "lock-in-fastpath",
                 "lock acquisition on the fast path (the shared-nothing datapath is "
                 "lock-free; move the serialization off the poll loop)")
    if in_fast:
        diags.append(Diagnostic(rel, fast_open_line, "fastpath-abort",
                                "fastpath region never closed with `end-fastpath`"))

    # --- shared-state: mutable static storage in datapath files ---
    if rel.startswith(DATAPATH_DIRS):
        for idx, line in enumerate(code, start=1):
            if not RE_STATIC_CANDIDATE.search(line):
                continue
            # Exclude functions: their name is followed by a parameter list before any
            # initializer. `static Foo Bar(...)` declares/defines a function; a variable
            # with an initializer has `=` or `{` first.
            head = re.split(r"[={]", line, maxsplit=1)[0]
            if re.search(r"\w\s*\(", head):
                continue
            emit(idx, "shared-state",
                 "mutable static state in a datapath file is shared across shards "
                 "(annotate `// demilint: allow(shared-state) why` if deliberate)")

    # --- atomic-justify: every owning atomic decl / explicit ordering carries an invariant ---
    for idx, line in enumerate(code, start=1):
        if not (RE_ATOMIC_DECL.search(line) or RE_MEMORY_ORDER.search(line)):
            continue
        # A justification counts on the same line, on the line directly above (covers a
        # trailing comment on an earlier line of a multi-line statement), or anywhere in
        # the contiguous block of comment-only lines above (multi-line invariants are
        # encouraged).
        justified = bool(ATOMIC_JUSTIFY.search(lines[idx - 1]))
        if not justified and idx >= 2:
            # A trailing justification on the previous line counts only if that line is an
            # unterminated statement (this line is its continuation) — a completed atomic
            # site's own annotation must not leak onto its neighbor.
            prev_code = code[idx - 2].rstrip()
            if prev_code and prev_code[-1] not in ";{}" and ATOMIC_JUSTIFY.search(lines[idx - 2]):
                justified = True
            j = idx - 2
            while not justified and j >= 0 and lines[j].strip().startswith("//"):
                justified = bool(ATOMIC_JUSTIFY.search(lines[j]))
                j -= 1
        if justified:
            continue
        what = "std::atomic declaration" if RE_ATOMIC_DECL.search(line) else \
            "explicit memory_order argument"
        emit(idx, "atomic-justify",
             f"{what} without a `// demilint: atomic(<invariant>)` justification "
             "(same line or the comment block above)")

    # --- header rules ---
    if rel.endswith(".h"):
        guard = rel.upper().replace("/", "_").replace(".", "_").replace("-", "_") + "_"
        if f"#ifndef {guard}" not in text or f"#define {guard}" not in text:
            emit(1, "header-guard", f"expected include guard {guard}")
        for idx, line in enumerate(code, start=1):
            if RE_STATUS_DECL.match(line) and "[[nodiscard]]" not in lines[idx - 1]:
                prev = lines[idx - 2].rstrip() if idx >= 2 else ""
                if not prev.endswith("[[nodiscard]]"):
                    emit(idx, "nodiscard-status",
                         "Status-returning declaration without [[nodiscard]]")

    # --- dropped-qtoken: every qtoken a PDPIX op hands out is redeemed ---
    for idx, line in enumerate(code, start=1):
        if RE_DROPPED_QTOKEN.search(line):
            emit(idx, "dropped-qtoken",
                 "qtoken of a PDPIX op discarded with (void): redeem it (TryTake once done) "
                 "or its token-table slot leaks")

    # --- include style ---
    for idx, raw in enumerate(lines, start=1):
        m = RE_INCLUDE_Q.match(raw)
        if m and not m.group(1).startswith("src/"):
            emit(idx, "include-style",
                 f'quoted include "{m.group(1)}" must be a full repo path ("src/...")')

    return diags


def line_of(text, offset):
    return text[:offset].count("\n") + 1


def lint_metrics(root):
    """metric-drift: the (name, kind, unit) registered in src/ against the docs table."""
    try:
        with open(os.path.join(root, "docs", "OBSERVABILITY.md"), encoding="utf-8") as f:
            doc = f.read()
    except OSError:
        return [Diagnostic("docs/OBSERVABILITY.md", 1, "metric-drift",
                           "docs/OBSERVABILITY.md is missing")]
    documented = {}
    for m in RE_DOC_METRIC.finditer(doc):
        documented.setdefault(m.group(1), (m.group(2), m.group(3), line_of(doc, m.start())))
    registered = {}
    for _, rel, text in iter_sources(root):
        for m in RE_METRIC_REG.finditer(text):
            registered.setdefault(m.group(2), (m.group(1).lower(), m.group(3), rel,
                                               line_of(text, m.start())))

    def kind_unit(entry):
        return f"{entry[0]} in {entry[1]}"

    diags = []
    for name in sorted(registered.keys() | documented.keys()):
        code, row = registered.get(name), documented.get(name)
        if code and row and code[:2] == row[:2]:
            continue
        if code:
            other = f"documented as {kind_unit(row)}" if row else "not documented"
            diags.append(Diagnostic(code[2], code[3], "metric-drift",
                                    f"metric `{name}` registered as {kind_unit(code)} but {other}"))
        if row:
            other = f"registered as {kind_unit(code)}" if code else "never registered in src/"
            diags.append(Diagnostic("docs/OBSERVABILITY.md", row[2], "metric-drift",
                                    f"metric `{name}` documented as {kind_unit(row)} but {other}"))
    return diags


def is_generated_dir(name):
    """Hidden trees (.git, .bench_build) and build trees hold no documentation of the repo."""
    return name.startswith((".", "build", "cmake-build"))


def iter_markdown(root):
    for dirpath, dirs, files in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
        dirs[:] = sorted(d for d in dirs if not is_generated_dir(d)
                         and f"{rel_dir}/{d}" != "tools/demilint/fixtures")
        for name in sorted(files):
            if name.endswith(".md"):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as f:
                    yield rel, f.read()


def expand_braces(word):
    """`src/x.{h,cc}` -> [`src/x.h`, `src/x.cc`]."""
    m = RE_BRACES.search(word)
    if not m:
        return [word]
    return [w for alt in m.group(1).split(",")
            for w in expand_braces(word[:m.start()] + alt + word[m.end():])]


def repo_path_exists(root, path):
    full = os.path.join(root, path)
    if os.path.exists(full):
        return True
    parent, stem = os.path.split(full.rstrip("/"))
    return os.path.isdir(parent) and any(os.path.splitext(n)[0] == stem
                                         for n in os.listdir(parent))


def lint_doc_links(root):
    """doc-links: markdown links resolve; backticked repo paths in the descriptive docs exist."""
    top_dirs = {d for d in os.listdir(root)
                if os.path.isdir(os.path.join(root, d)) and not is_generated_dir(d)}
    diags = []
    for rel, text in iter_markdown(root):
        md_dir = os.path.dirname(rel)
        check_paths = rel.startswith(PATH_CHECKED_DOCS)
        for idx, line in enumerate(text.splitlines(), start=1):
            for m in RE_MD_LINK.finditer(line):
                target = m.group(1)
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path = target.split("#", 1)[0]
                resolved = path.lstrip("/") if path.startswith("/") else \
                    os.path.normpath(os.path.join(md_dir, path))
                if path and not os.path.exists(os.path.join(root, resolved)):
                    diags.append(Diagnostic(rel, idx, "doc-links", f"broken link -> {target}"))
            if not check_paths:
                continue
            for span in RE_CODE_SPAN.findall(line):
                for word in span.split():
                    if "/" not in word or word.split("/", 1)[0] not in top_dirs or "*" in word:
                        continue  # not a repo path, or a glob
                    for path in expand_braces(word):
                        if not repo_path_exists(root, path):
                            diags.append(Diagnostic(rel, idx, "doc-links",
                                                    f"backticked path `{path}` does not exist"))
    return diags


def lint_repo_consistency(root):
    """Cross-file rules: metric and trace-event drift between src/ and the docs, doc links."""
    diags = lint_metrics(root) + lint_doc_links(root)
    try:
        with open(os.path.join(root, "docs", "OBSERVABILITY.md"), encoding="utf-8") as f:
            doc = f.read()
    except OSError:
        doc = ""
    # Trace names: first backticked cell of schema rows, dotless (metric rows all have dots).
    doc_traces = {n for n in RE_DOC_TRACE.findall(doc) if "." not in n}

    trace_cc = os.path.join(root, "src", "observability", "trace.cc")
    try:
        with open(trace_cc, encoding="utf-8") as f:
            trace_text = f.read()
    except OSError:
        trace_text = ""
    code_traces = set(RE_TRACE_NAME.findall(trace_text)) - {"unknown"}
    for name in sorted(code_traces - doc_traces):
        diags.append(Diagnostic("src/observability/trace.cc", 1, "trace-name-drift",
                                f"trace event `{name}` emitted but not documented"))
    for name in sorted(doc_traces - code_traces):
        diags.append(Diagnostic("docs/OBSERVABILITY.md", 1, "trace-name-drift",
                                f"trace event `{name}` documented but unknown to trace.cc"))

    # Result<T> must be class-level [[nodiscard]] so *its* discards are caught everywhere.
    status_h = os.path.join(root, "src", "common", "status.h")
    try:
        with open(status_h, encoding="utf-8") as f:
            status_text = f.read()
    except OSError:
        status_text = ""
    if not re.search(r"class\s+\[\[nodiscard\]\]\s+Result", status_text):
        diags.append(Diagnostic("src/common/status.h", 1, "nodiscard-status",
                                "Result<T> must be declared `class [[nodiscard]] Result`"))
    return diags


def iter_sources(root):
    src = os.path.join(root, "src")
    for dirpath, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith((".h", ".cc")):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as f:
                    yield path, rel, f.read()


def run_lint(root):
    diags = []
    # Pass 1: shard-local annotations are repo-wide (a type annotated in its header is
    # guarded in every control-plane region, whichever file that region lives in).
    sources = list(iter_sources(root))
    shard_local_names = set()
    for path, rel, text in sources:
        shard_local_names |= collect_shard_local_names(text)
    for path, rel, text in sources:
        diags.extend(lint_file(path, rel, text, shard_local_names))
    diags.extend(lint_repo_consistency(root))
    for d in diags:
        print(d)
    if diags:
        print(f"demilint: FAILED ({len(diags)} violation(s))")
        return 1
    print(f"demilint: OK ({len(shard_local_names)} shard-local identifiers guarded)")
    return 0


def run_selftest():
    """Each fixture seeds violations marked `// demilint-expect: rule`. The tool must flag
    exactly those (file, line, rule) triples — a miss means a rule regressed, an extra
    means a rule got trigger-happy."""
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
    failed = False
    seen_any = False
    for name in sorted(os.listdir(fixtures)):
        if not name.endswith((".h", ".cc")):
            continue
        seen_any = True
        path = os.path.join(fixtures, name)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        # Fixtures pose as files under src/ so header-guard expectations are stable (and
        # src/fixtures/ counts as a datapath dir so shared-state can be exercised).
        rel = f"src/fixtures/{name}"
        expected = set()
        for idx, line in enumerate(text.splitlines(), start=1):
            for m in EXPECT.finditer(line):
                expected.add((idx, m.group(1)))
        got = {(d.line, d.rule) for d in lint_file(path, rel, text)}
        for miss in sorted(expected - got):
            print(f"selftest MISS: {name}:{miss[0]} expected [{miss[1]}] not reported")
            failed = True
        for extra in sorted(got - expected):
            print(f"selftest EXTRA: {name}:{extra[0]} unexpected [{extra[1]}]")
            failed = True

    # metric-drift and doc-links, exercised against the miniature repo in fixtures/repo/:
    # every file there marks its seeded violations with `demilint-expect: rule`.
    repo = os.path.join(fixtures, "repo")
    expected = set()
    for dirpath, _, files in os.walk(repo):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, repo).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for idx, line in enumerate(f.read().splitlines(), start=1):
                    for m in EXPECT.finditer(line):
                        expected.add((rel, idx, m.group(1)))
    got = {(d.path, d.line, d.rule) for d in lint_metrics(repo) + lint_doc_links(repo)}
    for miss in sorted(expected - got):
        print(f"selftest MISS: repo/{miss[0]}:{miss[1]} expected [{miss[2]}] not reported")
        failed = True
    for extra in sorted(got - expected):
        print(f"selftest EXTRA: repo/{extra[0]}:{extra[1]} unexpected [{extra[2]}]")
        failed = True
    doc = "| `packet_tx` | a | b | c |\n"
    if {n for n in RE_DOC_TRACE.findall(doc) if "." not in n} != {"packet_tx"}:
        print("selftest MISS: doc trace parsing")
        failed = True

    # shard-local name collection, exercised against an embedded miniature declaration set.
    names = collect_shard_local_names(
        "class FlowTable {  // demilint: shard-local\n"
        "  QTokenTable tokens_;  // demilint: shard-local\n"
        "  int plain_field_;\n")
    if names != {"FlowTable", "tokens_"}:
        print(f"selftest MISS: shard-local name collection got {sorted(names)}")
        failed = True
    if not seen_any:
        print("selftest: no fixtures found")
        failed = True
    if failed:
        print("demilint --selftest: FAILED")
        return 1
    print("demilint --selftest: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".", help="repository root to lint")
    ap.add_argument("--selftest", action="store_true",
                    help="verify the rules against the seeded fixtures")
    args = ap.parse_args()
    if args.selftest:
        return run_selftest()
    return run_lint(os.path.abspath(args.root))


if __name__ == "__main__":
    sys.exit(main())
