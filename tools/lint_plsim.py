#!/usr/bin/env python3
"""plsim-specific lint pass, run as a CTest test (see top-level CMakeLists).

Rules (each can be waived on a specific line with a trailing or preceding
comment `// plsim-lint: allow(<rule>)`):

  threading       Raw threading primitives (std::thread, std::mutex,
                  std::condition_variable, locks, and their headers) are
                  confined to src/parallel/. Everything else must use the
                  sanctioned wrappers: run_on_threads, Mailbox, the barriers,
                  Guarded<T>, or std::atomic. This keeps the surface the
                  thread sanitizer has to certify small.

  randomness      rand()/srand()/std::random_device/std::mt19937 are banned
                  everywhere except src/util/rng.hpp: all randomness flows
                  through the deterministic, seeded plsim::Rng so runs are
                  reproducible bit-for-bit.

  unordered-iter  Range-for over a std::unordered_{map,set} declared in the
                  same file is banned in src/engines/ and src/vp/: iteration
                  order is unspecified and can leak into message ordering,
                  stats, or modelled cost. Iterate a deterministic index
                  instead (or sort first).

  partition-order No std::unordered_{map,set,multimap,multiset} type and no
                  <unordered_map>/<unordered_set> include anywhere in
                  src/partition/, iterated or not: a partition must be a
                  function of the circuit, the weights and the seed, and a
                  hash container's order is the standard library's choice.
                  Neighbour order decides heavy-edge ties and the growth
                  order of multilevel's base case, so a hashed adjacency
                  moves partitions across libraries. unordered-iter alone
                  would not catch it: its declaration regex misses a
                  container nested in another template (a vector of hash
                  maps). Build graphs with merge_arcs
                  (src/partition/graph.hpp).

  include-hygiene Quoted includes must be repo-root-relative module paths
                  ("logic/value.hpp"), never parent-relative ("../x.hpp");
                  system headers use <>.

  tick-add        Raw `+` on Tick-valued expressions (t + delay, frontier +
                  lookahead, front + window, ...) is banned in src/core/,
                  src/engines/, src/vp/, src/event/, src/seq/ and src/fault/:
                  Tick is unsigned, so an addition near the horizon wraps to
                  a small value and sails through every `>= horizon` clamp
                  (in src/fault it wraps detection timestamps). Use the
                  saturating plsim::tick_add (src/core/types.hpp) instead.

  packed-lane     Raw 64-lane word idioms (~0ull, ~1ull, 1ull << n) and
                  direct eval_gate64 calls are banned in the lane-carrying
                  modules (src/fault/, src/seq/, src/stim/, src/engines/,
                  src/core/): all lane arithmetic goes through the named
                  helpers of src/sim/packed.hpp (kFaultLanes, lane_mask,
                  lanes_from_bool, broadcast_lane0, forced_word,
                  pack2_broadcast, packed2_eval_gather) so the lane-0 and
                  binary-only conventions live in one translation unit.
                  src/event/ keeps its bitmap-summary words (different
                  domain) and src/logic/ keeps the eval_gate64 definition.

  memory-order    Atomic operations (.load/.store/.exchange/.fetch_*/
                  .compare_exchange_*) must spell out an explicit
                  std::memory_order argument everywhere in src/. Defaulted
                  seq_cst hides the intended synchronization contract and
                  makes TSan reports impossible to audit against intent.

  plan-eval       Interpretive gate evaluation (eval_gate4/eval_gate9/... calls)
                  and raw Circuit fanin gathers (c.fanins(/circuit_.fanins()
                  are banned in src/core/block.cpp and src/engines/: those hot
                  paths run on the compiled SimPlan (src/sim/plan.hpp) —
                  BlockPlan records, local fanin index lists, and the LUT
                  kernels of src/sim/tables.hpp. Reintroducing the interpreter
                  there silently forfeits the compiled-plan speedup and splits
                  the semantics into two code paths.

  trace-macro     Direct use of plsim::trace_detail:: helpers is confined to
                  src/trace/. Instrumentation sites must go through the
                  PLSIM_TRACE_SCOPE/MARK/VMARK/VSPAN macros — those are what
                  compile to nothing under PLSIM_TRACING=OFF; a raw
                  trace_detail call would survive the build flag and charge
                  the hot path even in untraced builds.

  trace-format    The binary trace container (the "PLSTRC1" magic, header
                  layout, record packing) is parsed and emitted only in
                  src/trace/ (the writer plus the header-only reader) and
                  the two sanctioned tools, tools/trace_summary.py and
                  tools/activity_from_trace.py. Any other file naming the
                  magic is re-implementing the format and will silently
                  drift when it evolves — consume trace::read_trace_file
                  (C++) or the tools' JSON output instead. Unlike the other
                  rules this one also scans bench/, tests/, tools/ and
                  examples/, and Python files may waive it with
                  `# plsim-lint: allow(trace-format)`.

  block-order     Ad-hoc ordering (std::sort/stable_sort/partial_sort/
                  nth_element) is banned in src/engines/ and src/vp/: block
                  evaluation order is owned by src/partition/schedule.* (the
                  cache-aware scheduler), and engines must consume the
                  scheduled Partition's block ids as-is so the schedule stays
                  deterministic and testable. Sorts with a different purpose
                  (trace time order, DP evaluation order) carry an explicit
                  waiver.

  engine-input    No file in src/engines/ or src/vp/ includes a planning
                  header: partition/activity.hpp, partition/schedule.hpp or
                  trace/critical_path.hpp. Planning (activity-weighted
                  repartitioning, block scheduling, critical-path guidance)
                  happens before an executor is called; an executor runs
                  once on the partition and per-LP vectors it is handed, and
                  plsim_engines does not link plsim_trace.

  optimistic-core In src/engines/ and src/vp/, calls to rollback_to and
                  fossil_collect and the std::multimap queues and logs of
                  optimistic execution appear only in
                  src/engines/optimistic.hpp. The optimistic
                  protocol (input queue, sent log, rollback, cancellation,
                  fossil collection) is written once there; the Time Warp
                  and hybrid executors are its transports and cost models,
                  and a second copy would drift from it.

  analyze-pass    Circuit construction/mutation (the NetlistBuilder type) is
                  confined to src/netlist/ and src/analyze/: everything
                  downstream of the analyzer consumes an immutable Circuit,
                  so every structural rewrite flows through the audited
                  analyze passes and their GateId translation tables instead
                  of ad-hoc rebuilds that silently break stimulus binding
                  and result merging.

  socket-confine  Raw socket code — the <sys/socket.h>/<sys/un.h> headers,
                  ::socket/::bind/::listen/::accept/::connect/::recv/::send
                  calls, sockaddr_un — is confined to src/server/ and the two
                  service binaries (tools/plsimd.cpp, tools/plsim_load.cpp).
                  Everything else, tests and benches included, talks to the
                  daemon through ServiceClient/UnixServer so the transport
                  surface stays small and auditable. Scans src/, bench/,
                  tests/, tools/ and examples/ like trace-format.

  header-selfcontained
                  Every public header in src/ must compile standalone
                  (`c++ -std=c++20 -fsyntax-only -I src header.hpp`): each
                  header includes what it uses rather than leaning on its
                  includers' include order. Skipped (with a notice) when no
                  C++ compiler is on PATH.

Usage: lint_plsim.py <repo-root>
Exit status 0 when clean, 1 with file:line diagnostics otherwise.
"""

import concurrent.futures
import re
import shutil
import subprocess
import sys
from pathlib import Path

CXX_EXTS = {".cpp", ".hpp", ".cc", ".hh", ".h"}

THREADING_USE = re.compile(
    r"\bstd::(thread|jthread|mutex|timed_mutex|recursive_mutex|shared_mutex"
    r"|condition_variable|condition_variable_any|lock_guard|unique_lock"
    r"|scoped_lock|shared_lock)\b"
)
THREADING_INCLUDE = re.compile(
    r'#\s*include\s*<(thread|mutex|condition_variable|shared_mutex|future)>'
)
RANDOMNESS = re.compile(
    r"(\bstd::(random_device|mt19937(_64)?|minstd_rand0?|default_random_engine)\b"
    r"|(?<![\w:])s?rand\s*\()"
)
UNORDERED_DECL = re.compile(
    r"\b(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)\s*[;{(=]"
)
UNORDERED_ANY = re.compile(r"\bunordered_\w+")
RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*?:\s*([A-Za-z_][\w.\->\[\]]*)\s*\)")
QUOTED_INCLUDE = re.compile(r'#\s*include\s*"([^"]+)"')
WAIVER = re.compile(r"//\s*plsim-lint:\s*allow\(([\w-]+)\)")

# Identifiers that hold Tick values in this codebase (by convention and by
# audit of src/); `delay(...)`/`period`/`lookahead` cover the member/accessor
# spellings. The expression may be reached through any member chain
# (`opts_.clock_period`, `m.time`, `buffer_.top().time`).
_TICKISH = (
    r"(?:t|nt|when|tick|front|frontier|window|window_end|horizon|gvt|lvt"
    r"|promise|promised_?|lookahead_?|t_min|time|clock_period|period"
    r"|processed_bound|now_?|base_?|delay\s*\([^()]*\))"
)
TICK_ADD = re.compile(
    rf"(?:[A-Za-z_]\w*(?:\.|->|::))*\b{_TICKISH}\s*\+(?![+=])"
    rf"|(?<!\+)\+(?![+=])\s*(?:[A-Za-z_]\w*(?:\.|->|::))*\b{_TICKISH}\b(?!\s*\()"
)
# Member calls that are atomic operations; condition-variable wait/notify are
# deliberately absent.
ATOMIC_OP = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|compare_exchange_weak"
    r"|compare_exchange_strong|fetch_add|fetch_sub|fetch_and|fetch_or"
    r"|fetch_xor)\s*\("
)
# Interpreter evaluation or a Circuit fanin gather in compiled-plan hot paths.
PLAN_EVAL = re.compile(
    r"\beval_gate[0-9]+\s*\("
    r"|\b(?:c|circuit|circuit_)\s*(?:\.|->)\s*fanins\s*\("
)
# Raw 64-lane word idioms outside the packed kernel translation unit.
PACKED_LANE = re.compile(
    r"~\s*0ull\b|~\s*1ull\b|\b1ull\s*<<|\beval_gate64\s*\("
)
# Raw tracing internals outside the trace module itself.
TRACE_DETAIL = re.compile(r"\btrace_detail\s*::")
# Ad-hoc ordering in engine code; block ordering lives in partition/schedule.
BLOCK_ORDER = re.compile(
    r"\bstd::(?:stable_sort|sort|partial_sort|nth_element)\s*\(")
# Optimistic protocol internals, written once in the optimistic core.
OPTIMISTIC_CORE = re.compile(
    r"\b(?:rollback_to|fossil_collect)\s*\(|\bstd::multimap\b")
OPTIMISTIC_CORE_HOME = "src/engines/optimistic.hpp"
# The only route that builds or rewrites a Circuit.
NETLIST_BUILDER = re.compile(r"\bNetlistBuilder\b")
# Planning headers an executor must not include: it is handed their output.
PLANNING_HEADERS = {
    "partition/activity.hpp",
    "partition/schedule.hpp",
    "trace/critical_path.hpp",
}


def strip_comments_and_strings(line):
    """Blank out string/char literals and // comments so regexes don't match
    inside them. Good enough for this codebase (no multi-line /* */ in rules'
    scope; those are handled by the caller's block-comment tracker)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch == '"' or ch == "'":
            quote = ch
            out.append(ch)
            i += 1
            while i < n and line[i] != quote:
                out.append("x" if line[i] != "\\" else "x")
                i += 2 if line[i] == "\\" else 1
            if i < n:
                out.append(quote)
                i += 1
        elif ch == "/" and i + 1 < n and line[i + 1] == "/":
            break  # drop the comment (waivers are scanned on the raw line)
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def lint_file(path, rel, findings):
    text = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = text.splitlines()

    in_parallel = rel.startswith("src/parallel/")
    in_rng = rel == "src/util/rng.hpp"
    in_engine_code = rel.startswith(("src/engines/", "src/vp/"))
    in_partition = rel.startswith("src/partition/")
    in_tick_code = rel.startswith(
        ("src/core/", "src/engines/", "src/vp/", "src/event/", "src/seq/",
         "src/fault/"))
    in_lane_code = rel.startswith(
        ("src/fault/", "src/seq/", "src/stim/", "src/engines/", "src/core/"))
    in_plan_code = rel == "src/core/block.cpp" or rel.startswith("src/engines/")
    in_trace = rel.startswith("src/trace/")
    in_builder_code = rel.startswith(("src/netlist/", "src/analyze/"))
    in_src = rel.startswith("src/")

    # Names of unordered containers declared anywhere in this file.
    unordered_names = set(UNORDERED_DECL.findall(text))

    def waived(idx, rule):
        for line_no in (idx, idx - 1):
            if 0 <= line_no < len(raw_lines):
                m = WAIVER.search(raw_lines[line_no])
                if m and m.group(1) == rule:
                    return True
        return False

    def report(idx, rule, msg):
        if not waived(idx, rule):
            findings.append(f"{rel}:{idx + 1}: [{rule}] {msg}")

    code_lines = []
    in_block_comment = False
    for idx, raw in enumerate(raw_lines):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                code_lines.append("")
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        while start >= 0:
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]
            start = line.find("/*")
        code = strip_comments_and_strings(line)
        code_lines.append(code)

        if in_tick_code:
            m = TICK_ADD.search(code)
            if m and "tick_add" not in code:
                report(idx, "tick-add",
                       f"raw Tick addition '{m.group(0).strip()}' — unsigned "
                       "wrap near the horizon; use plsim::tick_add")

        if in_lane_code:
            m = PACKED_LANE.search(code)
            if m:
                report(idx, "packed-lane",
                       f"raw lane idiom '{m.group(0).strip()}' outside "
                       "sim/packed.hpp — use the named lane helpers "
                       "(kFaultLanes/lane_mask/lanes_from_bool/"
                       "broadcast_lane0/forced_word/pack2_broadcast/"
                       "packed2_eval_gather)")

        if in_plan_code:
            m = PLAN_EVAL.search(code)
            if m:
                report(idx, "plan-eval",
                       f"interpretive '{m.group(0).strip()}' in a "
                       "compiled-plan hot path — use the BlockPlan/SimPlan "
                       "records and the plan_eval* LUT kernels")

        if in_src and not in_parallel:
            m = THREADING_USE.search(code)
            if m:
                report(idx, "threading",
                       f"raw std::{m.group(1)} outside src/parallel/ — use "
                       "run_on_threads/Mailbox/Guarded<T> (or std::atomic)")
            m = THREADING_INCLUDE.search(code)
            if m:
                report(idx, "threading",
                       f"#include <{m.group(1)}> outside src/parallel/")

        if in_src and not in_trace:
            m = TRACE_DETAIL.search(code)
            if m:
                report(idx, "trace-macro",
                       "raw trace_detail:: outside src/trace/ — use the "
                       "PLSIM_TRACE_* macros so the call compiles out under "
                       "PLSIM_TRACING=OFF")

        if in_src and not in_builder_code:
            m = NETLIST_BUILDER.search(code)
            if m:
                report(idx, "analyze-pass",
                       "NetlistBuilder outside src/netlist/+src/analyze/ — "
                       "structural rewrites must go through the analyze "
                       "passes (optimize_circuit) so GateId translation "
                       "stays consistent")

        if in_src and not in_rng:
            m = RANDOMNESS.search(code)
            if m:
                report(idx, "randomness",
                       "raw randomness outside src/util/rng.hpp — use the "
                       "seeded plsim::Rng")

        if in_engine_code:
            m = BLOCK_ORDER.search(code)
            if m:
                report(idx, "block-order",
                       f"'{m.group(0).strip('(').strip()}' in engine code — "
                       "block ordering is owned by src/partition/schedule.*; "
                       "waive explicitly if this sort orders something else")

        if in_engine_code and rel != OPTIMISTIC_CORE_HOME:
            m = OPTIMISTIC_CORE.search(code)
            if m:
                report(idx, "optimistic-core",
                       f"'{m.group(0).rstrip('(').strip()}' outside "
                       "engines/optimistic.hpp — rollback, cancellation and "
                       "fossil collection belong to the optimistic core "
                       "(OptimisticLp)")

        if in_partition:
            m = UNORDERED_ANY.search(code)
            if m:
                report(idx, "partition-order",
                       f"'{m.group(0)}' in src/partition/ — hash order "
                       "leaks into partitions; build adjacency with "
                       "merge_arcs (partition/graph.hpp)")

        if in_engine_code and unordered_names:
            m = RANGE_FOR.search(code)
            if m:
                expr = m.group(1)
                base = re.split(r"[.\->\[]", expr)[-1] or expr
                if base in unordered_names or expr in unordered_names:
                    report(idx, "unordered-iter",
                           f"range-for over unordered container '{expr}' in "
                           "engine code — iteration order can leak into "
                           "results")

        # Match before string-stripping: the include path IS a string.
        m = QUOTED_INCLUDE.search(line)
        if m and in_src:
            inc = m.group(1)
            if inc.startswith("../") or "/../" in inc:
                report(idx, "include-hygiene",
                       f'parent-relative include "{inc}" — use the '
                       "repo-root-relative module path")
            if in_engine_code and inc in PLANNING_HEADERS:
                report(idx, "engine-input",
                       f'planning header "{inc}" in executor code — plan '
                       "before calling the executor and pass it the "
                       "partition or per-LP vectors")

    # Atomic calls can span lines (the order argument often sits on its own
    # line), so this rule scans the joined comment-stripped text.
    if in_src:
        joined = "\n".join(code_lines)
        for m in ATOMIC_OP.finditer(joined):
            depth, i = 1, m.end()
            while i < len(joined) and depth > 0:
                if joined[i] == "(":
                    depth += 1
                elif joined[i] == ")":
                    depth -= 1
                i += 1
            if "memory_order" not in joined[m.end():i]:
                idx = joined.count("\n", 0, m.start())
                report(idx, "memory-order",
                       f"atomic .{m.group(1)}() without an explicit "
                       "std::memory_order argument")


# Files allowed to name the binary trace magic. lint_plsim.py itself is
# exempt (the rule's implementation must spell the token it hunts).
TRACE_FORMAT_ALLOWED = (
    "src/trace/",
    "tools/trace_summary.py",
    "tools/activity_from_trace.py",
    "tools/lint_plsim.py",
)
TRACE_FORMAT_WAIVER = re.compile(
    r"(?://|#)\s*plsim-lint:\s*allow\(trace-format\)")


def check_trace_format(root, findings):
    """trace-format: the PLSTRC magic is confined to src/trace/ + the two
    sanctioned tools. Scans wider than the other rules (bench/tests/tools/
    examples, C++ and Python) because format re-implementations historically
    grow in harnesses first. Matches raw lines: the magic only ever appears
    inside string literals, which strip_comments_and_strings blanks out."""
    exts = CXX_EXTS | {".py"}
    scanned = 0
    for sub in ("src", "bench", "tests", "tools", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in exts or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if rel.startswith(TRACE_FORMAT_ALLOWED):
                continue
            scanned += 1
            lines = path.read_text(encoding="utf-8",
                                   errors="replace").splitlines()
            for idx, line in enumerate(lines):
                if "PLSTRC" not in line:
                    continue
                if any(TRACE_FORMAT_WAIVER.search(lines[j])
                       for j in (idx, idx - 1) if 0 <= j < len(lines)):
                    continue
                findings.append(
                    f"{rel}:{idx + 1}: [trace-format] trace container magic "
                    "outside src/trace/ and the sanctioned tools — parse "
                    "captures via trace::read_trace_file or "
                    "tools/activity_from_trace.py, never by hand")
    return scanned


# Files allowed to touch the socket layer directly. The two service binaries
# in practice only use UnixServer/ServiceClient, but they own the daemon's
# transport and may legitimately need e.g. poll-on-fd glue.
SOCKET_CONFINE_ALLOWED = (
    "src/server/",
    "tools/plsimd.cpp",
    "tools/plsim_load.cpp",
    "tools/lint_plsim.py",
)
SOCKET_USE = re.compile(
    r"#\s*include\s*<sys/(?:socket|un)\.h>"
    r"|::\s*(?:socket|bind|listen|accept|connect|recv|recvfrom|send|sendto"
    r"|getsockopt|setsockopt)\s*\("
    r"|\bsockaddr_un\b"
)
SOCKET_CONFINE_WAIVER = re.compile(
    r"(?://|#)\s*plsim-lint:\s*allow\(socket-confine\)")


def check_socket_confine(root, findings):
    """socket-confine: raw socket code stays in src/server/ + the service
    binaries. Scans the same wide set as trace-format — a test or bench that
    opens its own socket bypasses the framing/shutdown semantics the server
    types encode."""
    exts = CXX_EXTS | {".py"}
    for sub in ("src", "bench", "tests", "tools", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in exts or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if rel.startswith(SOCKET_CONFINE_ALLOWED):
                continue
            lines = path.read_text(encoding="utf-8",
                                   errors="replace").splitlines()
            in_block = False
            for idx, raw in enumerate(lines):
                line = raw
                if in_block:
                    end = line.find("*/")
                    if end < 0:
                        continue
                    line = line[end + 2:]
                    in_block = False
                if "/*" in line and "*/" not in line[line.find("/*"):]:
                    line = line[:line.find("/*")]
                    in_block = True
                code = strip_comments_and_strings(line)
                m = SOCKET_USE.search(code)
                if not m:
                    continue
                if any(SOCKET_CONFINE_WAIVER.search(lines[j])
                       for j in (idx, idx - 1) if 0 <= j < len(lines)):
                    continue
                findings.append(
                    f"{rel}:{idx + 1}: [socket-confine] raw socket code "
                    f"'{m.group(0).strip()}' outside src/server/ and the "
                    "service binaries — go through "
                    "ServiceClient/UnixServer instead")


def check_headers(root, headers, findings):
    """header-selfcontained: syntax-check every src/ header standalone."""
    compiler = shutil.which("c++") or shutil.which("g++") or \
        shutil.which("clang++")
    if compiler is None:
        print("lint_plsim: no C++ compiler on PATH; "
              "skipping header-selfcontained")
        return

    def compile_one(path):
        rel = path.relative_to(root).as_posix()
        if WAIVER_FILE.search(path.read_text(encoding="utf-8",
                                             errors="replace")):
            return None
        proc = subprocess.run(
            [compiler, "-std=c++20", "-fsyntax-only",
             "-I", str(root / "src"), "-x", "c++", str(path)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["(no output)"])[0]
            return (f"{rel}:1: [header-selfcontained] does not compile "
                    f"standalone: {first}")
        return None

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        for result in pool.map(compile_one, headers):
            if result:
                findings.append(result)


WAIVER_FILE = re.compile(r"//\s*plsim-lint:\s*allow\(header-selfcontained\)")


def main():
    if len(sys.argv) != 2:
        print("usage: lint_plsim.py <repo-root>", file=sys.stderr)
        return 2
    root = Path(sys.argv[1])
    if not (root / "src").is_dir():
        print(f"error: {root} has no src/ directory", file=sys.stderr)
        return 2

    findings = []
    files = sorted(
        p for p in (root / "src").rglob("*") if p.suffix in CXX_EXTS
    )
    for path in files:
        lint_file(path, path.relative_to(root).as_posix(), findings)
    check_trace_format(root, findings)
    check_socket_confine(root, findings)
    check_headers(root, [p for p in files if p.suffix in {".hpp", ".hh", ".h"}],
                  findings)

    if findings:
        print(f"lint_plsim: {len(findings)} finding(s):")
        for f in findings:
            print("  " + f)
        return 1
    print(f"lint_plsim: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
