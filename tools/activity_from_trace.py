#!/usr/bin/env python3
"""Extract per-gate activity from plsim binary traces (magic PLSTRC1).

Usage:
    activity_from_trace.py TRACE.bin [TRACE2.bin ...] [--out FILE] [--top N]
    activity_from_trace.py --selftest

Engines that run under PLSIM_TRACE append end-of-run summary records to the
capture: one gate-eval record per gate that was evaluated (aux = gate id,
tick = evaluation count) and one net-msg record per gate that drove a
cross-block message (tick = send count). This tool folds those records into
the JSON profile the activity-weighted partitioners consume offline —
the same feedback loop profile_activity plus partition_with_activity
closes in-process.

Several captures may be aggregated (counts are summed per gate), but only
when they agree on the clock that produced the time-valued fields: the
binary header flags whether blocked/barrier durations are virtual work
units (virtual-platform executors) or wall nanoseconds (threaded engines),
and adding one to the other yields garbage. A mismatch is a hard error.

Output JSON fields: source (engine names, "+"-joined), clock
("virtual-units" | "wall-ns"), evals / messages (gate id -> count, sparse),
blocked_units / barrier_units (summed span durations, header clock units),
totals, and the record/file counts consumed.

Exit status: 0 = ok, 2 = usage/format/clock-mismatch error.
"""

import argparse
import io
import json
import struct
import sys
from collections import defaultdict

MAGIC = b"PLSTRC1\n"
RECORD = struct.Struct("<QIIQIHH")  # start, dur, lp, tick, aux, kind, pad

BARRIER_WAIT = 6
BLOCKED = 8
GATE_EVAL = 9
NET_MSG = 10


def die(msg):
    print(f"activity_from_trace: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_trace(data, label):
    """Parse one binary capture; returns (header dict, record tuples)."""
    if data[:8] != MAGIC:
        die(f"{label}: bad magic (not a plsim trace)")
    off = 8

    def u32():
        nonlocal off
        (v,) = struct.unpack_from("<I", data, off)
        off += 4
        return v

    def u64():
        nonlocal off
        (v,) = struct.unpack_from("<Q", data, off)
        off += 8
        return v

    try:
        version = u32()
        if version != 1:
            die(f"{label}: unsupported version {version}")
        flags = u32()
        name_len = u32()
        engine = data[off:off + name_len].decode("utf-8", "replace")
        off += name_len
        lanes = u32()
        n_records = u64()
        dropped = u64()
    except struct.error as e:
        die(f"{label}: truncated header: {e}")
    expected = off + n_records * RECORD.size
    if expected > len(data):
        die(f"{label}: truncated ({len(data)} bytes, need {expected})")
    records = [RECORD.unpack_from(data, off + i * RECORD.size)
               for i in range(n_records)]
    header = {
        "engine": engine,
        "lanes": lanes,
        "records": n_records,
        "dropped": dropped,
        "virtual_clock": bool(flags & 1),
    }
    return header, records


def load(path):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        die(f"cannot read {path}: {e}")
    return parse_trace(data, path)


def extract(paths, readers=None):
    """Fold captures into one profile dict. `readers` overrides file IO for
    the selftest: a list of (header, records) tuples."""
    evals = defaultdict(int)
    messages = defaultdict(int)
    blocked = 0
    barrier = 0
    sources = []
    clock = None
    n_records = 0
    parsed = readers if readers is not None else [load(p) for p in paths]
    for (header, records), label in zip(parsed, paths):
        if clock is None:
            clock = header["virtual_clock"]
        elif header["virtual_clock"] != clock:
            this = ("virtual work units" if header["virtual_clock"]
                    else "wall nanoseconds")
            die(f"clock-unit mismatch — '{label}' records {this} but "
                f"earlier captures record the other; aggregate only traces "
                f"from the same clock domain")
        if header["engine"] not in sources:
            sources.append(header["engine"])
        n_records += len(records)
        for _start, dur, _lp, tick, aux, kind, _pad in records:
            if kind == GATE_EVAL:
                evals[aux] += tick
            elif kind == NET_MSG:
                messages[aux] += tick
            elif kind == BLOCKED:
                blocked += dur
            elif kind == BARRIER_WAIT:
                barrier += dur
    return {
        "source": "+".join(sources),
        "clock": "virtual-units" if clock else "wall-ns",
        "files": len(paths),
        "records": n_records,
        "evals": {str(g): n for g, n in sorted(evals.items())},
        "messages": {str(g): n for g, n in sorted(messages.items())},
        "blocked_units": blocked,
        "barrier_units": barrier,
        "total_evals": sum(evals.values()),
        "total_messages": sum(messages.values()),
    }


def make_trace(engine, virtual, records):
    """Assemble a binary capture in memory (selftest helper)."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<II", 1, 1 if virtual else 0))
    name = engine.encode()
    buf.write(struct.pack("<I", len(name)))
    buf.write(name)
    buf.write(struct.pack("<I", 1))  # lanes
    buf.write(struct.pack("<QQ", len(records), 0))
    for r in records:
        buf.write(RECORD.pack(*r))
    return buf.getvalue()


def selftest():
    # Two virtual-clock captures: per-gate counts must sum across files,
    # blocked/barrier durations must accumulate, eval/send timeline records
    # must be ignored.
    rec = lambda kind, tick, aux, dur=0: (0, dur, 0, tick, aux, kind, 0)
    a = parse_trace(make_trace("sync-vp", True, [
        rec(GATE_EVAL, 5, 3), rec(NET_MSG, 2, 3), rec(GATE_EVAL, 7, 9),
        rec(BLOCKED, 0, 0, dur=40), rec(0, 1, 0),  # kind 0 = eval timeline
    ]), "a")
    b = parse_trace(make_trace("conservative-vp", True, [
        rec(GATE_EVAL, 10, 3), rec(BARRIER_WAIT, 0, 1, dur=7),
    ]), "b")
    prof = extract(["a", "b"], readers=[a, b])
    assert prof["evals"] == {"3": 15, "9": 7}, prof["evals"]
    assert prof["messages"] == {"3": 2}, prof["messages"]
    assert prof["blocked_units"] == 40 and prof["barrier_units"] == 7
    assert prof["clock"] == "virtual-units"
    assert prof["source"] == "sync-vp+conservative-vp"
    assert prof["total_evals"] == 22 and prof["total_messages"] == 2

    # A wall-clock capture parses with the other clock label.
    w = parse_trace(make_trace("synchronous", False, [rec(GATE_EVAL, 1, 0)]),
                    "w")
    assert extract(["w"], readers=[w])["clock"] == "wall-ns"

    # Mixing clock domains must be refused (exit 2), not silently summed.
    try:
        extract(["a", "w"], readers=[a, w])
    except SystemExit as e:
        assert e.code == 2, e.code
    else:
        raise AssertionError("clock mismatch not detected")

    # Truncated record payloads must be a hard error, not a short read.
    blob = make_trace("x", True, [rec(GATE_EVAL, 1, 0)])
    try:
        parse_trace(blob[:-8], "t")
    except SystemExit as e:
        assert e.code == 2, e.code
    else:
        raise AssertionError("truncation not detected")

    print("activity_from_trace: selftest ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("traces", nargs="*", help="binary PLSIM_TRACE captures")
    ap.add_argument("--out", metavar="FILE",
                    help="write the JSON profile here instead of stdout")
    ap.add_argument("--top", type=int, default=0, metavar="N",
                    help="also print the N most-active gates to stderr")
    ap.add_argument("--selftest", action="store_true",
                    help="run the built-in regression checks and exit")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.traces:
        die("no trace files given (or use --selftest)")

    prof = extract(args.traces)
    text = json.dumps(prof, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    if args.top > 0:
        ranked = sorted(prof["evals"].items(), key=lambda kv: -kv[1])
        for g, n in ranked[:args.top]:
            msgs = prof["messages"].get(g, 0)
            print(f"gate {g}: {n} evals, {msgs} messages", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
