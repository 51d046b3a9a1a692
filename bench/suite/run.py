#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for plsim (see bench/suite/README.md).

Builds bench/suite (a standalone CMake project over src/) into
$CARGO_TARGET_DIR/suite (default .bench_build/suite), runs the plsim_suite
binary once per workload, checks that every output was correct and prints
every metric by name with its unit.

  run.py [--seed S] [--repeat N] [--seconds T] [--trace 0|1]
      All workloads; medians over N repeats. Exit 1 on any incorrect run.
  run.py --workload W --seed S --seconds T --trace 0|1
      One workload. The last line of stdout is one JSON object with keys
      correct, attempted, failed and metrics: the end-to-end metrics of
      BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
  run.py calibrate --out FILE [--seed S --runs N | --seeds 1,2,...]
                   [--workloads W,...] [--seconds T] [--append]
      Repeat the suite and record each metric's runs, median and IQR.
  run.py compare A.json B.json
      Compare two calibration files (A = parent, B = change) per workload
      and end-to-end metric under the BENCHMARK.json bounds.
  run.py --selftest
      Check the statistics and the compare verdicts on fixtures.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "suite"


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


# --------------------------------------------------------------------------
# Build and run


def build():
    """Configure once, then build plsim_suite; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "plsim_suite",
                  "-j", "4"])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                tail = log_path.read_text(encoding="utf-8").splitlines()[-15:]
                die("build failed (" + " ".join(cmd[:2]) + "):\n  " +
                    "\n  ".join(tail))
    return out / "plsim_suite"


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload in its own process; returns its result document."""
    out = binary.parent
    (out / "results").mkdir(exist_ok=True)
    (out / "traces").mkdir(exist_ok=True)
    suffix = "-traced" if trace else ""
    result = out / "results" / f"{workload}-seed{seed}{suffix}.json"
    if result.exists():
        result.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(result),
           "--trace-dir", str(out / "traces"),
           # Relative to cwd: a socket path must stay under 108 bytes.
           "--socket", f"suite-{os.getpid()}.sock"]
    if trace:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=out, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if not result.exists():
        die(f"{workload}: plsim_suite exited {proc.returncode} without a result")
    with open(result, encoding="utf-8") as f:
        doc = json.load(f)
    for err in doc.get("errors", []):
        print(f"run.py: {workload}: {err}", file=sys.stderr)
    return doc


def contract_line(doc, wanted):
    """The result line: exactly the wanted metrics, in order."""
    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None:
            raise KeyError(f"metric {m['name']} missing from the result")
        if got["unit"] != m["unit"]:
            raise KeyError(f"metric {m['name']} has unit {got['unit']}, "
                           f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(doc["correct"]) and doc["failed"] == 0,
            "attempted": int(doc["attempted"]), "failed": int(doc["failed"]),
            "metrics": metrics}


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")


# --------------------------------------------------------------------------
# Statistics and the compare rule (choosing-metrics guide, section 8)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def verdict(a, b, better, bound, min_pairs=10, win_rate=0.9):
    """Verdict for change B against parent A on one metric.

    regression: B's median is worse than A's by more than `bound` (a share
    of A's median). unresolved: A's own spread (IQR over median) exceeds
    the bound, unless every B run beats every A run. gain: at least
    `min_pairs` pairs, B wins at least `win_rate` of them (ties count for
    neither) and the medians differ by more than A's IQR. Otherwise ok.
    """
    sa, sb = summarize(a), summarize(b)
    sign = 1.0 if better == "higher" else -1.0
    delta = sign * (sb["median"] - sa["median"]) / abs(sa["median"]) \
        if sa["median"] else 0.0
    if sa["spread"] > bound:
        beats_all = all(sign * (y - x) > 0 for x in a for y in b)
        return ("better" if beats_all else "unresolved"), delta
    if -delta > bound:
        return "regression", delta
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (len(pairs) >= min_pairs and wins >= win_rate * len(pairs)
            and sign * (sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]):
        return "gain", delta
    return "ok", delta


def compare(a_doc, b_doc, bench):
    """One row per workload; returns (rows, any_regression)."""
    rows, bad = [], False
    for workload in a_doc["runs"]:
        if workload not in b_doc["runs"]:
            continue
        cells = []
        for m in bench["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_doc["runs"][workload]]
            b = [r["metrics"][m["name"]]["value"] for r in b_doc["runs"][workload]]
            v, delta = verdict(a, b, m["better"], m["bound"])
            bad = bad or v == "regression"
            cells.append(f"{m['name']}={v}({100 * delta:+.1f}%)")
        rows.append((workload, cells))
    return rows, bad


# --------------------------------------------------------------------------
# BENCHMARK.json shape

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_benchmark(bench, size):
    """Problems with BENCHMARK.json's shape; empty when it is well formed."""
    bad = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != keys:
        bad.append(f"keys {sorted(bench)} != {sorted(keys)}")
        return bad
    if size > 64 * 1024:
        bad.append("file over 64 KiB")
    cmd = bench["command"]
    if not (1 <= len(cmd) <= 32 and all(
            isinstance(c, str) and len(c) <= 200 and not c.startswith("/")
            and ".." not in c for c in cmd)):
        bad.append("command")
    paths = bench["paths"]
    if not (1 <= len(paths) <= 16 and all(
            PATH_RE.match(p) and not p.startswith("/") and ".." not in p
            for p in paths)):
        bad.append("paths")
    rs = bench["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        bad.append("run_seconds")
    names = []
    if not 2 <= len(bench["workloads"]) <= 8:
        bad.append("workload count")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            bad.append(f"workload {w.get('name')}")
        names.append(w["name"])
    for group, lo, hi, fields in (
            ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
            ("per_layer", 1, 128, {"name", "unit", "better"})):
        if not lo <= len(bench[group]) <= hi:
            bad.append(f"{group} count")
        for m in bench[group]:
            if set(m) != fields or not UNIT_RE.match(m["unit"]) or \
                    m["better"] not in ("higher", "lower"):
                bad.append(f"{group} {m.get('name')}")
            if "bound" in fields and not 0 < m["bound"] <= 0.25:
                bad.append(f"bound of {m['name']}")
            names.append(m["name"])
    for n in names:
        if not NAME_RE.match(n) or names.count(n) > 1:
            bad.append(f"name {n}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        bad.append("setup_s")
    return bad


# --------------------------------------------------------------------------
# Commands


def host_info():
    info = {"nproc": os.cpu_count()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        info["commit"] = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        info["commit"] = "unknown"
    return info


def cmd_suite(args, bench):
    binary = build()
    names = [w["name"] for w in bench["workloads"]]
    workloads = [args.workload] if args.workload else names
    if args.workload and args.workload not in names:
        die(f"unknown workload {args.workload}; expected one of {names}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    all_ok = True
    for w in workloads:
        docs = [run_workload(binary, w, args.seed, args.seconds, args.trace)
                for _ in range(args.repeat)]
        merged = dict(docs[-1])
        merged["correct"] = all(d["correct"] for d in docs)
        merged["failed"] = sum(d["failed"] for d in docs)
        merged["attempted"] = sum(d["attempted"] for d in docs)
        merged["metrics"] = {
            name: {"value": statistics.median(
                       d["metrics"][name]["value"] for d in docs),
                   "unit": m["unit"]}
            for name, m in docs[-1]["metrics"].items()}
        try:
            line = contract_line(merged, wanted)
        except KeyError as e:
            die(f"{w}: {e.args[0]}")
        all_ok = all_ok and line["correct"]
        title = (f"{w}: seed {args.seed}, {args.seconds} s"
                 f"{', median of %d runs' % args.repeat if args.repeat > 1 else ''}"
                 f", correct={line['correct']}, attempted={line['attempted']}, "
                 f"failed={line['failed']}")
        print_metrics(title, merged["metrics"])
    if args.workload:
        print(json.dumps(line))
    return 0 if all_ok else 1


def dump_calibration(doc):
    """JSON text with one line per run and per workload summary."""
    def block(value):
        if isinstance(value, list):
            return "[\n" + ",\n".join("   " + json.dumps(x) for x in value) + "\n  ]"
        return json.dumps(value)
    lines = []
    for key, value in doc.items():
        if key in ("runs", "summary"):
            inner = ",\n".join(f"  {json.dumps(w)}: {block(v)}"
                               for w, v in value.items())
            lines.append(f" {json.dumps(key)}: {{\n{inner}\n }}")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def cmd_calibrate(argv, bench):
    p = argparse.ArgumentParser(prog="run.py calibrate")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seeds", help="comma-separated; one run per seed")
    p.add_argument("--workloads", help="comma-separated (default: all)")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--append", action="store_true")
    args = p.parse_args(argv)
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else [args.seed] * args.runs)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    out = Path(args.out)
    doc = {"schema": "plsim-suite-calibration-v1", "host": host_info(),
           "seconds": args.seconds, "runs": {}}
    if args.append and out.exists():
        doc = json.loads(out.read_text(encoding="utf-8"))
    binary = build()
    for seed in seeds:  # interleave workloads so drift hits all alike
        for w in workloads:
            r = run_workload(binary, w, seed, args.seconds, False)
            if not r["correct"] or r["failed"]:
                die(f"{w} seed {seed}: incorrect run")
            doc["runs"].setdefault(w, []).append(
                {"seed": seed, "attempted": r["attempted"],
                 "metrics": r["metrics"]})
    doc["summary"] = {
        w: {m["name"]: dict(summarize(
                [r["metrics"][m["name"]]["value"] for r in runs]),
                unit=m["unit"], bound=m["bound"])
            for m in bench["end_to_end"]}
        for w, runs in doc["runs"].items()}
    out.write_text(dump_calibration(doc), encoding="utf-8")
    for w, ms in doc["summary"].items():
        print(w)
        for name, s in ms.items():
            flag = ""
            if name != "setup_s" and s["spread"] > s["bound"] / 3:
                flag = "  <-- spread over a third of the bound"
            print(f"  {name:18s} median {s['median']:12.6g} {s['unit']:8s} "
                  f"IQR/median {100 * s['spread']:6.2f}% "
                  f"(bound {100 * s['bound']:.0f}%, n={s['n']}){flag}")
    return 0


def cmd_compare(argv, bench):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("a", help="parent calibration file")
    p.add_argument("b", help="change calibration file")
    args = p.parse_args(argv)
    docs = [json.loads(Path(f).read_text(encoding="utf-8"))
            for f in (args.a, args.b)]
    rows, bad = compare(docs[0], docs[1], bench)
    for workload, cells in rows:
        print(f"{workload:12s} " + "  ".join(cells))
    print("regression found" if bad else "no regression")
    return 1 if bad else 0


def selftest():
    """Fixture checks for the statistics and the compare verdicts."""
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    vals = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3]
    check(quartiles(vals) == tuple(statistics.quantiles(vals, n=4)),
          "quartiles match statistics.quantiles")
    check(quartiles([4.0]) == (4.0, 4.0, 4.0), "one value is its quartiles")
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    check(abs(s["spread"] - (4.5 - 1.5) / 3.0) < 1e-12, "spread = IQR/median")

    steady = [100.0 + 0.1 * i for i in range(10)]
    check(verdict(steady, steady, "lower", 0.1)[0] == "ok", "same runs are ok")
    check(verdict(steady, [x * 1.2 for x in steady], "lower", 0.1)[0]
          == "regression", "20% slower latency regresses at a 10% bound")
    check(verdict(steady, [x * 1.05 for x in steady], "lower", 0.1)[0] == "ok",
          "5% slower latency is within a 10% bound")
    check(verdict(steady, [x * 0.8 for x in steady], "higher", 0.1)[0]
          == "regression", "20% lower throughput regresses")
    check(verdict(steady, [x * 0.9 for x in steady], "lower", 0.1)[0] == "gain",
          "10 pairs all won by more than the IQR is a gain")
    check(verdict(steady[:5], [x * 0.9 for x in steady[:5]], "lower", 0.1)[0]
          == "ok", "fewer than 10 pairs never claims a gain")
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 70.0]
    check(verdict(noisy, [x * 1.3 for x in noisy], "lower", 0.1)[0]
          == "unresolved", "spread over the bound is unresolved")
    check(verdict(noisy, [10.0] * 10, "lower", 0.1)[0] == "better",
          "B beating every A run resolves a noisy metric")

    bench = {"end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}

    def calib(lat, ops):
        return {"runs": {"w": [
            {"metrics": {"latency_p50_ms": {"value": x, "unit": "ms"},
                         "ops_per_s": {"value": y, "unit": "1/s"}}}
            for x, y in zip(lat, ops)]}}
    a = calib(steady, steady)
    rows, bad = compare(a, calib(steady, [x * 0.7 for x in steady]), bench)
    check(bad and "ops_per_s=regression" in rows[0][1][1],
          "compare flags a throughput regression")
    rows, bad = compare(a, a, bench)
    check(not bad and len(rows) == 1, "compare of a file with itself is clean")

    doc = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "latency_p50_ms": {"value": 1.5, "unit": "ms"},
        "extra": {"value": 2.0, "unit": "count"}}}
    line = contract_line(doc, bench["end_to_end"][:1])
    check(list(line["metrics"]) == ["latency_p50_ms"],
          "contract line keeps only the listed metrics")
    try:
        contract_line(doc, bench["end_to_end"])
        check(False, "a missing metric is an error")
    except KeyError:
        pass

    raw = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    for problem in check_benchmark(json.loads(raw), len(raw.encode())):
        check(False, f"BENCHMARK.json: {problem}")
    broken = dict(json.loads(raw), run_seconds=0, extra=1)
    check(check_benchmark(broken, 10), "a malformed BENCHMARK.json is caught")

    for f in failures:
        print(f"selftest FAILED: {f}", file=sys.stderr)
    print(f"selftest: {'FAILED' if failures else 'OK'}")
    return 1 if failures else 0


def main(argv):
    if argv[:1] == ["--selftest"]:
        return selftest()
    bench = load_benchmark()
    if argv[:1] == ["calibrate"]:
        return cmd_calibrate(argv[1:], bench)
    if argv[:1] == ["compare"]:
        return cmd_compare(argv[1:], bench)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1)
    args = p.parse_args(argv)
    return cmd_suite(args, bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
