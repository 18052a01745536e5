#!/usr/bin/env python3
"""Run one workload of the hoplite benchmark, or compare two sets of runs.

Run (from the root of a checkout):

    python3 perfbench/run.py --workload local --seed 7 --seconds 10 --trace 0 [--out runs.jsonl]

builds the benchmark package (perfbench/Cargo.toml, offline, into
$CARGO_TARGET_DIR or .bench_build/), runs the workload, and prints the
binary's output followed by a `# host` line and, last, the result object
`{"correct", "attempted", "failed", "metrics"}`. With --out it also appends
one JSON record per run (host, seed, result and every measured metric) for
the compare mode. It exits non-zero without a result if the build fails, and
non-zero with `"correct": false` on a wrong answer.

Compare:

    python3 perfbench/run.py compare BASE.jsonl HEAD.jsonl

prints, for every pair of workload and metric, the median and quartiles of
each side and a verdict: "better" when HEAD wins at least 9 of 10 pairs and
the medians differ by more than BASE's interquartile range; "worse" when
HEAD's median is worse than BASE's by more than the metric's bound (or, for
a metric without a bound, by the same rule as "better"); otherwise
"unresolved", marked "spread > bound" when BASE's own spread exceeds the
bound and "within bound" when it does not.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("local", "wire-frozen", "wire-dynamic")
# Each run must end within 180 s; the first also builds (up to 900 s).
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Metrics outside BENCHMARK.json that the compare mode also judges:
# (direction, bound as a share of BASE's median).
EXTRA_METRICS = {
    "write_ops_s": ("higher", 0.25),
    "write_p50_us": ("lower", 0.25),
    "write_p99_us": ("lower", 0.25),
    "fail_ratio": ("lower", 0.0),
}


def read_text(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError:
        return ""


def tree_fingerprint():
    """SHA-1 over the sources the benchmark builds (a checkout may not be
    a git repository)."""
    h = hashlib.sha1()
    for top in ("Cargo.lock", "crates", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x not in ("target",))
            paths.extend(os.path.join(d, f) for f in sorted(files))
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    for line in read_text("/proc/stat").splitlines():
        fields = line.split()
        if fields[:1] == ["cpu"] and len(fields) > 8:
            return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    return None


def host_record(seed):
    model = None
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_rev": git_rev(),
        "tree_sha1": tree_fingerprint(),
        "nproc": nproc,
        "cpu_model": model,
        "loadavg_start": list(os.getloadavg()),
        "steal_s_start": steal_seconds(),
        "seed": seed,
        "note": "latency and fsync are this host's (shared virtual machine), not a device's",
    }


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir, "release", "perfbench")


def run(argv):
    p = argparse.ArgumentParser(description="Run one hoplite benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--out", help="append a JSON record of this run to this file")
    a = p.parse_args(argv)
    if not 0 < a.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    if a.seed < 0:
        p.error("--seed must be non-negative")

    host = host_record(a.seed)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binary = build(target)
    if binary is None:
        return 1

    tmp = os.path.join(ROOT, ".bench_tmp", f"{a.workload}-{a.seed}-{os.getpid()}")
    cmd = [
        binary,
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--tmp", tmp,
    ]
    if a.trace == "1":
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, f"spans-{a.workload}-{a.seed}.jsonl")]
    started = time.monotonic()
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {a.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = done.stdout.splitlines()
    host["loadavg_end"] = list(os.getloadavg())
    steal = steal_seconds()
    if steal is not None and host["steal_s_start"] is not None:
        host["steal_s"] = round(steal - host.pop("steal_s_start"), 2)
    host["wall_s"] = round(time.monotonic() - started, 3)
    try:
        measured = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: {a.workload} printed no result (exit {done.returncode})",
              file=sys.stderr)
        return done.returncode or 1
    for line in lines[:-1]:
        print(line)

    # The result carries exactly the metrics BENCHMARK.json names: the
    # end-to-end set, or with --trace 1 the per-layer set.
    spec = load_spec()
    wanted = spec["per_layer"] if a.trace == "1" else spec["end_to_end"]
    found = measured["metrics"]
    metrics = {}
    for m in wanted:
        got = found.get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            print(f"perfbench: metric {m['name']} missing or malformed: {got}", file=sys.stderr)
            measured["correct"] = False
        else:
            metrics[m["name"]] = got
    result = {
        "correct": measured["correct"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    print("# all-metrics " + json.dumps(found))
    print("# host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result), flush=True)
    if a.out:
        record = {
            "workload": a.workload,
            "seed": a.seed,
            "seconds": a.seconds,
            "trace": int(a.trace),
            "host": host,
            "result": result,
            "measured": found,
        }
        with open(a.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    if done.returncode == 0 and not result["correct"]:
        return 1
    return done.returncode


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def load_records(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def metric_rules():
    spec = load_spec()
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        rules.setdefault(m["name"], (m["better"], None))
    for name, rule in EXTRA_METRICS.items():
        rules.setdefault(name, rule)
    return rules


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, head, better, bound):
    """The compare rule; `better` is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = quartiles(base)
    _, hm, _ = quartiles(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    spread = (b3 - b1) / abs(bm) if bm else float("inf")
    if len(pairs) >= 1 and wins >= 0.9 * len(pairs) and abs(hm - bm) > (b3 - b1):
        return "better", wins, len(pairs)
    if bound is None:
        losses = sum(1 for b, h in pairs if sign * (h - b) < 0)
        if pairs and losses >= 0.9 * len(pairs) and abs(hm - bm) > (b3 - b1):
            return "worse", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if spread > bound:
        if all(sign * (h - b) > 0 for b in base for h in head):
            return "better", wins, len(pairs)
        return "unresolved (spread > bound)", wins, len(pairs)
    if bm and sign * (hm - bm) / abs(bm) < -bound:
        return "worse", wins, len(pairs)
    return "unresolved (within bound)", wins, len(pairs)


def compare(argv):
    p = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    p.add_argument("base")
    p.add_argument("head")
    a = p.parse_args(argv)
    rules = metric_rules()
    sides = []
    for path in (a.base, a.head):
        by = {}
        for r in load_records(path):
            if not r["result"].get("correct"):
                print(f"# {path}: {r['workload']} seed {r['seed']} was not correct; skipped")
                continue
            key = (r["workload"], r["trace"])
            for name, m in r["measured"].items():
                by.setdefault(key + (name,), []).append(m["value"])
        sides.append(by)
    base, head = sides
    fmt = "{:<13} {:<36} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12}  {:>5}  {}"
    print(fmt.format("workload", "metric", "base q1", "base med", "base q3",
                     "head q1", "head med", "head q3", "wins", "verdict"))
    for key in sorted(set(base) & set(head)):
        workload, _, name = key
        if name not in rules:
            continue
        better, bound = rules[name]
        b, h = base[key], head[key]
        v, wins, n = verdict(b, h, better, bound)
        bq, hq = quartiles(b), quartiles(h)
        print(fmt.format(workload, name, *(f"{x:.4g}" for x in bq + hq), f"{wins}/{n}", v))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        return compare(sys.argv[2:])
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
