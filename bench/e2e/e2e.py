#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark, and compares two result files.

    e2e.py run [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
               [--runs N] [--smoke] [--out results.json]
    e2e.py compare base.json new.json

`run` with one --workload and no --runs is a single run: the driver's
output is passed through, so its last line is the run's JSON result. Any
other `run` is a campaign: every selected workload runs N times (seeds S,
S+1, ...) in its own process, plus once traced when --trace is given; the
medians are printed as `workload metric value unit` and every run is written
to the results file with medians, quartiles and spreads.

`compare` gives a verdict per (end-to-end metric, workload): better, same,
worse or unresolved, using the bounds in BENCHMARK.json, and flags changed
input or output digests. It exits 1 when any verdict is "worse".
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["table3_cold", "policy_sweep", "pcap_replay", "live_queue"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    # Relative to the directory the benchmark is run from (the checkout root).
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve() / "e2e"


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    build_cmd = ["cmake", "--build", str(out), "--parallel", jobs]
    if subprocess.run(build_cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return out / "e2e"


def run_once(binary, workload, seed, seconds, trace, smoke):
    """Runs the driver once; returns (exit code, stdout lines, parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", str(build_dir() / "work")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        result["info"] = {}
        for line in lines:
            if line.startswith("# info "):
                _, _, key, value = line.split(" ", 3)
                result["info"][key] = value
    return proc.returncode, lines, result


def check_metric_names(spec, result, trace):
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(result["metrics"])
    if sorted(expected) != sorted(got):
        log(f"metric names differ from BENCHMARK.json: expected {expected}, got {got}")
        return False
    return True


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def cmd_run(args):
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()
    if binary is None:
        log("build failed")
        return 1
    trace = args.trace not in (None, "0")

    if args.workload and args.runs is None and not args.smoke:
        code, lines, result = run_once(binary, args.workload, args.seed, seconds, trace, False)
        if result is None or not check_metric_names(spec, result, trace):
            return 1
        print("\n".join(lines), flush=True)
        return code

    if args.smoke:
        seconds = min(seconds, 0.3)
        trace = True
    workloads = [args.workload] if args.workload else WORKLOADS
    runs = args.runs or 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"seed": args.seed, "runs": runs, "seconds": seconds, "smoke": args.smoke,
              "workloads": {}}
    status = 0
    for w in workloads:
        entry = {"runs": [], "end_to_end": {}, "per_layer": {}}
        plan = [(args.seed + r, False) for r in range(runs)] + ([(args.seed, True)] if trace else [])
        for seed, traced in plan:
            code, _, result = run_once(binary, w, seed, seconds, traced, args.smoke)
            if result is None or not check_metric_names(spec, result, traced):
                log(f"{w} seed {seed}: no valid result (exit {code})")
                status = 1
                continue
            if code != 0 or not result["correct"] or result["failed"]:
                log(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']} exit={code}")
                status = 1
            result.update(seed=seed, trace=traced)
            entry["runs"].append(result)
            log(f"{w} seed {seed}{' traced' if traced else ''}: done")
        plain = [r for r in entry["runs"] if not r["trace"]]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in plain]
            if values:
                entry["end_to_end"][m["name"]] = {"unit": m["unit"], **summarize(values)}
        for r in entry["runs"]:
            if r["trace"]:
                entry["per_layer"] = {k: v["value"] for k, v in r["metrics"].items()}
        attempted = sum(r["attempted"] for r in entry["runs"])
        entry["error_pct"] = 100.0 * sum(r["failed"] for r in entry["runs"]) / max(1, attempted)
        report["workloads"][w] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{w} {name} {s['median']:.6g} {units[name]}  (IQR/median {100 * s['spread']:.1f}%)")
        for name, value in entry["per_layer"].items():
            print(f"{w} {name} {value:.6g} {units[name]}")
        print(f"{w} error_pct {entry['error_pct']:.6g} %")
    out = Path(args.out) if args.out else build_dir() / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return status


def verdict(base, new, bound, higher_better):
    """Verdict rules: worse beyond the bound; better only when the
    medians differ by more than the base quartile spread and new wins at
    least nine tenths of the seed-matched pairs; unresolved when either
    side's spread exceeds the bound."""
    b, n = base["values"], new["values"]
    sign = -1.0 if higher_better else 1.0
    change = sign * (new["median"] - base["median"]) / base["median"]
    pairs = list(zip(b, n))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    all_better = all(sign * (y - x) < 0 for x in b for y in n)
    if max(base["spread"], new["spread"]) > bound:
        return ("better" if all_better else "unresolved"), change
    if change > bound:
        return "worse", change
    if (-change * base["median"] > base["q3"] - base["q1"]
            and pairs and wins >= 0.9 * len(pairs)):
        return "better", change
    return "same", change


def digests(entry):
    """{seed: {digest key: value}} over a workload's untraced runs."""
    return {r["seed"]: {k: v for k, v in r.get("info", {}).items() if k.endswith("_digest")}
            for r in entry["runs"] if not r["trace"]}


def cmd_compare(args):
    spec = load_spec()
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    worse = False
    print(f"{'workload':<14} {'metric':<14} {'base':>12} {'new':>12} {'change':>8}  verdict")
    for w in WORKLOADS:
        if w not in base["workloads"] or w not in new["workloads"]:
            continue
        bw, nw = base["workloads"][w], new["workloads"][w]
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in bw["end_to_end"] or name not in nw["end_to_end"]:
                continue
            v, change = verdict(bw["end_to_end"][name], nw["end_to_end"][name], m["bound"],
                                m["better"] == "higher")
            worse |= v == "worse"
            print(f"{w:<14} {name:<14} {bw['end_to_end'][name]['median']:>12.6g} "
                  f"{nw['end_to_end'][name]['median']:>12.6g} {100 * change:>+7.1f}%  {v}")
        bd, nd = digests(bw), digests(nw)
        for seed in sorted(set(bd) & set(nd)):
            for key in sorted(set(bd[seed]) | set(nd[seed])):
                if bd[seed].get(key) != nd[seed].get(key):
                    print(f"{w:<14} {key} changed at seed {seed}: "
                          f"{bd[seed].get(key)} -> {nd[seed].get(key)}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", choices=WORKLOADS)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--seconds", type=float)
    run.add_argument("--trace", nargs="?", const="1", choices=["0", "1"])
    run.add_argument("--runs", type=int)
    run.add_argument("--smoke", action="store_true")
    run.add_argument("--out")
    compare = sub.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("new")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
