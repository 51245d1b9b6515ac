#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Makes two sets of runs of BENCHMARK.json's command, one after the other:
each set runs every workload once per seed, seeds 1..--runs. For each set
it prints every end-to-end metric's median, quartiles and spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. It then compares the two sets' medians. The script exits
non-zero when a spread is above a third of its bound, or when a second
median is worse than the first by more than the bound.

With --trace-runs N it also makes N traced runs per workload and reports
the tracing overhead: the traced run's own end-to-end figures (per-layer
metrics `traced.*`) against the first set's untraced medians.

    python3 retina_bench/steady.py --runs 10 --trace-runs 3 --out retina_bench/STEADINESS.md

Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    inputs = [l for l in proc.stdout.splitlines() if l.startswith("# inputs")]
    return result, wall, inputs


def one_set(bench, seeds, label):
    """Runs every workload once per seed; returns per-workload samples."""
    out = {}
    for w in [w["name"] for w in bench["workloads"]]:
        samples, walls, failed, inputs = {}, [], 0, None
        for seed in seeds:
            result, wall, seen = run_once(bench["command"], w, seed,
                                          bench["run_seconds"], 0)
            inputs = inputs or seen
            walls.append(wall)
            failed += result["failed"]
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{label} {w} seed {seed}: {wall:.1f} s, failed {result['failed']}: {values}",
                  file=sys.stderr)
        out[w] = {"samples": samples, "walls": walls, "failed": failed, "inputs": inputs}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload and set")
    ap.add_argument("--trace-runs", type=int, default=0,
                    help="traced runs per workload, for the tracing overhead")
    ap.add_argument("--out", help="also write the report to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = list(range(1, args.runs + 1))
    sets = [one_set(bench, seeds, "set 1"), one_set(bench, seeds, "set 2")]

    lines = [
        f"Steadiness: two sets of {args.runs} runs per workload, seeds 1..{args.runs}, "
        f"{bench['run_seconds']} s each; set 2 ran after set 1 had finished.",
        "Spread is (Q3 - Q1) / median; the target is below a third of the bound.",
        "Change is set 2's median against set 1's; it may not be worse than the bound.",
        "",
    ]
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        lines += [f"## {w}", ""]
        lines += [f"    {l}" for l in sets[0][w]["inputs"]]
        lines.append("")
        for i, s in enumerate(sets, 1):
            lines.append(f"Set {i}: failed outputs over all runs: {s[w]['failed']}; "
                         f"run wall time median {statistics.median(s[w]['walls']):.1f} s, "
                         f"max {max(s[w]['walls']):.1f} s")
            ok &= s[w]["failed"] == 0
        lines.append("")
        lines.append("| metric | unit | set | median | Q1 | Q3 | spread | bound | spread within bound/3 |")
        lines.append("|---|---|---|---|---|---|---|---|---|")
        medians = {}
        for m in bench["end_to_end"]:
            for i, s in enumerate(sets, 1):
                q1, q2, q3 = statistics.quantiles(s[w]["samples"][m["name"]], n=4)
                spread = (q3 - q1) / q2
                steady = spread <= m["bound"] / 3
                ok &= steady
                medians.setdefault(m["name"], []).append(q2)
                lines.append(f"| {m['name']} | {m['unit']} | {i} | {q2:.6g} | {q1:.6g} | {q3:.6g} "
                             f"| {spread:.3f} | {m['bound']} | {'yes' if steady else 'NO'} |")
        lines.append("")
        lines.append("| metric | set 1 median | set 2 median | change | bound | within bound |")
        lines.append("|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            first, second = medians[m["name"]]
            change = second / first - 1
            worse = change if m["better"] == "lower" else -change
            agree = worse <= m["bound"]
            ok &= agree
            lines.append(f"| {m['name']} | {first:.6g} | {second:.6g} | {change:+.3f} "
                         f"| {m['bound']} | {'yes' if agree else 'NO'} |")
        lines.append("")
        if args.trace_runs:
            traced = {}
            for seed in seeds[: args.trace_runs]:
                result, _, _ = run_once(bench["command"], w, seed, bench["run_seconds"], 1)
                for name, m in result["metrics"].items():
                    traced.setdefault(name, []).append(m["value"])
            lines.append(f"Tracing overhead ({args.trace_runs} traced runs, "
                         f"median {statistics.median(traced['trace.spans']):.0f} spans):")
            lines.append("")
            for m in bench["end_to_end"]:
                off = statistics.median(sets[0][w]["samples"][m["name"]])
                on = statistics.median(traced["traced." + m["name"]])
                lines.append(f"- {m['name']}: {off:.6g} untraced, {on:.6g} traced "
                             f"({(on / off - 1) * 100:+.1f}%)")
            lines.append("")
    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
