"""Run perfbench on two checkouts in alternating pairs and compare them.

    python3 tools/ab_bench.py PARENT CHANGE --workload W --pairs N
        [--control TREE] [--seed0 K]

PARENT, CHANGE and TREE are the roots of full checkouts, and W is one of
the workloads that CHANGE's BENCHMARK.json lists. Pair i runs

    python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0

once in each tree, with that tree as the working directory, and reads the
JSON result on the last line of its output. The side that runs first
alternates from pair to pair. With --control (for example a second copy of
the parent, byte for byte) each pair is a triple, and the order rotates.
S is BENCHMARK.json's `run_seconds`, and K defaults to 1.

For each end-to-end metric in CHANGE's BENCHMARK.json (read, never
written) it prints the parent's median and quartiles [q1, q3], the change's
median and its difference from the parent's in %, the number of pairs the
change won (ties count for neither), the control's median, and a verdict:

- `worse`: the change's median is worse than the parent's by more than the
  metric's bound;
- `unresolved`: the parent's own spread, (q3 - q1) / median, exceeds the
  bound, and not every run of the change beats every run of the parent;
- `ok` otherwise.

It exits 1 when a run exits nonzero, runs past RUN_TIMEOUT_S, reads
`correct: false` or has failed operations, or when any verdict is `worse`.
It writes nothing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

RUN_TIMEOUT_S = 600


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `tree`: its exit code and the result
    its last line of output holds (no result when that line is not one).
    A run killed at RUN_TIMEOUT_S has exit None."""
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    return {"exit": done.returncode, **result}


def run_problem(run: dict) -> str | None:
    """Why a run cannot be counted, or None when it is sound."""
    if run["exit"] is None:
        return f"timed out after {RUN_TIMEOUT_S} s"
    if run["exit"] != 0:
        return f"exited {run['exit']}"
    if run.get("correct") is not True:
        return "not correct"
    if run.get("failed") != 0:
        return f"{run.get('failed')} failed operations"
    return None


def summarize(end_to_end: list[dict], parent: list[dict], change: list[dict],
              control: list[dict] | None = None) -> list[dict]:
    """One row per metric of BENCHMARK.json's `end_to_end` list. Run i of
    `parent` and of `change` make pair i; each run is perfbench's result."""
    rows = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        p = np.array([r["metrics"][name]["value"] for r in parent])
        c = np.array([r["metrics"][name]["value"] for r in change])
        q1, med, q3 = np.percentile(p, [25, 50, 75])
        c_med = float(np.median(c))
        worse_by = sign * (c_med - med) / med  # > 0 when the change reads worse
        beats_all = bool(np.max(sign * c) < np.min(sign * p))
        if worse_by > bound:
            verdict = "worse"
        elif (q3 - q1) / med > bound and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({
            "metric": name, "unit": metric["unit"], "parent": float(med),
            "q1": float(q1), "q3": float(q3), "change": c_med,
            "delta_pct": 100 * (c_med - med) / med,
            "won": int(np.sum(sign * c < sign * p)), "pairs": len(p),
            "control": (float(np.median([r["metrics"][name]["value"] for r in control]))
                        if control else None),
            "verdict": verdict,
        })
    return rows


def format_rows(workload: str, rows: list[dict]) -> str:
    out = [f"{workload}: metric, parent median [q1, q3] -> change (delta, won), control, verdict"]
    for r in rows:
        control = "" if r["control"] is None else f", control {r['control']:.4g}"
        out.append(f"  {r['metric']} ({r['unit']}): {r['parent']:.4g} [{r['q1']:.4g}, "
                   f"{r['q3']:.4g}] -> {r['change']:.4g} ({r['delta_pct']:+.1f} %, "
                   f"{r['won']}/{r['pairs']}){control}: {r['verdict']}")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--control", type=Path)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        ap.error(f"--workload must be one of {', '.join(workloads)}")
    sides = {"parent": args.parent, "change": args.change}
    if args.control is not None:
        sides["control"] = args.control
    names = list(sides)
    runs = {name: [] for name in names}
    problems = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        for name in names[i % len(names):] + names[:i % len(names)]:
            run = runs[name]
            run.append(run_once(sides[name], args.workload, seed, bench["run_seconds"]))
            problem = run_problem(run[-1])
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in run[-1].get("metrics", {}).items())
            print(f"pair {i + 1}, seed {seed}, {name}: {problem or 'ok'} {values}", flush=True)
            if problem:
                problems.append(f"{name} seed {seed}: {problem}")
    if problems:
        print("\n".join(["runs that cannot be counted:", *problems]))
        return 1
    rows = summarize(bench["end_to_end"], runs["parent"], runs["change"], runs.get("control"))
    print(format_rows(args.workload, rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
