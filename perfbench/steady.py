"""Steadiness and determinism check of the benchmark.

    python3 perfbench/steady.py

Runs every workload BENCHMARK.json lists in two sets (A and B) of ten runs
each, for run_seconds each, with seeds 1..10 in both sets.  The runs
interleave: round r runs every workload for set A and then for set B, the
workload order rotating from round to round, so machine-speed drift falls
on both sets alike rather than on one workload.

For each end-to-end metric of each workload it prints both sets' median,
quartiles and spread ((q3 - q1) / median) over the ten seeds, and whether
they agree within the metric's bound from BENCHMARK.json: each spread
within the bound and set B's median not worse than set A's by more than the
bound.  Since both sets run the same seeds, it also prints the same-seed
noise: the median over seeds of |B - A| / A, which holds the inputs fixed
and so shows how much of the spread is the machine rather than the seed.
It also prints fail_frac and checks that each seed gave bit-identical
accuracy figures in both sets.  The full record goes to
perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = ("A", "B")
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    except subprocess.TimeoutExpired:
        return {"error": "run did not finish within 300 s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    result = json.loads(lines[-1])
    result["figures"] = next((line[len("figures "):] for line in lines
                              if line.startswith("figures ")), None)
    result["elapsed_s"] = time.monotonic() - start
    return result


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs = {(w, s): [] for w in workloads for s in SETS}
    for r, seed in enumerate(SEEDS):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for set_name in SETS:
            for workload in order:
                result = one_run(workload, seed, seconds)
                result["seed"] = seed
                runs[workload, set_name].append(result)
                print(f"round {r + 1}/{len(SEEDS)} set {set_name} {workload} seed {seed}: "
                      + (result.get("error") or
                         " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                         + f" correct={result['correct']} ({result['elapsed_s']:.0f} s)"),
                      flush=True)

    summary = {}
    all_ok = True
    print(f"\n{'workload':17s} {'metric':12s} {'unit':5s} set  {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in workloads:
        good = {s: [r for r in runs[workload, s] if "error" not in r] for s in SETS}
        attempted = sum(r["attempted"] for s in SETS for r in good[s])
        failed = sum(r["failed"] for s in SETS for r in good[s])
        errors = sum(1 for s in SETS for r in runs[workload, s] if "error" in r)
        incorrect = sum(1 for s in SETS for r in good[s] if not r["correct"])
        same = sum(1 for a, b in zip(good["A"], good["B"])
                   if a["seed"] == b["seed"] and a["figures"] == b["figures"])
        entry = {"fail_frac": failed / attempted if attempted else None,
                 "run_errors": errors, "incorrect_runs": incorrect,
                 "identical_figures": f"{same}/{len(SEEDS)}", "metrics": {}}
        ok = errors == 0 and incorrect == 0 and failed == 0 and same == len(SEEDS)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if min(len(good[s]) for s in SETS) < 2:
                ok = False
                continue
            stats = {s: spread([r["metrics"][name]["value"] for r in good[s]]) for s in SETS}
            shift = (stats["B"][0] - stats["A"][0]) / stats["A"][0]
            worse = shift if metric["better"] == "lower" else -shift
            pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                     for a, b in zip(good["A"], good["B"]) if a["seed"] == b["seed"]]
            same_seed = statistics.median(abs(b - a) / a for a, b in pairs)
            steady = all(stats[s][3] <= bound for s in SETS)
            agree = steady and worse <= bound
            ok = ok and agree
            entry["metrics"][name] = {"unit": metric["unit"], "bound": bound,
                                      "shift": shift, "same_seed": same_seed,
                                      "agree": agree,
                                      **{s: dict(zip(("median", "q1", "q3", "spread"), stats[s]))
                                         for s in SETS}}
            for s in SETS:
                med, q1, q3, spr = stats[s]
                verdict = (f"shift {shift:+.1%}, same-seed {same_seed:.1%}, "
                           f"{'agree' if agree else 'DISAGREE'}" if s == "B" else "")
                print(f"{workload:17s} {name:12s} {metric['unit']:5s} {s}    {med:10.5g} "
                      f"{q1:10.5g} {q3:10.5g} {spr:7.1%} {bound:6.0%}  {verdict}")
        fail_frac = entry["fail_frac"]
        print(f"{workload:17s} {'fail_frac':12s} ratio {fail_frac if fail_frac is None else f'{fail_frac:.4g}'} "
              f"({failed} failed of {attempted} calls, {errors} run errors, "
              f"{incorrect} incorrect runs); figures identical across sets for "
              f"{same}/{len(SEEDS)} seeds")
        summary[workload] = entry
        all_ok = all_ok and ok

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(
        {"seeds": list(SEEDS), "seconds": seconds, "summary": summary,
         "runs": {f"{w}/{s}": v for (w, s), v in runs.items()}}, indent=1))
    print("steady: all workloads agree" if all_ok else "steady: NOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
