"""Benchmark of the slowlight chain from flux control to bootstrap intervals.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: chains run one after another, each in a fresh
Python process (perfbench/chain.py) with BLAS pinned to one thread, so the
library's lazy caches start cold as they do for a user.  Chains repeat for
about --seconds: another starts while it would end less than half a chain
past --seconds (at least one chain, or one untraced/traced pair with
--trace 1).  Inputs come from --seed only; every
chain of a run gets the same inputs and must return bit-identical accuracy
figures.

--trace 0 reports the end-to-end metrics BENCHMARK.json lists, as medians
over the chains.  Both times in them are calibrated to host speed
(perfbench/calib.py), in seconds at the speed of an uncontended host,
because raw time on a shared host jumps by more than any useful bound:
wall_s is the chain's time, probes excluded, and setup_s the time from
spawning the chain process until its inputs are ready.  --trace 1
alternates untraced and traced chains and reports the per-layer metrics,
taken from spans the benchmark records around each public call into a
layer (perfbench/spans.py), together with the raw medians (run.raw_wall_s,
run.raw_setup_s), the host's slowdown (run.host_factor: median probe time
over the probe's nominal time) and trace.overhead_s, the traced minus the
untraced median wall_s.

Human-readable lines come first; the last line of standard output is the
JSON result.  The whole record (environment, every chain, the spans) goes
to perfbench/out/<workload>-seed<N>-trace<T>.json.  Notes on two metrics:
shots.io_s times save/load through the page cache, not the disk, and
tomography.design_mb is computed from array sizes, not measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# a run must end within 180 s: start no chain expected to end past LIMIT_S,
# and kill one still running at DEADLINE_S
LIMIT_S = 150.0
DEADLINE_S = 170.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_chain(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "chain.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--scratch", str(OUT)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env={**os.environ, **CHILD_ENV}, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"chain timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"traced": traced,
                "error": f"chain exited {proc.returncode}: {proc.stderr.strip()[-4000:]}"}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result.pop("ready_monotonic") - spawned - result["setup_probe_s"]
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    return result


def run_chains(workload: str, seed: int, seconds: float, trace: bool) -> list:
    modes = (False, True) if trace else (False,)
    chains = []
    start = time.monotonic()
    rounds = 0
    while True:
        for traced in modes:
            left = DEADLINE_S - (time.monotonic() - start)
            chains.append(run_chain(workload, seed, traced, left))
        rounds += 1
        if any("error" in c for c in chains):
            return chains
        elapsed = time.monotonic() - start
        per_round = elapsed / rounds
        if elapsed + per_round > LIMIT_S or elapsed + per_round / 2 > seconds:
            return chains


def summarize(chains: list, trace: bool):
    """(metrics, failed, attempted, problems) over a run's chains."""
    ok = [c for c in chains if "error" not in c]
    problems = [c["error"] for c in chains if "error" in c]
    failed = len(problems) + sum(len(c["failures"]) for c in ok)
    attempted = len(problems) + sum(c["attempted"] for c in ok)
    problems += [f for c in ok for f in c["failures"]]
    problems += [c["traceback"] for c in ok if "traceback" in c]
    if len({json.dumps(c["figures"], sort_keys=True) for c in ok}) > 1:
        problems.append("accuracy figures differ between chains of one seed")
    plain = [c for c in ok if not c["traced"]]
    traced = [c for c in ok if c["traced"]]
    if not plain or (trace and not traced):
        return None, failed, attempted, problems

    def med(key, rows):
        return statistics.median(r[key] for r in rows)

    def stats(key, rows):
        values = [r[key] for r in rows]
        return (statistics.median(values), *quartiles(values)[::2], len(values))

    if not trace:
        metrics = {key: stats(key, plain) for key in ("setup_s", "wall_s", "peak_rss_mb")}
    else:
        metrics = {name: (statistics.median(c["layers"][name] for c in traced),)
                   for name in traced[0]["layers"]}
        metrics["run.cpu_s"] = (med("cpu_s", plain),)
        metrics["run.raw_wall_s"] = (med("raw_wall_s", plain),)
        metrics["run.raw_setup_s"] = (med("raw_setup_s", plain),)
        metrics["run.host_factor"] = (med("host_factor", plain),)
        metrics["run.blas_threads"] = (plain[0]["env"]["blas_threads"],)
        metrics["trace.overhead_s"] = (med("wall_s", traced) - med("wall_s", plain),)
    return metrics, failed, attempted, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slowlight" / "__init__.py").is_file():
        print(f"perfbench: no slowlight sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    listed = bench["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    chains = run_chains(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, failed, attempted, problems = summarize(chains, bool(args.trace))
    for problem in problems:
        print(f"FAILED {problem}")
    if metrics is None:
        print("perfbench: no chain finished; nothing to report", file=sys.stderr)
        return 1

    ok = [c for c in chains if "error" not in c]
    env = {**ok[0]["env"], "commit": git_commit(ROOT)}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "spans": [s for c in ok for s in c.pop("spans", [])],
              "chains": chains, "metrics": metrics}
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"chains={len(chains)} " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"figures {json.dumps(ok[0]['figures'], sort_keys=True)}")
    result = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        value = metrics[name]
        result[name] = {"value": value[0], "unit": unit}
        spread = (f"  (q1 {value[1]:.6g}, q3 {value[2]:.6g}, n={value[3]})"
                  if len(value) > 1 else "")
        print(f"{name:28s} {value[0]:.6g} {unit}{spread}")
    print(f"{'fail_frac':28s} {failed / attempted:.6g} ratio  "
          f"({failed} failed of {attempted} calls)")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
