"""Run one workload chain in this (fresh) process and print its result.

    python3 perfbench/chain.py --workload NAME --seed N --trace 0|1 --scratch DIR

run.py starts one of these per timed chain, so the library's lazy caches
(the amplitude table, the moment designs) start cold every time, as they do
for a user.  The last line of standard output is one JSON object: accuracy
figures, call counts and failures, the monotonic time at which the inputs
were ready with the set-up's calibration, chain wall time raw and
calibrated to host speed (calib.py), CPU time, peak RSS, the environment and, when traced, the spans and the
per-layer metrics computed from them.
"""

from __future__ import annotations

import time

from calib import PYTHON_PROBE_S, HostClock, python_kernel

# Set-up is timed on its own host clock, started before the imports that
# are most of it (the chain's own clock starts when the inputs are ready).
SETUP_CLOCK = HostClock(python_kernel, PYTHON_PROBE_S, 0.04)
if __name__ == "__main__":
    SETUP_CLOCK.start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from spans import LAYERS, SpanTree, Tracer  # noqa: E402


def _openblas():
    """(threads, config string) of the OpenBLAS numpy loaded, or Nones."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return threads(), config().decode()
    return None, None


def environment() -> dict:
    threads, config = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "openblas": config,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def layer_metrics(spans, figures: dict) -> dict:
    """Per-layer metrics of one traced chain; run.py adds run.* and trace.*
    and reports the names BENCHMARK.json lists."""
    tree = SpanTree(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = tree.layer_busy(layer)
        out[f"{layer}.calls"] = tree.layer_calls(layer)

    sim_ns = sum(tree.notes("dynamics.evolve", "sim_ns"))
    out["dynamics.sim_ns"] = sim_ns
    busy = out["dynamics.busy_s"]
    out["dynamics.sim_ns_per_s"] = sim_ns / busy if busy else 0.0
    out["dynamics.ledger_err"] = max(tree.notes("dynamics.evolve", "ledger_err"),
                                     default=0.0)
    out["dynamics.cz_phase_err"] = figures.get("cz_phase_err", 0.0)

    mc_names = ("noise.dephased_protocol_run", "noise.error_budget")
    out["noise.calibrate_s"] = tree.inclusive("noise.calibrate_dephasing")
    out["noise.mc_s"] = sum(tree.own_time(s, {"noise.apply_channels"})
                            for s in tree.spans if s["name"] in mc_names)
    out["noise.realizations"] = figures.get("realizations", 0)
    out["noise.realizations_per_s"] = (out["noise.realizations"] / out["noise.mc_s"]
                                       if out["noise.mc_s"] else 0.0)
    out["noise.channels_s"] = tree.inclusive("noise.apply_channels")
    out["noise.mc_se"] = figures.get("mc_se", 0.0)

    n_shots = figures.get("shots", 0)
    out["shots.synth_s"] = tree.inclusive("shots.synthesize_shots")
    out["shots.shots"] = n_shots
    out["shots.synth_shots_per_s"] = (n_shots / out["shots.synth_s"]
                                      if out["shots.synth_s"] else 0.0)
    out["shots.moments_s"] = tree.inclusive("shots.estimate_moments")
    out["shots.moments_shots_per_s"] = (n_shots / out["shots.moments_s"]
                                        if out["shots.moments_s"] else 0.0)
    out["shots.io_s"] = tree.inclusive("shots.save_shots", "shots.load_shots")
    out["shots.file_bytes"] = figures.get("file_bytes", 0)

    out["tomography.mle_s"] = tree.inclusive("tomography.mle_state")
    out["tomography.mle_iters"] = figures.get("mle_iters", 0)
    out["tomography.kkt_residual"] = figures.get("mle_kkt", 0.0)
    out["tomography.fidelity_err"] = (abs(figures["mle_f_est"] - figures["mle_f_true"])
                                      if "mle_f_est" in figures else 0.0)
    out["tomography.design_mb"] = figures.get("design_mb", 0.0)
    out["tomography.bootstrap_s"] = tree.inclusive("tomography.bootstrap_ci")
    out["tomography.resamples_per_s"] = (figures["resamples"] / out["tomography.bootstrap_s"]
                                         if out["tomography.bootstrap_s"] else 0.0)
    out["tomography.ci_width"] = figures.get("ci_width", 0.0)
    out["tomography.qpt_s"] = tree.inclusive("tomography.mle_process")
    out["tomography.qpt_iters"] = figures.get("qpt_iters", 0)
    out["tomography.cptp_residual"] = figures.get("qpt_cptp_residual", 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory for the chain's temporary files")
    args = parser.parse_args(argv)

    setup, chain, probe = workloads.WORKLOADS[args.workload]
    clock = HostClock(*probe)
    tracer = None
    if args.trace:
        # spans run on the clock that stands still during probes
        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}", clock.now)
        tracer.install({name: importlib.import_module(f"slowlight.{name}")
                        for name in LAYERS})
    calls = workloads.Calls(tracer.pause if tracer else contextlib.nullcontext)
    result = {"workload": args.workload, "seed": args.seed, "traced": bool(args.trace)}

    inputs = setup(args.seed, args.scratch)
    SETUP_CLOCK.stop()
    result["ready_monotonic"] = time.monotonic()
    # run.py scales the whole set-up, process start included, by this
    result["setup_scale"] = SETUP_CLOCK.calibrated_s() / SETUP_CLOCK.wall_s()
    result["setup_probe_s"] = SETUP_CLOCK.probe_total_s

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    clock.start()
    root = tracer.begin("bench.chain") if tracer else None
    try:
        figures = chain(inputs, calls)
    except workloads.ChainAborted:
        result["traceback"] = traceback.format_exc()
        figures = {}
    finally:
        if tracer:
            tracer.end(root)
        clock.stop()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result.update({
        "raw_wall_s": clock.wall_s(),
        "wall_s": clock.calibrated_s(),
        "host_factor": clock.host_factor(),
        "probes": len(clock.probes),
        "probe_total_s": clock.probe_total_s,
        "cpu_s": ((usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime)
                  - clock.probe_cpu_s),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "attempted": calls.attempted,
        "failures": calls.failures,
        "figures": figures,
        "env": environment(),
    })
    if tracer:
        result["spans"] = tracer.spans
        result["layers"] = layer_metrics(tracer.spans, figures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
