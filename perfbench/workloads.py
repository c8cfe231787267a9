"""The benchmark workloads.

Each workload has a `setup(seed, scratch)` that builds the inputs (envelopes,
bias points, seeded parameters and file paths) and a `chain(inputs, call)`
that runs the timed public calls.  Building the waveguide spec and the
cluster schedule and target are the first calls of their chains, so the
waveguide and protocol layers are timed with the rest.  Every call goes through `call`, which
counts it and applies its correctness gate; the chain returns its accuracy
figures, which must repeat bit for bit at the same seed.

Each gate but the last reuses the absolute tolerance of the tier-1 test
that checks the same property:

  evolve norm ledger        |emitted + remaining - 1| < 1e-6  test_norm_ledger_closes
  cz_phase overlap          ||arg| - pi| <= 0.05, |ov| >= 0.98
                                              test_cz_conditional_phase_and_overlap
  drive_from_envelope       monotone phi_ac, sideband within 3e-3
                                              test_drive_round_trip_recovers_envelope
  mle_process               CPTP residual < 1e-6, eigenvalues > -1e-8
                                              test_process_fit_recovers_ideal_gate
  gauge_fix_local_z         reported fidelity within 1e-6
                                              test_gauge_fix_recovers_planted_frame
  save_shots -> load_shots  bit-exact                       test_batch_io_round_trip
  error_budget              standalone loss = 1 - loss_only_fidelity(0.13)
                            within 1e-12                    test_budget_nearly_additive
  mle_state                 KKT residual < 1e-6             test_random_four_mode_pure_state_recovery
                            |F_est - F_true| < 0.05         test_noisy_shot_table_reconstruction

No tier-1 test checks that a bootstrap interval holds its own estimate
(test_bootstrap_is_deterministic_and_ranked checks only determinism and the
percentile ranks); the benchmark adds that gate itself:

  bootstrap_ci              low <= estimate <= high
"""

from __future__ import annotations

import contextlib
import math
import os
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

import probes
from slowlight import (dynamics, fluxcontrol, noise, protocol, qops, shots,
                       tomography, waveguide)

TWO_PI = 2.0 * math.pi

# device constants shared with tests/test_dynamics.py and test_fluxcontrol.py
G_EF = math.sqrt(2.0) * TWO_PI * 35.16e6
G_MIRROR = TWO_PI * 57.0e6
XI_PULSE = math.sqrt(40.8 / 145.6)
F_EF = 5.273e9
# 450 MHz (the fluxcontrol tests' choice) tops out below the 80 ns pulse's
# peak of 0.529; 300 MHz reaches 0.545
W_MOD = TWO_PI * 300e6

QPT_NOISE = 0.01
CHAIN_REALIZATIONS = 2000
BUDGET_REALIZATIONS = 12000
CLUSTER_SHOTS = 1_000_000
# the 0.05 gate on |F_est - F_true| comes from a tier-1 test at n_noise = 1.0;
# at the paper's 3.5 the MLE bias reaches 0.027-0.046 over seeds 1-3, so the
# workload uses the noise the tolerance was set for
CLUSTER_N_NOISE = 1.0
RESAMPLES = 100
# 200k shots at n_noise 1.0 fit five modes 0.042-0.062 below
# F_true over seeds 1-3, past the 0.05 tolerance the tier-1 test set for
# four modes at 150k shots; 200k at 0.5 still reaches 0.048 (seed 14), and
# 400k at 0.5 gives 0.014-0.033 over seeds 1-5 and 14
RING5_SHOTS = 400_000
RING5_N_NOISE = 0.5
RK4_PROBE_S = 1.05e-3
ARRAY_PROBE_S = 3.5e-3


class ChainAborted(Exception):
    """A public call raised, so the rest of the chain cannot run."""


class Calls:
    """Runs each public call of a chain and counts attempts and failures.

    A call fails if it raises or if its gate returns a problem message.  A
    raise ends the chain; a failed gate is recorded and the chain goes on.
    """

    def __init__(self, quiet=contextlib.nullcontext):
        self.attempted = 0
        self.failures = []
        # context a gate runs in, so that its own library calls go untraced
        self.quiet = quiet

    def __call__(self, fn, *args, gate=None, **kwargs):
        self.attempted += 1
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append(f"{name} raised {exc!r}")
            raise ChainAborted(name) from exc
        with self.quiet():
            problem = gate(out) if gate is not None else None
        if problem:
            self.failures.append(f"{name}: {problem}")
        return out


def _lib_seed(seed: int) -> int:
    return seed % (1 << 31)


def _ledger_err(record) -> float:
    return abs(record.emitted_energy + record.remaining_norm - 1.0)


def _ledger_gate(record):
    err = _ledger_err(record)
    return None if err < 1e-6 else f"norm ledger off by {err:.3e}"


def _state_fit_gate(f_true, ideal):
    def gate(out):
        rho, info = out
        err = abs(qops.fidelity(rho.matrix, ideal.matrix) - f_true)
        if info["kkt_residual"] >= 1e-6:
            return f"KKT residual {info['kkt_residual']:.3e}"
        if err >= 0.05:
            return f"|F_est - F_true| = {err:.4f}"
        return None
    return gate


def _ci_gate(ci):
    if ci["low"] <= ci["estimate"] <= ci["high"]:
        return None
    return f"interval [{ci['low']}, {ci['high']}] misses {ci['estimate']}"


def _fit_figures(prefix, ideal, f_true, rho, info) -> dict:
    return {f"{prefix}_f_true": f_true,
            f"{prefix}_f_est": qops.fidelity(rho.matrix, ideal.matrix),
            f"{prefix}_iters": info["iterations"],
            f"{prefix}_kkt": info["kkt_residual"]}


# ---------------------------------------------------------------------------
# device_cz: flux drive, RK4 emission, CZ reflection, CZ process tomography


def device_cz_setup(seed: int, scratch: Path) -> dict:
    rng = np.random.Generator(np.random.Philox(key=[_lib_seed(seed), 0xC2]))
    transmon = fluxcontrol.TransmonSpec.emitter()
    return {
        "envelope": fluxcontrol.erf_envelope(80e-9, 0.0, XI_PULSE, 216e-9, 0.2e-9),
        "transmon": transmon,
        "bias": brentq(lambda p: transmon.omega_ef(p) - TWO_PI * F_EF, 0.0, 0.49),
        "chi": tomography.depolarized_chi(tomography.ideal_cz_chi(),
                                          rng.uniform(0.02, 0.08)),
        "prep": tomography.PrepModel(loss=rng.uniform(0.05, 0.15),
                                     thermal_pop=rng.uniform(0.005, 0.02),
                                     readout_fidelity=rng.uniform(0.95, 0.99)),
        "seed": _lib_seed(seed),
    }


def device_cz_chain(inp: dict, call: Calls) -> dict:
    t_env, xi_env = inp["envelope"]
    transmon, bias = inp["transmon"], inp["bias"]

    def drive_gate(drive):
        if np.any(np.diff(drive.phi_ac) < -1e-12):
            return "phi_ac is not monotone under a rising envelope"
        tone = fluxcontrol.FluxTone(bias, float(drive.phi_ac[-1]), W_MOD,
                                    float(drive.phi_dc[-1]))
        got = abs(fluxcontrol.sideband_spectrum(transmon, tone).emission_amplitude)
        if abs(got - xi_env[-1]) > 3e-3:
            return f"sideband {got:.4f} misses the target {xi_env[-1]:.4f}"
        return None

    spec = call(waveguide.WaveguideSpec.device)
    call(fluxcontrol.drive_from_envelope, transmon, bias, W_MOD, t_env, xi_env,
         gate=drive_gate)
    rec = call(dynamics.emit_shaped, spec, t_env, xi_env, emitter_g=G_EF,
               gate=_ledger_gate)

    def cz_gate(out):
        overlap, record = out
        if abs(overlap) < 0.98:
            return f"|overlap| = {abs(overlap):.4f}"
        if abs(abs(np.angle(overlap)) - math.pi) > 0.05:
            return f"conditional phase {np.angle(overlap):.4f} is not pi"
        return _ledger_gate(record)

    mirror = dynamics.LatticeSystem(spec, G_EF, 0.0, G_MIRROR)
    overlap, rec_e = call(dynamics.cz_phase, mirror, "e", t_env, xi_env, gate=cz_gate)
    prep = inp["prep"]
    means, variances = call(tomography.simulate_process_measurements, inp["chi"],
                            prep, noise=QPT_NOISE, seed=inp["seed"])

    def cptp_gate(out):
        _, info = out
        if info["cptp_residual"] >= 1e-6:
            return f"CPTP residual {info['cptp_residual']:.3e}"
        if info["min_eigenvalue"] <= -1e-8:
            return f"chi eigenvalue {info['min_eigenvalue']:.3e}"
        return None

    chi_hat, info = call(tomography.mle_process, means, variances, prep,
                         gate=cptp_gate)

    def gauge_gate(out):
        fixed, _, fval = out
        direct = tomography.process_fidelity(fixed, tomography.ideal_cz_chi())
        if abs(fval - direct) >= 1e-6:
            return f"gauge fidelity {fval} vs recomputed {direct}"
        return None

    _, angles, fval = call(tomography.gauge_fix_local_z, chi_hat, gate=gauge_gate)
    return {
        "emit_ledger_err": _ledger_err(rec),
        "cz_ledger_err": _ledger_err(rec_e),
        "cz_overlap_re": overlap.real,
        "cz_overlap_im": overlap.imag,
        "cz_phase_err": abs(abs(np.angle(overlap)) - math.pi),
        "qpt_iters": info["iterations"],
        "qpt_cptp_residual": info["cptp_residual"],
        "qpt_min_eig": info["min_eigenvalue"],
        "qpt_gauge_fidelity": fval,
        "qpt_theta1": angles[0],
        "qpt_theta2": angles[1],
        "design_mb": means.size * chi_hat.size * 16 / 1e6,
    }


# ---------------------------------------------------------------------------
# cluster4_chain: the headline 2D cluster through the whole measurement chain


def cluster4_chain_setup(seed: int, scratch: Path) -> dict:
    tag = f"cluster4_2d-{os.getpid()}"
    return {
        "seed": _lib_seed(seed),
        "stack": noise.ChannelStack(),
        "paths": (scratch / f"{tag}.shot", scratch / f"{tag}-dark.shot"),
    }


def _round_trip_gate(original):
    def gate(back):
        same = (back.mode_bases == original.mode_bases and back.dark == original.dark
                and np.array_equal(back.values, original.values)
                and (back.outcomes is None) == (original.outcomes is None)
                and (back.outcomes is None
                     or np.array_equal(back.outcomes, original.outcomes)))
        return None if same else "loaded batch differs from the saved one"
    return gate


def cluster4_chain_chain(inp: dict, call: Calls) -> dict:
    seed = inp["seed"]
    ideal = call(protocol.target_state, "cluster4_2d").photon_density()
    steps = call(protocol.published_circuit, "cluster4_2d")
    spec = call(noise.calibrate_dephasing, seed=seed)
    rho = call(noise.dephased_protocol_run, steps, spec,
               realizations=CHAIN_REALIZATIONS)
    noisy = call(noise.apply_channels, rho, inp["stack"], (1,), 1)
    f_true = qops.fidelity(noisy.matrix, ideal.matrix)
    batch, dark = call(shots.synthesize_shots, noisy, CLUSTER_N_NOISE,
                       CLUSTER_SHOTS, seed=seed)
    loaded = []
    try:
        for original, path in zip((batch, dark), inp["paths"]):
            call(shots.save_shots, original, path)
            loaded.append(call(shots.load_shots, path,
                               gate=_round_trip_gate(original)))
        file_bytes = sum(p.stat().st_size for p in inp["paths"])
    finally:
        for path in inp["paths"]:
            path.unlink(missing_ok=True)
    table = call(shots.estimate_moments, *loaded)
    rho_hat, info = call(tomography.mle_state, table,
                         gate=_state_fit_gate(f_true, ideal))
    ci = call(tomography.bootstrap_ci, table, ideal, resamples=RESAMPLES,
              seed=seed, gate=_ci_gate)
    return {
        **_fit_figures("mle", ideal, f_true, rho_hat, info),
        "realizations": CHAIN_REALIZATIONS,
        "shots": batch.count,
        "file_bytes": file_bytes,
        "ci_low": ci["low"],
        "ci_estimate": ci["estimate"],
        "ci_high": ci["high"],
        "ci_width": ci["width"],
        "resamples": ci["resamples"],
        "design_mb": _state_design_mb(batch.n_modes),
    }


# ---------------------------------------------------------------------------
# dephasing_budget: the per-realization Monte Carlo of the error budget


def dephasing_budget_setup(seed: int, scratch: Path) -> dict:
    return {"seed": _lib_seed(seed), "stack": noise.ChannelStack()}


def _budget_gate(stack):
    def gate(budget):
        want = 1.0 - noise.loss_only_fidelity(stack.loss)
        err = abs(budget["standalone"]["loss"] - want)
        return None if err < 1e-12 else f"standalone loss off by {err:.3e}"
    return gate


def dephasing_budget_chain(inp: dict, call: Calls) -> dict:
    seed, stack = inp["seed"], inp["stack"]
    spec = call(noise.calibrate_dephasing, seed=seed)
    figures = {"realizations": 0, "mc_se": 0.0}
    for name in ("cluster4_2d", "ring5"):
        budget = call(noise.error_budget, name, noise=spec, stack=stack,
                      realizations=BUDGET_REALIZATIONS, seed=seed,
                      gate=_budget_gate(stack))
        figures["realizations"] += budget["realizations"]
        figures["mc_se"] = max(figures["mc_se"], budget["monte_carlo_se"])
        for key in ("dephasing_infidelity", "loss_infidelity", "control_infidelity",
                    "combined_fidelity", "monte_carlo_se"):
            figures[f"{name}_{key}"] = budget[key]
    return figures


# ---------------------------------------------------------------------------
# ring5_tomo: five-mode state tomography, where the dense moment design
# dominates the fit


def ring5_tomo_setup(seed: int, scratch: Path) -> dict:
    return {"seed": _lib_seed(seed), "stack": noise.ChannelStack()}


def ring5_tomo_chain(inp: dict, call: Calls) -> dict:
    seed = inp["seed"]
    ideal = call(protocol.target_state, "ring5").photon_density()
    noisy = call(noise.apply_channels, ideal, inp["stack"], (1,), 1)
    f_true = qops.fidelity(noisy.matrix, ideal.matrix)
    batch, dark = call(shots.synthesize_shots, noisy, RING5_N_NOISE, RING5_SHOTS,
                       seed=seed)
    table = call(shots.estimate_moments, batch, dark)
    rho_hat, info = call(tomography.mle_state, table,
                         gate=_state_fit_gate(f_true, ideal))
    return {
        **_fit_figures("mle", ideal, f_true, rho_hat, info),
        "shots": batch.count,
        "design_mb": _state_design_mb(batch.n_modes),
    }


def _state_design_mb(n_modes: int) -> float:
    """Bytes of the dense complex (4^n - 1) x 4^n moment design, in MB."""
    return (4 ** n_modes - 1) * 4 ** n_modes * 16 / 1e6


# workload: (setup, chain, calibration probe as (kernel, nominal seconds per
# pass, seconds between probes)).  Each probe mirrors the code that
# dominates its chain and costs about 3% of chain time; the nominal times
# are the probes' times in the fast state of a 2-vCPU Xeon VM (OpenBLAS,
# 1 thread), so a calibrated time reads close to the wall time on an
# uncontended host.
WORKLOADS = {
    "device_cz": (device_cz_setup, device_cz_chain,
                  (probes.rk4_kernel, RK4_PROBE_S, 0.05)),
    "dephasing_budget": (dephasing_budget_setup, dephasing_budget_chain,
                         (probes.rk4_kernel, RK4_PROBE_S, 0.05)),
    "cluster4_chain": (cluster4_chain_setup, cluster4_chain_chain,
                       (probes.array_kernel, ARRAY_PROBE_S, 0.12)),
    "ring5_tomo": (ring5_tomo_setup, ring5_tomo_chain,
                   (probes.array_kernel, ARRAY_PROBE_S, 0.12)),
}
