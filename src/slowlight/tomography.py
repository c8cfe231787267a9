"""Maximum-likelihood reconstruction of states and processes from moment data.

State tomography consumes a :class:`~slowlight.shots.MomentTable` holding every
normally-ordered moment of the photonic modes and inverts it for the density
matrix.  The fit minimises the variance-weighted least-squares mismatch

    f(rho) = sum_j |m_j - Tr(A_j rho)|^2 / v_j

over the convex set of physical states (Hermitian, positive semidefinite,
unit trace), where A_j runs over the qubit-restricted moment operators,
m_j is the measured mean and v_j the estimated variance of that mean.  The
minimiser is found with a monotone accelerated projected-gradient iteration:
plain FISTA momentum, but a candidate that raises the objective is rejected
and the momentum restarted, so the logged objective never increases.  The
projection onto physical states is the eigenvalue simplex projection from
:mod:`slowlight.qops`.

Process tomography reconstructs the chi matrix of the emitter-photon CZ gate,
E(rho) = sum_nm chi_nm P_n rho P_m+, in the two-qubit Pauli product basis
ordered II, IX, IY, IZ, XI, ..., ZZ (first factor emitter, second photon).
The data grid is 16 product preparations crossed with the 15 nontrivial
correlators sigma_i (x) a+^n a^m.  Preparation errors are modelled by a
generalized prep superoperator: thermal emitter population before the prep
pulse, the prep unitary itself, then photon loss.  Fitting with the true
prep model corrects SPAM; fitting with ideal preps shows the uncorrected
bias.  The chi matrix is kept Hermitian, PSD and trace-preserving by a
Dykstra alternation between the PSD cone and the affine trace-preservation
subspace inside the same monotone projected-gradient loop.

A reconstructed chi is only defined up to local Z rotations on either qubit,
because virtual-Z frame choices commute through the dispersive readout.
:func:`gauge_fix_local_z` scans a 256 x 256 grid of frame angles and polishes
the best point, reporting the frame in which the gate is closest to CZ.

Confidence intervals come from a parametric bootstrap around the fitted
model: moment vectors are drawn from normals centred on the moments of the
fitted state with the recorded variances, the resampled tables are inverted
with warm starts from the fitted state, and the percentiles of the refit
fidelities, shifted down by their median's offset from the estimate (the
bias), give the interval.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qops
from .noise import amplitude_damping_kraus
from .protocol import DensityMatrix, PureState
from .shots import MomentTable

STOP_TOL = 1e-10
MAX_ITERS = 100_000
VARIANCE_FLOOR = 1e-12

PAULI_LABELS_2Q = tuple(a + b for a in "IXYZ" for b in "IXYZ")

_SINGLE = {"I": qops.ID2, "X": qops.SX, "Y": qops.SY, "Z": qops.SZ}
_PAULIS_2Q = np.stack([np.kron(_SINGLE[l[0]], _SINGLE[l[1]]) for l in PAULI_LABELS_2Q])

# photon-side operator basis for the correlator grid: I, a+, a, a+a
_PHOTON_OPS = ((0, 0), (1, 0), (0, 1), (1, 1))
CORRELATOR_LABELS = tuple(
    (p, op) for p in "IXYZ" for op in _PHOTON_OPS if not (p == "I" and op == (0, 0))
)


def _coerce_density(state) -> np.ndarray:
    if isinstance(state, PureState):
        state = state.photon_density()
    if isinstance(state, DensityMatrix):
        return state.matrix
    rho = np.asarray(state, dtype=complex)
    if rho.ndim == 1:
        return np.outer(rho, rho.conj())
    return rho


def moments_from_state(state, variance: float = 1.0, count: int = 1,
                       variance_source: MomentTable | None = None) -> MomentTable:
    """Exact moment table of a known state, for round trips and solver checks.

    Every signature gets the same variance so the fit is uniformly weighted,
    unless ``variance_source`` supplies a measured table: then each signature
    inherits that table's per-shot variance, and ``count`` sets the number of
    shots the table stands for.  That is how a table at an arbitrary
    measurement budget is written down without synthesizing the raw records:
    per-shot variances are a property of the detection noise alone, so scaling
    the count rescales the variance of every mean by the usual 1/N law.
    """
    rho = _coerce_density(state)
    n_modes = int(round(np.log2(rho.shape[0])))
    if rho.shape != (2**n_modes, 2**n_modes):
        raise ValueError("state dimension is not a power of two")
    entries = {}
    for sig in qops.all_moment_signatures(n_modes):
        op = qops.moment_operator(sig, n_modes)
        if variance_source is not None:
            var = variance_source.variance(sig)
        else:
            var = float(variance)
        entries[sig] = (complex(np.trace(op @ rho)), var, int(count))
    bases = (variance_source.mode_bases if variance_source is not None
             else ("",) * n_modes)
    return MomentTable(entries=entries, mode_bases=bases)


def _draw_hermitian_rows(signatures, means, variances, resamples, rng):
    """Normal draws of a moment vector that keep conjugate pairs conjugate.

    ``variances`` are variances of the means.  A self-conjugate signature is
    real-valued and gets a real draw at full variance; a conjugate pair splits
    its variance over the two quadratures and the partner row mirrors the
    draw, so every sampled table is a Hermitian measurement record.
    """
    index = {sig: j for j, sig in enumerate(signatures)}
    drawn = np.tile(np.asarray(means, dtype=complex), (resamples, 1))
    for j, sig in enumerate(signatures):
        partner = index[_conjugate_signature(sig)]
        if partner < j:
            continue
        var = variances[j]
        if partner == j:
            drawn[:, j] = (np.real(means[j])
                           + np.sqrt(var) * rng.standard_normal(resamples))
        else:
            scale = np.sqrt(var / 2.0)
            drawn[:, j] = means[j] + scale * (
                rng.standard_normal(resamples)
                + 1j * rng.standard_normal(resamples))
            drawn[:, partner] = drawn[:, j].conj()
    return drawn


def resample_moments(table: MomentTable, seed: int = 0) -> MomentTable:
    """One parametric replica of a moment table.

    Every mean is redrawn from a normal around the recorded mean with the
    recorded variance of the mean, conjugate signature pairs staying exactly
    conjugate; variances and counts carry over unchanged.  Replicas of an
    exact-mean table stand in for independently measured datasets at the
    same budget, which is how repeated-experiment studies are run without
    regenerating raw shot records each time.
    """
    signatures = list(table.signatures())
    means = [table.mean(sig) for sig in signatures]
    variances = [table.variance(sig) / max(table.count(sig), 1)
                 for sig in signatures]
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x5EED]))
    row = _draw_hermitian_rows(signatures, means, variances, 1, rng)[0]
    entries = {}
    for j, sig in enumerate(signatures):
        mean = row[j]
        if sig == _conjugate_signature(sig):
            mean = complex(np.real(mean))
        entries[sig] = (complex(mean), table.variance(sig), table.count(sig))
    return MomentTable(entries=entries, mode_bases=table.mode_bases)


# ---------------------------------------------------------------------------
# shared monotone accelerated projected-gradient core
# ---------------------------------------------------------------------------


def _curvature_step(design, weights) -> float:
    hessian = design.conj().T @ (design * weights[:, None])
    lam = float(np.linalg.eigvalsh(hessian).max())
    if lam <= 0.0:
        raise ValueError("design matrix has no weight")
    return 1.0 / (2.0 * lam)


def _monotone_apg(design, weights, targets, project, x0, stop_tol, max_iters,
                  step=None):
    """Minimise ||sqrt(w)(design @ x - targets)||^2 over project's convex set.

    x is the flattened matrix variable.  Momentum follows FISTA, but any
    candidate that fails to lower the objective is dropped and the momentum
    restarted from the incumbent, so the recorded objective trace is
    non-increasing by construction.  Two consecutive rejected steps mean the
    plain gradient step itself made no progress, which only happens at a
    fixed point of the projected gradient map, so the loop stops there too.
    Momentum is also restarted whenever the incoming velocity turns against
    the latest descent direction, which kills the slow objective rippling an
    ill-conditioned quadratic otherwise produces under plain acceleration.
    """
    if step is None:
        step = _curvature_step(design, weights)

    def objective(x):
        resid = design @ x - targets
        return float(np.real(np.sum(weights * np.abs(resid) ** 2)))

    def gradient(x):
        return 2.0 * (design.conj().T @ (weights * (design @ x - targets)))

    x = project(x0)
    fx = objective(x)
    y = x
    t = 1.0
    trace = [fx]
    stalled = False
    converged = False
    iterations = 0
    # the change test looks back a full momentum cycle rather than one step,
    # otherwise the accelerated tail stops an order short of the fixed point
    window = 50
    for iterations in range(1, max_iters + 1):
        z = project(y - step * gradient(y))
        fz = objective(z)
        if fz <= fx:
            if np.real(np.vdot(y - z, z - x)) > 0.0:
                t = 1.0
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = z + ((t - 1.0) / t_next) * (z - x)
            x, fx, t = z, fz, t_next
            stalled = False
            trace.append(fx)
            if len(trace) > window and trace[-1 - window] - fx < stop_tol:
                converged = True
                break
        else:
            trace.append(fx)
            if stalled:
                converged = True
                break
            y, t, stalled = x, 1.0, True
    if not converged:
        raise RuntimeError(
            f"MLE solver did not converge within {max_iters} iterations"
        )
    kkt = float(np.linalg.norm(x - project(x - step * gradient(x))))
    return x, {
        "objective": fx,
        "iterations": iterations,
        "kkt_residual": kkt,
        "objective_trace": np.asarray(trace),
    }


# ---------------------------------------------------------------------------
# state tomography
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _design_for_modes(n_modes: int):
    """Rows of the moment design matrix, identity signature excluded.

    The unit-trace row is enforced by the projection already, and the huge
    weight a floored zero variance would give it only wrecks the step size.
    """
    identity = tuple((0, 0) for _ in range(n_modes))
    kept = []
    rows = []
    for sig in qops.all_moment_signatures(n_modes):
        if sig == identity:
            continue
        kept.append(sig)
        rows.append(qops.moment_operator(sig, n_modes).T.reshape(-1))
    design = np.asarray(rows)
    design.setflags(write=False)
    return tuple(kept), design


@lru_cache(maxsize=8)
def _hermitian_coords(dim: int):
    """Index arrays of the isometric real parametrization of Hermitian dim x dim.

    Coordinates are the diagonal, then sqrt(2) times the real parts of the
    upper triangle, then sqrt(2) times the imaginary parts, so Euclidean
    lengths and hence projections agree exactly with the complex picture.
    """
    iu, ju = np.triu_indices(dim, k=1)
    basis = np.zeros((dim * dim, dim, dim), dtype=complex)
    k = 0
    for d in range(dim):
        basis[k, d, d] = 1.0
        k += 1
    root = 1.0 / np.sqrt(2.0)
    for a, b in zip(iu, ju):
        basis[k, a, b] = root
        basis[k, b, a] = root
        k += 1
    for a, b in zip(iu, ju):
        basis[k, a, b] = 1j * root
        basis[k, b, a] = -1j * root
        k += 1
    to_vec = basis.reshape(dim * dim, dim * dim).T.copy()
    to_vec.setflags(write=False)
    return iu, ju, to_vec


def _mats_from_coords(z: np.ndarray, dim: int) -> np.ndarray:
    iu, ju, _ = _hermitian_coords(dim)
    rows = z.shape[0]
    k = iu.size
    mats = np.zeros((rows, dim, dim), dtype=complex)
    mats[:, np.arange(dim), np.arange(dim)] = z[:, :dim]
    upper = (z[:, dim:dim + k] + 1j * z[:, dim + k:]) / np.sqrt(2.0)
    mats[:, iu, ju] = upper
    mats[:, ju, iu] = upper.conj()
    return mats


def _coords_from_mats(mats: np.ndarray, dim: int) -> np.ndarray:
    iu, ju, _ = _hermitian_coords(dim)
    rows = mats.shape[0]
    z = np.empty((rows, dim * dim))
    z[:, :dim] = np.real(mats[:, np.arange(dim), np.arange(dim)])
    upper = mats[:, iu, ju] * np.sqrt(2.0)
    k = iu.size
    z[:, dim:dim + k] = np.real(upper)
    z[:, dim + k:] = np.imag(upper)
    return z


class _StateProblem:
    """Design, weights and curvature of one table, reusable across refits.

    The design depends only on the mode count and the weights only on the
    recorded variances, so a bootstrap can solve a thousand resampled target
    vectors against one problem instead of refactoring the quadratic each
    time.  Alongside the complex design a real-coordinate copy is kept: the
    unknown is Hermitian, so splitting each complex residual into its two
    quadratures over an isometric real parametrization leaves objective,
    projection and minimiser untouched while halving the arithmetic of the
    batched refits.
    """

    def __init__(self, table: MomentTable):
        n_modes = len(table.mode_bases)
        if n_modes == 0 or any(b != "" for b in table.mode_bases):
            raise ValueError("state tomography needs heterodyne moments on every mode")
        have = set(table.signatures())
        total = 4**n_modes
        if len([s for s in qops.all_moment_signatures(n_modes) if s in have]) < total:
            missing = total - len(have)
            raise ValueError(
                f"moment table is missing {missing} of the {total} signatures"
            )
        self.signatures, self.design = _design_for_modes(n_modes)
        self.dim = 2**n_modes
        targets = []
        variances = []
        for sig in self.signatures:
            targets.append(table.mean(sig))
            var = table.variance(sig)
            if var < 0.0:
                raise ValueError("moment variances must be non-negative")
            variances.append(var / table.count(sig))
        self.targets = np.asarray(targets)
        variances = np.asarray(variances)
        floor = VARIANCE_FLOOR * float(variances.max())
        self.variances = variances
        self.weights = 1.0 / np.maximum(variances, max(floor, 1e-300))
        self.step = _curvature_step(self.design, self.weights)
        _, _, to_vec = _hermitian_coords(self.dim)
        design_z = self.design @ to_vec
        self.design_real = np.ascontiguousarray(
            np.vstack([np.real(design_z), np.imag(design_z)]))
        self.weights_real = np.concatenate([self.weights, self.weights])
        self._normal_eigs = None

    def normal_eigs(self):
        """Cached eigendecomposition of the real-coordinate normal matrix."""
        if self._normal_eigs is None:
            hess = self.design_real.T @ (self.design_real
                                         * self.weights_real[:, None])
            lam, basis = np.linalg.eigh(hess)
            self._normal_eigs = (np.maximum(lam, 0.0), basis)
        return self._normal_eigs

    def objective(self, state, targets=None) -> float:
        targets = self.targets if targets is None else targets
        resid = self.design @ _coerce_density(state).reshape(-1) - targets
        return float(np.real(np.sum(self.weights * np.abs(resid) ** 2)))

    def solve(self, targets=None, x0=None, stop_tol=STOP_TOL, max_iters=MAX_ITERS):
        targets = self.targets if targets is None else targets
        dim = self.dim

        def project(x):
            return qops.project_density(x.reshape(dim, dim)).reshape(-1)

        if x0 is None:
            start = (np.eye(dim, dtype=complex) / dim).reshape(-1)
        else:
            start = _coerce_density(x0).reshape(-1)
        x, info = _monotone_apg(self.design, self.weights, targets, project,
                                start, stop_tol, max_iters, step=self.step)
        rho = x.reshape(dim, dim)
        return DensityMatrix(0.5 * (rho + rho.conj().T)), info


def _solve_state_batch(problem: "_StateProblem", target_rows: np.ndarray,
                       x0: np.ndarray, stop_tol: float = 1e-7,
                       max_iters: int = 5000):
    """Solve one state problem against many target vectors at once.

    The batched refits use an operator-splitting iteration instead of the
    scalar projected-gradient loop: the quadratic misfit is minimised exactly
    every sweep in the cached eigenbasis of the normal matrix, the physical-
    state constraint is handled by the simplex projection on a copy of the
    iterate, and a scaled dual variable stitches the two copies together.
    The penalty weight starts a few times below the geometric mean of the
    curvature spectrum and is rebalanced whenever the feasibility and
    matching residuals drift apart, which keeps the sweep count flat across
    detection-noise regimes.  Iterates stop once both residuals fall under
    ``stop_tol``, which puts the refit fidelities within about ``stop_tol``
    of the scalar solver's answers - far tighter than a percentile needs.
    """
    dim = problem.dim
    lam, basis = problem.normal_eigs()
    positive = lam[lam > 1e-9 * lam.max()]
    sigma = 0.2 * float(np.exp(np.mean(np.log(positive))))
    targets = np.hstack([np.real(target_rows), np.imag(target_rows)])
    b = 2.0 * ((problem.weights_real * targets) @ problem.design_real)
    rows = target_rows.shape[0]
    z = np.tile(_coords_from_mats(
        _coerce_density(x0)[None, :, :], dim)[0], (rows, 1))
    u = np.zeros_like(z)
    for it in range(1, max_iters + 1):
        x = ((b + sigma * (z - u)) @ basis / (2.0 * lam + sigma)) @ basis.T
        z_new = _coords_from_mats(
            qops.project_density(_mats_from_coords(x + u, dim)), dim)
        dual = np.linalg.norm(z_new - z, axis=1)
        z = z_new
        u += x - z
        primal = np.linalg.norm(x - z, axis=1)
        if primal.max() < stop_tol and dual.max() < stop_tol:
            return _mats_from_coords(z, dim), it
        if it % 50 == 0:
            p_med, d_med = np.median(primal), np.median(dual)
            if p_med > 10.0 * d_med:
                sigma *= 2.0
                u /= 2.0
            elif d_med > 10.0 * p_med:
                sigma /= 2.0
                u *= 2.0
    raise RuntimeError(
        f"batched MLE refits did not converge within {max_iters} sweeps"
    )


def moment_objective(table: MomentTable, state) -> float:
    """Weighted least-squares objective of a candidate state against the table."""
    return _StateProblem(table).objective(state)


def mle_state(table: MomentTable, x0=None, stop_tol: float = STOP_TOL,
              max_iters: int = MAX_ITERS):
    """Reconstruct the density matrix that best explains a moment table.

    Returns (state, info) where info carries the final objective, iteration
    count, projected-gradient KKT residual and the full objective trace.
    """
    return _StateProblem(table).solve(x0=x0, stop_tol=stop_tol,
                                      max_iters=max_iters)


# ---------------------------------------------------------------------------
# chi matrices and superoperators
# ---------------------------------------------------------------------------


def chi_from_unitary(u: np.ndarray) -> np.ndarray:
    """Rank-1 chi matrix of a two-qubit unitary in the Pauli product basis."""
    u = np.asarray(u, dtype=complex)
    coeffs = np.array([np.trace(p @ u) for p in _PAULIS_2Q]) / 4.0
    return np.outer(coeffs, coeffs.conj())


def ideal_cz_chi() -> np.ndarray:
    return chi_from_unitary(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))


def depolarized_chi(chi: np.ndarray, p: float) -> np.ndarray:
    """Mix a process with the fully depolarizing channel with weight p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarization weight must be in [0, 1]")
    return (1.0 - p) * np.asarray(chi, dtype=complex) + p * np.eye(16) / 16.0


def apply_chi(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Act with the process E(rho) = sum_nm chi_nm P_n rho P_m+."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for n in range(16):
        left = _PAULIS_2Q[n] @ rho
        for m in range(16):
            c = chi[n, m]
            if c != 0.0:
                out += c * (left @ _PAULIS_2Q[m])
    return out


def chi_to_superop(chi: np.ndarray) -> np.ndarray:
    """Row-major superoperator S with vec(E(rho)) = S @ vec(rho)."""
    s = np.zeros((16, 16), dtype=complex)
    for n in range(16):
        for m in range(16):
            c = chi[n, m]
            if c != 0.0:
                s += c * np.kron(_PAULIS_2Q[n], _PAULIS_2Q[m].conj())
    return s


def superop_to_chi(s: np.ndarray) -> np.ndarray:
    chi = np.zeros((16, 16), dtype=complex)
    for n in range(16):
        for m in range(16):
            basis = np.kron(_PAULIS_2Q[n], _PAULIS_2Q[m].conj())
            chi[n, m] = np.trace(basis.conj().T @ s) / 16.0
    return chi


def process_fidelity(chi_a: np.ndarray, chi_b: np.ndarray) -> float:
    """Uhlmann fidelity between two chi matrices.

    Trace preservation makes a chi matrix unit trace and PSD, so it can be
    compared like a density matrix.  For a unitary target the chi matrix is
    rank 1 (to within the np.linalg.matrix_rank tolerance, dim * eps * the
    top eigenvalue), and qops.fidelity reduces to the overlap <psi|chi|psi>
    with its top eigenvector, exact to roundoff whichever argument it is.
    """
    return qops.fidelity(np.asarray(chi_a, dtype=complex),
                         np.asarray(chi_b, dtype=complex))


def compose_local_z(chi: np.ndarray, theta1: float, theta2: float) -> np.ndarray:
    """Advance the local Z frames after the gate: rho -> V E(rho) V+.

    V is Z(theta1) on the emitter and Z(theta2) on the photon.  This is the
    frame ambiguity virtual-Z bookkeeping leaves in a reconstructed process:
    conjugating by local Z commutes with the diagonal CZ and changes nothing,
    but the uncancelled frame advance between gate and measurement composes
    with the process and does.
    """
    phases = np.exp(-0.5j * (theta1 * np.array([1.0, 1.0, -1.0, -1.0])
                             + theta2 * np.array([1.0, -1.0, 1.0, -1.0])))
    w = np.kron(phases, phases.conj())
    return superop_to_chi(w[:, None] * chi_to_superop(chi))


# ---------------------------------------------------------------------------
# process tomography
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrepModel:
    """Generalized preparation and readout model for the QPT grid.

    Each input state is built as loss after prep after thermal pin: the
    emitter starts with a small thermal excited population, the ideal prep
    unitary acts, then the photon passes the lossy waveguide.  Emitter
    readout infidelity shrinks every correlator with a nontrivial Pauli by
    the usual confusion factor 2F - 1.
    """

    loss: float = 0.0
    thermal_pop: float = 0.0
    readout_fidelity: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if not 0.0 <= self.thermal_pop < 1.0:
            raise ValueError("thermal population must be in [0, 1)")
        if not 0.5 < self.readout_fidelity <= 1.0:
            raise ValueError("readout fidelity must be in (0.5, 1]")


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    return (np.cos(angle / 2.0) * qops.ID2
            - 1j * np.sin(angle / 2.0) * axis).astype(complex)


_PREP_SINGLE = (
    qops.ID2.astype(complex),          # |0>
    qops.SX.astype(complex),           # |1>
    _rotation(qops.SY, np.pi / 2.0),   # |+>
    _rotation(qops.SX, -np.pi / 2.0),  # |+i>
)


def prep_states(model: PrepModel | None = None) -> np.ndarray:
    """The 16 two-qubit input states of the QPT grid, shape (16, 4, 4)."""
    model = model or PrepModel()
    ground = np.zeros((4, 4), dtype=complex)
    ground[0, 0] = 1.0
    x_emitter = np.kron(qops.SX, qops.ID2).astype(complex)
    pinned = ((1.0 - model.thermal_pop) * ground
              + model.thermal_pop * x_emitter @ ground @ x_emitter)
    kraus = [np.kron(qops.ID2, k) for k in amplitude_damping_kraus(model.loss)]
    states = np.empty((16, 4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            u = np.kron(_PREP_SINGLE[a], _PREP_SINGLE[b])
            rho = u @ pinned @ u.conj().T
            states[4 * a + b] = sum(k @ rho @ k.conj().T for k in kraus)
    return states


def _correlator_ops() -> np.ndarray:
    ops = [np.kron(_SINGLE[p], qops.single_mode_moment(*op))
           for p, op in CORRELATOR_LABELS]
    return np.stack(ops)


def _process_design(model: PrepModel | None):
    """Design matrix mapping vec(chi) to the 240 correlator means."""
    states = prep_states(model)
    measure = _correlator_ops()
    shrink = np.array([
        2.0 * (model.readout_fidelity if model else 1.0) - 1.0 if p != "I" else 1.0
        for p, _ in CORRELATOR_LABELS
    ])
    # rows ordered prep-major: (prep 0, correlator 0..14), (prep 1, ...)
    left = np.einsum("nab,ibc->niac", _PAULIS_2Q, states)
    full = np.einsum("niac,mcd->nmiad", left, _PAULIS_2Q.conj().transpose(0, 2, 1))
    design = np.einsum("jda,nmiad->ijnm", measure, full)
    design = design * shrink[None, :, None, None]
    return design.reshape(16 * 15, 256)


def simulate_process_measurements(chi: np.ndarray, model: PrepModel | None = None,
                                  noise: float = 0.0, seed: int = 0):
    """Synthetic correlator grid for a known process under a SPAM model.

    Returns (means, variances) with shape (16, 15).  Gaussian noise of the
    given scale is added independently to real and imaginary parts, and the
    reported variance is the matching complex variance.
    """
    design = _process_design(model)
    means = design @ np.asarray(chi, dtype=complex).reshape(-1)
    if noise > 0.0:
        rng = np.random.Generator(np.random.Philox(key=[seed, 0xB007]))
        means = means + noise * (rng.standard_normal(means.size)
                                 + 1j * rng.standard_normal(means.size))
        variances = np.full(means.size, 2.0 * noise * noise)
    else:
        variances = np.ones(means.size)
    return means.reshape(16, 15), variances.reshape(16, 15)


def _tp_constraint():
    """Affine trace-preservation map: rows give entries of sum chi_nm P_m+ P_n."""
    a = np.zeros((16, 256), dtype=complex)
    for n in range(16):
        for m in range(16):
            a[:, 16 * n + m] = (_PAULIS_2Q[m].conj().T @ _PAULIS_2Q[n]).reshape(-1)
    b = np.eye(4, dtype=complex).reshape(-1)
    gram_inv = np.linalg.inv(a @ a.conj().T)
    return a, b, gram_inv


_TP_A, _TP_B, _TP_GRAM_INV = _tp_constraint()


def _project_affine_tp(x: np.ndarray) -> np.ndarray:
    resid = _TP_A @ x - _TP_B
    return x - _TP_A.conj().T @ (_TP_GRAM_INV @ resid)


def _project_psd(x: np.ndarray) -> np.ndarray:
    m = x.reshape(16, 16)
    m = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.conj().T


def project_cptp(chi: np.ndarray, tol: float = 1e-9, max_iters: int = 500) -> np.ndarray:
    """Dykstra alternation onto the intersection of PSD and trace preserving."""
    x = np.asarray(chi, dtype=complex).reshape(-1)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_iters):
        y = _project_psd(x + p).reshape(-1)
        p = x + p - y
        x_new = _project_affine_tp(y + q)
        q = y + q - x_new
        if np.linalg.norm(x_new - y) < tol:
            x = x_new
            break
        x = x_new
    return x.reshape(16, 16)


def cptp_residual(chi: np.ndarray) -> float:
    """Frobenius distance of sum chi_nm P_m+ P_n from the identity."""
    return float(np.linalg.norm(_TP_A @ np.asarray(chi, dtype=complex).reshape(-1) - _TP_B))


def mle_process(means: np.ndarray, variances: np.ndarray,
                model: PrepModel | None = None, stop_tol: float = STOP_TOL,
                max_iters: int = MAX_ITERS):
    """Fit a CPTP chi matrix to the 16 x 15 correlator grid.

    Passing the true prep and readout model corrects SPAM; passing None fits
    against ideal preparations and shows the uncorrected bias.  Returns
    (chi, info) with the same info fields as the state fit plus the final
    CPTP residual and smallest eigenvalue.
    """
    means = np.asarray(means, dtype=complex).reshape(-1)
    variances = np.asarray(variances, dtype=float).reshape(-1)
    if means.size != 240 or variances.size != 240:
        raise ValueError("process data must cover 16 preparations x 15 correlators")
    if np.any(variances < 0.0):
        raise ValueError("moment variances must be non-negative")
    design = _process_design(model)
    floor = VARIANCE_FLOOR * float(variances.max())
    weights = 1.0 / np.maximum(variances, max(floor, 1e-300))

    def project(x):
        return project_cptp(x.reshape(16, 16)).reshape(-1)

    # start at the identity process so nothing nudges the fit toward any gate
    start = np.zeros(256, dtype=complex)
    start[0] = 1.0
    x, info = _monotone_apg(design, weights, means, project, start,
                            stop_tol, max_iters)
    chi = x.reshape(16, 16)
    chi = 0.5 * (chi + chi.conj().T)
    info["cptp_residual"] = cptp_residual(chi)
    info["min_eigenvalue"] = float(np.linalg.eigvalsh(chi).min())
    return chi, info


# ---------------------------------------------------------------------------
# local-Z gauge fixing
# ---------------------------------------------------------------------------


def _gauge_objective_coeffs(chi: np.ndarray):
    """Harmonic coefficients of F(theta1, theta2) against the ideal CZ.

    The frame phases multiply each superoperator row by a single harmonic of
    the two angles, at most one per axis, so the whole gauge landscape is a
    3 x 3 trigonometric polynomial.
    """
    z1 = np.array([1.0, 1.0, -1.0, -1.0])
    z2 = np.array([1.0, -1.0, 1.0, -1.0])
    k1 = (0.5 * (np.kron(z1, np.ones(4)) - np.kron(np.ones(4), z1))).round().astype(int)
    k2 = (0.5 * (np.kron(z2, np.ones(4)) - np.kron(np.ones(4), z2))).round().astype(int)
    diag = np.einsum("pq,pq->p", chi_to_superop(chi),
                     chi_to_superop(ideal_cz_chi()).conj())
    coeffs = np.zeros((3, 3), dtype=complex)
    for q in range(16):
        coeffs[k1[q] + 1, k2[q] + 1] += diag[q]
    return coeffs


def _gauge_fidelity(coeffs: np.ndarray, theta1, theta2):
    orders = np.arange(-1, 2)
    e1 = np.exp(-1j * np.multiply.outer(np.asarray(theta1), orders))
    e2 = np.exp(-1j * np.multiply.outer(np.asarray(theta2), orders))
    return np.real(np.einsum("...a,ab,...b->...", e1, coeffs, e2)) / 16.0


def gauge_fix_local_z(chi: np.ndarray, grid: int = 256):
    """Find the local-Z frame in which a process is closest to the ideal CZ.

    Scans a grid x grid angle lattice, refines the best point with a simplex
    polish, and returns (chi_fixed, (theta1, theta2), fidelity).
    """
    from scipy.optimize import minimize

    coeffs = _gauge_objective_coeffs(chi)
    angles = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    landscape = _gauge_fidelity(coeffs, angles[:, None], angles[None, :])
    i, j = np.unravel_index(np.argmax(landscape), landscape.shape)

    def negated(t):
        return -_gauge_fidelity(coeffs, t[0], t[1])

    result = minimize(negated, x0=[angles[i], angles[j]], method="Nelder-Mead",
                      options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
    theta1, theta2 = (np.angle(np.exp(1j * t)) for t in result.x)
    fixed = compose_local_z(chi, theta1, theta2)
    return fixed, (float(theta1), float(theta2)), float(-result.fun)


# ---------------------------------------------------------------------------
# parametric bootstrap
# ---------------------------------------------------------------------------


def _conjugate_signature(sig):
    return tuple(e[::-1] if isinstance(e, tuple) else e for e in sig)


def bootstrap_ci(table: MomentTable, target, resamples: int = 1000,
                 seed: int = 0):
    """Bias-shifted parametric bootstrap interval for the fidelity to a target.

    Moments are redrawn around the fitted model's moments D vec(rho_hat),
    with the recorded variance of each mean and conjugate signature pairs
    kept conjugate, and each resample is refit by MLE from rho_hat.  With
    bias = median(F*) - F_hat, the 95 percent interval is the 2.5 and 97.5
    percentiles of F* minus bias, so it always contains F_hat.
    """
    if resamples < 1:
        raise ValueError("resamples must be at least 1")
    if resamples < 100:
        warnings.warn("fewer than 100 resamples gives an unreliable interval")
    problem = _StateProblem(table)
    base_rho, base_info = problem.solve()
    target_rho = _coerce_density(target)
    estimate = qops.fidelity(base_rho.matrix, target_rho)

    # draw every resampled target vector up front; conjugate pairing keeps
    # each synthetic table a Hermitian measurement record
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xB007]))
    model = problem.design @ base_rho.matrix.reshape(-1)
    drawn = _draw_hermitian_rows(problem.signatures, model,
                                 problem.variances, resamples, rng)

    mats, _ = _solve_state_batch(problem, drawn, base_rho.matrix)
    fidelities = np.array([qops.fidelity(m, target_rho) for m in mats])

    ordered = np.sort(fidelities)
    low_idx = max(0, int(np.ceil(0.025 * resamples)) - 1)
    high_idx = min(resamples - 1, int(np.ceil(0.975 * resamples)) - 1)
    bias = float(np.median(fidelities)) - float(estimate)
    low = float(ordered[low_idx]) - bias
    high = float(ordered[high_idx]) - bias
    return {
        "estimate": float(estimate),
        "bias": bias,
        "low": low,
        "high": high,
        "width": high - low,
        "resamples": int(resamples),
        "seed": int(seed),
        "fidelities": fidelities,
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def state_to_json(state, extra: dict | None = None) -> str:
    """A state in the DensityMatrix JSON schema; see DensityMatrix.to_json."""
    return DensityMatrix(_coerce_density(state)).to_json(extra)


def state_from_json(text: str) -> DensityMatrix:
    return DensityMatrix.from_json(text)


def chi_to_json(chi: np.ndarray, extra: dict | None = None) -> str:
    chi = np.asarray(chi, dtype=complex)
    payload = {
        "kind": "chi_matrix",
        "basis": list(PAULI_LABELS_2Q),
        "qubits": ["emitter", "photon"],
        "real": np.real(chi).tolist(),
        "imag": np.imag(chi).tolist(),
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=2)


def chi_from_json(text: str) -> np.ndarray:
    payload = json.loads(text)
    if payload.get("kind") != "chi_matrix":
        raise ValueError("not a serialized chi matrix")
    if tuple(payload.get("basis", ())) != PAULI_LABELS_2Q:
        raise ValueError("unexpected chi basis ordering")
    return np.asarray(payload["real"]) + 1j * np.asarray(payload["imag"])
