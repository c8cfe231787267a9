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
momentum point's residual is carried as the same combination of residuals,
so an iteration costs one product with the design and one with its adjoint,
and the fit stops once an accepted step moves the iterate by less than
STOP_TOL in Frobenius norm (PROCESS_STOP_TOL for a process), a test that
does not depend on the scale of the variances.  The projection onto physical states is the eigenvalue simplex
projection from :mod:`slowlight.qops`.

Each A_j is a Kronecker product of single-mode 2 x 2 maps with 0/1 entries,
so the 4^n x 4^n design that maps vec(rho) to the moments, in the table's
own product layout, is built once per mode count as a sparse matrix with
5^n nonzeros.  Its first row, the identity signature's, is the unit trace;
every fit runs on the rows past it, and the interval's weights solve the
whole square design.  The gradient step is 1 / (2 lambda_max) of the weighted
normal operator D+ W D, with lambda_max found by Lanczos iteration from a
fixed start vector, so no 4^n x 4^n Hessian is ever formed for a state fit
and the step is reproducible bit for bit.

Process tomography reconstructs the chi matrix of the emitter-photon CZ gate,
E(rho) = sum_nm chi_nm P_n rho P_m+, in the two-qubit Pauli product basis
ordered II, IX, IY, IZ, XI, ..., ZZ (first factor emitter, second photon).
The data grid is 16 product preparations crossed with the 15 nontrivial
correlators sigma_i (x) a+^n a^m.  Preparation errors are modelled by a
generalized prep superoperator: thermal emitter population before the prep
pulse, the prep unitary itself, then photon loss.  Fitting with the true
prep model corrects SPAM; fitting with ideal preps shows the uncorrected
bias.  The chi matrix is kept Hermitian, PSD and trace-preserving inside
the same monotone projected-gradient loop.  Its projection onto that set,
min 1/2 ||X - C||^2 over X >= 0 with A(X) = I, is solved on the dual: the
trace-preservation map A has only 16 (Hermitian 4 x 4) outputs and
A A+ = 64 I, so X(y) = Pi_PSD(C + A+ y) and a semismooth Newton method on
the 16-dimensional y, with the generalized Jacobian A dPi A+ of the PSD
projection and an Armijo line search, converges quadratically (Qi & Sun,
SIAM J. Matrix Anal. Appl. 28, 360 (2006)).  Each trial point costs one
16 x 16 eigendecomposition (LAPACK zheevr), and the fit carries y from one
iteration to the next, so a projection takes two or three of them.  The
result is PSD by construction and trace-preserving to the dual tolerance.

A reconstructed chi is only defined up to local Z rotations on either qubit,
because virtual-Z frame choices commute through the dispersive readout.
:func:`gauge_fix_local_z` scans a 256 x 256 grid of frame angles and polishes
the best point with Newton steps, reporting the frame in which the gate is
closest to CZ.

Confidence intervals are for the direct (linear) fidelity estimate, not for
the MLE.  The overlap Tr(rho sigma) with a target sigma, the fidelity when
sigma is pure, is linear in rho, and the moments with the unit trace
determine rho, so it is one fixed weighted sum c_0 + sum_j c_j m_j of the
measured means.  Its standard error is
se = (sum_{j>=1} |c_j|^2 v_j / N)^(1/2), with v_j the per-shot variances
and N the shot count, and the interval is the estimate -+ z se, z being the
normal quantile of a two-sided 95 percent interval.  For a Hermitian sigma
the weights are conjugate where the moments are, c_p = conj(c_j) on a
conjugate pair and real on a self-conjugate row, so se^2 is exactly the
variance of c . m* under normal draws of the means that keep conjugate
pairs conjugate: a parametric bootstrap would only sample it.  The table
records no covariance between signatures, so each mean's error counts
alone; on the cluster shot tables measured, where the covariances that
shots share would cancel part of it, that leaves the interval slightly
wide.  No fit enters, so the positivity constraint that biases the MLE
never does, and the interval is not clipped to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import zheevr

from . import qops
from .noise import _readout_fidelity, amplitude_damping_kraus
from .protocol import DensityMatrix, _photon_count, _state_matrix
from .shots import MomentTable

# Frobenius bounds on the step that ends a fit.  The state fits are the
# worse conditioned: at 1e-9 they ended up to 1.9e-7 from the converged
# fidelity on the benchmark's tables, at 3e-10 within 5.6e-8, while the
# process fit at 1e-9 ended within 1.8e-8 of its converged gauge fidelity
STOP_TOL = 3e-10
PROCESS_STOP_TOL = 1e-9
MAX_ITERS = 100_000
VARIANCE_FLOOR = 1e-12

PAULI_LABELS_2Q = tuple(a + b for a in "IXYZ" for b in "IXYZ")

_PAULIS_2Q = np.stack([np.kron(qops.PAULIS[l[0]], qops.PAULIS[l[1]]) for l in PAULI_LABELS_2Q])

# photon-side operator basis for the correlator grid: I, a+, a, a+a
_PHOTON_OPS = ((0, 0), (1, 0), (0, 1), (1, 1))
CORRELATOR_LABELS = tuple(
    (p, op) for p in "IXYZ" for op in _PHOTON_OPS if not (p == "I" and op == (0, 0))
)


def moments_from_state(state, variance: float = 1.0, count: int = 1,
                       variance_source: MomentTable | None = None) -> MomentTable:
    """Exact moment table of a known state, for round trips and solver checks.

    Every signature gets the same variance so the fit is uniformly weighted,
    unless ``variance_source`` supplies a measured table of the same layout:
    then its per-shot variances carry over, and ``count`` sets the number of
    shots the table stands for.  That is how a table at an arbitrary
    measurement budget is written down without synthesizing the raw records:
    per-shot variances are a property of the detection noise alone, so scaling
    the count rescales the variance of every mean by the usual 1/N law.
    """
    rho = _state_matrix(state)
    n_modes = _photon_count(rho.shape[0])
    means = _design_for_modes(n_modes) @ rho.reshape(-1)
    if variance_source is not None:
        return MomentTable(variance_source.mode_bases, means,
                           variance_source.variances, count)
    return MomentTable(("",) * n_modes, means, np.full(means.size, float(variance)), count)


def resample_moments(table: MomentTable, seed: int = 0) -> MomentTable:
    """One parametric replica of a moment table.

    Every mean is redrawn from a normal around the recorded mean with the
    recorded variance of the mean, conjugate signature pairs staying exactly
    conjugate; variances and the count carry over unchanged.  Replicas of an
    exact-mean table stand in for independently measured datasets at the
    same budget, which is how repeated-experiment studies are run without
    regenerating raw shot records each time.

    A self-conjugate row is real-valued and gets a real draw at full
    variance; a conjugate pair splits its variance over the two quadratures
    and the partner row mirrors the draw.  Each row j <= partner(j), in
    turn, takes one normal for its real part and, if paired, one for its
    imaginary part, all from one call.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x5EED]))
    partners = qops.moment_layout(table.mode_bases)[1]
    means, variances = table.means, table.variances / table.count
    rows = np.flatnonzero(partners >= np.arange(partners.size))
    pairs = partners[rows] != rows
    first = np.cumsum(1 + pairs) - (1 + pairs)
    normals = rng.standard_normal(rows.size + np.count_nonzero(pairs))
    real, pair = rows[~pairs], rows[pairs]
    drawn = np.array(means, dtype=complex)
    drawn[real] = (np.real(means[real])
                   + np.sqrt(variances[real]) * normals[first[~pairs]])
    drawn[pair] = means[pair] + np.sqrt(variances[pair] / 2.0) * (
        normals[first[pairs]] + 1j * normals[first[pairs] + 1])
    drawn[partners[pair]] = drawn[pair].conj()
    return MomentTable(table.mode_bases, drawn, table.variances, table.count)


def _weights(variances: np.ndarray) -> np.ndarray:
    """Inverse variances, floored at VARIANCE_FLOOR times the largest."""
    if np.any(variances < 0.0):
        raise ValueError("moment variances must be non-negative")
    floor = VARIANCE_FLOOR * float(variances.max())
    return 1.0 / np.maximum(variances, max(floor, 1e-300))


# ---------------------------------------------------------------------------
# shared monotone accelerated projected-gradient core
# ---------------------------------------------------------------------------


def _curvature_step(design, weights) -> float:
    """Gradient step 1 / (2 lambda_max) of ||sqrt(w)(design @ x - m)||^2.

    lambda_max of the normal operator D+ W D comes from Lanczos iteration on
    matrix-vector products, for a sparse or a dense design alike, without
    forming D+ W D.  ARPACK's default start vector is random, so the start is
    fixed to make every fit that uses the step reproducible bit for bit.
    """
    dim = design.shape[1]
    adjoint = design.conj().T
    normal = spla.LinearOperator(
        (dim, dim), matvec=lambda v: adjoint @ (weights * (design @ v)),
        dtype=complex)
    lam = float(spla.eigsh(normal, k=1, which="LA", tol=0,
                           v0=np.ones(dim, dtype=complex),
                           return_eigenvectors=False)[0])
    if lam <= 0.0:
        raise ValueError("design matrix has no weight")
    return 1.0 / (2.0 * lam)


def _monotone_apg(design, weights, targets, project, x0, stop_tol):
    """Minimise ||sqrt(w)(design @ x - targets)||^2 over project's convex set.

    x is the flattened matrix variable.  Momentum follows FISTA, but any
    candidate that fails to lower the objective is dropped and the momentum
    restarted from the incumbent, so the recorded objective trace is
    non-increasing by construction.  Momentum is also restarted whenever the
    incoming velocity turns against the latest descent direction, which
    kills the slow objective rippling an ill-conditioned quadratic otherwise
    produces under plain acceleration.

    The residual design @ x - targets is affine in x, so the momentum point's
    residual is the same combination of its two iterates' residuals and is
    carried along rather than recomputed: each iteration makes one product
    with the design, for the candidate, and one with its adjoint, for the
    gradient at the momentum point.

    The fit stops once an accepted projected-gradient step moves the
    iterate by less than `stop_tol` in Frobenius norm.  The step length
    1 / (2 lambda_max) scales inversely with the weights, so the test does
    not depend on the scale of the variances, and on a unit-trace iterate it
    tracks the KKT residual to within one iteration.  Two consecutive
    rejected steps mean the plain gradient step itself made no progress,
    which only happens at a fixed point of the projected gradient map, so
    the loop stops there too.  info["step_norm"] is the last accepted step.
    """
    step = _curvature_step(design, weights)
    adjoint = design.conj().T

    def objective(resid):
        return float(np.real(np.sum(weights * np.abs(resid) ** 2)))

    def descend(point, resid):
        return project(point - (2.0 * step) * (adjoint @ (weights * resid)))

    x = project(x0)
    resid_x = design @ x - targets
    fx = objective(resid_x)
    y, resid_y = x, resid_x
    t = 1.0
    trace = [fx]
    stalled = False
    converged = False
    moved = np.inf
    iterations = 0
    for iterations in range(1, MAX_ITERS + 1):
        z = descend(y, resid_y)
        resid_z = design @ z - targets
        fz = objective(resid_z)
        if fz <= fx:
            moved = float(np.linalg.norm(z - y))
            if np.real(np.vdot(y - z, z - x)) > 0.0:
                t = 1.0
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            y = z + beta * (z - x)
            resid_y = resid_z + beta * (resid_z - resid_x)
            x, resid_x, fx, t = z, resid_z, fz, t_next
            stalled = False
            trace.append(fx)
            if moved < stop_tol:
                converged = True
                break
        else:
            trace.append(fx)
            if stalled:
                converged = True
                break
            y, resid_y, t, stalled = x, resid_x, 1.0, True
    if not converged:
        raise RuntimeError(
            f"MLE solver did not converge within {MAX_ITERS} iterations"
        )
    kkt = float(np.linalg.norm(x - descend(x, resid_x)))
    return x, {
        "objective": fx,
        "iterations": iterations,
        "kkt_residual": kkt,
        "step_norm": moved,
        "objective_trace": np.asarray(trace),
    }


# ---------------------------------------------------------------------------
# state tomography
# ---------------------------------------------------------------------------


# one mode's moment map: row 2n + m for the signature (n, m), column 2i + j
# for rho[i, j], so a row dotted with vec(rho) is Tr((a+)^n a^m rho)
_MODE_MAP = sp.csr_matrix(np.array([
    qops.single_mode_moment(n, m).T.reshape(-1) for n, m in qops.MODE_ORDERS
]))


@lru_cache(maxsize=8)
def _design_for_modes(n_modes: int):
    """Square sparse moment design: row j maps the row-major vec(rho) to the
    moment Tr(A_j rho) of signature j of qops.moment_layout.

    Row j is moment_operator(signature j).T.reshape(-1).  The design is the
    Kronecker power of the single-mode map, whose rows are already in the
    product layout and whose columns interleave (i_1, j_1, i_2, j_2, ...);
    the columns are reordered to row-major (i_1, ..., i_n, j_1, ..., j_n).
    Row 0, the identity signature's, is vec(I), the unit trace.  The cached
    matrix is read-only.
    """
    design = _MODE_MAP
    for _ in range(n_modes - 1):
        design = sp.kron(design, _MODE_MAP, format="csr")
    columns = np.arange(4**n_modes).reshape((2, 2) * n_modes).transpose(
        list(range(0, 2 * n_modes, 2)) + list(range(1, 2 * n_modes, 2)))
    design = design[:, columns.reshape(-1)]
    # canonical (sorted, no duplicates) before freezing, so that scipy never
    # has to tidy the shared arrays in place
    design.sum_duplicates()
    for array in (design.data, design.indices, design.indptr):
        array.setflags(write=False)
    return design


class _StateProblem:
    """Design, targets and weights of one table.

    The design is the cached sparse matrix of :func:`_design_for_modes`,
    which depends only on the mode count, past its identity row.  The
    targets are the table's means past the identity, which comes first, and
    the weights the inverse variances of those means.
    """

    def __init__(self, table: MomentTable):
        n_modes = len(table.mode_bases)
        if n_modes == 0 or any(table.mode_bases):
            raise ValueError("state tomography needs heterodyne moments on every mode")
        # the unit-trace row is enforced by the projection already, and the
        # huge weight a floored zero variance would give it only wrecks the
        # step size
        self.design = _design_for_modes(n_modes)[1:]
        self.dim = 2**n_modes
        self.targets = table.means[1:]
        self.variances = table.variances[1:] / table.count
        self.weights = _weights(self.variances)

    def solve(self):
        dim = self.dim

        def project(x):
            return qops.project_density(x.reshape(dim, dim)).reshape(-1)

        start = (np.eye(dim, dtype=complex) / dim).reshape(-1)
        x, info = _monotone_apg(self.design, self.weights, self.targets, project,
                                start, STOP_TOL)
        rho = x.reshape(dim, dim)
        return DensityMatrix(0.5 * (rho + rho.conj().T)), info


def moment_objective(table: MomentTable, state) -> float:
    """Weighted least-squares objective of a candidate state against the table."""
    problem = _StateProblem(table)
    resid = problem.design @ _state_matrix(state).reshape(-1) - problem.targets
    return float(np.real(np.sum(problem.weights * np.abs(resid) ** 2)))


def mle_state(table: MomentTable):
    """Reconstruct the density matrix that best explains a moment table.

    Monotone accelerated projected gradient on the cached sparse moment
    design, from the maximally mixed state.  Each iteration makes one sparse
    product with the design and one with its adjoint.  The fit stops once an
    accepted step moves the unit-trace iterate by less than STOP_TOL in
    Frobenius norm, or raises RuntimeError after MAX_ITERS; the step length is
    the inverse curvature, so scaling every variance by one factor changes
    neither the iterates nor the stop.

    Returns (state, info) where info carries the final objective, iteration
    count, projected-gradient KKT residual, `step_norm` (the last accepted
    step, the one that ended the fit) and the full objective trace.
    """
    return _StateProblem(table).solve()


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


# column 16 n + m is vec(P_n (x) P_m*), the superoperator of chi_nm = 1; the
# columns are orthogonal with squared norm 16
_SUPEROP_BASIS = np.einsum("nab,mcd->acbdnm", _PAULIS_2Q, _PAULIS_2Q.conj(),
                           order="C").reshape(256, 256)


def chi_to_superop(chi: np.ndarray) -> np.ndarray:
    """Row-major superoperator S with vec(E(rho)) = S @ vec(rho).  Raises
    ValueError if chi has a NaN or infinite entry."""
    chi = qops.require_finite(np.asarray(chi, dtype=complex), "chi")
    return (_SUPEROP_BASIS @ chi.reshape(-1)).reshape(16, 16)


def superop_to_chi(s: np.ndarray) -> np.ndarray:
    """Inverse of chi_to_superop.  Raises ValueError if s has a NaN or
    infinite entry."""
    s = qops.require_finite(np.asarray(s, dtype=complex), "superoperator")
    return (_SUPEROP_BASIS.conj().T @ s.reshape(-1)).reshape(16, 16) / 16.0


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
    with the process and does.  Raises ValueError if chi or an angle is NaN
    or infinite.
    """
    theta1, theta2 = qops.require_finite([theta1, theta2], "theta")
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
    unitary acts, then the photon passes the lossy waveguide.  An emitter
    readout that assigns the right outcome with probability F shrinks every
    correlator with a nontrivial Pauli by 2F - 1; noise.confuse_readout is
    the same error at the level of single shots.  The default model is ideal.
    """

    loss: float = 0.0
    thermal_pop: float = 0.0
    readout_fidelity: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if not 0.0 <= self.thermal_pop < 1.0:
            raise ValueError("thermal population must be in [0, 1)")
        _readout_fidelity(self.readout_fidelity)


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    return (np.cos(angle / 2.0) * qops.ID2
            - 1j * np.sin(angle / 2.0) * axis).astype(complex)


_PREP_SINGLE = (
    qops.ID2.astype(complex),          # |0>
    qops.SX.astype(complex),           # |1>
    _rotation(qops.SY, np.pi / 2.0),   # |+>
    _rotation(qops.SX, -np.pi / 2.0),  # |+i>
)


def prep_states(model: PrepModel = PrepModel()) -> np.ndarray:
    """The 16 two-qubit input states of the QPT grid, shape (16, 4, 4)."""
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
    ops = [np.kron(qops.PAULIS[p], qops.single_mode_moment(*op))
           for p, op in CORRELATOR_LABELS]
    return np.stack(ops)


@lru_cache(maxsize=8)
def _process_design(model: PrepModel):
    """Design matrix mapping vec(chi) to the 240 correlator means.

    Cached per prep model (a frozen dataclass), so simulating a grid and
    fitting it build the design once; the cached array is read-only.
    """
    states = prep_states(model)
    measure = _correlator_ops()
    shrink = np.array([
        2.0 * model.readout_fidelity - 1.0 if p != "I" else 1.0
        for p, _ in CORRELATOR_LABELS
    ])
    # Tr(O_j P_n rho_i P_m+) = sum_ac (P_n rho_i)[a, c] (P_m+ O_j)[c, a], rows
    # ordered prep-major: (prep 0, correlator 0..14), (prep 1, ...)
    left = _PAULIS_2Q @ states[:, None]
    right = _PAULIS_2Q.conj().transpose(0, 2, 1) @ measure[:, None]
    design = np.tensordot(left, right, axes=([2, 3], [3, 2])).transpose(0, 2, 1, 3)
    design = (design * shrink[None, :, None, None]).reshape(16 * 15, 256)
    design.setflags(write=False)
    return design


def simulate_process_measurements(chi: np.ndarray, model: PrepModel = PrepModel(),
                                  noise: float = 0.0, seed: int = 0):
    """Synthetic correlator grid for a known process under a SPAM model.

    Returns (means, variances) with shape (16, 15).  Gaussian noise of the
    given scale is added independently to real and imaginary parts, and the
    reported variance is the matching complex variance.  A noise scale that
    is not finite and non-negative raises ValueError.
    """
    chi = qops.require_finite(np.asarray(chi, dtype=complex), "chi")
    if not (np.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be finite and non-negative, got {noise!r}")
    design = _process_design(model)
    means = design @ chi.reshape(-1)
    if noise > 0.0:
        rng = np.random.Generator(np.random.Philox(key=[seed, 0xB007]))
        means = means + noise * (rng.standard_normal(means.size)
                                 + 1j * rng.standard_normal(means.size))
        variances = np.full(means.size, 2.0 * noise * noise)
    else:
        variances = np.ones(means.size)
    return means.reshape(16, 15), variances.reshape(16, 15)


# affine trace-preservation map: row 4 a + c gives entry (a, c) of
# sum chi_nm P_m+ P_n, which must be the identity _TP_B
_TP_A = np.einsum("mba,nbc->acnm", _PAULIS_2Q.conj(), _PAULIS_2Q, order="C").reshape(16, 256)
_TP_B = np.eye(4, dtype=complex).reshape(-1)
# A+ y is y @ _TP_ADJ reshaped to 16 x 16: row k is the flattened T_k = A+ e_k
_TP_ADJ = _TP_A.conj()
# the same stack as one (a, (k, b)) matrix, so that V+ T_k V for every k is
# two flat products rather than 16 batched ones
_TP_ROWS = _TP_ADJ.reshape(16, 16, 16).transpose(1, 0, 2).reshape(16, 256)
_EYE16 = np.eye(16)
CPTP_TOL = 1e-12


def _eigh(h: np.ndarray):
    """Eigenvalues and eigenvectors of the Hermitian h from its lower triangle,
    as np.linalg.eigh, but through LAPACK's zheevr without numpy's wrapper."""
    vals, vecs, _, _, info = zheevr(h, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"zheevr failed with info {info}")
    return vals, vecs


def _cptp_newton(c: np.ndarray, y: np.ndarray, max_iters: int):
    """Project the 16 x 16 c onto CPTP from the dual start y.

    Only the Hermitian part of c matters, as the set is Hermitian.  Minimises
    phi(y) = 1/2 ||Pi_PSD(c + A+ y)||^2 - Re<b, y>, whose gradient is the
    trace-preservation residual A X(y) - b.  Returns X, the final y and the
    number of eigendecompositions made.

    Each trial point costs one zheevr call on c + A+ y, with A+ y one flat
    (16) x (16, 256) product.  The Newton matrix A dPi A+ takes the rotated
    stack V+ T_k V from two flat products with the module's (a, (k, b))
    layout of the T_k, and reuses the clipped eigenvalues of the trial point.
    """
    c = 0.5 * (c + c.conj().T)

    def primal(y):
        vals, vecs = _eigh(c + (y @ _TP_ADJ).reshape(16, 16))
        kept = np.maximum(vals, 0.0)
        return vals, vecs, kept, (vecs * kept) @ vecs.conj().T

    vals, vecs, kept, x = primal(y)
    resid = _TP_A @ x.reshape(-1) - _TP_B
    steps = 1
    for _ in range(max_iters):
        norm = float(np.linalg.norm(resid))
        if norm <= CPTP_TOL:
            return x, y, steps
        # generalized Jacobian A V A+ of the PSD projection, in the
        # eigenbasis: V scales entry (i, j) by the divided difference of
        # max(lambda, 0) at (lambda_i, lambda_j)
        pos = vals > 0.0
        mixed = pos[:, None] != pos[None, :]
        gap = np.where(mixed, vals[:, None] - vals[None, :], 1.0)
        omega = np.where(mixed, (kept[:, None] - kept[None, :]) / gap,
                         pos[:, None] & pos[None, :])
        # ((i, k), j) entries of V+ T_k V, reordered to rows k of (i, j)
        rotated = (vecs.conj().T @ _TP_ROWS).reshape(256, 16) @ vecs
        rotated = rotated.reshape(16, 16, 16).transpose(1, 0, 2).reshape(16, 256)
        jac = (rotated.conj() * omega.reshape(-1)) @ rotated.T
        step = np.linalg.solve(jac + min(1.0, norm) * _EYE16, -resid)
        slope = float(np.real(np.vdot(resid, step)))
        t = 1.0
        while True:
            vals_t, vecs_t, kept_t, x_t = primal(y + t * step)
            resid_t = _TP_A @ x_t.reshape(-1) - _TP_B
            steps += 1
            # the decrease of phi, formed without cancelling its two halves;
            # near the solution it sinks below roundoff, so a full step that
            # halves the residual is taken as it is
            gain = (0.5 * np.real(np.vdot(x_t - x, x_t + x))
                    - t * np.real(np.vdot(_TP_B, step)))
            if (gain <= 1e-4 * t * slope or t < 1e-10
                    or (t == 1.0 and np.linalg.norm(resid_t) <= 0.5 * norm)):
                break
            t *= 0.5
        y = y + t * step
        vals, vecs, kept, x, resid = vals_t, vecs_t, kept_t, x_t, resid_t
    raise RuntimeError(
        f"CPTP projection did not reach residual {CPTP_TOL:.1e} within {max_iters} "
        f"Newton steps (residual {np.linalg.norm(resid):.3e})")


def project_cptp(chi: np.ndarray, max_iters: int = 500) -> np.ndarray:
    """Nearest (Frobenius) Hermitian, PSD, trace-preserving chi.

    Semismooth Newton on the dual of the projection, from y = 0 (module
    docstring).  The result is PSD by construction; CPTP_TOL bounds its
    trace-preservation residual, the dual gradient norm.  Raises
    RuntimeError if `max_iters` Newton steps do not reach it, and
    ValueError if chi has a NaN or infinite entry.
    """
    chi = qops.require_finite(np.asarray(chi, dtype=complex), "chi")
    x, _, _ = _cptp_newton(chi.reshape(16, 16), np.zeros(16, dtype=complex),
                           max_iters)
    return x


def cptp_residual(chi: np.ndarray) -> float:
    """Frobenius distance of sum chi_nm P_m+ P_n from the identity.  Raises
    ValueError if chi has a NaN or infinite entry."""
    chi = qops.require_finite(np.asarray(chi, dtype=complex), "chi")
    return float(np.linalg.norm(_TP_A @ chi.reshape(-1) - _TP_B))


def mle_process(means: np.ndarray, variances: np.ndarray,
                model: PrepModel = PrepModel()):
    """Fit a CPTP chi matrix to the 16 x 15 correlator grid.

    Passing the true prep and readout model corrects SPAM; the default
    PrepModel() fits against ideal preparations and shows the uncorrected
    bias.  The fit is the state fit's monotone projected-gradient loop on
    the cached 240 x 256 process design: one product with the design and one
    with its adjoint per iteration, stopping once an accepted step moves chi
    by less than PROCESS_STOP_TOL in Frobenius norm, whatever the scale of
    the variances, or raising RuntimeError after MAX_ITERS.  Each candidate
    is projected onto CPTP by the dual Newton method of
    :func:`project_cptp`, started from the previous projection's dual
    point, which changes little between iterations.

    Returns (chi, info) with the state fit's info fields (objective,
    iterations, kkt_residual, step_norm, objective_trace) plus the final
    CPTP residual, the smallest eigenvalue and `projection_steps`, the
    number of 16 x 16 eigendecompositions the projections made.  Raises
    ValueError if the grid has the wrong size or a NaN or infinite entry.
    """
    means = np.asarray(means, dtype=complex).reshape(-1)
    variances = np.asarray(variances, dtype=float).reshape(-1)
    if means.size != 240 or variances.size != 240:
        raise ValueError("process data must cover 16 preparations x 15 correlators")
    qops.require_finite(means, "means")
    qops.require_finite(variances, "variances")
    design = _process_design(model)
    weights = _weights(variances)

    dual = np.zeros(16, dtype=complex)
    steps = 0

    def project(x):
        nonlocal dual, steps
        chi, dual, made = _cptp_newton(x.reshape(16, 16), dual, 500)
        steps += made
        return chi.reshape(-1)

    # start at the identity process so nothing nudges the fit toward any gate
    start = np.zeros(256, dtype=complex)
    start[0] = 1.0
    x, info = _monotone_apg(design, weights, means, project, start,
                            PROCESS_STOP_TOL)
    info["projection_steps"] = steps
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


def _gauge_fidelity(coeffs: np.ndarray, theta1, theta2, d1: int = 0, d2: int = 0):
    """F(theta1, theta2), or its d1-th derivative in theta1 and d2-th in
    theta2: each derivative brings down -i times the harmonic order."""
    orders = np.arange(-1, 2)
    e1 = (-1j * orders) ** d1 * np.exp(-1j * np.multiply.outer(np.asarray(theta1), orders))
    e2 = (-1j * orders) ** d2 * np.exp(-1j * np.multiply.outer(np.asarray(theta2), orders))
    return np.real(np.einsum("...a,ab,...b->...", e1, coeffs, e2)) / 16.0


def gauge_fix_local_z(chi: np.ndarray):
    """Find the local-Z frame in which a process is closest to the ideal CZ.

    Scans a 256 x 256 angle lattice and polishes the best point with Newton
    steps on the closed-form gradient and Hessian of the 3 x 3 harmonic
    polynomial, while the Hessian there is negative definite.  Newton
    converges quadratically, so the angles come out to roundoff even though
    the fidelity is flat to second order at its maximum.  Returns
    (chi_fixed, (theta1, theta2), fidelity).  Raises ValueError if chi has a
    NaN or infinite entry.
    """
    chi = qops.require_finite(np.asarray(chi, dtype=complex), "chi")
    coeffs = _gauge_objective_coeffs(chi)
    angles = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    landscape = _gauge_fidelity(coeffs, angles[:, None], angles[None, :])
    i, j = np.unravel_index(np.argmax(landscape), landscape.shape)
    theta = np.array([angles[i], angles[j]])
    for _ in range(50):
        grad = np.array([_gauge_fidelity(coeffs, *theta, 1, 0),
                         _gauge_fidelity(coeffs, *theta, 0, 1)])
        cross = _gauge_fidelity(coeffs, *theta, 1, 1)
        hess = np.array([[_gauge_fidelity(coeffs, *theta, 2, 0), cross],
                         [cross, _gauge_fidelity(coeffs, *theta, 0, 2)]])
        if not (hess[0, 0] < 0.0 and np.linalg.det(hess) > 0.0):
            break
        step = np.linalg.solve(hess, grad)
        theta = theta - step
        if np.max(np.abs(step)) < 1e-12:
            break
    theta1, theta2 = np.angle(np.exp(1j * theta))
    fixed = compose_local_z(chi, theta1, theta2)
    return fixed, (float(theta1), float(theta2)), float(_gauge_fidelity(coeffs, theta1, theta2))


# ---------------------------------------------------------------------------
# direct-fidelity interval
# ---------------------------------------------------------------------------


# normal quantile of a two-sided 95 percent interval, scipy.special.ndtri(0.975)
Z_95 = 1.959963984540054


def bootstrap_ci(table: MomentTable, target, resamples: int = 1000,
                 seed: int = 0):
    """95 percent interval for the direct fidelity to a target, in closed form.

    The estimate is linear in the moments.  The moment design A is square and
    invertible, its identity row being the unit trace vec(I), and the weights
    c solve A^T c = vec(sigma^T), so Tr(rho sigma) = c_0 + sum_j c_j m_j for
    every rho: the identity moment enters as 1, the unit trace the fit also
    enforces.  For a pure target sigma that overlap is the fidelity.  Its
    standard error is se = (sum_{j>=1} |c_j|^2 v_j / N)^(1/2) from the
    table's per-shot variances v_j and count N, and the interval is
    estimate -+ Z_95 se.  A Hermitian sigma puts c_p = conj(c_j) on every
    conjugate pair (j, p) and a real c_j on a self-conjugate row, so se^2 is
    exactly the variance of c . m* over normal draws m* of the means that
    keep the pairs conjugate, which a parametric bootstrap would only
    sample.  Neither the estimate nor the interval is clipped to [0, 1]:
    a linear estimate can pass 1, and clipping would break the interval's
    calibration there.

    `resamples` and `seed` are accepted and unused: nothing is drawn.  They
    are echoed in the result, with "estimate", "low", "high", "width" and
    "se".  Raises ValueError if the target's dimension is not the table's.
    """
    sigma = _state_matrix(target)
    problem = _StateProblem(table)
    if sigma.shape[0] != problem.dim:
        raise ValueError(f"target has dimension {sigma.shape[0]}, but the "
                         f"table's states have dimension {problem.dim}")
    design = _design_for_modes(len(table.mode_bases))
    weights = spla.spsolve(design.T, sigma.T.reshape(-1))
    estimate = float(np.real(weights[0] + weights[1:] @ problem.targets))
    se = float(np.sqrt(np.sum(np.abs(weights[1:]) ** 2 * problem.variances)))
    low, high = estimate - Z_95 * se, estimate + Z_95 * se
    return {
        "estimate": estimate,
        "low": low,
        "high": high,
        "width": high - low,
        "se": se,
        "resamples": int(resamples),
        "seed": int(seed),
    }
