"""Small operator toolbox shared by the protocol, shot and tomography layers.

Photonic time-bin modes are truncated to the {0, 1} Fock subspace, so every
mode is a qubit and an n-photon register lives in C^(2^n).  Basis ordering is
big-endian in the photon index: bit k of the basis integer is the occupation
of photon k (photon 0 is the most significant bit).
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

import numpy as np

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# annihilator on the {|0>, |1>} subspace
A_OP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

PAULIS = {"I": ID2, "X": SX, "Y": SY, "Z": SZ}


def kron_all(ops) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def single_mode_moment(n: int, m: int) -> np.ndarray:
    """Matrix of (a^dag)^n a^m on one qubit mode, n, m in {0, 1}."""
    if n not in (0, 1) or m not in (0, 1):
        raise ValueError("moment orders are restricted to {0, 1}")
    op = ID2
    if m:
        op = A_OP @ op
    if n:
        op = A_OP.conj().T @ op
    return op


def moment_operator(signature, n_modes: int) -> np.ndarray:
    """Product operator prod_k (a_k^dag)^(n_k) a_k^(m_k).

    signature: sequence of (n_k, m_k) pairs, one per mode.
    """
    if len(signature) != n_modes:
        raise ValueError("signature length must equal mode count")
    return kron_all([single_mode_moment(n, m) for n, m in signature])


def pauli_string(label: str) -> np.ndarray:
    return kron_all([PAULIS[c] for c in label])


# one heterodyne mode's (n, m) entries, in the order of its factors 1, S, S*, |S|^2
MODE_ORDERS = ((0, 0), (0, 1), (1, 0), (1, 1))


@lru_cache(maxsize=32)
def moment_layout(mode_bases: tuple):
    """(signatures, conjugates) of a moment table over mode_bases.

    signatures: the product of each mode's entries (MODE_ORDERS for a
    heterodyne mode "", 0 and 1 for a qubit mode), first mode slowest.  Each
    mode's entries ascend, so this is also the signatures' tuple order, and
    the identity signature comes first.
    conjugates[j]: the index of signatures[j]'s conjugate, which swaps each
    heterodyne (0, 1) and (1, 0).  The cached array is read-only.
    """
    signatures = tuple(itertools.product(*((0, 1) if b else MODE_ORDERS for b in mode_bases)))
    conjugates = np.arange(len(signatures)).reshape([2 if b else 4 for b in mode_bases])
    for axis in (k for k, b in enumerate(mode_bases) if not b):
        conjugates = np.take(conjugates, [0, 2, 1, 3], axis=axis)
    conjugates = conjugates.reshape(-1)
    conjugates.setflags(write=False)
    return signatures, conjugates


def graph_state(n: int, edges) -> np.ndarray:
    """Graph state CZ^(edges) |+>^n as a 2^n vector (reference construction)."""
    dim = 2 ** n
    psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    for (a, b) in edges:
        if a == b or not (0 <= a < n) or not (0 <= b < n):
            raise ValueError(f"bad edge ({a}, {b}) for {n} vertices")
        for idx in range(dim):
            if (idx >> (n - 1 - a)) & 1 and (idx >> (n - 1 - b)) & 1:
                psi[idx] = -psi[idx]
    return psi


def stabilizer_operator(vertex: int, n: int, edges) -> np.ndarray:
    """X on `vertex`, Z on its graph neighbours, identity elsewhere."""
    labels = ["I"] * n
    labels[vertex] = "X"
    for (a, b) in edges:
        if a == vertex:
            labels[b] = "Z"
        elif b == vertex:
            labels[a] = "Z"
    return pauli_string("".join(labels))


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of real vectors (along the last axis) onto the
    probability simplex."""
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    above = u > css / np.arange(1, v.shape[-1] + 1)
    last = v.shape[-1] - 1 - np.argmax(above[..., ::-1], axis=-1)[..., None]
    theta = np.take_along_axis(css, last, axis=-1) / (last + 1.0)
    return np.maximum(v - theta, 0.0)


def project_density(rho: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) trace-one PSD matrix to each matrix of a stack (or
    to one matrix): eigenvalue simplex projection."""
    vals, vecs = np.linalg.eigh(0.5 * (rho + np.swapaxes(rho.conj(), -1, -2)))
    return (vecs * project_simplex(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def _rank_tol(vals: np.ndarray) -> float:
    """np.linalg.matrix_rank tolerance of ascending eigenvalues: dim*eps*max."""
    return len(vals) * np.finfo(float).eps * vals[-1]


def _rank_one_overlap(vals: np.ndarray, vecs: np.ndarray, other: np.ndarray):
    """lambda <psi|other|psi> if the Hermitian matrix with eigenpairs
    (vals, vecs) has numerical rank one, else None.

    Rank one means every eigenvalue but the largest, lambda, lies within
    dim * eps * lambda of zero (the np.linalg.matrix_rank tolerance); psi is
    the top eigenvector.
    """
    top = vals[-1]
    if top > 0.0 and np.all(np.abs(vals[:-1]) <= _rank_tol(vals)):
        psi = vecs[:, -1]
        return float(top * np.real(np.vdot(psi, other @ psi)))
    return None


def require_finite(array, name: str) -> np.ndarray:
    """array as an ndarray; raise ValueError naming it if an entry is NaN or
    infinite.  One isfinite reduction, so a caller checks each input once."""
    array = np.asarray(array)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} is not finite: {np.count_nonzero(~np.isfinite(array))} "
                         f"of {array.size} entries are NaN or infinite")
    return array


def require_index(value, name: str) -> int:
    """value as an int; raise ValueError naming it unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity, squared convention: (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Rank-one paths, exact to roundoff and symmetric in the arguments: a 1-D
    argument is a pure state psi and gives <psi|other|psi>; a matrix argument
    of numerical rank one (every eigenvalue but the largest, lambda, within
    dim * eps * lambda of zero, the np.linalg.matrix_rank tolerance) is
    lambda |psi><psi| from its top eigenpair and gives lambda <psi|other|psi>.
    Otherwise sqrt(rho) is taken on rho's numerical support only, and square
    roots are summed only of inner eigenvalues above the same tolerance, so
    roundoff eigenvalues add nothing.  A NaN or infinite entry raises
    ValueError naming its argument.
    """
    rho = require_finite(np.asarray(rho, dtype=complex), "rho")
    sigma = require_finite(np.asarray(sigma, dtype=complex), "sigma")
    if rho.ndim == 1 and sigma.ndim == 1:
        return float(abs(np.vdot(rho, sigma)) ** 2)
    if rho.ndim == 1:
        return float(np.real(np.vdot(rho, sigma @ rho)))
    if sigma.ndim == 1:
        return float(np.real(np.vdot(sigma, rho @ sigma)))
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    exact = _rank_one_overlap(vals, vecs, sigma)
    if exact is None:
        exact = _rank_one_overlap(*np.linalg.eigh(0.5 * (sigma + sigma.conj().T)), rho)
    if exact is not None:
        return exact
    support = vals > _rank_tol(vals)
    half = vecs[:, support] * np.sqrt(vals[support])
    inner = half.conj().T @ sigma @ half
    ivals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sum(np.sqrt(ivals[ivals > _rank_tol(ivals)])) ** 2)


def validate_density(rho: np.ndarray, tol: float = 1e-8) -> None:
    """Raise ValueError unless rho is a density matrix to within tol."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    require_finite(rho, "density matrix")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("density matrix is not Hermitian")
    trace = np.trace(rho)
    if abs(trace - 1.0) > tol:
        raise ValueError(f"density matrix trace {trace.real:.12g} is not 1")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -tol:
        raise ValueError("density matrix has a negative eigenvalue")
