"""Probe kernels for the host clock (perfbench/calib.py): fixed miniatures
of the code that dominates each workload, built on numpy and scipy only."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

_N_SITES = 54
_LATTICE = sp.diags([np.ones(_N_SITES - 1), np.ones(_N_SITES - 1)], [-1, 1],
                    format="csr", dtype=complex)
_T_ENV = np.linspace(0.0, 1.0, 400)
_XI_ENV = _T_ENV ** 2


def rk4_kernel(steps: int = 25) -> complex:
    """Miniature of dynamics.evolve: RK4 on a 54-site tridiagonal lattice
    with a scalar-interpolated time-dependent coupling."""
    def apply(t, psi):
        out = _LATTICE @ psi
        g = float(np.interp(t, _T_ENV, _XI_ENV, left=0.0, right=0.0))
        out[0] += g * psi[1]
        out[1] += g * psi[0]
        return out

    psi = np.zeros(_N_SITES, dtype=complex)
    psi[0] = 1.0
    dt, t = 1e-2, 0.0
    for _ in range(steps):
        k1 = apply(t, psi)
        k2 = apply(t + 0.5 * dt, psi - 0.5j * dt * k1)
        k3 = apply(t + 0.5 * dt, psi - 0.5j * dt * k2)
        k4 = apply(t + dt, psi - 1j * dt * k3)
        psi = psi - (1j * dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return psi[0]


def array_kernel(rows: int = 1 << 12) -> float:
    """Miniature of shot synthesis and the batched fits: seeded normal
    draws, row-wise reductions over a chunk-sized complex array (as in the
    sequential Husimi sampler), and small dense linear algebra."""
    rng = np.random.Generator(np.random.Philox(key=[7, 11]))
    cond = rng.standard_normal((rows, 2, 4)) + 1j * rng.standard_normal((rows, 2, 4))
    p0 = np.einsum("sr,sr->s", cond[:, 0], cond[:, 0].conj()).real
    cross = np.einsum("sr,sr->s", cond[:, 0], cond[:, 1].conj())
    alpha = cross / (p0 + 1.0) + 0.5 * (rng.standard_normal(rows)
                                         + 1j * rng.standard_normal(rows))
    cond = cond[:, 0] + alpha[:, None].conj() * cond[:, 1]
    cond /= np.linalg.norm(cond, axis=1, keepdims=True)
    m = cond[:1024].reshape(256, 16)
    h = m.conj().T @ m
    for _ in range(2):
        h = h @ h.conj().T
        h /= np.linalg.norm(h)
    return float(np.linalg.eigvalsh(h)[-1])
