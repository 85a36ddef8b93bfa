"""Shared test oracles and builders.

The oracles here are deliberately independent of the package internals:
cofactor expansion for determinants, explicit index loops for the
permutation maps, and the pure-state closed form for concurrence. They stay
naive so that agreement with the fast implementations is meaningful.
"""

from __future__ import annotations

import numpy as np

from permutangle import DensityMatrix, haar_random_pure, reduce, substream


def cofactor_determinant(m: np.ndarray) -> complex:
    """Recursive cofactor (Laplace) expansion along the first row."""
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    for col in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), col, axis=1)
        total += (-1) ** col * a[0, col] * cofactor_determinant(minor)
    return total


def realign_by_index(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Realignment from its defining index map, one entry at a time."""
    out = np.zeros((d1 * d1, d2 * d2), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for a in range(d2):
                for b in range(d2):
                    out[i * d1 + j, a * d2 + b] = m[i * d2 + a, j * d2 + b]
    return out


def partial_transpose_by_index(m: np.ndarray, d1: int, d2: int, subsystem: int) -> np.ndarray:
    """Partial transpose from its defining index map, one entry at a time."""
    out = np.zeros_like(np.asarray(m, dtype=complex))
    for i in range(d1):
        for j in range(d1):
            for a in range(d2):
                for b in range(d2):
                    if subsystem == 2:
                        out[i * d2 + a, j * d2 + b] = m[i * d2 + b, j * d2 + a]
                    else:
                        out[i * d2 + a, j * d2 + b] = m[j * d2 + a, i * d2 + b]
    return out


def random_complex_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.uniform(-1, 1, (rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols))


def random_density_matrix(rng: np.random.Generator, rank: int) -> DensityMatrix:
    """Random two-qubit density matrix of the given rank (1 to 4)."""
    if rank == 1:
        return haar_random_pure((2, 2), rng).density_matrix()
    psi = haar_random_pure((2, 2, rank), rng)
    return reduce(psi, (1, 2))


def haar_state(seed: int, dims=(2, 2, 2)):
    return haar_random_pure(dims, substream(seed, 0))


def pure_partial_trace_by_index(amps: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced density matrix of a pure state by explicit sums over traced indices."""
    dims = tuple(dims)
    kept = [k - 1 for k in keep]
    traced = [p for p in range(len(dims)) if p not in kept]
    t = np.asarray(amps, dtype=complex).reshape(dims)
    dk = int(np.prod([dims[p] for p in kept]))
    out = np.zeros((dk, dk), dtype=complex)
    for row in np.ndindex(*[dims[p] for p in kept]):
        for col in np.ndindex(*[dims[p] for p in kept]):
            total = 0.0 + 0.0j
            for rest in np.ndindex(*[dims[p] for p in traced]):
                a, b = [0] * len(dims), [0] * len(dims)
                for pos, val in zip(kept, row):
                    a[pos] = val
                for pos, val in zip(kept, col):
                    b[pos] = val
                for pos, val in zip(traced, rest):
                    a[pos] = b[pos] = val
                total += t[tuple(a)] * np.conj(t[tuple(b)])
            r = int(np.ravel_multi_index(row, [dims[p] for p in kept]))
            c = int(np.ravel_multi_index(col, [dims[p] for p in kept]))
            out[r, c] = total
    return out


def wootters_concurrence_truncated(m: np.ndarray, rank_eps: float = 1e-12) -> float:
    """Two-qubit concurrence from the spectrum truncated at the numerical rank.

    With rho = sum_i p_i |v_i><v_i| over the r eigenvalues above
    ``rank_eps``, the spin-flip values are the singular values of the r x r
    overlap sqrt(p_i p_j) <v_i| sigma_y x sigma_y |v_j*>, padded with zeros.
    """
    w, v = np.linalg.eigh(np.asarray(m, dtype=complex))
    w, v = np.maximum(w[::-1], 0.0), v[:, ::-1]
    r = max(1, int(np.count_nonzero(w > rank_eps)))
    sysy = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)
    vr = v[:, :r]
    overlap = np.sqrt(np.outer(w[:r], w[:r])) * (vr.conj().T @ sysy @ vr.conj())
    lam = np.zeros(4)
    lam[:r] = np.linalg.svd(overlap, compute_uv=False)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def tangle_from_r_c(r12: float, c12: float) -> float:
    """Tangle of any rank-2 purification, fixed by (r12, c12): (r^4 - c^4) / c^2.

    The identity r12^4 = c12^2 (c12^2 + tau) solved for tau; undefined at c12 = 0.
    """
    return (r12**4 - c12**4) / c12**2
