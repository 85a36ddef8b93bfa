"""Correlation and entanglement measures for small quantum states.

All measures are local-unitary invariant and clamp to [0, 1] through
:func:`_clamp01`. The two-qubit measures have one implementation, the
stacked kernel :func:`measure_stack`; the scalar ``concurrence``,
``negativity``, ``r12`` and ``three_tangle`` run its steps on a stack of one.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from . import matkernel
from .errors import DimensionError
from .permutations import _local_dim, link_transform, partial_transpose, realign
from .qstate import (
    DensityMatrix,
    PureState,
    RANK_EPS,
    _require_dims,
    descending,
    eigh_psd,
    reduce_pure_stack,
)

CLAMP_TOL = 1e-9
#: Separability witness threshold: strictly above it implies entanglement.
WITNESS_THRESHOLD = (1.0 / 3.0) ** 0.75

#: sigma_y (x) sigma_y, the two-qubit spin flip, applied to a column vector:
#: reverse the basis order and negate the |00> and |11> entries.
_SPIN_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]


def _clamp01(values: list[float], what: str = "measure") -> list[float]:
    """Each value clamped into [0, 1], after checking it lies within ``CLAMP_TOL``.

    A value further out (or not a number) indicates a bug upstream and raises
    ``ValueError`` instead of being hidden. A value in (0, 1] passes through
    as it is and +-0.0 gives 0.0, both what ``min(1.0, max(0.0, value))``
    gives; any other value takes the check.
    """
    return [v if 0.0 < v <= 1.0 else 0.0 if v == 0.0 else _clamp_edge(v, what) for v in values]


def _clamp_edge(value: float, what: str) -> float:
    if not -CLAMP_TOL <= value <= 1.0 + CLAMP_TOL:
        raise ValueError(f"{what} value {value!r} outside [0, 1] beyond tolerance {CLAMP_TOL}")
    return min(1.0, max(0.0, value))


class StackMeasures(NamedTuple):
    """Per-state measures of a stack, one list of k Python numbers each."""

    rank: list[int]
    c12: list[float]
    n12: list[float]
    r12: list[float]
    #: 3-tangle of each parent; None when no parents were given.
    tau: Optional[list[float]]


def measure_stack(states) -> StackMeasures:
    """Rank, concurrence, negativity, r12 and 3-tangle of a stack of two-qubit states.

    ``states`` is a ``(k, 4, 4)`` stack of two-qubit density matrices, or a
    ``(k, 8)`` stack of three-qubit pure parents, measured through the (1, 2)
    reductions the kernel takes itself; ``tau`` holds the parents' 3-tangles
    (:func:`_tangles`), None for density matrices. Each linear-algebra step
    runs once over the stack; rank and c12 come from :func:`_wootters` or,
    for parents, :func:`_parent_ranks_and_concurrences`. Every check applies
    to each matrix and value, and the scalar arithmetic after a step runs
    per value, so each state gets the bits it gets alone.
    """
    states = np.asarray(states, dtype=complex)
    parents = states if states.ndim == 2 else None
    if parents is not None:
        if parents.shape[1] != 8:
            raise DimensionError(f"expected a (k, 8) stack of parents, got {parents.shape}")
        if not np.isfinite(parents).all():
            raise ValueError("parent amplitudes contain non-finite entries")
        states = reduce_pure_stack(parents, (2, 2, 2), (1, 2))
    rhos = matkernel.as_matrix(states, square=True, stack=True)
    if rhos.ndim != 3 or rhos.shape[1] != 4:
        raise DimensionError(f"expected a (k, 4, 4) stack of two-qubit states, got {rhos.shape}")
    if parents is None:
        (rank, c12), tau = _ranks_and_concurrences(rhos), None
    else:
        (rank, c12), tau = _parent_ranks_and_concurrences(parents), _tangles(parents)
    pts = partial_transpose(rhos, 2, dims=(2, 2))
    return StackMeasures(rank=rank, c12=c12, n12=_negativity(pts), r12=_r12(pts, 2), tau=tau)


def _ranks_and_concurrences(mats: np.ndarray) -> tuple[list[int], list[float]]:
    """Numerical ranks and concurrences of a stack of two-qubit states."""
    w, v = descending(*eigh_psd(mats))
    return (w > RANK_EPS).sum(axis=-1).tolist(), _wootters(w, v)


def _wootters(w: np.ndarray, v: np.ndarray) -> list[float]:
    """Concurrences max{0, lambda_1 - lambda_2 - lambda_3 - lambda_4} of a stack.

    ``w, v`` are the states' spectra in :func:`descending` order. With
    rho = sum_i p_i |v_i><v_i|, the lambdas are the singular values of the
    symmetric overlap matrix sqrt(p_i p_j) <v_i| sigma_y x sigma_y |v_j*>
    (Wootters, PRL 80, 2245). Built as u^T S u with u_j = sqrt(p_j) v_j, it
    is the complex conjugate of that matrix and has the same singular values.
    Weights at or below the numerical-rank threshold are zeroed (the largest
    is always kept): the overlap stays 4x4 for every state, and no square
    root of a near-zero eigenvalue of rho*rho_tilde amplifies solver noise to
    ~1e-8 on rank-deficient states.
    """
    keep = w > RANK_EPS
    keep[..., 0] = True
    u = v * np.sqrt(np.where(keep, w, 0.0))[..., None, :]
    overlap = u.swapaxes(-1, -2) @ (_SPIN_FLIP_SIGNS * u[..., ::-1, :])
    lam = matkernel.singular_values(overlap).tolist()
    return _clamp01([max(0.0, l1 - l2 - l3 - l4) for l1, l2, l3, l4 in lam], "concurrence")


def _negativity(pts: np.ndarray) -> list[float]:
    """Negativities of a stack of two-qubit states, from their partial transposes."""
    evals = matkernel.eig_hermitian(pts)
    return _clamp01([max(0.0, -2.0 * x) for x in evals[..., 0].tolist()], "negativity")


def _r12(pts: np.ndarray, d: int) -> list[float]:
    """r12 of a stack of (d, d) states, from their partial transposes."""
    det = matkernel.determinant(realign(pts, (d, d)))
    power = 1.0 / d**2
    return _clamp01([d * abs(z) ** power for z in det.tolist()], "r12")


def _tangles(parents: np.ndarray) -> list[float]:
    """3-tangles 4 |d1 - 2 d2 + 4 d3| of a ``(k, 8)`` stack of three-qubit pure states.

    d1 - 2 d2 + 4 d3 is the Cayley hyperdeterminant of the amplitudes
    a_ijk (Coffman, Kundu and Wootters, PRA 61, 052306). The modulus is
    ``np.hypot``, which has the bits of Python's ``abs``; numpy's dispatched
    ``np.abs`` of a complex array does not.
    """
    a000, a001, a010, a011, a100, a101, a110, a111 = parents.T
    # the four products of amplitudes at complementary indices
    p0, p1, p2, p3 = a000 * a111, a001 * a110, a010 * a101, a100 * a011
    d1 = p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3
    d2 = p0 * p3 + p0 * p2 + p0 * p1 + p3 * p2 + p3 * p1 + p2 * p1
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    h = d1 - 2.0 * d2 + 4.0 * d3
    return _clamp01((4.0 * np.hypot(h.real, h.imag)).tolist(), "three_tangle")


def _parent_ranks_and_concurrences(parents: np.ndarray) -> tuple[list[int], list[float]]:
    """Ranks and concurrences of the (1, 2) reductions of a ``(k, 8)`` stack of pure states.

    The branches phi_k = (a_00k, a_01k, a_10k, a_11k) of a parent decompose
    its reduction as rho_12 = |phi_0><phi_0| + |phi_1><phi_1|. Wootters'
    lambdas are the singular values of the overlap matrix of any
    decomposition (Wootters, PRL 80, 2245), and two decompositions differ by
    a unitary (Hughston, Jozsa and Wootters, PLA 183, 14), so they are those
    of the 2x2 complex symmetric M = [[A, B], [B, D]] with
    M_kl = phi_k^T (sigma_y x sigma_y) phi_l, up to a common sign. Then
    c12 = s1 - s2 = (s1^2 - s2^2) / (s1 + s2)
        = hypot(|A|^2 - |D|^2, 2 |conj(A) B + conj(B) D|)
          / sqrt(|A|^2 + 2 |B|^2 + |D|^2 + 2 |AD - B^2|).
    The numerator keeps its absolute accuracy at c12 = 0, where the textbook
    sqrt(|M|^2 - 2 |det M|) loses half the digits. M = 0 (a pure product
    reduction, such as that of |000>) gives c12 = 0 rather than 0/0.

    The rank counts the eigenvalues of the Gram matrix G = [phi_0 phi_1]^dagger
    [phi_0 phi_1] above ``RANK_EPS``; G has rho_12's nonzero spectrum,
    lambda_max = (g00 + g11 + hypot(g00 - g11, 2 |g01|)) / 2 and
    lambda_min = det G / lambda_max. The reduction, positive by
    construction, is never diagonalized. Both values agree with the ``eigh``
    route of :func:`_wootters` to rounding, not bit for bit. Every modulus is
    ``np.hypot``, as in :func:`_tangles`.
    """
    a000, a001, a010, a011, a100, a101, a110, a111 = parents.T
    overlap_a = 2.0 * (a000 * a110 - a010 * a100)
    overlap_d = 2.0 * (a001 * a111 - a011 * a101)
    overlap_b = a000 * a111 + a110 * a001 - a010 * a101 - a100 * a011
    sq_a, sq_b, sq_d = (np.hypot(z.real, z.imag) ** 2 for z in (overlap_a, overlap_b, overlap_d))
    cross = overlap_a.conj() * overlap_b + overlap_b.conj() * overlap_d
    det_m = overlap_a * overlap_d - overlap_b * overlap_b
    num = np.hypot(sq_a - sq_d, 2.0 * np.hypot(cross.real, cross.imag))
    den = np.sqrt(sq_a + 2.0 * sq_b + sq_d + 2.0 * np.hypot(det_m.real, det_m.imag))
    c12 = num / np.where(den > 0.0, den, 1.0)

    sq = parents.real * parents.real + parents.imag * parents.imag
    g00 = sq[:, 0] + sq[:, 2] + sq[:, 4] + sq[:, 6]
    g11 = sq[:, 1] + sq[:, 3] + sq[:, 5] + sq[:, 7]
    g01 = a000.conj() * a001 + a010.conj() * a011 + a100.conj() * a101 + a110.conj() * a111
    abs_g01 = np.hypot(g01.real, g01.imag)
    lam_max = 0.5 * (g00 + g11 + np.hypot(g00 - g11, 2.0 * abs_g01))
    lam_min = (g00 * g11 - abs_g01 * abs_g01) / np.where(lam_max > 0.0, lam_max, 1.0)
    rank = (lam_max > RANK_EPS).astype(int) + (lam_min > RANK_EPS)
    return rank.tolist(), _clamp01(c12.tolist(), "concurrence")


def r12(rho: DensityMatrix) -> float:
    """``d * |det(realign(pt2(rho)))| ** (1/d^2)`` for equal local dimensions d.

    It vanishes on wide classes of separable states and reaches 1 only on
    maximally entangled ones. The fourth root makes it quartically
    ill-conditioned at det = 0: states whose exact value is 0 through a
    singular (but not structurally zero) link evaluate to O(eps^(1/4)) ~ 1e-4.
    """
    return _r12(partial_transpose(rho)[None], _local_dim(rho, "r12"))[0]


def r12_via_singular_values(rho: DensityMatrix) -> float:
    """r12 as d times the geometric mean of the link singular values: an SVD
    route independent of :func:`r12`'s LU determinant, which it matches to 1e-9."""
    d = _local_dim(rho, "r12")
    sv = matkernel.singular_values(link_transform(rho))
    value = d * float(np.prod(sv ** (1.0 / d**2)))
    return _clamp01([value], what="r12")[0]


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max{0, lambda_1 - lambda_2 - lambda_3 - lambda_4}.

    Equals 2|ad - bc| on pure states a|00> + b|01> + c|10> + d|11>.
    """
    _require_dims(rho, (2, 2), "concurrence")
    return _wootters(*descending(*eigh_psd(rho.matrix[None])))[0]


def negativity(rho: DensityMatrix) -> float:
    """Two-qubit negativity max{0, -2 * min eigenvalue of the partial transpose}."""
    _require_dims(rho, (2, 2), "negativity")
    return _negativity(partial_transpose(rho)[None])[0]


def pure_concurrence(psi: PureState) -> float:
    """2|ad - bc| for a two-qubit pure state (the pure-state closed form)."""
    _require_dims(psi, (2, 2), "pure_concurrence")
    a, b, c, d = psi.amplitudes
    return _clamp01([float(2.0 * abs(a * d - b * c))], what="concurrence")[0]


def three_tangle(psi: PureState) -> float:
    """3-tangle of a three-qubit pure state, :func:`_tangles` of a stack of one.

    It equals the residual tangle 4 det(rho_1) - c12^2 - c13^2 and is
    invariant under qubit permutations and local unitaries.
    """
    _require_dims(psi, (2, 2, 2), "three_tangle")
    return _tangles(psi.amplitudes[None])[0]
