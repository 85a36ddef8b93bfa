"""Correlation and entanglement measures for small quantum states.

All measures are local-unitary invariant and clamp to [0, 1] only after
asserting the raw value lies within ``CLAMP_TOL`` of that interval; a value
further out indicates a bug upstream and raises instead of being hidden.

The two-qubit measures have one implementation, the stacked kernel
:func:`measure_stack`. It takes a ``(k, 4, 4)`` stack of states (and,
optionally, their ``(k, 8)`` three-qubit pure parents) and runs each
linear-algebra step once over the whole stack: one ``eigh`` for the ranks and
the Wootters spectra, one overlap SVD, one ``eigvalsh`` of the partial
transposes and one determinant of the links. The parents' 3-tangle needs no
linear algebra: it is the Cayley hyperdeterminant of the amplitudes, one
elementwise pass over the stack. Every check (finite entries, Hermiticity,
positivity, the clamp tolerance) still applies to each matrix and value; the
scalar arithmetic that follows a step (|det|^(1/4), lambda_1 - lambda_2 - ...)
runs per value, and the clamp passes a value already in (0, 1] through as it
is. The scalar ``concurrence``, ``negativity``, ``r12`` and ``three_tangle``
run the same steps on a stack of one, and numpy's stacked routines give each
matrix the bits it gets alone, so a state measured by itself or inside a
campaign chunk of any size gets identical values. The tangle's bits follow
numpy's SIMD-dispatched complex multiply.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from . import matkernel
from .errors import DimensionError
from .permutations import link_transform, partial_transpose, realign
from .qstate import (
    DensityMatrix,
    PureState,
    RANK_EPS,
    descending,
    eigh_psd,
)

CLAMP_TOL = 1e-9
#: Separability witness threshold: strictly above it implies entanglement.
WITNESS_THRESHOLD = (1.0 / 3.0) ** 0.75

#: sigma_y (x) sigma_y, the two-qubit spin flip, applied to a column vector:
#: reverse the basis order and negate the |00> and |11> entries.
_SPIN_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]


def _clamp01(values: list[float], what: str = "measure") -> list[float]:
    """Each value clamped into [0, 1], after checking it lies within ``CLAMP_TOL``.

    A value in (0, 1] passes through as it is and +-0.0 gives 0.0, both what
    ``min(1.0, max(0.0, value))`` gives; any other value takes the check. A
    value further out (or not a number) raises ``ValueError``.
    """
    return [v if 0.0 < v <= 1.0 else 0.0 if v == 0.0 else _clamp_edge(v, what) for v in values]


def _clamp_edge(value: float, what: str) -> float:
    if not -CLAMP_TOL <= value <= 1.0 + CLAMP_TOL:
        raise ValueError(f"{what} value {value!r} outside [0, 1] beyond tolerance {CLAMP_TOL}")
    return min(1.0, max(0.0, value))


def _require_two_qubits(rho: DensityMatrix, what: str) -> DensityMatrix:
    if rho.dims != (2, 2):
        raise DimensionError(f"{what} is defined for two qubits, got dims {rho.dims}")
    return rho


class StackMeasures(NamedTuple):
    """Per-state measures of a stack, one list of k Python numbers each."""

    rank: list[int]
    c12: list[float]
    n12: list[float]
    r12: list[float]
    #: 3-tangle of each parent; None when no parents were given.
    tau: Optional[list[float]]


def measure_stack(rhos, parents=None) -> StackMeasures:
    """Rank, concurrence, negativity, r12 and 3-tangle of a stack of two-qubit states.

    ``rhos`` is a ``(k, 4, 4)`` stack of two-qubit density matrices. When
    ``parents`` is given, it is the ``(k, 8)`` stack of three-qubit pure
    states whose (1, 2) reductions they are, and ``tau`` holds their
    3-tangles; otherwise ``tau`` is None.
    """
    rhos = matkernel.as_matrix(rhos, square=True, stack=True)
    if rhos.ndim != 3 or rhos.shape[1] != 4:
        raise DimensionError(f"expected a (k, 4, 4) stack of two-qubit states, got {rhos.shape}")
    k = len(rhos)
    if parents is not None:
        parents = np.asarray(parents, dtype=complex)
        if parents.shape != (k, 8):
            raise DimensionError(f"expected a ({k}, 8) stack of parents, got {parents.shape}")
        if not np.isfinite(parents).all():
            raise ValueError("parent amplitudes contain non-finite entries")
    rank, c12 = _ranks_and_concurrences(rhos)
    tau = None if parents is None else _tangles(parents)
    return StackMeasures(rank=rank, c12=c12, n12=_negativity(rhos), r12=_r12(rhos, 2), tau=tau)


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


def _negativity(rhos: np.ndarray) -> list[float]:
    evals = matkernel.eig_hermitian(partial_transpose(rhos, 2, dims=(2, 2)))
    return _clamp01([max(0.0, -2.0 * x) for x in evals[..., 0].tolist()], "negativity")


def _r12(mats: np.ndarray, d: int) -> list[float]:
    det = matkernel.determinant(realign(partial_transpose(mats, 2, dims=(d, d)), (d, d)))
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


def r12(rho: DensityMatrix) -> float:
    """Determinant-based correlation measure of the realigned partial transpose.

    For equal local dimensions d the value is
    ``d * |det(realign(pt2(rho)))| ** (1/d^2)``, which equals d times the
    geometric mean of the link array's singular values. It vanishes on wide
    classes of separable states and reaches 1 only on maximally entangled
    ones.

    The fourth root makes the measure quartically ill-conditioned at
    det = 0: states whose exact value is 0 through a singular (but not
    structurally zero) link evaluate to O(eps^(1/4)) ~ 1e-4 in double
    precision.
    """
    if len(rho.dims) != 2:
        raise DimensionError(f"expected a bipartite state, got dims {rho.dims}")
    d1, d2 = rho.dims
    if d1 != d2:
        raise DimensionError(f"r12 requires equal local dimensions, got {rho.dims}")
    return _r12(rho.matrix[None], d1)[0]


def r12_via_singular_values(rho: DensityMatrix) -> float:
    """r12 computed as d times the geometric mean of the link singular values.

    Independent route from :func:`r12` (SVD instead of LU determinant); the
    two agree to 1e-9 and both are exposed so the agreement stays testable.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise DimensionError(f"r12 requires equal local dimensions, got {rho.dims}")
    d = rho.dims[0]
    sv = matkernel.singular_values(link_transform(rho))
    value = d * float(np.prod(sv ** (1.0 / d**2)))
    return _clamp01([value], what="r12")[0]


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max{0, lambda_1 - lambda_2 - lambda_3 - lambda_4}.

    Equals 2|ad - bc| on pure states a|00> + b|01> + c|10> + d|11>.
    """
    _require_two_qubits(rho, "concurrence")
    return _wootters(*descending(*eigh_psd(rho.matrix[None])))[0]


def negativity(rho: DensityMatrix) -> float:
    """Two-qubit negativity max{0, -2 * min eigenvalue of the partial transpose}."""
    _require_two_qubits(rho, "negativity")
    return _negativity(rho.matrix[None])[0]


def pure_concurrence(psi: PureState) -> float:
    """2|ad - bc| for a two-qubit pure state (the pure-state closed form)."""
    if psi.dims != (2, 2):
        raise DimensionError(f"expected a two-qubit pure state, got dims {psi.dims}")
    a, b, c, d = psi.amplitudes
    return _clamp01([float(2.0 * abs(a * d - b * c))], what="concurrence")[0]


def three_tangle(psi: PureState) -> float:
    """3-tangle of a three-qubit pure state (Coffman, Kundu and Wootters).

    4 |d1 - 2 d2 + 4 d3|, four times the modulus of the Cayley
    hyperdeterminant of the amplitudes. It equals the residual tangle
    4 det(rho_1) - c12^2 - c13^2 and is invariant under qubit permutations
    and local unitaries.
    """
    if psi.dims != (2, 2, 2):
        raise DimensionError(f"three_tangle needs a (2, 2, 2) pure state, got {psi.dims}")
    return _tangles(psi.amplitudes[None])[0]
