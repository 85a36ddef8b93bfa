"""Density-matrix permutations: partial transpose, realignment, link products.

Index conventions (row-major, subsystem 1 slow) are fixed here once. Writing
rho's row index as i*d2 + alpha and column index as j*d2 + beta:

* partial transpose on subsystem 2 swaps alpha and beta:
  ``pt[i*d2+a, j*d2+b] = rho[i*d2+b, j*d2+a]``
* realignment moves both row labels to the rows and both column labels to
  the columns: ``out[i*d1+j, a*d2+b] = in[i*d2+a, j*d2+b]``, an array of
  shape (d1^2, d2^2).

The "link" composition realign(pt2(rho)) is what every correlation quantity
in this package is built from. Both maps also take a ``(k, D, D)`` stack of
plain matrices and map each one, so batched measures share these conventions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import matkernel
from .errors import DimensionError, is_int
from .qstate import DensityMatrix, State, reduce


def _bipartite_dims(rho: DensityMatrix) -> tuple[int, int]:
    if len(rho.dims) != 2:
        raise DimensionError(f"expected a bipartite state, got dims {rho.dims}")
    return rho.dims


def partial_transpose(rho, subsystem: int = 2, dims: Sequence[int] | None = None) -> np.ndarray:
    """Transpose one tensor factor of a bipartite matrix.

    ``rho`` is a bipartite DensityMatrix, or a plain square array (or a
    ``(k, D, D)`` stack of them) with the (d1, d2) split passed explicitly (so
    the map composes with itself and with realignment). Returns a plain
    array: on density matrices the result is Hermitian and trace-one but
    generally not positive.
    """
    if isinstance(rho, DensityMatrix):
        d1, d2 = _bipartite_dims(rho)
        mat = rho.matrix
    else:
        mat, d1, d2 = _square_over(rho, dims)
    if not (is_int(subsystem) and subsystem in (1, 2)):
        raise DimensionError(f"subsystem must be the int 1 or 2, got {subsystem!r}")
    t = mat.reshape(mat.shape[:-2] + (d1, d2, d1, d2))
    t = t.swapaxes(-3, -1) if subsystem == 2 else t.swapaxes(-4, -2)
    return t.reshape(mat.shape)


def realign(m: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Realignment permutation of a square matrix (or a stack) over a (d1, d2) split.

    Output has shape (d1^2, d2^2) per matrix; it is square iff d1 == d2, in
    which case applying realign twice returns the input.
    """
    a, d1, d2 = _square_over(m, dims)
    lead = a.shape[:-2]
    t = a.reshape(lead + (d1, d2, d1, d2)).swapaxes(-3, -2)
    return t.reshape(lead + (d1 * d1, d2 * d2))


def _square_over(m, dims) -> tuple[np.ndarray, int, int]:
    """``m`` as a complex (d1*d2)-square matrix, or a 3-D stack of them, and its
    explicit bipartite split (d1, d2) as two ints (numpy integers too)."""
    if dims is None or len(dims) != 2 or not (is_int(dims[0]) and is_int(dims[1])):
        raise DimensionError(f"plain-matrix input needs explicit bipartite int dims, got {dims}")
    d1, d2 = int(dims[0]), int(dims[1])
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2:] != (d1 * d2, d1 * d2):
        raise DimensionError(f"matrix shape {a.shape} does not match dims ({d1}, {d2})")
    return a, d1, d2


def link_transform(rho: DensityMatrix) -> np.ndarray:
    """realign(pt2(rho)): the elementary link array of shape (d1^2, d2^2)."""
    d1, d2 = _bipartite_dims(rho)
    return realign(partial_transpose(rho, 2), (d1, d2))


def link_product(rho: DensityMatrix) -> np.ndarray:
    """Positive link product L L^dagger with L = realign(pt2(rho)).

    Requires equal local dimensions. The result is PSD with trace equal to
    the purity tr(rho^2).
    """
    d1, d2 = _bipartite_dims(rho)
    if d1 != d2:
        raise DimensionError(f"link product requires equal local dimensions, got {rho.dims}")
    link = link_transform(rho)
    return link @ link.conj().T


def path_invariant_spectrum(state: State, path: Sequence[int]) -> np.ndarray:
    """Eigenvalues of the ordered product of link arrays along a closed path.

    ``path`` lists subsystem labels (i1, ..., iK); the return to i1 is
    implied. Each step k contributes realign(pt) of the pair reduction
    ordered (i_{k+1}, i_k) with the transpose on the second slot, and the
    factors compose with step 1 rightmost. The spectrum is invariant under
    local unitaries on every subsystem.
    """
    labels = list(path)
    if len(labels) < 2:
        raise DimensionError("path must visit at least two subsystems")
    dims = state.dims
    if not all(is_int(lab) and 1 <= lab <= len(dims) for lab in labels):
        raise DimensionError(f"path labels {tuple(labels)} must be ints in 1..{len(dims)}")
    labels = list(map(int, labels))
    hops = list(zip(labels, labels[1:] + labels[:1]))
    for cur, nxt in hops:
        if dims[cur - 1] != dims[nxt - 1]:
            raise DimensionError(
                f"link {cur}->{nxt} joins unequal local dimensions "
                f"{dims[cur - 1]} and {dims[nxt - 1]}"
            )
    product = np.eye(dims[labels[0] - 1] ** 2, dtype=complex)
    for cur, nxt in hops:
        pair = reduce(state, (nxt, cur))
        product = link_transform(pair) @ product
    return matkernel.eig_general(product)
