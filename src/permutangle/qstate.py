"""State containers, Haar sampling, partial trace, purification, perturbations.

Conventions, fixed project-wide:

* Subsystems are labeled from 1 (matching the measure subscripts r12, c12, ...).
* Composite indices are row-major: the leftmost factor is the slowest index,
  so for dims (2, 2, 2) basis state |i j k> sits at flat index 4i + 2j + k.
* Randomness is always an explicit ``numpy.random.Generator``. Campaigns
  derive one generator per sample via :func:`substream`, so sample ``i``
  depends only on the seed and ``i``.

Constructing a container directly validates every invariant eagerly.
Operations in this package that produce states satisfying the invariants by
construction (partial traces, convex mixtures, normalized vectors, family
builders) wrap their outputs without validating them again; every
eigendecomposition of a state (``rank``, :func:`purify`, the measures'
kernel) goes through :func:`eigh_psd`, which certifies positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateStateError, DimensionError, DomainError, HermiticityError
from .matkernel import HERMITICITY_TOL

NORM_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
RANK_EPS = 1e-12
ORTHONORMALITY_TOL = 1e-10


def substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-sample generator for (seed, stream-index).

    Identical arguments give a bit-identical stream regardless of host,
    process, or how many samples precede it (the stream key is a hash of
    seed and index).
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _check_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0:
        raise DimensionError("dims must name at least one subsystem")
    if any(d < 1 for d in dims):
        raise DimensionError(f"invalid factor dimensions {dims}")
    return dims


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector over a tensor product of factors."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise DimensionError(
                f"amplitude vector of length {amps.size} does not match dims {dims}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    def density_matrix(self) -> "DensityMatrix":
        """|psi><psi| over the same factor dimensions."""
        return _trusted_dm(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


def _trusted_pure(dims: tuple[int, ...], amplitudes: np.ndarray) -> PureState:
    """Wrap an amplitude vector known to be unit-norm and finite."""
    psi = object.__new__(PureState)
    object.__setattr__(psi, "dims", dims)
    object.__setattr__(psi, "amplitudes", amplitudes)
    return psi


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with subsystem-dimension metadata."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        mat = np.asarray(self.matrix, dtype=complex)
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise DimensionError(f"matrix shape {mat.shape} does not match dims {dims}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix contains non-finite entries")
        defect = float(np.max(np.abs(mat - mat.conj().T)))
        if defect > HERMITICITY_TOL:
            raise HermiticityError(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)
        eigh_psd(mat)  # certifies positivity

    def rank(self) -> int:
        """Numerical rank: eigenvalue count above ``RANK_EPS``."""
        return int(np.count_nonzero(eigh_psd(self.matrix)[0] > RANK_EPS))

    def purity(self) -> float:
        return float(np.real(np.vdot(self.matrix, self.matrix)))


def eigh_psd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of a Hermitian matrix or
    of each matrix in a ``(k, D, D)`` stack, certifying positivity.

    Raises ``ValueError`` when an eigenvalue lies below ``-PSD_TOL``.
    """
    w, v = np.linalg.eigh(m)
    lowest = float(w[..., 0].min())
    if not lowest >= -PSD_TOL:
        where = "" if w.ndim == 1 else f" (matrix {int(w[..., 0].argmin())} of the stack)"
        raise ValueError(f"matrix has negative eigenvalue {lowest:.3e} beyond -{PSD_TOL}{where}")
    return w, v


def descending(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An :func:`eigh_psd` result reordered descending, eigenvalues clamped at 0."""
    return np.maximum(w[..., ::-1], 0.0), v[..., ::-1]


def _trusted_dm(dims: tuple[int, ...], matrix: np.ndarray) -> DensityMatrix:
    """Wrap a matrix that satisfies the invariants by construction."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "dims", dims)
    object.__setattr__(rho, "matrix", matrix)
    return rho


State = Union[PureState, DensityMatrix]


def haar_random_pure(dims, rng: np.random.Generator) -> PureState:
    """Haar-uniform pure state: normalized i.i.d. standard complex Gaussians.

    Draw order is fixed (one real block, one imaginary block) so streams are
    reproducible.
    """
    dims = _check_dims(dims)
    if any(d < 2 for d in dims):
        raise DimensionError(f"each factor dimension must be >= 2, got {dims}")
    n = math.prod(dims)
    parts = rng.standard_normal((2, n))
    z = parts[0] + 1j * parts[1]
    return _trusted_pure(dims, z / np.linalg.norm(z))


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (Ginibre QR with phase-fixed R diagonal)."""
    parts = rng.standard_normal((2, dim, dim))
    q, r = np.linalg.qr(parts[0] + 1j * parts[1])
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _keep_positions(dims: tuple[int, ...], keep: Sequence[int]) -> list[int]:
    positions = [int(k) - 1 for k in keep]
    if len(positions) == 0:
        raise DimensionError("keep must name at least one subsystem")
    if len(set(positions)) != len(positions):
        raise DimensionError(f"duplicate subsystem labels in {tuple(keep)}")
    if any(p < 0 or p >= len(dims) for p in positions):
        raise DimensionError(f"subsystem labels {tuple(keep)} out of range for dims {dims}")
    return positions


def reduce(state: State, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace onto the subsystems in ``keep`` (1-based labels).

    The order of ``keep`` is preserved in the output, so ``reduce(s, (2, 1))``
    is the subsystem-swapped reduction of ``reduce(s, (1, 2))``.
    """
    dims = state.dims
    positions = _keep_positions(dims, keep)
    kept_dims = tuple(dims[p] for p in positions)
    if isinstance(state, PureState):
        rho = _pure_partial_trace(state.amplitudes, dims, positions)
    else:
        n = len(dims)
        others = [p for p in range(n) if p not in positions]
        dk = math.prod(kept_dims)
        t = state.matrix.reshape(dims + dims)
        perm = positions + others + [n + p for p in positions] + [n + p for p in others]
        t = np.transpose(t, perm)
        do = math.prod(dims) // dk
        t = t.reshape(dk, do, dk, do)
        rho = np.einsum("iaja->ij", t)
    return _trusted_dm(kept_dims, rho)


def reduce_pure_stack(amplitudes: np.ndarray, dims, keep: Sequence[int]) -> np.ndarray:
    """Partial traces of a ``(k, D)`` stack of pure amplitude vectors over ``dims``.

    Returns the ``(k, dk, dk)`` stack of reduced matrices onto ``keep``; each
    has the bits :func:`reduce` gives for that row alone.
    """
    dims = _check_dims(dims)
    return _pure_partial_trace(np.asarray(amplitudes), dims, _keep_positions(dims, keep))


def _pure_partial_trace(amplitudes: np.ndarray, dims: tuple[int, ...], positions: list[int]):
    """M M^dagger, M the amplitudes regrouped as (kept, traced); leading axes stack states."""
    lead = amplitudes.shape[:-1]
    n = len(lead)
    order = positions + [p for p in range(len(dims)) if p not in positions]
    t = amplitudes.reshape(lead + dims).transpose(list(range(n)) + [n + p for p in order])
    m = t.reshape(lead + (math.prod([dims[p] for p in positions]), -1))
    return m @ m.conj().swapaxes(-1, -2)


def purify(rho: DensityMatrix) -> PureState:
    """Canonical purification sum_i sqrt(p_i) |v_i>|i> over the spectral modes.

    The ancilla dimension equals the numerical rank (eigenvalues above
    ``RANK_EPS``); a rank-1 input is returned as its dominant eigenvector,
    with no ancilla factor. Modes are taken in descending eigenvalue order.
    """
    w, v = descending(*eigh_psd(rho.matrix))
    r = max(1, int(np.count_nonzero(w > RANK_EPS)))
    if r == 1:
        return _trusted_pure(rho.dims, v[:, 0].copy())
    amps = (v[:, :r] * np.sqrt(w[:r])).reshape(-1)
    return _trusted_pure(rho.dims + (r,), amps / np.linalg.norm(amps))


def mix(a: DensityMatrix, b: DensityMatrix, eps: float) -> DensityMatrix:
    """Normalized perturbation (a + eps*b) / (1 + eps)."""
    if a.dims != b.dims:
        raise DimensionError(f"dimension mismatch {a.dims} vs {b.dims}")
    if eps < 0:
        raise DomainError(f"eps must be >= 0, got {eps}")
    return _trusted_dm(a.dims, (a.matrix + eps * b.matrix) / (1.0 + eps))


def perturb_pure(psi: PureState, psi_r: PureState, eps: float) -> PureState:
    """Normalized pure-state perturbation (psi + eps*psi_r) / ||psi + eps*psi_r||."""
    if psi.dims != psi_r.dims:
        raise DimensionError(f"dimension mismatch {psi.dims} vs {psi_r.dims}")
    v = psi.amplitudes + eps * psi_r.amplitudes
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise DegenerateStateError("perturbation cancelled the state to zero norm")
    return _trusted_pure(psi.dims, v / norm)


def random_fixed_eigvecs(
    eigvecs: np.ndarray, rng: np.random.Generator, dims=None
) -> DensityMatrix:
    """Random rank<=3 mixture of three fixed orthonormal eigenvectors.

    Draws theta ~ U[0, pi] then phi ~ U[0, 2*pi]; the weights are
    cos^2(theta), sin^2(theta)cos^2(phi) and sin^2(theta)sin^2(phi).
    """
    v = np.asarray(eigvecs, dtype=complex)
    if v.ndim != 2 or v.shape[1] != 3:
        raise DimensionError(f"expected 3 column vectors, got shape {v.shape}")
    gram_defect = np.max(np.abs(v.conj().T @ v - np.eye(3)))
    if gram_defect > ORTHONORMALITY_TOL:
        raise ValueError(f"eigenvectors not orthonormal (defect {gram_defect:.3e})")
    theta = rng.uniform(0.0, np.pi)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    st, ct = np.sin(theta), np.cos(theta)
    weights = np.array([ct**2, st**2 * np.cos(phi) ** 2, st**2 * np.sin(phi) ** 2])
    d = v.shape[0]
    if dims is None:
        dims = (2, 2) if d == 4 else (d,)
    return _trusted_dm(_check_dims(dims), (v * weights) @ v.conj().T)
