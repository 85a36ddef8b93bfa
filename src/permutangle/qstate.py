"""State containers, Haar sampling, partial trace, purification, perturbations.

Conventions, fixed project-wide: subsystems are labeled from 1 (matching the
measure subscripts r12, c12, ...); composite indices are row-major, the
leftmost factor slowest, so for dims (2, 2, 2) basis state |i j k> sits at
flat index 4i + 2j + k; randomness is always an explicit
``numpy.random.Generator``, the stream of ``(seed, i)`` for campaign sample
``i`` (:func:`substream`, :func:`substreams`).

The ``*_stack`` functions and :func:`haar_amplitudes` are the array forms of
the scalar operations, and each row of a stack gets the bits the scalar
function gives it alone. Constructing a container directly validates every
invariant; the package's own operations, whose outputs satisfy them by
construction, wrap their outputs unchecked. Every eigendecomposition of a
state goes through :func:`eigh_psd`, which certifies positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import matkernel
from .errors import (DegenerateStateError, DimensionError, DomainError, check_int, check_real,
                     is_int)

NORM_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
RANK_EPS = 1e-12
ORTHONORMALITY_TOL = 1e-10
CANCELLED_NORM_TOL = 1e-12


#: numpy's ``SeedSequence`` hash constants. NEP 19 keeps the algorithm fixed,
#: so a stream is the same under every numpy.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 1 << 32


def substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-sample generator for (seed, stream-index).

    Identical arguments give a bit-identical stream regardless of host,
    process, or how many samples precede it. ``seed`` is a non-negative int
    and ``index`` an int in [0, 2**32), as for :func:`substreams` (a
    ``DomainError`` otherwise).
    """
    seed, index = check_int(seed, "seed", 0), check_int(index, "stream index", 0, _WORD - 1)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


class _GeneratedState(ISeedSequence):
    """A ``generate_state(4, uint64)`` result already computed, for ``PCG64`` to seed from."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _hash_constants(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """The hash constants ``init * mult**j`` mod 2**32 for j in first..first+count-1."""
    return np.array([init * pow(mult, j, _WORD) % _WORD for j in range(first, first + count)],
                    dtype=np.uint32)


def substreams(seed: int, indices: Sequence[int]) -> Iterator[np.random.Generator]:
    """The generators of :func:`substream` for ``seed`` and each index in turn.

    ``SeedSequence(seed, spawn_key=(i,))`` is the pool of
    ``SeedSequence(seed)`` hashed on with the one key word ``i``. That step and
    ``generate_state(4, uint64)`` run for all the indices at once on uint32
    arrays, which wrap as the hash requires; numpy then seeds each index's
    own ``PCG64`` from its row, so every index is a spawn key of one word.
    """
    seed = check_int(seed, "seed", 0)
    try:
        keys = np.asarray(indices, dtype=np.int64) if all(map(is_int, indices)) else None
    except OverflowError:  # an index past int64
        keys = None
    if keys is None or not ((keys >= 0) & (keys < _WORD)).all():
        for index in indices:  # the first bad index raises
            check_int(index, "stream index", 0, _WORD - 1)
    indices = keys
    # the pool took 4 hashes per entropy word, the seed's words padded to 4
    words = -(-seed.bit_length() // 32)
    const = _hash_constants(_INIT_A, _MULT_A, 4 * max(4, words), 5)
    key = (indices.astype(np.uint32)[:, None] ^ const[:4]) * const[1:]
    key ^= key >> 16
    pool = np.random.SeedSequence(seed).pool * _MIX_MULT_L - key * _MIX_MULT_R
    pool ^= pool >> 16
    # generate_state(4, uint64): eight words from the pool words in turn,
    # paired little end first
    const = _hash_constants(_INIT_B, _MULT_B, 0, 9)
    state = (np.tile(pool, 2) ^ const[:8]) * const[1:]
    state ^= state >> 16
    for row in state.astype("<u4").view("<u8").astype(np.uint64):
        yield np.random.Generator(np.random.PCG64(_GeneratedState(row)))


def _check_dims(dims) -> tuple[int, ...]:
    """``dims`` as a tuple of ints, once each is an int of at least 1 (numpy integers too)."""
    dims = tuple(dims)
    if not (dims and all(is_int(d) and d >= 1 for d in dims)):
        raise DimensionError(f"dims must be one or more ints of at least 1, got {dims}")
    return tuple(map(int, dims))


def _require_dims(state: State, dims: tuple[int, ...], what: str) -> None:
    """DimensionError naming ``what`` unless ``state`` is over exactly ``dims``."""
    if state.dims != dims:
        raise DimensionError(f"{what} needs dims {dims}, got {state.dims}")


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
        return _trusted_dm(self.dims, projector_stack(self.amplitudes))


def projector_stack(amplitudes: np.ndarray) -> np.ndarray:
    """|psi><psi| of each amplitude vector, as ``np.outer``'s broadcast product."""
    return amplitudes[..., :, None] * amplitudes[..., None, :].conj()


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
        w = matkernel.eig_hermitian(mat)  # finite entries, Hermiticity, size
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        _check_psd(w)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)

    def rank(self) -> int:
        """Numerical rank: eigenvalue count above ``RANK_EPS``."""
        return int(np.count_nonzero(eigh_psd(self.matrix)[0] > RANK_EPS))

    def purity(self) -> float:
        return float(np.real(np.vdot(self.matrix, self.matrix)))


def eigh_psd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of a Hermitian matrix or
    of each matrix in a ``(k, D, D)`` stack, certified by :func:`_check_psd`."""
    w, v = matkernel.eigh(m)
    _check_psd(w)
    return w, v


def _check_psd(w: np.ndarray) -> None:
    """``ValueError`` when an ascending spectrum, or one of a stack, goes below ``-PSD_TOL``."""
    lowest = float(w[..., 0].min())
    if not lowest >= -PSD_TOL:
        where = "" if w.ndim == 1 else f" (matrix {int(w[..., 0].argmin())} of the stack)"
        raise ValueError(f"matrix has negative eigenvalue {lowest:.3e} beyond -{PSD_TOL}{where}")


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
    """Haar-uniform pure state: normalized i.i.d. standard complex Gaussians."""
    dims = _check_dims(dims)
    if any(d < 2 for d in dims):
        raise DimensionError(f"each factor dimension must be >= 2, got {dims}")
    return _trusted_pure(dims, haar_amplitudes(haar_draw(math.prod(dims), rng)))


def haar_draw(size: int, rng: np.random.Generator) -> np.ndarray:
    """The Gaussian blocks of a Haar state of ``size`` amplitudes: one real
    block, then one imaginary block, so streams are reproducible."""
    return rng.standard_normal((2, size))


def haar_amplitudes(parts: np.ndarray) -> np.ndarray:
    """The unit amplitude vectors of :func:`haar_draw` blocks, ``(..., 2, n)`` -> ``(..., n)``."""
    z = parts[..., 0, :] + 1j * parts[..., 1, :]
    return z / _norms(z)[..., None]


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, with the bits of ``np.linalg.norm``
    of each vector (which sums the real and imaginary squares the same way)."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (Ginibre QR with phase-fixed R diagonal); ``dim``
    is an int of at least 1."""
    (dim,) = _check_dims((dim,))
    parts = rng.standard_normal((2, dim, dim))
    q, r = np.linalg.qr(parts[0] + 1j * parts[1])
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _keep_positions(dims: tuple[int, ...], keep: Sequence[int]) -> list[int]:
    """The 0-based positions of the distinct int labels ``keep``, each in 1..len(dims)."""
    keep = tuple(keep)
    if not (keep and all(is_int(k) and 1 <= k <= len(dims) for k in keep)):
        raise DimensionError(f"keep must be one or more ints in 1..{len(dims)}, got {keep}")
    if len(set(keep)) != len(keep):
        raise DimensionError(f"duplicate subsystem labels in {keep}")
    return [int(k) - 1 for k in keep]


def reduce(state: State, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace onto the subsystems in ``keep`` (1-based labels), in that
    order: ``reduce(s, (2, 1))`` is ``reduce(s, (1, 2))`` with its subsystems swapped."""
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
    """The ``(k, dk, dk)`` partial traces onto ``keep`` of a ``(k, D)`` stack of
    pure amplitude vectors over ``dims``, each with the bits :func:`reduce` gives."""
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
    """Canonical purification sum_i sqrt(p_i) |v_i>|i> over the spectral modes,
    in descending eigenvalue order, with the numerical rank as the ancilla
    dimension; a rank-1 input is its dominant eigenvector, with no ancilla."""
    w, v = descending(*eigh_psd(rho.matrix))
    r = max(1, int(np.count_nonzero(w > RANK_EPS)))
    if r == 1:
        return _trusted_pure(rho.dims, v[:, 0].copy())
    amps = (v[:, :r] * np.sqrt(w[:r])).reshape(-1)
    return _trusted_pure(rho.dims + (r,), amps / np.linalg.norm(amps))


def mix(a: DensityMatrix, b: DensityMatrix, eps: float) -> DensityMatrix:
    """Normalized perturbation (a + eps*b) / (1 + eps)."""
    _require_dims(b, a.dims, "the perturbation")
    return _trusted_dm(a.dims, mix_stack(a.matrix, b.matrix, check_real(eps, "eps", 0.0)))


def mix_stack(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """(a + eps*b) / (1 + eps) of stacked matrices, for a finite eps >= 0."""
    return (a + eps * b) / (1.0 + eps)


def perturb_pure(psi: PureState, psi_r: PureState, eps: float) -> PureState:
    """Normalized pure-state perturbation (psi + eps*psi_r) / ||psi + eps*psi_r||."""
    _require_dims(psi_r, psi.dims, "the perturbation")
    eps = check_real(eps, "eps")
    return _trusted_pure(psi.dims, perturb_pure_stack(psi.amplitudes, psi_r.amplitudes, eps))


def perturb_pure_stack(psi: np.ndarray, psi_r: np.ndarray, eps: float) -> np.ndarray:
    """:func:`perturb_pure` of stacked unit amplitude vectors, for a finite eps:
    ``DomainError`` when a norm overflows, ``DegenerateStateError`` when a
    perturbation cancels its state."""
    v = psi + eps * psi_r
    with np.errstate(over="ignore"):
        norms = _norms(v)
    if not np.isfinite(norms).all():
        raise DomainError(f"eps={eps} makes the norm of psi + eps*psi_r overflow")
    if (norms < CANCELLED_NORM_TOL).any():
        raise DegenerateStateError("perturbation cancelled the state to zero norm")
    return v / norms[..., None]


def random_fixed_eigvecs(
    eigvecs: np.ndarray, rng: np.random.Generator, dims=None
) -> DensityMatrix:
    """Random rank<=3 mixture of three fixed orthonormal eigenvectors,
    weighted by :func:`fixed_eigvecs_weights`. ``dims`` (by default (2, 2)
    for a 4x4 matrix, else one factor) must multiply to the matrix size."""
    d = len(eigvecs)
    if dims is None:
        dims = (2, 2) if d == 4 else (d,)
    dims = _check_dims(dims)
    if math.prod(dims) != d:
        raise DimensionError(f"dims {dims} do not match a {d}x{d} matrix")
    return _trusted_dm(dims, fixed_eigvecs_stack(eigvecs, fixed_eigvecs_weights(rng)))


def fixed_eigvecs_weights(rng: np.random.Generator) -> np.ndarray:
    """Draws theta ~ U[0, pi] then phi ~ U[0, 2*pi], as two ``rng.random()``
    calls, and returns their :func:`fixed_eigvecs_weights_stack` weights."""
    return fixed_eigvecs_weights_stack(np.array([rng.random(), rng.random()]))


def fixed_eigvecs_weights_stack(u: np.ndarray) -> np.ndarray:
    """The weights cos^2(theta), sin^2(theta)cos^2(phi) and sin^2(theta)sin^2(phi)
    at theta = pi*u0 and phi = 2*pi*u1, for each row (u0, u1) of a ``(..., 2)``
    stack of U[0, 1) draws; ``np.float_power`` squares with the bits of ``**``."""
    theta, phi = np.pi * u[..., 0], 2.0 * np.pi * u[..., 1]
    st2 = np.float_power(np.sin(theta), 2.0)
    return np.stack([np.float_power(np.cos(theta), 2.0), st2 * np.float_power(np.cos(phi), 2.0),
                     st2 * np.float_power(np.sin(phi), 2.0)], axis=-1)


def fixed_eigvecs_stack(eigvecs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j w_j |v_j><v_j| over three orthonormal columns v_j, for each row
    of a ``(..., 3)`` stack of weights."""
    v = np.asarray(eigvecs, dtype=complex)
    if v.ndim != 2 or v.shape[1] != 3:
        raise DimensionError(f"expected 3 column vectors, got shape {v.shape}")
    gram_defect = np.max(np.abs(v.conj().T @ v - np.eye(3)))
    if gram_defect > ORTHONORMALITY_TOL:
        raise ValueError(f"eigenvectors not orthonormal (defect {gram_defect:.3e})")
    return (v * weights[..., None, :]) @ v.conj().T
