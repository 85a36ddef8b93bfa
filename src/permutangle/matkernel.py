"""Dense complex linear-algebra kernels for matrices up to dimension 16.

The package's only caller of numpy's eigen-, singular-value and determinant
routines; the one other LAPACK call is the QR in
``qstate.haar_random_unitary``, which no measure reaches. Each function
checks its input with :func:`as_matrix` and then calls the gufunc of numpy's
private ``numpy.linalg._umath_linalg`` module that ``numpy.linalg`` itself
would call, with the complex signature and under the same floating-point
state, so a result has the bits of the public routine and LAPACK
non-convergence still raises ``LinAlgError``. What it skips is
``numpy.linalg``'s per-call prologue (array wrapping, type promotion, a
second shape check), which a batch of one would pay four times. The private
module belongs to the numpy build that the digest manifest pins
(``tests/golden_digests.json``); ``tests/test_matkernel.py`` pins every
function to its public counterpart bit for bit.

``HERMITICITY_TOL`` is the one tolerance the kernels enforce, the max-entry
Hermiticity defect that :func:`eig_hermitian` (and ``qstate``'s containers)
accept. The accuracy of the results is checked by the tests, not at run
time:

* determinant against cofactor expansion to 1e-12 * max(1, |det|)
  (acceptance criterion 8, ``tests/test_matkernel.py``);
* Hermitian eigenvalue sum against the trace to 1e-10, general spectra
  against the trace and the characteristic polynomial to 1e-8, and
  singular values against |det| and the Frobenius norm to 1e-10
  (``tests/test_matkernel.py``).

``determinant``, ``eig_hermitian``, ``eigh`` and ``singular_values`` also
take a ``(k, M, N)`` stack (square for the first three) and apply every check
to each matrix. The gufunc then runs once over the stack ("linear algebra on
several matrices at once") and gives each matrix the bits it would get alone.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DimensionError, HermiticityError

MAX_DIM = 16
HERMITICITY_TOL = 1e-10

_EIGH = _umath_linalg.eigh_lo
_EIGVALSH = _umath_linalg.eigvalsh_lo
_SVD = _umath_linalg.svd
_DET = _umath_linalg.det
_EIGVALS = _umath_linalg.eigvals


def as_matrix(m, square: bool = False, stack: bool = False) -> np.ndarray:
    """Validate and return ``m`` as a complex 2-D array.

    Rejects non-2-D input, dimensions above ``MAX_DIM``, non-finite entries,
    and (if ``square``) rectangular shapes. With ``stack``, a ``(k, M, N)``
    stack of matrices is accepted as well, and each check applies to every
    matrix in it.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 and not (stack and a.ndim == 3):
        expected = "a 2-D array or a 3-D stack" if stack else "a 2-D array"
        raise DimensionError(f"expected {expected}, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionError("empty matrix")
    rows, cols = a.shape[-2:]
    if rows > MAX_DIM or cols > MAX_DIM:
        raise DimensionError(f"dimension {(rows, cols)} exceeds supported maximum {MAX_DIM}")
    if square and rows != cols:
        raise DimensionError(f"expected a square matrix, got shape {(rows, cols)}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        finite = np.isfinite(a).all(axis=(-2, -1))
        raise ValueError(f"matrix contains non-finite entries{_where(finite)}")
    return a


def _where(ok: np.ndarray) -> str:
    """Names the first failing matrix of a stack; empty for a single matrix."""
    return "" if ok.ndim == 0 else f" (matrix {int(np.argmin(ok))} of the stack)"


def _did_not_converge(err, flag):
    raise LinAlgError("LAPACK did not converge")


def _lapack(gufunc, signature: str, a: np.ndarray):
    """``gufunc(a)`` under ``numpy.linalg``'s floating-point state.

    A routine that fails fills its output with NaN and sets the invalid
    flag, which raises ``LinAlgError``. The ``errstate`` is made afresh for
    each call: one instance cannot be entered twice.
    """
    with np.errstate(call=_did_not_converge, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return gufunc(a, signature=signature)


def determinant(m) -> complex | np.ndarray:
    """Determinant of a square matrix (LU with partial pivoting).

    A ``(k, M, M)`` stack gives a ``(k,)`` complex array.
    """
    a = as_matrix(m, square=True, stack=True)
    det = _DET(a, signature="D->D")  # numpy's det runs outside the errstate too
    return det if a.ndim == 3 else complex(det)


def eig_hermitian(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending (``(k, M)`` for a stack).

    Raises :class:`HermiticityError` if max|m - m^dagger| exceeds
    ``HERMITICITY_TOL`` for any matrix.
    """
    a = as_matrix(m, square=True, stack=True)
    defects = np.abs(a - a.conj().swapaxes(-1, -2))
    worst = float(defects.max())
    if worst > HERMITICITY_TOL:
        ok = defects.max(axis=(-2, -1)) <= HERMITICITY_TOL
        raise HermiticityError(
            f"Hermiticity defect {worst:.3e} exceeds {HERMITICITY_TOL}{_where(ok)}"
        )
    return _lapack(_EIGVALSH, "D->d", a)


def eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Ascending real eigenvalues and eigenvector columns of a Hermitian
    matrix, or of each matrix in a ``(k, M, M)`` stack.

    Only the lower triangle is read, as by ``np.linalg.eigh``; Hermiticity is
    the caller's contract (``qstate``'s containers certify it).
    """
    return _lapack(_EIGH, "D->dD", as_matrix(m, square=True, stack=True))


def eig_general(m) -> np.ndarray:
    """Eigenvalue multiset of a general square matrix.

    Returned sorted by (real, imag) so equal inputs give identical output;
    no particular ordering of degenerate values is promised.
    """
    a = as_matrix(m, square=True)
    vals = _lapack(_EIGVALS, "D->D", a)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def singular_values(m) -> np.ndarray:
    """Singular values, descending and nonnegative. Any rectangular shape.

    A ``(k, M, N)`` stack gives one row of singular values per matrix.
    """
    return _lapack(_SVD, "D->d", as_matrix(m, stack=True))
