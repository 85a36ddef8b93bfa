import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import cofactor_determinant, random_complex_matrix
from permutangle import (
    DensityMatrix,
    DimensionError,
    HermiticityError,
    haar_random_unitary,
    make_state,
    partial_transpose,
)
from permutangle import matkernel
from permutangle.matkernel import (
    determinant,
    eig_general,
    eig_hermitian,
    eigh,
    singular_values,
)
from permutangle.qstate import PSD_TOL, eigh_psd

RNG = np.random.default_rng(987654)


def _complex_square(dim):
    shape = (dim, dim)
    return st.tuples(
        arrays(np.float64, shape, elements=st.floats(-1, 1, width=32)),
        arrays(np.float64, shape, elements=st.floats(-1, 1, width=32)),
    ).map(lambda parts: parts[0] + 1j * parts[1])


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(4)) == pytest.approx(1.0)

    def test_singular_diagonal(self):
        assert determinant(np.diag([0.5, 0.0, 0.0, 0.5])) == pytest.approx(0.0, abs=1e-15)

    def test_matches_cofactor_expansion(self):
        for _ in range(40):
            m = random_complex_matrix(RNG, 4, 4)
            oracle = cofactor_determinant(m)
            assert abs(determinant(m) - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_cofactor_agreement_other_sizes(self):
        for n in (2, 3, 5):
            m = random_complex_matrix(RNG, n, n)
            oracle = cofactor_determinant(m)
            assert abs(determinant(m) - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_multiplicative(self):
        for _ in range(30):
            a = random_complex_matrix(RNG, 4, 4)
            b = random_complex_matrix(RNG, 4, 4)
            assert abs(determinant(a @ b) - determinant(a) * determinant(b)) <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            determinant(np.ones((2, 3)))

    def test_rejects_oversized(self):
        with pytest.raises(DimensionError):
            determinant(np.eye(17))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError, match="^empty matrix$"):
            determinant(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            determinant(m)


class TestEigHermitian:
    def test_diagonal(self):
        np.testing.assert_allclose(
            eig_hermitian(np.diag([0.1, 0.2, 0.3, 0.4])), [0.1, 0.2, 0.3, 0.4]
        )

    def test_werner_partial_transpose_spectrum(self):
        pt2 = partial_transpose(make_state("werner", p=0.5), 2)
        np.testing.assert_allclose(
            eig_hermitian(pt2), [-0.125, 0.375, 0.375, 0.375], atol=1e-12
        )

    def test_rank_one_projector(self):
        v = random_complex_matrix(RNG, 4, 1)[:, 0]
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(
            eig_hermitian(np.outer(v, v.conj())), [0, 0, 0, 1], atol=1e-12
        )

    def test_recovers_diagonal_under_conjugation(self):
        for _ in range(20):
            d = np.sort(RNG.uniform(-1, 1, 5))
            u = haar_random_unitary(5, RNG)
            m = u @ np.diag(d) @ u.conj().T
            np.testing.assert_allclose(eig_hermitian(m), d, atol=1e-9)

    def test_trace_conservation(self):
        for _ in range(20):
            m = random_complex_matrix(RNG, 6, 6)
            m = m + m.conj().T
            vals = eig_hermitian(m)
            assert abs(vals.sum() - np.trace(m).real) <= 1e-10 * max(1, abs(np.trace(m)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEigGeneral:
    def test_triangular(self):
        m = np.array([[1, 5, 2], [0, 2 + 1j, 7], [0, 0, 3]], dtype=complex)
        vals = eig_general(m)
        expected = sorted([1, 2 + 1j, 3], key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(vals, expected, atol=1e-10)

    def test_bell_state_spin_flip_product(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = np.outer(bell, bell)
        sysy = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        vals = eig_general(rho @ sysy @ rho.conj() @ sysy)
        np.testing.assert_allclose(np.sort(vals.real), [0, 0, 0, 1], atol=1e-10)
        np.testing.assert_allclose(vals.imag, 0, atol=1e-10)

    def test_nilpotent(self):
        np.testing.assert_allclose(eig_general([[0, 1], [0, 0]]), [0, 0], atol=1e-12)

    def test_trace_and_charpoly_residual(self):
        for _ in range(20):
            m = random_complex_matrix(RNG, 5, 5)
            vals = eig_general(m)
            assert abs(vals.sum() - np.trace(m)) <= 1e-8
            coeffs = np.poly(m)
            for lam in vals:
                assert abs(np.polyval(coeffs, lam)) <= 1e-8


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(singular_values(np.eye(4)), np.ones(4))

    def test_half_swap(self):
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        np.testing.assert_allclose(singular_values(swap / 2), [0.5, 0.5, 0.5, 0.5])

    def test_product_equals_abs_determinant(self):
        for _ in range(20):
            m = random_complex_matrix(RNG, 4, 4)
            assert abs(np.prod(singular_values(m)) - abs(determinant(m))) <= 1e-10

    def test_frobenius_conservation(self):
        for _ in range(20):
            m = random_complex_matrix(RNG, 3, 5)
            assert abs(np.sum(singular_values(m) ** 2) - np.linalg.norm(m) ** 2) <= 1e-10

    def test_descending(self):
        s = singular_values(random_complex_matrix(RNG, 6, 4))
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


@settings(max_examples=40, deadline=None)
@given(_complex_square(3), _complex_square(3))
def test_det_multiplicative_property(a, b):
    lhs = determinant(a @ b)
    rhs = determinant(a) * determinant(b)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=40, deadline=None)
@given(_complex_square(4))
def test_singular_product_matches_det(m):
    assert abs(np.prod(singular_values(m)) - abs(determinant(m))) <= 1e-10


def _hermitian_stack(k):
    m = RNG.standard_normal((k, 4, 4)) + 1j * RNG.standard_normal((k, 4, 4))
    return m + m.conj().swapaxes(-1, -2)


class TestDispatch:
    """The kernels call numpy's gufuncs themselves: each result has the bits of
    numpy's public routine on the complex input."""

    @pytest.mark.parametrize("k", [None, 1, 512])
    def test_bits_of_numpy_linalg(self, k):
        h = _hermitian_stack(1 if k is None else k)
        g = RNG.standard_normal(h.shape) + 1j * RNG.standard_normal(h.shape)
        if k is None:
            h, g = h[0], g[0]
        w, v = eigh(h)
        want_w, want_v = np.linalg.eigh(h)
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
        assert np.array_equal(eig_hermitian(h), np.linalg.eigvalsh(h))
        assert np.array_equal(determinant(g), np.linalg.det(g))
        assert np.array_equal(singular_values(g), np.linalg.svd(g, compute_uv=False))
        for m in g.reshape(-1, 4, 4)[:8]:
            vals = np.linalg.eigvals(m)
            assert np.array_equal(eig_general(m), vals[np.lexsort((vals.imag, vals.real))])

    def test_real_input_gets_the_bits_of_its_complex_cast(self):
        h = RNG.standard_normal((4, 4))
        h = h + h.T
        c = h.astype(complex)
        assert np.array_equal(eig_hermitian(h), np.linalg.eigvalsh(c))
        assert all(map(np.array_equal, eigh(h), np.linalg.eigh(c)))
        assert determinant(h) == np.linalg.det(c)
        assert np.array_equal(singular_values(h[:3]), np.linalg.svd(c[:3], compute_uv=False))
        vals = np.linalg.eigvals(c)
        assert np.array_equal(eig_general(h), vals[np.lexsort((vals.imag, vals.real))])

    def test_rectangular_singular_values(self):
        g = RNG.standard_normal((512, 3, 5)) + 1j * RNG.standard_normal((512, 3, 5))
        assert np.array_equal(singular_values(g), np.linalg.svd(g, compute_uv=False))

    @pytest.mark.parametrize(
        "gufunc, signature",
        [(matkernel._EIGH, "D->dD"), (matkernel._EIGVALSH, "D->d"), (matkernel._SVD, "D->d")],
    )
    def test_lapack_failure_raises_linalg_error(self, gufunc, signature):
        """as_matrix rejects NaN first; below it, LAPACK's failure raises as in numpy."""
        nan = np.full((1, 4, 4), np.nan, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            matkernel._lapack(gufunc, signature, nan)

    def test_eigh_checks_its_input(self):
        with pytest.raises(DimensionError):
            eigh(np.ones((2, 3)))
        with pytest.raises(ValueError):
            eigh(np.full((2, 2), np.inf))

    def test_eigh_psd_still_certifies_positivity(self):
        u = haar_random_unitary(4, RNG)
        low = u @ np.diag([0.5, 0.5 + 2 * PSD_TOL, 0.0, -2 * PSD_TOL]) @ u.conj().T
        with pytest.raises(ValueError, match="negative eigenvalue"):
            eigh_psd(low)
        with pytest.raises(ValueError, match="matrix 1 of the stack"):
            eigh_psd(np.stack([np.eye(4) / 4, low]))
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        assert np.array_equal(eigh_psd(rho.matrix)[0], np.linalg.eigh(rho.matrix)[0])


_LAPACK_USE = re.compile(
    r"_umath_linalg|linalg\.(?:eigh|eigvalsh|svd|det|eigvals)\b"
    r"|from\s+numpy\.linalg\s+import|from\s+numpy\s+import\s+linalg"
)


def test_matkernel_is_the_only_module_that_reaches_lapack_spectra():
    """No module but matkernel names numpy's linalg gufuncs or calls (or
    imports) numpy.linalg's eigh, eigvalsh, svd, det or eigvals."""
    package = Path(matkernel.__file__).parent
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py")) if path.name != "matkernel.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _LAPACK_USE.search(line)
    ]
    assert offenders == []
