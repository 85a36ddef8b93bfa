import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    partial_transpose_by_index,
    random_complex_matrix,
    random_density_matrix,
    realign_by_index,
)
from permutangle import (
    DensityMatrix,
    DimensionError,
    PureState,
    haar_random_pure,
    haar_random_unitary,
    link_product,
    link_transform,
    make_state,
    partial_transpose,
    path_invariant_spectrum,
    realign,
    reduce,
    substream,
)
from permutangle.matkernel import eig_general

RNG = np.random.default_rng(24680)


def _random_two_qubit_dm(rng) -> DensityMatrix:
    return random_density_matrix(rng, 4)


class TestPartialTranspose:
    def test_product_state_transposes_second_factor(self):
        b = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        rho_a = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
        rho = DensityMatrix((2, 2), np.kron(rho_a, b))
        np.testing.assert_allclose(partial_transpose(rho, 2), np.kron(rho_a, b.T), atol=1e-14)
        np.testing.assert_allclose(partial_transpose(rho, 1), np.kron(rho_a.T, b), atol=1e-14)

    def test_bell_state_minimum_eigenvalue(self):
        bell = PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
        pt2 = partial_transpose(bell.density_matrix(), 2)
        assert np.linalg.eigvalsh(pt2)[0] == pytest.approx(-0.5, abs=1e-12)

    def test_involution(self):
        rho = _random_two_qubit_dm(RNG)
        twice = partial_transpose(partial_transpose(rho, 2), 2, dims=(2, 2))
        np.testing.assert_array_equal(twice, rho.matrix)

    def test_matches_index_oracle_exactly(self):
        for dims in [(2, 2), (2, 3), (3, 2)]:
            psi = haar_random_pure(dims, RNG)
            rho = psi.density_matrix()
            for sub in (1, 2):
                oracle = partial_transpose_by_index(rho.matrix, *dims, subsystem=sub)
                assert np.array_equal(partial_transpose(rho, sub), oracle)

    def test_rejects_non_bipartite_and_bad_subsystem(self):
        rho = reduce(haar_random_pure((2, 2, 2), RNG), (1,))
        with pytest.raises(DimensionError):
            partial_transpose(rho, 2)
        with pytest.raises(DimensionError):
            partial_transpose(_random_two_qubit_dm(RNG), 3)


class TestRealign:
    def test_explicit_two_qubit_arrangement(self):
        # the combined operation realign(pt2(rho)) on a generic two-qubit
        # density matrix, checked entry by entry against the closed-form
        # arrangement of the original entries
        rho = _random_two_qubit_dm(RNG).matrix
        a = rho  # a[i, j] with rows/cols in basis 00, 01, 10, 11
        out = link_transform(DensityMatrix((2, 2), rho))
        expected = np.array(
            [
                [a[0, 0], np.conj(a[0, 1]), a[0, 1], a[1, 1]],
                [a[0, 2], a[1, 2], a[0, 3], a[1, 3]],
                [np.conj(a[0, 2]), np.conj(a[0, 3]), np.conj(a[1, 2]), np.conj(a[1, 3])],
                [a[2, 2], np.conj(a[2, 3]), a[2, 3], a[3, 3]],
            ]
        )
        np.testing.assert_array_equal(out, expected)

    def test_matches_index_oracle_exactly(self):
        for dims in [(2, 2), (2, 3), (3, 3)]:
            d1, d2 = dims
            m = random_complex_matrix(RNG, d1 * d2, d1 * d2)
            assert np.array_equal(realign(m, dims), realign_by_index(m, d1, d2))

    def test_rectangular_output_shape(self):
        m = random_complex_matrix(RNG, 6, 6)
        assert realign(m, (2, 3)).shape == (4, 9)

    def test_involution_equal_dims(self):
        m = random_complex_matrix(RNG, 4, 4)
        np.testing.assert_array_equal(realign(realign(m, (2, 2)), (2, 2)), m)

    def test_maximally_entangled_gives_half_swap(self):
        bell = PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        np.testing.assert_allclose(link_transform(bell.density_matrix()), swap / 2, atol=1e-15)

    def test_product_after_pt_is_rank_one_outer_product(self):
        u = haar_random_pure((2,), RNG).amplitudes
        v = haar_random_pure((2,), RNG).amplitudes
        rho1 = np.outer(u, u.conj())
        rho2 = np.outer(v, v.conj())
        rho = DensityMatrix((2, 2), np.kron(rho1, rho2))
        expected = np.outer(rho1.reshape(-1), rho2.reshape(-1).conj())
        np.testing.assert_allclose(link_transform(rho), expected, atol=1e-14)

    def test_outer_product_reconstructs_realigned_product_state(self):
        rho1 = np.array([[0.8, 0.1 + 0.3j], [0.1 - 0.3j, 0.2]])
        rho2 = np.array([[0.55, -0.2j], [0.2j, 0.45]])
        rho = DensityMatrix((2, 2), np.kron(rho1, rho2))
        realigned_no_pt = realign(rho.matrix, (2, 2))
        expected = np.outer(rho1.reshape(-1), rho2.T.reshape(-1).conj())
        np.testing.assert_allclose(realigned_no_pt, expected, atol=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            realign(np.eye(4), (2, 3))


class TestLinkProduct:
    def test_maximally_entangled_gives_quarter_identity(self):
        bell = PureState((2, 2), np.array([0, 1, -1, 0]) / np.sqrt(2))
        np.testing.assert_allclose(link_product(bell.density_matrix()), np.eye(4) / 4, atol=1e-14)

    def test_product_state_rank_one_and_trace(self):
        u = haar_random_pure((2,), RNG).amplitudes
        rho1 = np.outer(u, u.conj())
        rho2 = np.array([[0.75, 0.1], [0.1, 0.25]])
        rho = DensityMatrix((2, 2), np.kron(rho1, rho2))
        lp = link_product(rho)
        evals = np.linalg.eigvalsh(lp)
        assert np.sum(evals > 1e-12) == 1
        purity_product = np.trace(rho1 @ rho1).real * np.trace(rho2 @ rho2).real
        assert np.trace(lp).real == pytest.approx(purity_product, abs=1e-12)

    def test_classical_quantum_zero_modes(self):
        cq = make_state("cq_state", p=0.4, a=(0.1, 0.3, -0.2), b=(0.6, 0.0, 0.1))
        evals = np.linalg.eigvalsh(link_product(cq))
        assert np.sum(evals < 1e-10) >= 2  # at least d_C^2 - d_C vanishing modes

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_trace_equals_purity(self, rank):
        for _ in range(25):
            rho = random_density_matrix(RNG, rank)
            assert abs(np.trace(link_product(rho)).real - rho.purity()) <= 1e-10

    def test_spectrum_invariant_under_local_unitaries(self):
        rho = random_density_matrix(RNG, 3)
        base = np.sort(np.linalg.eigvalsh(link_product(rho)))
        for _ in range(25):
            u = np.kron(haar_random_unitary(2, RNG), haar_random_unitary(2, RNG))
            rotated = DensityMatrix((2, 2), u @ rho.matrix @ u.conj().T)
            vals = np.sort(np.linalg.eigvalsh(link_product(rotated)))
            assert np.max(np.abs(vals - base)) <= 1e-8

    def test_separable_few_terms_is_rank_deficient(self):
        rng = substream(31, 0)
        weights = rng.dirichlet(np.ones(3))
        rho = np.zeros((4, 4), dtype=complex)
        for w in weights:
            u = haar_random_pure((2,), rng).amplitudes
            v = haar_random_pure((2,), rng).amplitudes
            rho += w * np.kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
        lp = link_product(DensityMatrix((2, 2), rho))
        assert np.linalg.eigvalsh(lp)[0] < 1e-10

    def test_unequal_dims_rejected(self):
        rho = reduce(haar_random_pure((2, 3), RNG), (1, 2))
        with pytest.raises(DimensionError):
            link_product(rho)

    def test_swapped_link_is_adjoint(self):
        psi = haar_random_pure((2, 2, 2), RNG)
        fwd = link_transform(reduce(psi, (1, 2)))
        rev = link_transform(reduce(psi, (2, 1)))
        np.testing.assert_allclose(rev, fwd.conj().T, atol=1e-13)


class TestPathInvariants:
    def test_two_qubit_schmidt_spectrum(self):
        lam = np.array([0.8, 0.2])
        psi = PureState((2, 2), np.array([np.sqrt(0.8), 0, 0, np.sqrt(0.2)]))
        spec = np.sort(path_invariant_spectrum(psi, (1, 2)).real)
        expected = np.sort(np.outer(lam, lam).reshape(-1))
        np.testing.assert_allclose(spec, expected, atol=1e-12)

    def test_pair_path_matches_link_product_spectrum(self):
        psi = haar_random_pure((2, 2, 3), RNG)
        spec = np.sort(path_invariant_spectrum(psi, (1, 2)).real)
        direct = np.sort(np.linalg.eigvalsh(link_product(reduce(psi, (1, 2)))))
        np.testing.assert_allclose(spec, direct, atol=1e-10)

    def test_local_unitary_invariance(self):
        psi = haar_random_pure((2, 2, 2), RNG)
        base = path_invariant_spectrum(psi, (1, 2, 3))
        for _ in range(20):
            u = np.kron(np.kron(haar_random_unitary(2, RNG), haar_random_unitary(2, RNG)),
                        haar_random_unitary(2, RNG))
            rotated = PureState((2, 2, 2), u @ psi.amplitudes)
            spec = path_invariant_spectrum(rotated, (1, 2, 3))
            assert np.max(np.abs(np.sort_complex(spec) - np.sort_complex(base))) <= 1e-8

    def test_characteristic_polynomial_is_real(self):
        psi = haar_random_pure((2, 2, 2), RNG)
        spec = path_invariant_spectrum(psi, (1, 2, 3))
        coeffs = np.poly(spec)
        assert np.max(np.abs(coeffs.imag)) <= 1e-8

    def test_ghz_matches_brute_force_product(self):
        ghz = PureState((2, 2, 2), np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
        labels = [1, 2, 3]
        product = np.eye(4, dtype=complex)
        for cur, nxt in zip(labels, labels[1:] + labels[:1]):
            pair = reduce(ghz, (nxt, cur)).matrix
            step = realign_by_index(
                partial_transpose_by_index(pair, 2, 2, subsystem=2), 2, 2
            )
            product = step @ product
        oracle = np.sort_complex(eig_general(product))
        spec = np.sort_complex(path_invariant_spectrum(ghz, (1, 2, 3)))
        np.testing.assert_allclose(spec, oracle, atol=1e-10)

    def test_unequal_link_dims_rejected(self):
        psi = haar_random_pure((2, 2, 3), RNG)
        with pytest.raises(DimensionError):
            path_invariant_spectrum(psi, (1, 3))

    def test_bad_path(self):
        psi = haar_random_pure((2, 2), RNG)
        with pytest.raises(DimensionError):
            path_invariant_spectrum(psi, (1,))
        with pytest.raises(DimensionError):
            path_invariant_spectrum(psi, (1, 5))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_involutions_property(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, int(rng.integers(1, 5)))
    pt_twice = partial_transpose(partial_transpose(rho, 1), 1, dims=(2, 2))
    assert np.array_equal(pt_twice, rho.matrix)
    assert np.array_equal(realign(realign(rho.matrix, (2, 2)), (2, 2)), rho.matrix)
