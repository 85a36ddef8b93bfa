import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density_matrix
from permutangle import (
    DegenerateStateError,
    DensityMatrix,
    DimensionError,
    DomainError,
    HermiticityError,
    PureState,
    haar_random_pure,
    haar_random_unitary,
    make_state,
    mix,
    perturb_pure,
    purify,
    random_fixed_eigvecs,
    reduce,
    substream,
    three_tangle,
)
from permutangle.qstate import haar_amplitudes, haar_draw, reduce_pure_stack, substreams
from permutangle.families import (
    BELL_PHI_MINUS,
    BELL_PHI_PLUS,
    BELL_PSI_MINUS,
    BELL_PSI_PLUS,
)

RNG = np.random.default_rng(13579)


class TestContainers:
    def test_pure_state_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            PureState((2,), np.array([1.0, 1.0]))

    def test_pure_state_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            PureState((2, 2), np.array([1.0, 0.0]))

    def test_pure_state_rejects_empty_dims(self):
        with pytest.raises(DimensionError):
            PureState((), np.array([1.0]))

    def test_density_matrix_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5
        with pytest.raises(HermiticityError):
            DensityMatrix((2, 2), m)

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix((2, 2), np.eye(4, dtype=complex))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix((2, 2), m)

    def test_density_matrix_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            DensityMatrix((2, 2), np.eye(2, dtype=complex) / 2)

    def test_rank_and_purity(self):
        rho = make_state("werner", p=1.0)
        assert rho.rank() == 1
        assert rho.purity() == pytest.approx(1.0)
        assert make_state("werner", p=0.5).rank() == 4


class TestSubstream:
    def test_reproducible(self):
        a = substream(7, 42).standard_normal(16)
        b = substream(7, 42).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = substream(7, 1).standard_normal(8)
        b = substream(7, 2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = substream(1, 0).standard_normal(8)
        b = substream(2, 0).standard_normal(8)
        assert not np.array_equal(a, b)


class TestChunkStreams:
    """``substreams`` against numpy's own ``SeedSequence``, through ``substream``."""

    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 + 5, 2**128 + 3, 2**192 + 1, 2**200 + 7)
    INDICES = (0, 1, 511, 512, 2**31, 2**32 - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams_equal_seed_sequence_streams(self, seed):
        count = 0
        for rng, index in zip(substreams(seed, self.INDICES), self.INDICES):
            want = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
            assert rng.bit_generator.state == want.state, (seed, index)
            np.testing.assert_array_equal(
                rng.standard_normal(16), substream(seed, index).standard_normal(16))
            count += 1
        assert count == len(self.INDICES)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**160 - 1), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    def test_streams_equal_substream_for_any_seed(self, seed, indices):
        for rng, index in zip(substreams(seed, indices), indices):
            np.testing.assert_array_equal(
                rng.standard_normal(4), substream(seed, index).standard_normal(4))

    def test_each_index_has_its_own_generator(self):
        """Generators taken all at once and drawn from in reverse order still
        give each index its own stream."""
        rngs = list(substreams(5, self.INDICES))
        for rng, index in reversed(list(zip(rngs, self.INDICES))):
            np.testing.assert_array_equal(
                rng.standard_normal(8), substream(5, index).standard_normal(8))

    @pytest.mark.parametrize("index", [-1, 2**32])
    def test_rejects_an_index_beyond_one_word(self, index):
        with pytest.raises(DomainError):
            next(substreams(3, [0, index]))


class TestHaarSampling:
    def test_deterministic_under_fixed_seed(self):
        psi1 = haar_random_pure((2, 2, 2), substream(3, 5))
        psi2 = haar_random_pure((2, 2, 2), substream(3, 5))
        np.testing.assert_array_equal(psi1.amplitudes, psi2.amplitudes)
        assert psi1.amplitudes.size == 8

    def test_unit_norm(self):
        for dims in [(2, 2), (2, 2, 3), (2, 2, 4)]:
            psi = haar_random_pure(dims, RNG)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8, 12, 16])
    def test_stacked_normalization_has_the_bits_of_linalg_norm(self, n):
        parts = np.random.default_rng(n).standard_normal((2000, 2, n))
        stacked = haar_amplitudes(parts)
        for row, (re, im) in zip(stacked, parts):
            z = re + 1j * im
            assert np.array_equal(row, z / np.linalg.norm(z))

    def test_rejects_empty_and_trivial_dims(self):
        with pytest.raises(DimensionError):
            haar_random_pure((), RNG)
        with pytest.raises(DimensionError):
            haar_random_pure((2, 1), RNG)

    def test_mean_reduced_purity(self):
        # E[tr rho_1^2] = (d1 + d2) / (d1 d2 + 1) = 4/5 for a (2, 2) Haar state,
        # cross-checked against a coarse independent estimate before freezing.
        n = 100_000
        total = _reduced_purities(2024, n).sum()
        assert total / n == pytest.approx(0.8, abs=0.005)

    def test_unitary_invariance_ks(self):
        # Two-sample KS on reduced purity, plain samples vs samples rotated by
        # one fixed unitary; statistic must stay under the 1% critical value.
        n = 10_000
        u = haar_random_unitary(4, substream(77, 0))
        plain = _reduced_purities(555, n)
        rotated = _reduced_purities(556, n, u)
        ks = _ks_two_sample(plain, rotated)
        critical = 1.628 * math.sqrt(2.0 / n)
        assert ks < critical

    def test_haar_unitary_is_unitary(self):
        u = haar_random_unitary(4, RNG)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def _reduced_purities(seed: int, n: int, u=None) -> np.ndarray:
    """tr rho_1^2 of the (2, 2) Haar states ``haar_random_pure`` draws from
    the substreams of samples 0..n-1, each first rotated by ``u`` if given."""
    parts = np.array([haar_draw(4, rng) for rng in substreams(seed, range(n))])
    amplitudes = haar_amplitudes(parts)
    if u is not None:
        amplitudes = amplitudes @ u.T
    rho = reduce_pure_stack(amplitudes, (2, 2), (1,)).reshape(n, -1)
    return np.vecdot(rho, rho).real


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    data = np.concatenate([a, b])
    order = np.argsort(data, kind="mergesort")
    steps = np.where(order < len(a), 1.0 / len(a), -1.0 / len(b))
    return float(np.max(np.abs(np.cumsum(steps))))


class TestReduce:
    def test_ghz_reduction(self):
        ghz = PureState((2, 2, 2), np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
        rho = reduce(ghz, (1, 2))
        np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)

    def test_m3ts_classical_quantum_reduction(self):
        c = 0.37
        psi = make_state("m3ts", c12=c)
        rho13 = reduce(psi, (1, 3))
        alpha = np.array([c, np.sqrt(1 - c * c)])
        expected = 0.5 * (
            np.kron(np.diag([0.0, 1.0]), np.outer(alpha, alpha))
            + np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        )
        np.testing.assert_allclose(rho13.matrix, expected, atol=1e-14)

    def test_product_state_reduces_to_projector(self):
        v = haar_random_pure((2,), RNG).amplitudes
        w = haar_random_pure((2,), RNG).amplitudes
        psi = PureState((2, 2), np.kron(v, w))
        assert reduce(psi, (1,)).rank() == 1

    def test_keep_order_swaps_subsystems(self):
        psi = haar_random_pure((2, 2, 3), RNG)
        r12 = reduce(psi, (1, 2)).matrix
        r21 = reduce(psi, (2, 1)).matrix
        swapped = r12.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        np.testing.assert_allclose(r21, swapped, atol=1e-14)

    def test_keep_all_subsystems_reordered(self):
        # nothing is traced out, but the keep order must still be honored
        psi = haar_random_pure((2, 2), RNG)
        swapped_amps = psi.amplitudes.reshape(2, 2).T.reshape(-1)
        expected = np.outer(swapped_amps, swapped_amps.conj())
        np.testing.assert_allclose(reduce(psi, (2, 1)).matrix, expected, atol=1e-14)
        np.testing.assert_allclose(
            reduce(psi.density_matrix(), (2, 1)).matrix, expected, atol=1e-14
        )

    def test_density_matrix_input_matches_pure_input(self):
        psi = haar_random_pure((2, 2, 2), RNG)
        via_pure = reduce(psi, (1, 2)).matrix
        via_dm = reduce(psi.density_matrix(), (1, 2)).matrix
        np.testing.assert_allclose(via_pure, via_dm, atol=1e-14)

    def test_invalid_labels(self):
        psi = haar_random_pure((2, 2), RNG)
        with pytest.raises(DimensionError):
            reduce(psi, (0,))
        with pytest.raises(DimensionError):
            reduce(psi, (3,))
        with pytest.raises(DimensionError):
            reduce(psi, ())
        with pytest.raises(DimensionError):
            reduce(psi, (1, 1))


class TestPurify:
    def test_pure_input_round_trip(self):
        psi = haar_random_pure((2, 2), RNG)
        out = purify(psi.density_matrix())
        assert out.dims == (2, 2)
        assert abs(abs(np.vdot(out.amplitudes, psi.amplitudes)) - 1.0) <= 1e-10

    def test_mems1_purification_is_rank2(self):
        rho = make_state("mems1", c=0.55)
        pur = purify(rho)
        assert pur.dims == (2, 2, 2)
        np.testing.assert_allclose(reduce(pur, (1, 2)).matrix, rho.matrix, atol=1e-9)
        # any valid purification of the rank-2 boundary state has zero tangle
        assert three_tangle(pur) <= 1e-10

    def test_maximally_mixed(self):
        rho = DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
        pur = purify(rho)
        assert pur.dims == (2, 2, 4)
        assert reduce(pur, (1, 2)).purity() == pytest.approx(0.25)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_reduce_of_purify_round_trip(self, rank):
        for _ in range(10):
            rho = random_density_matrix(RNG, rank)
            pur = purify(rho)
            keep = tuple(range(1, len(rho.dims) + 1))
            np.testing.assert_allclose(reduce(pur, keep).matrix, rho.matrix, atol=1e-9)


class TestMixAndPerturb:
    def test_mix_eps_zero(self):
        a = random_density_matrix(RNG, 2)
        b = random_density_matrix(RNG, 4)
        np.testing.assert_allclose(mix(a, b, 0.0).matrix, a.matrix)

    def test_mix_large_eps_approaches_b(self):
        a = random_density_matrix(RNG, 2)
        b = random_density_matrix(RNG, 4)
        np.testing.assert_allclose(mix(a, b, 1e6).matrix, b.matrix, atol=1e-5)

    def test_mix_rejects_mismatch_and_negative_eps(self):
        a = random_density_matrix(RNG, 2)
        c = reduce(haar_random_pure((2, 3), RNG), (1, 2))
        with pytest.raises(DimensionError):
            mix(a, c, 0.1)
        with pytest.raises(ValueError):
            mix(a, a, -0.5)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_mix_rejects_non_finite_eps(self, eps):
        a = random_density_matrix(RNG, 2)
        with pytest.raises(DomainError, match="finite"):
            mix(a, a, eps)

    def test_ansatz_mix_has_rank3(self):
        eigvecs = np.column_stack([BELL_PSI_PLUS, BELL_PSI_MINUS, BELL_PHI_PLUS])
        base = make_state("ansatz1", p=0.4)
        noise = random_fixed_eigvecs(eigvecs, substream(9, 0), dims=(2, 2))
        assert mix(base, noise, 0.51).rank() == 3

    def test_perturb_eps_zero(self):
        psi = haar_random_pure((2, 2, 2), RNG)
        chi = haar_random_pure((2, 2, 2), RNG)
        np.testing.assert_allclose(perturb_pure(psi, chi, 0.0).amplitudes, psi.amplitudes)

    def test_perturb_self_is_global_phase(self):
        psi = haar_random_pure((2, 2, 2), RNG)
        out = perturb_pure(psi, psi, 3.7)
        assert abs(abs(np.vdot(out.amplitudes, psi.amplitudes)) - 1.0) <= 1e-12

    def test_perturb_degenerate_cancellation(self):
        psi = haar_random_pure((2, 2), RNG)
        flipped = PureState((2, 2), -psi.amplitudes)
        with pytest.raises(DegenerateStateError):
            perturb_pure(psi, flipped, 1.0)

    def test_perturb_dim_mismatch(self):
        with pytest.raises(DimensionError):
            perturb_pure(haar_random_pure((2, 2), RNG), haar_random_pure((2, 2, 2), RNG), 0.1)


    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_perturb_rejects_non_finite_eps(self, eps):
        psi = haar_random_pure((2, 2, 2), RNG)
        with pytest.raises(DomainError, match="finite"):
            perturb_pure(psi, psi, eps)

    @pytest.mark.parametrize("eps", [1e200, -1e160])
    def test_perturb_rejects_eps_whose_norm_overflows(self, eps):
        psi = haar_random_pure((2, 2, 2), RNG)
        chi = haar_random_pure((2, 2, 2), RNG)
        with pytest.raises(DomainError, match="eps"):
            perturb_pure(psi, chi, eps)

    def test_perturb_accepts_finite_negative_eps(self):
        psi = haar_random_pure((2, 2, 2), RNG)
        chi = haar_random_pure((2, 2, 2), RNG)
        v = psi.amplitudes - 0.3 * chi.amplitudes
        np.testing.assert_array_equal(
            perturb_pure(psi, chi, -0.3).amplitudes, v / np.linalg.norm(v))


class _Angles:
    """Stands in for a Generator whose two U[0, 1) draws scale to the given theta, phi."""

    def __init__(self, theta, phi):
        self._draws = iter((theta / np.pi, phi / (2.0 * np.pi)))

    def random(self):
        return next(self._draws)


class TestFixedEigvecMixtures:
    EIGVECS = np.column_stack([BELL_PSI_PLUS, BELL_PSI_MINUS, BELL_PHI_PLUS])

    def test_theta_zero_is_first_projector(self):
        rho = random_fixed_eigvecs(self.EIGVECS, _Angles(0.0, 1.234))
        np.testing.assert_allclose(
            rho.matrix, np.outer(BELL_PSI_PLUS, BELL_PSI_PLUS), atol=1e-15
        )

    def test_equal_mixture_of_last_two(self):
        rho = random_fixed_eigvecs(self.EIGVECS, _Angles(np.pi / 2, np.pi / 4))
        expected = 0.5 * (
            np.outer(BELL_PSI_MINUS, BELL_PSI_MINUS) + np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS)
        )
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_bell_eigvec_draw_is_bell_diagonal(self):
        rho = random_fixed_eigvecs(self.EIGVECS, substream(4, 4))
        assert rho.rank() <= 3
        basis = np.column_stack(
            [BELL_PHI_PLUS, BELL_PSI_PLUS, BELL_PSI_MINUS, BELL_PHI_MINUS]
        )
        in_bell = basis.conj().T @ rho.matrix @ basis
        off = in_bell - np.diag(np.diag(in_bell))
        assert np.max(np.abs(off)) <= 1e-12

    def test_rejects_non_orthonormal(self):
        bad = self.EIGVECS.copy()
        bad[:, 1] = bad[:, 0]
        with pytest.raises(ValueError):
            random_fixed_eigvecs(bad, substream(4, 4))

    @pytest.mark.parametrize("dims", [(2, 3), (4, 2), (3,), (8,)])
    def test_rejects_dims_that_do_not_fit_the_matrix(self, dims):
        rng = substream(4, 4)
        with pytest.raises(DimensionError, match="do not match a 4x4 matrix"):
            random_fixed_eigvecs(self.EIGVECS, rng, dims=dims)
        assert rng.random() == substream(4, 4).random()  # nothing drawn

    @pytest.mark.parametrize("dims", [None, (2, 2), (4,), (1, 4)])
    def test_dims_that_fit_the_matrix_are_kept(self, dims):
        rho = random_fixed_eigvecs(self.EIGVECS, substream(4, 4), dims=dims)
        assert rho.dims == ((2, 2) if dims is None else dims)
        default = random_fixed_eigvecs(self.EIGVECS, substream(4, 4))
        assert rho.matrix.tobytes() == default.matrix.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 10.0), st.integers(1, 4), st.integers(1, 4))
def test_mix_output_is_valid_state(eps, rank_a, rank_b):
    rng = np.random.default_rng(42)
    a = random_density_matrix(rng, rank_a)
    b = random_density_matrix(rng, rank_b)
    out = mix(a, b, eps)
    # re-validate through the checking constructor
    DensityMatrix(out.dims, out.matrix)
