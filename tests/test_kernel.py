"""The stacked measure kernel behind campaigns and the scalar measures.

Pins the kernel four ways: campaign bytes do not depend on the chunk size,
a campaign sample rebuilt alone from the scalar constructors and measured
alone (``build_record`` and the scalar functions) gets the record of the
campaign's stacked build, ``numeric_measures`` gets the bits of the scalar
functions (of a record with a parent, for a pure state's concurrences), and
every value agrees with the naive per-state oracles of ``conftest``. Rank and
c12 taken from (2, 2, 2) parents agree with the ``eigh`` route to 1e-12. A
bad matrix anywhere in a stack raises what the scalar call raises on it.
"""

import math

import numpy as np
import pytest

from conftest import (
    cofactor_determinant,
    partial_transpose_by_index,
    pure_partial_trace_by_index,
    random_complex_matrix,
    random_density_matrix,
    realign_by_index,
    wootters_concurrence_truncated,
)
from permutangle import (
    FAMILY_TAGS,
    DensityMatrix,
    DimensionError,
    HermiticityError,
    PureState,
    build_record,
    concurrence,
    experiments,
    haar_random_pure,
    haar_random_unitary,
    make_state,
    mix,
    negativity,
    numeric_measures,
    partial_transpose,
    perturb_pure,
    perturbation_campaign,
    purify,
    r12,
    random_fixed_eigvecs,
    realign,
    records_csv_bytes,
    reduce,
    sample_params,
    scatter,
    separable_campaign,
    substream,
    three_tangle,
)
from permutangle.families import BELL_PHI_PLUS, BELL_PSI_MINUS, BELL_PSI_PLUS
from permutangle.matkernel import (
    as_matrix,
    determinant,
    eig_general,
    eig_hermitian,
    singular_values,
)
from permutangle.measures import measure_stack
from permutangle.qstate import PSD_TOL, RANK_EPS, _trusted_dm, reduce_pure_stack

RNG = np.random.default_rng(20251018)
EPSILON = 0.51
CAMPAIGNS = (
    [("scatter", dims) for dims in experiments.SCATTER_DIMS]
    + [("perturb", kind) for kind in experiments.PERTURBATION_KINDS]
    + [("separable", None)]
)


def _campaign(campaign, n, seed):
    mode, arg = campaign
    if mode == "scatter":
        return scatter(arg, n, seed)
    if mode == "perturb":
        return perturbation_campaign(arg, n, seed, epsilon=EPSILON)
    return separable_campaign(n, seed)


_ANSATZ1_EIGVECS = np.column_stack([BELL_PSI_PLUS, BELL_PSI_MINUS, BELL_PHI_PLUS])


def _separable_state(rng, index):
    """The separable campaign's sample ``index``, from the scalar constructors."""
    kind = index % 4
    if kind == 0:
        weights = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        rho = np.zeros((4, 4), dtype=complex)
        for w in weights:
            u = haar_random_pure((2,), rng).amplitudes
            v = haar_random_pure((2,), rng).amplitudes
            rho += w * np.kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
        return DensityMatrix((2, 2), rho), "product_mix"
    if kind == 1:
        return make_state("cq_state", **sample_params("cq_state", rng)), "cq_state"
    if kind == 2:
        return make_state("werner", p=rng.uniform(0.0, 1.0 / 3.0)), "werner_separable"
    while True:
        p = rng.dirichlet(np.ones(4))
        if p.max() <= 0.5:
            break
    state = make_state("bell_diagonal", p1=p[0], p2=p[1], p3=p[2], p4=p[3])
    return state, "bell_diagonal_separable"


def _sample(campaign, seed, index):
    """Sample ``index`` of a campaign as (two-qubit state, parent, family).

    Built one sample at a time from the public scalar functions and
    ``substream(seed, index)``, independently of the campaigns' stacked
    builds, as the benchmark's own constructors are.
    """
    mode, arg = campaign
    rng = substream(seed, index)
    if mode == "scatter":
        psi = haar_random_pure(arg, rng)
        family = "haar_" + "x".join(str(d) for d in arg)
        if len(arg) == 2:
            return psi.density_matrix(), None, family
        return reduce(psi, (1, 2)), psi, family
    if mode == "separable":
        state, family = _separable_state(rng, index)
        return state, None, family
    if arg == "ansatz1_fig4":
        base = make_state("ansatz1", p=rng.uniform(0.0, 1.0))
        noise = random_fixed_eigvecs(_ANSATZ1_EIGVECS, rng, dims=(2, 2))
        return mix(base, noise, EPSILON), None, arg
    if arg == "werner_fig5":
        base = make_state("werner", p=rng.uniform(0.0, 1.0), bell="psi-")
        noise = reduce(haar_random_pure((2, 2, 4), rng), (1, 2))
        return mix(base, noise, EPSILON), None, arg
    if arg == "mems1_fig8":
        psi = make_state("mems1_purification", c=rng.uniform(0.0, 1.0))
        phi = perturb_pure(psi, haar_random_pure((2, 2, 2), rng), EPSILON)
        return reduce(phi, (1, 2)), phi, arg
    raise ValueError(f"unknown campaign {campaign}")


@pytest.mark.parametrize("campaign", CAMPAIGNS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_campaign_bytes_independent_of_chunk_size(campaign, monkeypatch):
    out = {}
    for size in (1, 7, 512):
        monkeypatch.setattr(experiments, "CHUNK_SIZE", size)
        out[size] = records_csv_bytes(_campaign(campaign, 530, seed=21))
    assert out[1] == out[7] == out[512]


@pytest.mark.parametrize("campaign", CAMPAIGNS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_build_record_equals_campaign_record(campaign):
    seed = 33
    records = _campaign(campaign, 520, seed)
    # every separable index: all four kinds, all three product-mixture term
    # counts and both sides of the chunk edge
    indices = (0, 1, 2, 3, 6, 7, 255, 510, 511, 512, 513, 519)
    if campaign[0] == "separable":
        indices = range(520)
    for index in indices:
        assert build_record(*_sample(campaign, seed, index)) == records[index]


def test_build_record_contract():
    """Two-qubit input only; tau exactly when the parent is a (2, 2, 2) pure state."""
    psi = haar_random_pure((2, 2, 2), substream(41, 0))
    with pytest.raises(DimensionError):
        build_record(psi.density_matrix(), None, "haar_2x2x2")
    with pytest.raises(DimensionError):
        build_record(DensityMatrix((4,), np.eye(4, dtype=complex) / 4), None, "flat")
    assert build_record(reduce(psi, (1, 2)), psi, "haar_2x2x2").tau == three_tangle(psi)
    wide = haar_random_pure((2, 2, 3), substream(41, 1))
    assert build_record(reduce(wide, (1, 2)), wide, "haar_2x2x3").tau is None


def test_build_record_rejects_a_parent_of_another_state():
    """tau comes from the parent and c12 from rho, so rho must be the parent's
    (1, 2) reduction."""
    psi = haar_random_pure((2, 2, 2), substream(41, 0))
    other = haar_random_pure((2, 2, 2), substream(41, 2))
    for rho in (reduce(other, (1, 2)), reduce(psi, (1, 3)), reduce(psi, (2, 1))):
        with pytest.raises(ValueError, match="reduction of the"):
            build_record(rho, psi, "haar_2x2x2")


def _reference(rho: np.ndarray, parent=None) -> dict:
    """Per-state values from the naive oracles alone."""
    link = realign_by_index(partial_transpose_by_index(rho, 2, 2, 2), 2, 2)
    det = abs(cofactor_determinant(link))
    out = {
        "rank": int(np.count_nonzero(np.linalg.eigvalsh(rho) > RANK_EPS)),
        "c12": wootters_concurrence_truncated(rho),
        "n12": max(0.0, -2.0 * np.linalg.eigvalsh(partial_transpose_by_index(rho, 2, 2, 2))[0]),
        "det": det,
        "r12": min(1.0, 2.0 * det**0.25),
    }
    if parent is not None:
        rho1 = pure_partial_trace_by_index(parent, (2, 2, 2), (1,))
        rho13 = pure_partial_trace_by_index(parent, (2, 2, 2), (1, 3))
        c13 = wootters_concurrence_truncated(rho13)
        out["tau"] = 4.0 * cofactor_determinant(rho1).real - out["c12"] ** 2 - c13**2
    return out


def _check_against_oracles(rhos, m, parents=None):
    for i, rho in enumerate(rhos):
        ref = _reference(rho, None if parents is None else parents[i])
        assert m.rank[i] == ref["rank"]
        assert abs(m.c12[i] - ref["c12"]) <= 1e-12
        assert abs(m.n12[i] - ref["n12"]) <= 1e-12
        # r12 = 2 |det|^(1/4) is quartically ill-conditioned at det = 0, so
        # the determinant itself is compared; r12 too where the root is tame
        assert abs((m.r12[i] / 2.0) ** 4 - ref["det"]) <= 1e-12
        if ref["det"] > 1e-8:
            assert abs(m.r12[i] - ref["r12"]) <= 1e-12
        if parents is not None:
            assert abs(m.tau[i] - ref["tau"]) <= 1e-12


def test_kernel_matches_oracles_with_parents():
    parents = [haar_random_pure((2, 2, 2), RNG).amplitudes for _ in range(24)]
    ghz = np.zeros(8)
    ghz[[0, 7]] = 1 / math.sqrt(2)
    w_state = np.zeros(8)
    w_state[[1, 2, 4]] = 1 / math.sqrt(3)
    product = np.zeros(8)
    product[0] = 1.0
    parents += [ghz, w_state, product, make_state("m3ts", c12=0.6).amplitudes]
    parents = np.array(parents, dtype=complex)
    rhos = np.stack([reduce(PureState((2, 2, 2), p), (1, 2)).matrix for p in parents])
    m = measure_stack(parents)
    _check_against_oracles(rhos, m, parents)
    assert m.tau[-4] == pytest.approx(1.0, abs=1e-12)  # GHZ
    assert m.tau[-3] == pytest.approx(0.0, abs=1e-12)  # W


def test_kernel_matches_oracles_across_ranks_and_families():
    states = [random_density_matrix(RNG, rank).matrix for rank in (1, 2, 3, 4) for _ in range(6)]
    states += [
        make_state("werner", p=0.0).matrix,
        make_state("werner", p=0.5).matrix,
        make_state("bell_diagonal", p1=0.7, p2=0.1, p3=0.1, p4=0.1).matrix,
        make_state("mems1", c=0.4).matrix,
        make_state("ansatz1", p=0.3).matrix,
    ]
    rhos = np.stack(states)
    m = measure_stack(rhos)
    assert m.tau is None
    _check_against_oracles(rhos, m)


def test_scalar_measures_are_batches_of_one():
    """n12, r12 and tau of a parent stack have the scalar functions' bits; rank
    and c12 come from the parents, and have the bits of a batch of one."""
    psis = [haar_random_pure((2, 2, 2), RNG) for _ in range(9)]
    rhos = [reduce(psi, (1, 2)) for psi in psis]
    m = measure_stack(np.stack([p.amplitudes for p in psis]))
    for i, (psi, rho) in enumerate(zip(psis, rhos)):
        alone = measure_stack(psi.amplitudes[None])
        assert alone.c12 == [m.c12[i]]
        assert alone.rank == [m.rank[i]]
        assert build_record(rho, psi, "haar_2x2x2")[:2] == (m.rank[i], m.c12[i])
        assert negativity(rho) == m.n12[i]
        assert r12(rho) == m.r12[i]
        assert rho.rank() == m.rank[i]
        assert three_tangle(psi) == m.tau[i]


def _haar_parent_stack(seed, n=4096):
    parents = np.stack([haar_random_pure((2, 2, 2), substream(seed, i)).amplitudes
                        for i in range(n)])
    return reduce_pure_stack(parents, (2, 2, 2), (1, 2)), parents


def test_parent_route_agrees_with_the_eigh_route():
    """rank and c12 from the parents' branches are those of the reductions'
    spectra and Wootters' 4x4 overlap."""
    rhos, parents = _haar_parent_stack(4097)
    m = measure_stack(parents)
    eigh_route = measure_stack(rhos)
    assert m.rank == eigh_route.rank == [2] * len(parents)
    assert max(map(abs, np.subtract(m.c12, eigh_route.c12))) <= 1e-12
    for i in range(0, len(parents), 64):
        rho = DensityMatrix((2, 2), rhos[i])
        assert abs(m.c12[i] - concurrence(rho)) <= 1e-12
        assert m.rank[i] == rho.rank()


def test_parent_route_on_edge_states():
    """A pure product reduction has M = 0 and c12 exactly 0, not 0/0."""
    zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    ghz = (np.kron(np.kron(zero, zero), zero) + np.kron(np.kron(one, one), one)) / math.sqrt(2)
    w_state = np.zeros(8)
    w_state[[1, 2, 4]] = 1 / math.sqrt(3)
    noise = random_complex_matrix(RNG, 1, 8)[0]
    noisy_ghz = ghz + 1e-12 * noise
    parents = np.array([
        np.kron(np.kron(zero, zero), zero),
        np.kron(BELL_PHI_PLUS, zero),
        ghz,
        w_state,
        noisy_ghz / np.linalg.norm(noisy_ghz),
    ], dtype=complex)
    rhos = reduce_pure_stack(parents, (2, 2, 2), (1, 2))
    m = measure_stack(parents)
    assert m.c12[0] == m.c12[2] == 0.0  # |000> and GHZ
    assert m.rank[:4] == [1, 1, 2, 2]
    assert abs(m.c12[1] - 1.0) <= 1e-15  # |Phi+>|0>, whose amplitudes are rounded
    assert abs(m.c12[3] - 2.0 / 3.0) <= 1e-15
    assert abs(m.c12[4] - measure_stack(rhos[4:]).c12[0]) <= 1e-15


def test_tau_independent_of_stack_size():
    """tau takes numpy's SIMD-dispatched complex products, so its bits must not
    depend on where a state falls in a stack: each size splits the stack into
    chunks that end at a different point of the vector loop."""
    _, parents = _haar_parent_stack(4096)
    whole = measure_stack(parents).tau
    assert whole == [three_tangle(PureState((2, 2, 2), p)) for p in parents]
    for size in (2, 3, 5, 7, 9, 13, 511):
        chunked = [tau for s in range(0, len(parents), size)
                   for tau in measure_stack(parents[s:s + size]).tau]
        assert chunked == whole, size


def test_parent_c12_and_rank_independent_of_stack_size():
    """c12 and rank from the parents take SIMD-dispatched complex products,
    ``np.hypot`` and ``sqrt``; their bits must not depend on the stack size."""
    _, parents = _haar_parent_stack(4096)
    whole = measure_stack(parents)
    for size in (2, 3, 5, 7, 9, 13, 511):
        parts = [measure_stack(parents[s:s + size])
                 for s in range(0, len(parents), size)]
        assert [c for part in parts for c in part.c12] == whole.c12, size
        assert [r for part in parts for r in part.rank] == whole.rank, size


@pytest.mark.parametrize("family", FAMILY_TAGS)
def test_numeric_measures_equal_scalar_measures(family):
    """``numeric_measures`` measures a family state in one stacked call; each
    value has the bits of the scalar measure of the reduced pair, or, for the
    concurrences of a pure state's pairs, of that pair's record with the
    state as its parent, qubits a and b first."""
    for i in range(50):
        params = sample_params(family, substream(4242, i))
        state = make_state(family, **params)
        if isinstance(state, PureState):
            want = {"n12": negativity(reduce(state, (1, 2))), "tau": three_tangle(state)}
            for a, b in ((1, 2), (1, 3), (2, 3)):
                pair = reduce(state, (a, b))
                order = (a - 1, b - 1, 3 - (a - 1) - (b - 1))
                parent = PureState((2, 2, 2), state.amplitudes.reshape(2, 2, 2).transpose(order))
                want[f"c{a}{b}"] = build_record(pair, parent, family).c12
                want[f"r{a}{b}"] = r12(pair)
                assert abs(want[f"c{a}{b}"] - concurrence(pair)) <= 1e-12
        else:
            want = {"c12": concurrence(state), "n12": negativity(state), "r12": r12(state)}
            if state.rank() == 2:
                want["tau"] = three_tangle(purify(state))
            elif state.rank() == 1:
                want["tau"] = 0.0
        assert numeric_measures(family, **params) == want, (family, params)


def test_stacked_reduction_equals_reduce():
    for dims in ((2, 2, 2), (2, 2, 3), (2, 2, 4)):
        psis = [haar_random_pure(dims, RNG) for _ in range(5)]
        stacked = reduce_pure_stack(np.stack([p.amplitudes for p in psis]), dims, (1, 3))
        for psi, rho in zip(psis, stacked):
            assert np.array_equal(rho, reduce(psi, (1, 3)).matrix)


# --------------------------------------------------------------------------
# one bad matrix in a stack


def _good_stack(k=6):
    return np.stack([random_density_matrix(RNG, 1 + i % 4).matrix for i in range(k)])


def _non_finite():
    bad = random_density_matrix(RNG, 3).matrix.copy()
    bad[1, 2] = np.nan
    return bad


def _negative_eigenvalue():
    u = haar_random_unitary(4, RNG)
    return u @ np.diag([0.5, 0.5 + 100 * PSD_TOL, 0.0, -100 * PSD_TOL]) @ u.conj().T


def _beyond_clamp():
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    return 2.0 * np.outer(bell, bell).astype(complex)  # every measure reads 2


def _non_hermitian():
    bad = random_density_matrix(RNG, 4).matrix.copy()
    bad[0, 1] += 1e-8j  # upper triangle only: eigh reads the lower one
    return bad


@pytest.mark.parametrize(
    "make_bad, scalar, error",
    [
        (_non_finite, negativity, ValueError),
        (_non_finite, r12, ValueError),
        (_negative_eigenvalue, concurrence, ValueError),
        (_beyond_clamp, r12, ValueError),
        (_beyond_clamp, concurrence, ValueError),
        (_non_hermitian, negativity, HermiticityError),
    ],
    ids=["non-finite-n12", "non-finite-r12", "negative-eigenvalue", "clamp-r12", "clamp-c12",
         "non-hermitian"],
)
def test_bad_matrix_in_stack_raises_like_scalar_call(make_bad, scalar, error):
    bad = make_bad()
    with pytest.raises(Exception) as alone:
        scalar(_trusted_dm((2, 2), bad))
    with pytest.raises(Exception) as record:
        build_record(_trusted_dm((2, 2), bad), None, "bad")
    stack = _good_stack()
    measure_stack(stack)
    stack[3] = bad
    with pytest.raises(Exception) as stacked:
        measure_stack(stack)
    assert alone.type is record.type is stacked.type
    assert issubclass(stacked.type, error)


def test_bad_parent_in_stack():
    parents = np.stack([haar_random_pure((2, 2, 2), RNG).amplitudes for _ in range(4)])
    with pytest.raises(DimensionError):  # pure states over (2, 2, 3) are not parents
        measure_stack(np.concatenate([parents, parents[:, :4]], axis=1))
    parents[2, 5] = np.inf
    with pytest.raises(ValueError):
        measure_stack(parents)
    with pytest.raises(DimensionError):
        measure_stack(np.ones((3, 9, 9)))


# --------------------------------------------------------------------------
# matkernel and permutation stacks


def test_matkernel_stacks_match_single_calls():
    square = np.stack([random_complex_matrix(RNG, 4, 4) for _ in range(7)])
    hermitian = square + np.swapaxes(square.conj(), -1, -2)
    rect = np.stack([random_complex_matrix(RNG, 3, 5) for _ in range(7)])
    assert np.array_equal(determinant(square), [determinant(m) for m in square])
    assert np.array_equal(eig_hermitian(hermitian), [eig_hermitian(m) for m in hermitian])
    assert np.array_equal(singular_values(rect), [singular_values(m) for m in rect])


def test_matkernel_checks_each_matrix_of_a_stack():
    square = np.stack([random_complex_matrix(RNG, 3, 3) for _ in range(4)])
    bad = square.copy()
    bad[1, 0, 2] = np.inf
    with pytest.raises(ValueError, match="matrix 1 of the stack"):
        determinant(bad)
    hermitian = square + np.swapaxes(square.conj(), -1, -2)
    hermitian[2, 0, 1] += 1e-6
    with pytest.raises(HermiticityError, match="matrix 2 of the stack"):
        eig_hermitian(hermitian)
    with pytest.raises(DimensionError):
        determinant(np.ones((2, 3, 4)))
    with pytest.raises(DimensionError):
        singular_values(np.ones((2, 17, 3)))
    with pytest.raises(DimensionError):
        as_matrix(np.ones((2, 2, 3, 3)), stack=True)
    with pytest.raises(DimensionError):
        eig_general(np.ones((2, 3, 3)))


def test_stacked_permutations_match_single_matrices():
    for dims in ((2, 2), (2, 3), (3, 3)):
        d = dims[0] * dims[1]
        stack = np.stack([random_complex_matrix(RNG, d, d) for _ in range(3)])
        for sub in (1, 2):
            pts = partial_transpose(stack, sub, dims=dims)
            for m, pt in zip(stack, pts):
                assert np.array_equal(pt, partial_transpose_by_index(m, *dims, subsystem=sub))
        for m, re in zip(stack, realign(stack, dims)):
            assert np.array_equal(re, realign_by_index(m, *dims))
