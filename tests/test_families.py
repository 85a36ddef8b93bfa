import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutangle import (
    CURVE_TAGS,
    DomainError,
    FAMILY_TAGS,
    PureState,
    boundary_curve,
    closed_form_measures,
    concurrence,
    curve_grid,
    make_state,
    negativity,
    numeric_measures,
    r12,
    reduce,
    sample_params,
    substream,
    three_tangle,
)
from permutangle import families
from permutangle.families import (
    BELL_PHI_PLUS,
    _random_bloch,
    flat_dirichlet,
    state_stack,
    cr_rank3_r_bound,
    nr_rank2_n_lower,
    nr_rank3_r_bound,
    rank4_r_bound,
)
from permutangle.measures import WITNESS_THRESHOLD

KNEE = WITNESS_THRESHOLD
SX_SX = np.array(
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float
)


class TestConstructors:
    def test_werner_extremes(self):
        np.testing.assert_allclose(
            make_state("werner", p=1.0).matrix,
            np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS),
            atol=1e-15,
        )
        np.testing.assert_allclose(
            make_state("werner", p=0.0).matrix, np.eye(4) / 4, atol=1e-15
        )

    def test_werner_psi_minus_variant_same_measures(self):
        a = make_state("werner", p=0.7, bell="phi+")
        b = make_state("werner", p=0.7, bell="psi-")
        assert r12(a) == pytest.approx(r12(b), abs=1e-12)
        assert concurrence(a) == pytest.approx(concurrence(b), abs=1e-12)
        assert not np.allclose(a.matrix, b.matrix)

    def test_mems1_printed_matrix(self):
        c = 2 / 3
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = c / 2
        expected[1, 1] = 1 - c
        np.testing.assert_allclose(make_state("mems1", c=c).matrix, expected, atol=1e-15)

    def test_mems2_printed_matrix(self):
        c = 0.5
        expected = np.diag([1 / 3, 1 / 3, 0.0, 1 / 3]).astype(complex)
        expected[0, 3] = expected[3, 0] = c / 2
        np.testing.assert_allclose(make_state("mems2", c=c).matrix, expected, atol=1e-15)

    def test_m3ts_extremes(self):
        top = make_state("m3ts", c12=1.0)
        expected = np.zeros(8)
        expected[0] = expected[6] = 1 / np.sqrt(2)  # (|00> + |11>)|0> / sqrt(2)
        np.testing.assert_allclose(top.amplitudes, expected, atol=1e-15)
        ghz = make_state("m3ts", c12=0.0)
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        np.testing.assert_allclose(ghz.amplitudes, expected, atol=1e-15)

    def test_ansatz2_alpha_third_is_diagonal(self):
        rho = make_state("ansatz2", alpha=1 / 3)
        np.testing.assert_allclose(rho.matrix, np.diag([1 / 3, 1 / 3, 0, 1 / 3]), atol=1e-12)

    def test_x_state_layout(self):
        rho = make_state("x_state", a=0.4, b=0.3, c=0.2, d=0.1, w=0.1j, z=0.1).matrix
        assert rho[0, 3] == 0.1j and rho[3, 0] == -0.1j
        assert rho[1, 2] == 0.1 and rho[2, 1] == 0.1
        assert rho[0, 1] == 0 and rho[1, 3] == 0

    def test_canonical_amplitude_layout(self):
        psi = make_state(
            "canonical3",
            lambda0=0.5,
            lambda1=0.5,
            lambda2=0.5,
            lambda3=0.35,
            lambda4=math.sqrt(1 - 0.75 - 0.1225),
            theta=0.4,
        )
        amps = psi.amplitudes
        assert amps[1] == amps[2] == amps[3] == 0
        assert amps[0] == pytest.approx(0.5)
        assert amps[4] == pytest.approx(0.5 * np.exp(0.4j))

    def test_mems1_purification_reduces_to_flipped_mems1(self):
        c = 0.45
        psi = make_state("mems1_purification", c=c)
        rho = reduce(psi, (1, 2)).matrix
        mems = make_state("mems1", c=c).matrix
        np.testing.assert_allclose(rho, SX_SX @ mems @ SX_SX, atol=1e-12)
        # same measures either way (the flip is a local unitary)
        assert r12(reduce(psi, (1, 2))) == pytest.approx(c, abs=1e-12)
        assert three_tangle(psi) <= 1e-12

    def test_cq_state_block_structure(self):
        rho = make_state("cq_state", p=0.25, a=(0, 0, 1), b=(1, 0, 0)).matrix
        np.testing.assert_allclose(rho[:2, 2:], 0, atol=1e-15)
        assert rho[0, 0] == pytest.approx(0.25)
        np.testing.assert_allclose(rho[2:, 2:], 0.75 * np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            make_state("squeezed", x=1)
        with pytest.raises(DomainError, match="unknown family"):
            sample_params("squeezed", substream(0, 0))


class TestDomainValidation:
    def test_out_of_range_params(self):
        with pytest.raises(DomainError):
            make_state("werner", p=1.2)
        with pytest.raises(DomainError):
            make_state("mems2", c=0.8)
        with pytest.raises(DomainError):
            make_state("m3ts_general", c12=0.9, c13=0.9)
        with pytest.raises(DomainError):
            make_state("ansatz2", alpha=0.5)
        with pytest.raises(DomainError):
            make_state("cq_state", p=0.5, a=(1.2, 0, 0), b=(0, 0, 0))

    def test_x_state_positivity_conditions_named(self):
        with pytest.raises(DomainError, match="sqrt"):
            make_state("x_state", a=0.4, b=0.3, c=0.2, d=0.1, w=0.5, z=0.0)
        with pytest.raises(DomainError, match="sum to 1"):
            make_state("x_state", a=0.5, b=0.5, c=0.5, d=0.5, w=0, z=0)

    def test_missing_parameter(self):
        with pytest.raises(DomainError, match="missing"):
            make_state("werner")

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("bell_diagonal", dict(p1=math.nan, p2=0.5, p3=0.5, p4=0.0), "p1=nan is not finite"),
            ("ansatz2", dict(alpha=0.2, beta=math.nan), "beta=nan is not finite"),
            ("canonical3", dict(lambda0=math.nan, lambda3=1.0), "lambda0=nan is not finite"),
            ("cq_state", dict(p=0.5, a=(math.nan, 0.0, 0.0)), "a=.* is not finite"),
            ("x_state", dict(a=0.25, b=0.25, c=0.25, d=0.25, w=complex(0.0, math.inf)),
             "w=.* is not finite"),
            ("werner", dict(p=math.inf), "p=inf is not finite"),
            ("werner", dict(p=0.5, bel="psi-"), "no parameter 'bel'"),
            ("canonical3", dict(lambda0=1.0, lambda5=0.0), "no parameter 'lambda5'"),
            ("werner", dict(p=(0.0, 0.0, 1.0)), "wrong kind"),
            ("x_state", dict(a=0.25j, b=0.25, c=0.25, d=0.25), "wrong kind"),
            ("cq_state", dict(p=7.0), "p=7.0 outside"),
            ("cq_state", dict(p=0.5, a=(2.0, 0.0, 0.0)), "outside the unit ball"),
            ("x_state", dict(a=0.25, b=0.25, c=0.25, d=0.25, w=0.9), r"sqrt\(a\*d\) >= \|w\|"),
            ("x_state", dict(a=0.25, b=0.25, c=0.25, d=0.25, z=0.9), r"sqrt\(b\*c\) >= \|z\|"),
            ("werner", dict(p=0.5, bell="xyz"), "unknown werner fiducial .xyz."),
            ("cq_state", dict(p=0.5, a=(0.0, 0.0)), "wrong kind"),
            ("cq_state", dict(p=0.5, a="abc"), "wrong kind"),
            ("werner", dict(p="abc"), "wrong kind"),
            ("cq_state", dict(p=np.array([0.5, 0.5]), a=np.zeros((3, 3))), "wrong kind"),
        ],
    )
    def test_parameters_checked_as_a_whole(self, family, params, message):
        with pytest.raises(DomainError, match=message):
            make_state(family, **params)
        with pytest.raises(DomainError, match=message):
            closed_form_measures(family, **params)

    def test_canonical_params_validation(self):
        with pytest.raises(DomainError, match="sum lambda"):
            make_state("canonical3", lambda0=1.0, lambda1=1.0)
        with pytest.raises(DomainError, match="theta"):
            make_state("canonical3", lambda0=1.0, theta=4.0)
        with pytest.raises(DomainError):
            make_state("w_class", lambda0=0.6, lambda3=0.5, lambda4=math.sqrt(0.39))


def _outcomes(family: str, params: dict) -> list[str]:
    """How make_state, closed_form_measures and numeric_measures end on the same parameters."""
    out = []
    for entry in (make_state, closed_form_measures, numeric_measures):
        try:
            entry(family, **params)
        except DomainError:
            out.append("DomainError")
        except ValueError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
        else:
            out.append("ok")
    return out


_NUDGES = (0.0, 1e-13, 1e-12, 1e-11, 1e-10, 5e-10, 1e-9, 2e-9)


def _at_edge(params: dict, key: str, draw):
    """The value of ``key`` moved onto an edge of its family's domain."""
    value = params[key]
    if isinstance(value, tuple):  # a Bloch vector onto the sphere
        return tuple(np.divide(value, np.linalg.norm(value)))
    if isinstance(value, complex):  # an x_state coherence onto its positivity bound
        a, b = ("a", "d") if key == "w" else ("b", "c")
        return value / abs(value) * math.sqrt(params[a] * params[b])
    return draw(st.sampled_from((0.0, 1.0)))


def _nudged(value, draw):
    def step():
        return draw(st.sampled_from(_NUDGES)) * draw(st.sampled_from((-1.0, 1.0)))

    if isinstance(value, tuple):
        return tuple(v + step() for v in value)
    if isinstance(value, complex):
        return value + step() * (value / abs(value) if value else 1.0)
    return value + step()


class TestStateStack:
    """``state_stack`` over arrays of parameters gives each row ``make_state``'s bits."""

    @pytest.mark.parametrize("family, key, extra", [
        ("ansatz1", "p", {}), ("werner", "p", {"bell": "psi-"}), ("mems1_purification", "c", {}),
        ("cq_state", "p", {}),
    ])
    def test_rows_equal_make_state(self, family, key, extra):
        values = np.concatenate([[0.0, 1.0, 1.0 + 1e-13], np.random.default_rng(3).uniform(size=40)])
        stack = state_stack(family, **{key: values}, **extra)
        for row, value in zip(stack, values):
            state = make_state(family, **{key: float(value)}, **extra)
            want = state.amplitudes if state.dims == (2, 2, 2) else state.matrix
            assert np.array_equal(row, want)

    def test_one_value_outside_the_domain_rejects_the_stack(self):
        with pytest.raises(DomainError, match="p=1.5"):
            state_stack("ansatz1", p=np.array([0.2, 1.5, 0.3]))

    @staticmethod
    def _stacked(rows: list[dict]) -> dict:
        return {key: np.array([row[key] for row in rows]) for key in rows[0]}

    @pytest.mark.parametrize("family, edge", [
        # Bloch vectors past the sphere by less than the slack are projected onto it
        ("cq_state", dict(p=1.0, a=(0.0, 0.0, -1.0 - 2e-10), b=(1.0 + 4e-10, 0.0, 0.0))),
        ("bell_diagonal", dict(p1=-1e-13, p2=0.5, p3=0.5, p4=1e-13)),
    ])
    def test_rows_of_vector_parameters_equal_make_state(self, family, edge):
        rows = [sample_params(family, substream(8, i)) for i in range(40)] + [edge]
        stack = state_stack(family, **self._stacked(rows))
        assert stack.shape == (len(rows), 4, 4)
        for row, params in zip(stack, rows):
            assert np.array_equal(row, make_state(family, **params).matrix)

    @pytest.mark.parametrize("family, bad, message", [
        ("cq_state", dict(p=0.5, a=(0.0, 1.5, 0.0), b=(0.0, 0.0, 1.0)),
         r"Bloch vector \(0.0, 1.5, 0.0\) lies outside"),
        ("bell_diagonal", dict(p1=0.7, p2=-0.2, p3=0.3, p4=0.2),
         r"nonnegative, got \(0.7, -0.2, 0.3, 0.2\)"),
        ("bell_diagonal", dict(p1=0.7, p2=0.2, p3=0.3, p4=0.2), "sum to 1, got sum 1.4"),
        ("cq_state", dict(p=0.5, a=(math.nan, 0.0, 0.0), b=(0.0, 0.0, 1.0)),
         r"(?s)parameter a=array\(.*nan.*\) is not finite"),
    ])
    def test_one_row_outside_the_domain_is_named(self, family, bad, message):
        rows = [sample_params(family, substream(8, i)) for i in range(5)]
        rows.insert(3, bad)
        with pytest.raises(DomainError, match=message):
            state_stack(family, **self._stacked(rows))

    def test_make_state_takes_one_value_per_parameter(self):
        with pytest.raises(DomainError):
            make_state("werner", p=np.array([0.2, 0.3]))


class TestSamplers:
    """The hand-rolled draws have the bits and stream use of the numpy calls they replace."""

    def test_flat_dirichlet_equals_numpy_dirichlet(self):
        for seed in range(10_000):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in range(1, 5):
                want = ref.dirichlet(np.ones(k))
                assert flat_dirichlet(ours, k).tobytes() == want.tobytes(), (seed, k)
                assert ours.random() == ref.random(), (seed, k)

    def test_random_bloch_equals_the_numpy_formula(self):
        ours, ref = substream(15, 0), substream(15, 0)
        for _ in range(20_000):
            v = ref.standard_normal(3)
            v /= math.sqrt(v.dot(v))
            want = tuple(v * ref.random() ** (1.0 / 3.0))
            assert _random_bloch(ours) == want
        assert ours.random() == ref.random()


class TestEntryPointsAgree:
    """make_state, closed_form_measures and numeric_measures accept the same
    parameters: all three succeed or all three raise DomainError."""

    @pytest.mark.parametrize(
        "family, params",
        [
            ("x_state", dict(a=0.25, b=0.25, c=0.25, d=0.25 + 5e-10, w=0.1, z=0.1)),
            ("x_state", dict(a=0.25, b=0.25, c=0.25, d=0.25, w=0.25 + 5e-10)),
            ("x_state", dict(a=0.25, b=0.25, c=0.25, d=0.25, z=-0.25j - 5e-10j)),
            ("cq_state", dict(p=1.0, a=(0.0, 0.0, -1.0 - 2e-10))),
            ("cq_state", dict(p=0.5, b=(1.0 + 4e-10, 0.0, 0.0))),
        ],
    )
    def test_edges_inside_the_slack_are_accepted(self, family, params):
        assert _outcomes(family, params) == ["ok"] * 3

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(FAMILY_TAGS), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_nudged_parameters_agree(self, family, seed, data):
        params = sample_params(family, substream(seed, 0))
        if data.draw(st.booleans()):
            key = data.draw(st.sampled_from(sorted(params)))
            params[key] = _at_edge(params, key, data.draw)
        params = {key: _nudged(value, data.draw) for key, value in params.items()}
        assert _outcomes(family, params) in (["ok"] * 3, ["DomainError"] * 3), params


_PAST = 5e-13  # less than EDGE_TOL past an edge

#: family -> the closed interval of each value its domain returns (None: not a number
#: in an interval); a weight has no upper edge of its own
_DOMAIN_INTERVALS = {
    "bell_diagonal": [(0.0, math.inf)] * 4,
    "werner": [(0.0, 1.0), None],
    "mems1": [(0.0, 1.0)],
    "mems2": [(0.0, 2.0 / 3.0)],
    "x_state": [(0.0, math.inf)] * 4 + [None, None],
    "w_class": [(0.0, 1.0)] * 4 + [(0.0, 0.0), (0.0, math.pi)],
    "canonical3": [(0.0, 1.0)] * 5 + [(0.0, math.pi)],
    "m3ts": [(0.0, 1.0), (0.0, 0.0)],
    "m3ts_general": [(0.0, 1.0), (0.0, 1.0)],
    "ansatz1": [(0.0, 1.0)],
    "ansatz2": [(0.0, math.inf)] * 3,
    "mems1_purification": [(0.0, 1.0)],
    "cq_state": [(0.0, 1.0), None],
}


def _edge_pushes():
    """(family, params) with one interval parameter or weight _PAST beyond one of its edges."""
    intervals = [  # family, key, upper edge, the other parameters
        ("werner", "p", 1.0, {}), ("mems1", "c", 1.0, {}), ("mems2", "c", 2.0 / 3.0, {}),
        ("ansatz1", "p", 1.0, {}), ("mems1_purification", "c", 1.0, {}),
        ("cq_state", "p", 1.0, {}), ("m3ts", "c12", 1.0, {}),
        ("m3ts_general", "c12", 1.0, {"c13": 0.0}), ("m3ts_general", "c13", 1.0, {"c12": 0.0}),
        ("ansatz2", "alpha", 1.0 / 3.0, {}),
        ("canonical3", "theta", math.pi, {"lambda0": 1.0}),
        ("w_class", "theta", math.pi, {"lambda0": 1.0}),
        ("w_class", "lambda4", 0.0, {"lambda0": 1.0}),
    ]
    for family, key, hi, rest in intervals:
        yield family, {**rest, key: -_PAST}
        yield family, {**rest, key: hi + _PAST}
    for family, count in (("canonical3", 5), ("w_class", 4)):
        for i in range(count):
            other = f"lambda{3 if i == 0 else 0}"
            yield family, {f"lambda{i}": -_PAST, other: 1.0}
            yield family, {f"lambda{i}": 1.0 + _PAST}
    for family, keys in (("bell_diagonal", ("p1", "p2", "p3", "p4")),
                         ("x_state", ("a", "b", "c", "d"))):
        for i, key in enumerate(keys):
            yield family, {**dict.fromkeys(keys, 0.0), key: -_PAST, keys[i - 1]: 1.0}
    yield "ansatz2", dict(alpha=-_PAST, beta=1.0)
    yield "ansatz2", dict(alpha=1.0, beta=-_PAST)
    yield "ansatz2", dict(alpha=0.5, beta=0.5 + _PAST)  # 1 - alpha - beta below 0


class TestEdgeGates:
    """A value less than EDGE_TOL past an edge of its interval, or a weight less than
    EDGE_TOL below 0, is clamped onto the edge, and every entry point accepts it."""

    @pytest.mark.parametrize("family, params", [
        pytest.param(family, params, id=f"{family}-{params}") for family, params in _edge_pushes()
    ])
    def test_values_past_an_edge_are_clamped_onto_it(self, family, params):
        values = families._FAMILIES[family].domain(params)
        for value, interval in zip(values, _DOMAIN_INTERVALS[family], strict=True):
            if interval is not None:
                assert interval[0] <= value <= interval[1], (values, interval)
        assert _outcomes(family, params) == ["ok"] * 3

    def test_every_family_is_pushed_past_its_edges(self):
        assert {family for family, _ in _edge_pushes()} == set(FAMILY_TAGS)

    def test_edge_tol_is_read_only_by_the_gates(self):
        """In families, EDGE_TOL is read by the interval and weights gates and
        m3ts_general's disc check, and nowhere else; boundary_curve's abscissae
        pass the interval gate."""
        tree = ast.parse(Path(families.__file__).read_text())
        readers = {
            getattr(statement, "name", f"line {node.lineno}")
            for statement in tree.body
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and node.id == "EDGE_TOL"
            and isinstance(node.ctx, ast.Load)
        }
        assert readers == {"_interval_gate", "_weights_gate", "_m3ts_general_domain"}


class TestClosedFormAgreement:
    @pytest.mark.parametrize("family", FAMILY_TAGS)
    def test_numeric_matches_closed_form(self, family):
        for i in range(60):
            params = sample_params(family, substream(FAMILY_TAGS.index(family), i))
            closed = closed_form_measures(family, **params)
            numeric = numeric_measures(family, **params)
            for key, value in closed.items():
                assert key in numeric, f"{family}: numeric lacks {key}"
                assert abs(value - numeric[key]) <= 1e-9, (
                    f"{family}[{key}] closed={value} numeric={numeric[key]}"
                )

    def test_werner_record_values(self):
        closed = closed_form_measures("werner", p=0.5)
        assert closed["c12"] == pytest.approx(0.25)
        assert closed["n12"] == pytest.approx(0.25)
        assert closed["r12"] == pytest.approx(0.5946035575, abs=1e-9)

    def test_m3ts_record_values(self):
        closed = closed_form_measures("m3ts", c12=0.6)
        assert closed["c12"] == pytest.approx(0.6)
        assert closed["r12"] == pytest.approx(math.sqrt(0.6), abs=1e-12)
        assert closed["tau"] == pytest.approx(0.64, abs=1e-12)
        assert closed["n12"] == pytest.approx(0.6, abs=1e-12)  # n = r^2
        for key in ("c13", "c23", "r13", "r23"):
            assert closed[key] == 0.0

    def test_m3ts_monogamy_numerics(self):
        numeric = numeric_measures("m3ts", c12=0.6)
        assert numeric["c13"] <= 1e-9 and numeric["c23"] <= 1e-9
        assert numeric["r13"] <= 1e-9 and numeric["r23"] <= 1e-9

    def test_m3ts_general_cross_relations(self):
        closed = closed_form_measures("m3ts_general", c12=0.5, c13=0.4)
        assert closed["c23"] == pytest.approx(0.2, abs=1e-12)
        assert closed["r23"] == pytest.approx(closed["r12"] * closed["r13"], abs=1e-12)
        numeric = numeric_measures("m3ts_general", c12=0.5, c13=0.4)
        for key, value in closed.items():
            assert abs(value - numeric[key]) <= 1e-9

    def test_ansatz1_peak(self):
        closed = closed_form_measures("ansatz1", p=1 / 3)
        assert closed["c12"] == 0.0
        assert closed["r12"] == pytest.approx(KNEE, abs=1e-12)

    def test_ansatz2_optimized_extremes(self):
        closed = closed_form_measures("ansatz2", alpha=0.0)
        assert closed["r12"] == pytest.approx(1.0)
        assert closed["n12"] == pytest.approx(1.0)

    def test_discriminant_branch_has_c_equal_r_squared(self):
        # on the canonical slice lambda1 = lambda2 = 0, lambda0 = 1/sqrt(2)
        # the closed forms satisfy c = r^2 identically
        for l3 in np.linspace(0.01, 0.7, 15):
            l4 = math.sqrt(0.5 - l3 * l3)
            closed = closed_form_measures(
                "canonical3", lambda0=1 / math.sqrt(2), lambda3=l3, lambda4=l4
            )
            assert closed["c12"] == pytest.approx(closed["r12"] ** 2, abs=1e-12)

    def test_ansatz2_optimized_curve_identity(self):
        for alpha in np.linspace(0.0, 1 / 3, 30):
            closed = closed_form_measures("ansatz2", alpha=alpha)
            r, n = closed["r12"], closed["n12"]
            assert abs(r - n**0.25 * ((2 + n) / 3) ** 0.75) <= 1e-10


class TestBoundaryCurves:
    def test_rank2_parabola_point(self):
        [(x, y)] = boundary_curve("cr_rank2_lower", [0.5])
        assert (x, y) == (0.5, 0.25)

    def test_rank3_endpoints(self):
        pts = dict(boundary_curve("cr_rank3", [0.0, KNEE, 1.0]))
        assert pts[0.0] == 0.0
        assert pts[KNEE] == 0.0
        assert pts[1.0] == pytest.approx(1.0, abs=1e-12)

    def test_rank3_inverse_round_trip(self):
        for c in np.linspace(0.05, 1.0, 25):
            x = cr_rank3_r_bound(c)
            if x <= KNEE:
                continue
            [(_, back)] = boundary_curve("cr_rank3", [x])
            assert back == pytest.approx(c, abs=1e-9)
        for n in np.linspace(0.05, 1.0, 25):
            x = nr_rank3_r_bound(n)
            if x <= KNEE:
                continue
            [(_, back)] = boundary_curve("nr_rank3", [x])
            assert back == pytest.approx(n, abs=1e-9)

    def test_rank3_curves_equal_the_full_bisection(self):
        def bisect(f, y):  # 100 steps, without the stop once the bracket cannot shrink
            lo, hi = 0.0, 1.0
            if y <= f(lo):
                return lo
            if y >= f(hi):
                return hi
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if f(mid) < y:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for tag, r_bound in (("cr_rank3", cr_rank3_r_bound), ("nr_rank3", nr_rank3_r_bound)):
            xs = [*map(float, curve_grid(tag, 10_001)), 5e-324, 1.0 - 1e-16]
            want = [(x, 0.0 if x <= KNEE else bisect(r_bound, x)) for x in xs]
            assert boundary_curve(tag, xs) == want

    def test_rank4_knee_and_top(self):
        pts = boundary_curve("cr_rank4", [KNEE, 1.0])
        assert pts[0][1] == pytest.approx(0.0, abs=1e-12)
        assert pts[1][1] == pytest.approx(1.0, abs=1e-12)
        assert rank4_r_bound(0.0) == pytest.approx(KNEE, abs=1e-15)

    def test_nr_rank2_lower_curve(self):
        [(_, y)] = boundary_curve("nr_rank2_lower", [2 / 3])
        assert y == pytest.approx(math.sqrt(5) / 3 - 1 / 3, abs=1e-12)
        assert nr_rank2_n_lower(0.0) == 0.0 and nr_rank2_n_lower(1.0) == 1.0

    def test_monotone_on_grid(self):
        for tag in ("cr_rank2_lower", "cr_rank3", "cr_rank4", "nr_rank3", "nr_rank4"):
            ys = [y for _, y in boundary_curve(tag, curve_grid(tag, 200))]
            assert all(b >= a - 1e-12 for a, b in zip(ys, ys[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            boundary_curve("cr_rank2_upper", [1.5])
        with pytest.raises(DomainError):
            boundary_curve("cr_rank4", [0.2])
        with pytest.raises(DomainError):
            boundary_curve("no_such_curve", [0.5])

    @pytest.mark.parametrize("tag", CURVE_TAGS)
    def test_an_abscissa_just_past_an_edge_is_clamped(self, tag):
        """5e-13 past an edge (the rank-4 curves' lower edge is the witness knee)
        the curve is evaluated on the edge and the row keeps the abscissa;
        2e-12 past an edge is rejected."""
        lo, hi = families.curve_domain(tag)
        (_, at_lo), (_, at_hi) = boundary_curve(tag, [lo, hi])
        assert boundary_curve(tag, [lo - _PAST, hi + _PAST]) == [(lo - _PAST, at_lo),
                                                                 (hi + _PAST, at_hi)]
        for x in (lo - 2e-12, hi + 2e-12):
            with pytest.raises(DomainError, match="abscissa"):
                boundary_curve(tag, [x])

    @pytest.mark.parametrize("tag", CURVE_TAGS)
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_abscissa_is_rejected(self, tag, x):
        with pytest.raises(DomainError, match="abscissa"):
            boundary_curve(tag, [0.5 if tag.endswith("rank4") else 0.0, x])

    @pytest.mark.parametrize("points", [2.5, 3.0, True, "3", 1])
    def test_grid_needs_an_int_of_at_least_two_points(self, points):
        with pytest.raises(DomainError, match="grid points"):
            curve_grid("cr_rank2_upper", points)

    def test_rank4_grid_example(self):
        xs = curve_grid("cr_rank4", 3)
        np.testing.assert_allclose(xs, [KNEE, (KNEE + 1) / 2, 1.0], atol=1e-15)


class TestMaximality:
    def test_m3ts_gives_max_tangle_at_fixed_concurrence(self):
        from permutangle import haar_random_pure

        worst = -1.0
        for i in range(2000):
            psi = haar_random_pure((2, 2, 2), substream(321, i))
            c = concurrence(reduce(psi, (1, 2)))
            worst = max(worst, three_tangle(psi) - (1 - c * c))
        assert worst <= 1e-8

    def test_generalized_m3ts_stationarity(self):
        assert _projected_gradient_norm(0.5, 0.4) <= 1e-6
        assert _projected_gradient_norm(0.3, 0.6) <= 1e-6


def _state_from_coords(x):
    l0, l1, l2, l3 = x
    l4 = math.sqrt(max(0.0, 1.0 - (l0 * l0 + l1 * l1 + l2 * l2 + l3 * l3)))
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[4], amps[5], amps[6], amps[7] = l0, l1, l2, l3, l4
    return PureState((2, 2, 2), amps / np.linalg.norm(amps))


def _projected_gradient_norm(c12, c13, step=1e-4):
    """Central-difference gradient of the tangle projected onto the
    fixed-(c12, c13) constraint manifold at the claimed maximum."""
    x0 = np.array([1 / math.sqrt(2), 0.0, c13 / math.sqrt(2), c12 / math.sqrt(2)])

    def funcs(x):
        psi = _state_from_coords(x)
        return (
            three_tangle(psi),
            concurrence(reduce(psi, (1, 2))),
            concurrence(reduce(psi, (1, 3))),
        )

    grads = np.zeros((3, 4))
    for j in range(4):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += step
        xm[j] -= step
        fp, fm = funcs(xp), funcs(xm)
        grads[:, j] = [(fp[k] - fm[k]) / (2 * step) for k in range(3)]
    grad_tau, g1, g2 = grads
    constraints = np.vstack([g1, g2])
    projector = np.eye(4) - constraints.T @ np.linalg.solve(
        constraints @ constraints.T, constraints
    )
    return float(np.linalg.norm(projector @ grad_tau))
