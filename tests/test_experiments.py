import gc
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutangle import (
    CURVE_TAGS,
    REGION_TAGS,
    WITNESS_THRESHOLD,
    DimensionError,
    DomainError,
    MeasureRecord,
    Records,
    ViolationReport,
    figure_dataset,
    haar_random_pure,
    make_state,
    mix,
    perturb_pure,
    perturbation_campaign,
    random_fixed_eigvecs,
    read_records_csv,
    records_csv_bytes,
    records_from_json,
    records_to_json,
    sample_params,
    scatter,
    separable_campaign,
    substream,
    verify,
    write_records_csv,
)
from permutangle import experiments, families
from permutangle.cli import run
from permutangle.experiments import FIGURE_IDS
from permutangle.families import (
    CURVE_POINTS,
    boundary_curve,
    cr_rank3_r_bound,
    curve_csv_bytes,
    curve_grid,
    nr_rank2_n_lower,
    nr_rank3_r_bound,
    rank4_r_bound,
)


def _rec(rank=2, c12=0.3, n12=0.3, r12=0.5, tau=None, family="test"):
    return MeasureRecord(rank=rank, c12=c12, n12=n12, r12=r12, tau=tau, family=family)


_RHO = make_state("werner", p=0.5)
_PSI = haar_random_pure((2, 2, 2), np.random.default_rng(5))
#: each real parameter -> its call with the value under test
_REAL_PARAMETERS = {
    "perturbation_campaign epsilon": lambda v: perturbation_campaign("mems1_fig8", 2, 1, v),
    "verify tol": lambda v: verify([_rec()], "prop1", tol=v),
    "mix eps": lambda v: mix(_RHO, _RHO, v),
    "perturb_pure eps": lambda v: perturb_pure(_PSI, _PSI, v),
}


@pytest.mark.parametrize("entry", _REAL_PARAMETERS)
@pytest.mark.parametrize("value", [True, "0.5", 1j, math.nan, math.inf,
                                   pytest.param(10**400, id="10**400")])
def test_a_real_parameter_is_a_finite_int_or_float(entry, value):
    """A bool, a string, a complex number and a non-finite value are each
    rejected with a DomainError naming the parameter and the value."""
    with pytest.raises(DomainError, match=entry.split()[-1]) as caught:
        _REAL_PARAMETERS[entry](value)
    assert repr(value) in str(caught.value)


class TestCampaigns:
    def test_scatter_deterministic_across_runs(self):
        a = scatter((2, 2, 3), 700, seed=5)
        b = scatter((2, 2, 3), 700, seed=5)
        assert records_csv_bytes(a) == records_csv_bytes(b)

    def test_prefix_stability(self):
        # sample i depends only on (seed, i): a shorter campaign is a prefix
        long = scatter((2, 2, 4), 600, seed=12)
        short = scatter((2, 2, 4), 200, seed=12)
        assert records_csv_bytes(long).startswith(records_csv_bytes(short))

    def test_scatter_rank_certification(self):
        recs = scatter((2, 2, 3), 100, seed=1)
        assert all(r.rank == 3 for r in recs)
        assert all(r.tau is None for r in recs)
        recs222 = scatter((2, 2, 2), 50, seed=1)
        assert all(r.tau is not None for r in recs222)

    def test_rank1_scatter_measures_coincide(self):
        for rec in scatter((2, 2), 200, seed=8):
            assert rec.rank == 1
            assert abs(rec.r12 - rec.c12) <= 1e-9
            assert abs(rec.r12 - rec.n12) <= 1e-9

    def test_scatter_rejects_unsupported_dims(self):
        with pytest.raises(DimensionError):
            scatter((2, 3), 10, seed=0)
        with pytest.raises(DomainError):
            scatter((2, 2, 2), 0, seed=0)

    def test_perturbation_kinds(self):
        for kind, expected_rank in [
            ("ansatz1_fig4", 3),
            ("werner_fig5", 4),
        ]:
            recs = perturbation_campaign(kind, 60, seed=4, epsilon=0.51)
            ranks = {r.rank for r in recs}
            assert ranks == {expected_rank}
        mems = perturbation_campaign("mems1_fig8", 60, seed=4, epsilon=0.51)
        assert all(r.tau is not None and r.rank <= 2 for r in mems)

    def test_perturbation_rejects_bad_kind_and_eps(self):
        with pytest.raises(DomainError):
            perturbation_campaign("nope", 5, seed=0)
        with pytest.raises(DomainError):
            perturbation_campaign("werner_fig5", 5, seed=0, epsilon=-0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_perturbation_rejects_non_finite_eps(self, eps):
        with pytest.raises(DomainError, match="epsilon"):
            perturbation_campaign("werner_fig5", 5, seed=0, epsilon=eps)

    @pytest.mark.parametrize("eps", [np.int64(1), np.float32(0.5)])
    def test_a_numpy_number_epsilon_acts_as_the_equal_float(self, eps):
        want = records_csv_bytes(perturbation_campaign("mems1_fig8", 3, 1, float(eps)))
        assert records_csv_bytes(perturbation_campaign("mems1_fig8", 3, 1, eps)) == want

    @pytest.mark.parametrize("seed", [-1, 2.0, "7", None, True, False])
    def test_campaigns_reject_a_seed_that_is_not_a_non_negative_int(self, seed):
        for run in (lambda: scatter((2, 2, 2), 3, seed),
                    lambda: perturbation_campaign("werner_fig5", 3, seed),
                    lambda: separable_campaign(3, seed)):
            with pytest.raises(DomainError, match="seed"):
                run()

    def test_sample_count_beyond_one_word_of_spawn_key_rejected(self):
        with pytest.raises(DomainError, match="sample count"):
            scatter((2, 2, 2), 2**32 + 1, 0)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "3", None])
    def test_campaigns_reject_a_sample_count_that_is_not_an_int(self, n):
        for run in (lambda: scatter((2, 2, 2), n, 1),
                    lambda: perturbation_campaign("werner_fig5", n, 1),
                    lambda: separable_campaign(n, 1)):
            with pytest.raises(DomainError, match="sample count"):
                run()

    def test_numpy_integer_count_and_seed_are_ints(self):
        assert scatter((2, 2, 2), np.int64(3), np.uint32(1)) == scatter((2, 2, 2), 3, 1)

    def test_separable_campaign_families(self):
        recs = separable_campaign(80, seed=6)
        families = {r.family for r in recs}
        assert families == {
            "product_mix",
            "cq_state",
            "werner_separable",
            "bell_diagonal_separable",
        }
        assert all(r.c12 <= 1e-12 for r in recs)


def _ansatz1_reference(rng):
    base = make_state("ansatz1", p=rng.random())
    noise = random_fixed_eigvecs(_ANSATZ1_EIGVECS, rng, dims=(2, 2))
    return mix(base, noise, experiments.EPSILON).matrix


def _product_mix_reference(rng):
    """The draws of the scalar product mixture, and no state: the campaign sums
    its terms in another order (``tests/test_kernel.py`` pins its records)."""
    terms = int(rng.integers(1, 4))
    rng.dirichlet(np.ones(terms))
    for _ in range(2 * terms):
        haar_random_pure((2,), rng)


def _bell_diagonal_separable_reference(rng):
    while True:
        p = rng.dirichlet(np.ones(4))
        if p.max() <= 0.5:
            return make_state("bell_diagonal", **dict(zip(("p1", "p2", "p3", "p4"), p))).matrix


_ANSATZ1_EIGVECS = np.column_stack(
    [families.BELL_PSI_PLUS, families.BELL_PSI_MINUS, families.BELL_PHI_PLUS])
_ANSATZ1_DRAW, _ANSATZ1_STATES = experiments._PERTURBATIONS["ansatz1_fig4"]
_SEPARABLE_KINDS = {kind.tag: kind for kind in experiments._SEPARABLE}
#: kind -> (its draw, its build, the state the scalar functions make from a generator)
_DRAWN_KINDS = {
    "ansatz1_fig4": (_ANSATZ1_DRAW, lambda draws: _ANSATZ1_STATES(draws, experiments.EPSILON),
                     _ansatz1_reference),
    "product_mix": (*_SEPARABLE_KINDS["product_mix"][1:], _product_mix_reference),
    "cq_state": (*_SEPARABLE_KINDS["cq_state"][1:],
                 lambda rng: make_state("cq_state", **sample_params("cq_state", rng)).matrix),
    "bell_diagonal_separable": (*_SEPARABLE_KINDS["bell_diagonal_separable"][1:],
                                _bell_diagonal_separable_reference),
}


class TestDraws:
    """A kind's draw makes the generator calls of the scalar functions, and its
    build gives each row the state those functions make."""

    @pytest.mark.parametrize("tag", _DRAWN_KINDS)
    def test_draws_use_the_stream_as_the_scalar_functions_do(self, tag):
        draw, build, reference = _DRAWN_KINDS[tag]
        draws, want = [], []
        for i in range(2_000):
            ours, ref = substream(26, i), substream(26, i)
            draws.append(draw(ours))
            want.append(reference(ref))
            assert ours.random() == ref.random(), i
        if want[0] is not None:
            assert build(draws).tobytes() == np.array(want).tobytes()


class TestRecords:
    """Records held as columns give the rows a list of rows gives."""

    ROWS = [_rec(rank=k % 4 + 1, c12=k / 7, n12=k / 11, r12=k / 5,
                 tau=None if k % 3 else k / 13, family=f"f{k % 2}") for k in range(9)]

    def test_row_access_equals_the_list_of_rows(self):
        rows = self.ROWS
        records = Records.of(rows)
        assert len(records) == len(rows) and bool(records) and not Records()
        assert list(records) == rows
        assert [records[i] for i in range(-len(rows), len(rows))] == rows + rows
        assert {type(row) for row in records} == {type(records[0])} == {MeasureRecord}
        for part in (slice(2, 5), slice(None, None, 2), slice(None, 0), slice(-3, None)):
            assert records[part] == Records.of(rows[part])
            assert list(records[part]) == rows[part]
        with pytest.raises(IndexError):
            records[len(rows)]

    def test_concatenation_equals_the_list_of_rows(self):
        rows = self.ROWS
        records = Records.of(rows)
        assert list(records + rows[:4]) == rows + rows[:4]
        assert list(records + Records.of(rows[4:])) == rows + rows[4:]
        assert list(records) == rows  # + leaves both operands as they were
        same = records
        records += [rows[0]._replace(c12=math.nan), rows[1]._replace(tau=-math.inf)]
        records += Records.of(rows[:2])
        assert records is same
        assert list(records) == rows + [records[-4], records[-3]] + rows[:2]
        assert math.isnan(records[-4].c12) and records[-3].tau == -math.inf
        assert records != Records.of(rows) and records[:len(rows)] == Records.of(rows)

    @pytest.mark.parametrize("columns", [
        ([2], [0.5], [0.1], [0.6]),
        ([2], [0.5], [0.1], [0.6], [None], ["a"], ["b"]),
        ([2],),
    ])
    def test_other_than_six_columns_rejected(self, columns):
        with pytest.raises(ValueError, match="6 columns of equal length"):
            Records(*columns)

    @pytest.mark.parametrize("columns", [
        ([2, 2], [0.5], [0.1], [0.6], [None], ["a"]),
        ([2], [0.5], [0.1], [0.6], [None], ["a", "b"]),
        ([], [], [], [], [], ["a"]),
    ])
    def test_columns_of_unequal_lengths_rejected(self, columns):
        with pytest.raises(ValueError, match=r"equal length.*lengths \["):
            Records(*columns)

    def test_no_columns_are_no_records(self):
        assert Records() == Records([], [], [], [], [], []) == Records.of([])
        assert len(Records()) == 0 and Records().columns == ((),) * 6

    def test_campaign_records_are_rows_of_their_columns(self):
        records = separable_campaign(70, seed=5) + scatter((2, 2, 2), 30, seed=5)
        assert len(records) == 100
        assert list(records[64:80]) == list(records)[64:80]
        assert list(zip(*records)) == list(records.columns)

    def test_held_records_add_no_tracked_object_per_record(self):
        """Held records are columns of untracked values, which a collection
        untracks as well, whatever their number."""
        scatter((2, 2), 10, seed=3), separable_campaign(10, seed=3)  # lasting first-call state
        gc.collect()
        before = len(gc.get_objects())
        held = [scatter((2, 2), 5000, seed=3), separable_campaign(5000, seed=3)]
        gc.collect()
        assert len(gc.get_objects()) - before < 100
        assert not any(gc.is_tracked(column) for records in held for column in records.columns)
        assert sum(map(len, held)) == 10_000


class TestVerify:
    def test_clean_records_pass(self):
        recs = [_rec(r12=0.5, c12=0.3), _rec(r12=0.4, c12=0.2)]
        report = verify(recs, "cr_rank2")
        assert report.violations == 0
        assert report.worst_margin <= 0

    def test_violating_record_counted_with_margin(self):
        recs = [_rec(r12=0.5, c12=0.3), _rec(r12=0.9, c12=0.1)]
        report = verify(recs, "cr_rank2")
        assert report.violations == 1
        assert report.worst_margin == pytest.approx(0.9 - math.sqrt(0.1))
        assert report.offenders[0][0] == 1

    def test_zero_violations_iff_worst_margin_below_tol(self):
        recs = [_rec(r12=0.5, c12=0.25 - 5e-10)]  # half a tolerance outside
        report = verify(recs, "cr_rank2")
        assert report.worst_margin > 0
        assert report.violations == 0

    def test_segment_branch_of_rank3_region(self):
        inside = _rec(rank=3, c12=0.0, r12=0.42)
        outside = _rec(rank=3, c12=0.0, r12=0.45)
        report = verify([inside, outside], "cr_rank3")
        assert report.violations == 1

    def test_identity_region_needs_tau(self):
        with pytest.raises(ValueError, match="tau"):
            verify([_rec(tau=None)], "rc_tau_identity")
        report = verify([_rec(c12=0.5, r12=math.sqrt(0.5), tau=0.75)], "rc_tau_identity")
        assert report.violations == 0

    def test_unknown_region_and_empty_records(self):
        with pytest.raises(DomainError):
            verify([_rec()], "no_region")
        with pytest.raises(ValueError):
            verify([], "cr_rank2")

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(DomainError, match="tol"):
            verify([_rec(r12=0.5, c12=0.3)], "cr_rank2", tol=tol)

    def test_negative_tolerance_allowed(self):
        report = verify([_rec(r12=0.5, c12=0.3)], "cr_rank2", tol=-0.01)
        assert report.violations == 0 and report.tolerance == -0.01

    def test_witness_region(self):
        thr = (1 / 3) ** 0.75
        report = verify([_rec(r12=thr - 0.01), _rec(r12=thr + 0.01)], "witness_separable")
        assert report.violations == 1

    def test_report_dict_round_trip(self):
        report = verify([_rec()], "prop1")
        data = report.to_dict()
        assert data["region"] == "prop1"
        assert data["total"] == 1
        assert isinstance(ViolationReport(**{
            "region": data["region"],
            "tolerance": data["tolerance"],
            "total": data["total"],
            "violations": data["violations"],
            "worst_margin": data["worst_margin"],
        }), ViolationReport)


class TestSerialization:
    def test_csv_header_and_empty_tau(self):
        recs = [_rec(tau=None, family="haar_2x2x3"), _rec(tau=0.25, family="haar_2x2x2")]
        text = records_csv_bytes(recs).decode()
        lines = text.strip().split("\n")
        assert lines[0] == "index,rank,c12,n12,r12,tau,family"
        assert lines[1].split(",")[5] == ""
        assert lines[2].split(",")[5] == "0.25"

    def test_csv_round_trip_exact(self, tmp_path):
        recs = scatter((2, 2, 2), 40, seed=2)
        path = write_records_csv(recs, tmp_path / "r.csv")
        back = read_records_csv(path)
        assert back == recs

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_records_csv(path)

    def test_json_round_trip(self):
        recs = scatter((2, 2, 3), 40, seed=2)
        assert records_from_json(records_to_json(recs)) == recs

    @pytest.mark.parametrize("indices", [(5, 3, 3), (0, 2, 1), (0, 1, 1), (1, 2, 3)])
    def test_readers_reject_indices_other_than_0_to_n_minus_1(self, tmp_path, indices):
        recs = [_rec(r12=0.4 + 0.1 * k) for k in range(3)]
        csv_lines = records_csv_bytes(recs).decode().splitlines()
        for k, index in enumerate(indices):
            csv_lines[k + 1] = f"{index}," + csv_lines[k + 1].split(",", 1)[1]
        path = tmp_path / "r.csv"
        path.write_text("\n".join(csv_lines) + "\n")
        with pytest.raises(ValueError, match="index"):
            read_records_csv(path)
        rows = json.loads(records_to_json(recs))
        for row, index in zip(rows, indices):
            row["index"] = index
        with pytest.raises(ValueError, match="index"):
            records_from_json(json.dumps(rows))

    def test_reader_leaves_range_checks_to_verify(self, tmp_path):
        path = write_records_csv([_rec(r12=0.5), _rec(r12=1.5)], tmp_path / "r.csv")
        report = verify(read_records_csv(path), "prop1")
        assert report.violations == 1 and report.offenders[0][0] == 1

    @pytest.mark.parametrize(
        "text",
        [
            '[{"index": 0}]',
            "[1]",
            '{"a": 1}',
            '[{"index": 0, "rank": "2", "c12": "x", "n12": 0.1, "r12": 0.5, "tau": null,'
            ' "family": "f"}]',
            '[{"index": 0, "rank": true, "c12": 0.3, "n12": 0.1, "r12": 0.5, "tau": null,'
            ' "family": "f"}]',
            '[{"index": 0, "rank": 2, "c12": 0.3, "n12": 0.1, "r12": 0.5, "tau": null,'
            ' "family": "f", "extra": 1}]',
            "[" * 100_000,
        ],
        ids=["index_only", "number_row", "object", "string_fields", "bool_rank", "extra_field",
             "deep_nesting"],
    )
    def test_json_reader_rejects_malformed_rows(self, text):
        with pytest.raises(ValueError, match="record|list|nested"):
            records_from_json(text)

    @pytest.mark.parametrize(
        "row", ["1,2,0.3,0.5,,test", "1,x,0.3,0.3,0.5,,test", "1,2,0.3,abc,0.5,,test",
                "1,2,0.3,0.3,0.5,0.1,test,extra"],
    )
    def test_csv_reader_names_the_malformed_record(self, row):
        text = records_csv_bytes([_rec()]).decode() + row + "\n"
        with pytest.raises(ValueError, match="record 1"):
            read_records_csv(io.StringIO(text))

    @pytest.mark.parametrize("fields", [6, 8])
    def test_csv_reader_names_a_record_with_the_wrong_field_count(self, fields):
        """The one split of the body keeps naming the record and its field count."""
        lines = records_csv_bytes([_rec(r12=k / 2000) for k in range(2000)]).decode().splitlines()
        cells = lines[1235].split(",")
        lines[1235] = ",".join(cells[:6] if fields == 6 else cells + ["extra"])
        with pytest.raises(ValueError, match=f"^record 1234 has {fields} fields; expected "
                                             "index,rank,c12,n12,r12,tau,family$"):
            read_records_csv(io.StringIO("\n".join(lines)))

    def test_csv_reader_takes_crlf_and_blank_lines(self):
        recs = separable_campaign(9, seed=1) + scatter((2, 2, 2), 9, seed=1)
        lines = records_csv_bytes(recs).decode().splitlines()
        text = "\r\n".join([lines[0], "", *lines[1:5], "  ", "\t", *lines[5:], "", ""])
        assert read_records_csv(io.StringIO(text)) == recs
        assert read_records_csv(io.StringIO(lines[0] + "\r\n\r\n")) == Records()

    @pytest.mark.parametrize("source", ["path", "file"])
    @pytest.mark.parametrize("separator", ["\x85", "\x0c", "\x1e", "\u2028", "\r"])
    def test_csv_reader_breaks_lines_only_at_lf_or_crlf(self, tmp_path, separator, source):
        """Two records joined by any other line break are one record with 13 fields."""
        lines = records_csv_bytes([_rec(), _rec()]).decode().splitlines()
        text = f"{lines[0]}\n{lines[1]}{separator}{lines[2]}\n"
        path = tmp_path / "r.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError, match="^record 0 has 13 fields; "):
            read_records_csv(path if source == "path" else io.StringIO(text))

    @pytest.mark.parametrize("family", ["a,b", "x\ny", "", "a b", "tag\r", "é"])
    def test_family_outside_identifier_characters_rejected(self, family):
        recs = [_rec(), _rec(family=family)]
        for write in (records_csv_bytes, records_to_json):
            with pytest.raises(ValueError, match="record 1"):
                write(recs)
        rows = json.loads(records_to_json([_rec(), _rec()]))
        rows[1]["family"] = family
        with pytest.raises(ValueError, match="record 1"):
            records_from_json(json.dumps(rows))
        if "," not in family and "\n" not in family and "\r" not in family:
            text = records_csv_bytes([_rec()]).decode() + f"1,2,0.3,0.3,0.5,,{family}\n"
            with pytest.raises(ValueError, match="record 1"):
                read_records_csv(io.StringIO(text))

    @pytest.mark.parametrize("spell", [
        lambda text: text[:-1] + "_" + text[-1],
        lambda text: f" {text} ",
        lambda text: f"{text}\t",
        lambda text: text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    ], ids=["underscore", "spaces", "tab", "arabic-indic"])
    @pytest.mark.parametrize("field", ["index", "rank", "c12", "n12", "r12", "tau"])
    def test_csv_reader_rejects_number_text_the_writers_never_write(self, field, spell):
        """int() and float() would read each spelling as the value the writer spells."""
        recs = [_rec(), _rec(rank=12, c12=0.15, n12=0.25, r12=0.75, tau=0.35)]
        lines = records_csv_bytes(recs).decode().splitlines()
        cells = lines[2].split(",")
        column = _FIELDS.index(field)
        cells[column] = spell(cells[column] if field != "index" else "01")
        lines[2] = ",".join(cells)
        with pytest.raises(ValueError, match=f"^record 1: {field}: "):
            read_records_csv(io.StringIO("\n".join(lines)))

    def test_verify_exits_2_on_number_text_the_writers_never_write(self, tmp_path, capsys):
        text = records_csv_bytes([_rec(), _rec(tau=0.5)]).decode()
        text = text.replace(",0.5,test", ", 0.5 ,test")
        path = tmp_path / "r.csv"
        path.write_text(text, encoding="utf-8")
        assert run(["verify", "--region", "cr_rank2", "--input", str(path)]) == 2
        assert "record 1: tau: ' 0.5 '" in capsys.readouterr().err

    def test_csv_reader_takes_the_signs_of_exponents(self):
        recs = [_rec(c12=1e300, n12=-1e-300, r12=-math.inf, tau=math.nan)]
        text = records_csv_bytes(recs).decode()
        assert "1e+300" in text
        assert records_csv_bytes(read_records_csv(io.StringIO(text))) == text.encode()

    def test_tau_is_none_only_when_empty_or_null(self):
        recs = [_rec(tau=0.0), _rec(tau=None)]
        for back in (read_records_csv(io.StringIO(records_csv_bytes(recs).decode())),
                     records_from_json(records_to_json(recs))):
            assert back[0].tau == 0.0 and back[1].tau is None


_FAMILY_TEXT = st.text(st.characters(exclude_characters=",", exclude_categories=("Cs",)),
                       max_size=5)
_FLOAT_TEXT = st.floats().map(repr) | st.sampled_from(["nan", "-inf", "1e400", "0.50", " 3"])
#: Cells that fit each column after the index, and cells that may not.
_GOOD_CELLS = (st.integers(0, 4).map(str), _FLOAT_TEXT, _FLOAT_TEXT, _FLOAT_TEXT,
               st.just("") | _FLOAT_TEXT, _FAMILY_TEXT)
_ANY_CELL = st.sampled_from(["", "1_0", "2.5", "x", "True"]) | _FAMILY_TEXT


@st.composite
def _csv_text(draw):
    """A header (usually the right one) and rows whose cells usually fit their column."""
    header = draw(st.sampled_from(["index,rank,c12,n12,r12,tau,family"] * 3 + ["index,rank", ""]))
    lines = [header]
    for position in range(draw(st.integers(0, 4))):
        cells = [str(position) if draw(st.integers(0, 9)) else draw(_ANY_CELL)]
        cells += [draw(good if draw(st.integers(0, 19)) else _ANY_CELL) for good in _GOOD_CELLS]
        if not draw(st.integers(0, 19)):
            cells = cells[:-1] if draw(st.booleans()) else cells + [draw(_ANY_CELL)]
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


_JSON_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.floats(),
                        st.text(max_size=4))


@st.composite
def _json_text(draw):
    """A list of rows holding (usually) the record fields with values of any
    JSON type, or any JSON value at all."""
    if draw(st.integers(0, 4)) == 0:
        return json.dumps(draw(st.recursive(_JSON_VALUE, st.lists, max_leaves=5)))
    rows = []
    for position in range(draw(st.integers(0, 3))):
        row = {"index": position if draw(st.booleans()) else draw(_JSON_VALUE)}
        for name, good in (("rank", st.integers(0, 4)), ("c12", st.floats()), ("n12", st.floats()),
                           ("r12", st.floats()), ("tau", st.none() | st.floats()),
                           ("family", st.text(max_size=4))):
            if draw(st.integers(0, 9)):
                row[name] = draw(good if draw(st.integers(0, 4)) else _JSON_VALUE)
        rows.append(row)
    return json.dumps(rows)


@settings(max_examples=200, deadline=None)
@given(text=_csv_text())
def test_csv_reader_fuzz(text):
    """Generated CSV text gives records that re-serialize to the same bytes, or a ValueError."""
    try:
        records = read_records_csv(io.StringIO(text))
    except ValueError:
        return
    data = records_csv_bytes(records)
    assert records_csv_bytes(read_records_csv(io.StringIO(data.decode()))) == data


@settings(max_examples=200, deadline=None)
@given(text=_json_text())
def test_json_reader_fuzz(text):
    """Generated JSON text gives records that re-serialize to the same text, or a ValueError."""
    try:
        records = records_from_json(text)
    except ValueError:
        return
    data = records_to_json(records)
    assert records_to_json(records_from_json(data)) == data


class TestFigureDatasets:
    def test_fig1_bundle(self, tmp_path):
        written = figure_dataset(1, tmp_path, n=400, seed=11)
        assert set(written) == {"scatter", "curve_cr_rank2_upper", "curve_cr_rank2_lower", "meta"}
        meta = json.loads(written["meta"].read_text())
        assert meta["config"]["figure"] == 1
        regions = {r["region"]: r for r in meta["regions"]}
        assert regions["cr_rank2"]["violations"] == 0
        assert regions["rc_tau_identity"]["violations"] == 0
        curve = written["curve_cr_rank2_lower"].read_text().strip().split("\n")
        assert curve[0] == "r12,c12"
        assert len(curve) == 513

    @pytest.mark.parametrize("n", [2.5, True])
    def test_non_int_sample_count_writes_nothing(self, tmp_path, n):
        with pytest.raises(DomainError, match="sample count"):
            figure_dataset(1, tmp_path, n=n, seed=1)
        assert list(tmp_path.iterdir()) == []

    def test_numpy_integer_sample_count_is_recorded_as_int(self, tmp_path):
        meta = json.loads(figure_dataset(1, tmp_path, n=np.int64(3), seed=1)["meta"].read_text())
        assert meta["config"]["n"] == 3

    def test_fig6_is_curves_only(self, tmp_path):
        written = figure_dataset(6, tmp_path)
        assert "scatter" not in written
        assert {k for k in written if k.startswith("curve_")} == {
            "curve_cr_rank2_upper",
            "curve_cr_rank2_lower",
            "curve_cr_rank3",
            "curve_cr_rank4",
        }

    def test_fig2_special_curve(self, tmp_path):
        written = figure_dataset(2, tmp_path, n=300, seed=1)
        lines = written["curve_m3ts_tau"].read_text().strip().split("\n")
        assert lines[0] == "c12,tau"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0

    def test_fig3_filters_rank3_region(self, tmp_path):
        written = figure_dataset(3, tmp_path, n=250, seed=7)
        meta = json.loads(written["meta"].read_text())
        by_region = {r["region"]: r for r in meta["regions"]}
        assert by_region["cr_rank3"]["family_filter"] == "haar_2x2x3"
        assert by_region["cr_rank3"]["violations"] == 0
        assert by_region["cr_rank4"]["violations"] == 0

    def test_figure_outputs_reproducible(self, tmp_path):
        a = figure_dataset(4, tmp_path / "a", n=200, seed=3)
        b = figure_dataset(4, tmp_path / "b", n=200, seed=3)
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(DomainError):
            figure_dataset(12, tmp_path)


def _cli_curve_bytes(tag, tmp_path) -> bytes:
    """The bytes ``permutangle curve --id <tag>`` writes with its default ``--points``."""
    path = tmp_path / f"cli_{tag}.csv"
    assert run(["curve", "--id", tag, "--out", str(path)]) == 0
    return path.read_bytes()


class TestFigureCurveCache:
    """A figure's curve files are computed once per process per tag and hold
    the bytes the CLI gives and the renderer gives without its cache."""

    @pytest.mark.parametrize("fig_id", FIGURE_IDS)
    def test_curve_files_equal_the_uncached_curves_cold_and_warm(self, fig_id, tmp_path):
        families._curve_csv.cache_clear()
        for state in ("cold", "warm"):
            written = figure_dataset(fig_id, tmp_path / state, n=1, seed=2)
            curves = {key[len("curve_"):]: path for key, path in written.items()
                      if key.startswith("curve_")}
            assert curves
            for tag, path in curves.items():
                assert path.name == f"fig{fig_id}_curve_{tag}.csv"
                assert path.read_bytes() == families._curve_csv.__wrapped__(tag, CURVE_POINTS)
                assert path.read_bytes() == _cli_curve_bytes(tag, tmp_path)

    def test_each_curve_is_computed_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(tag, xs):
            calls.append(tag)
            return boundary_curve(tag, xs)

        monkeypatch.setattr(families, "boundary_curve", counted)
        families._curve_csv.cache_clear()
        first = figure_dataset(1, tmp_path / "a", n=1, seed=1)
        second = figure_dataset(1, tmp_path / "b", n=1, seed=2)
        assert sorted(calls) == ["cr_rank2_lower", "cr_rank2_upper"]
        for key in ("curve_cr_rank2_upper", "curve_cr_rank2_lower"):
            assert first[key].read_bytes() == second[key].read_bytes()

    @pytest.mark.parametrize("points", [512.0, True])
    def test_int_contract_survives_a_cached_curve(self, tmp_path, points):
        families._curve_csv.cache_clear()
        figure_dataset(6, tmp_path)  # caches its four curves, cr_rank3 among them
        assert families._curve_csv.cache_info().currsize == 4
        with pytest.raises(DomainError, match="grid points"):
            curve_csv_bytes("cr_rank3", points)


class TestVerifyNonFinite:
    def test_nan_margin_counts_as_violation(self):
        recs = [_rec(r12=0.5, c12=0.3), _rec(r12=math.nan, c12=0.3), _rec(r12=0.4, c12=0.2)]
        report = verify(recs, "cr_rank2")
        assert report.violations == 1
        assert report.offenders[0][0] == 1
        assert math.isnan(report.worst_margin)

    def test_nan_record_fails_cli_verify(self, tmp_path):
        path = write_records_csv([_rec(r12=0.5, c12=0.3), _rec(r12=math.nan)], tmp_path / "r.csv")
        assert run(["verify", "--region", "cr_rank2", "--input", str(path)]) == 1


# --------------------------------------------------------------------------
# the record path's fast forms against references written out here

_FIELDS = ("index", "rank", "c12", "n12", "r12", "tau", "family")
_EDGE_RECORDS = [
    _rec(c12=math.nan, n12=math.inf, r12=-math.inf, tau=0.5),
    _rec(c12=-0.0, n12=5e-324, r12=1 - 2**-53, tau=None),
    _rec(c12=1, n12=0, r12=0.25, tau=1, family="int_in_float_columns"),
    _rec(c12=0.1, n12=0.2, r12=0.3, tau=-0.0),
    _rec(rank=4, c12=1e-300, n12=1e300, r12=1 / 3, tau=None, family="F_9"),
]


def _reference_csv(records) -> bytes:
    def text(value):
        return "" if value is None else format(float(value), ".17g")

    lines = [",".join(_FIELDS)]
    lines += [",".join([str(i), str(rec.rank), *map(text, rec[1:5]), rec.family])
              for i, rec in enumerate(records)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_json(records) -> str:
    return json.dumps([dict(zip(_FIELDS, (i, *rec))) for i, rec in enumerate(records)], indent=2)


class TestWritersMatchReferences:
    @pytest.mark.parametrize("case", ["edges", "single", "empty", "scatter_222", "separable"])
    def test_records(self, case):
        records = {
            "edges": _EDGE_RECORDS,
            "single": _EDGE_RECORDS[1:2],
            "empty": [],
            "scatter_222": scatter((2, 2, 2), 200, seed=4),
            "separable": separable_campaign(200, seed=4),
        }[case]
        assert records_csv_bytes(records) == _reference_csv(records)
        assert records_to_json(records) == _reference_json(records)
        assert records_to_json(iter(records)) == _reference_json(records)

    @pytest.mark.parametrize("tag", CURVE_TAGS)
    @pytest.mark.parametrize("points", [2, 512])
    def test_curves(self, tag, points):
        if tag == "m3ts_tau":
            xs = np.linspace(0.0, 1.0, points)
            rows, header = [(x, 1.0 - x * x) for x in xs], "c12,tau"
        else:
            rows = boundary_curve(tag, curve_grid(tag, points))
            header = "r12,c12" if tag.startswith("cr_") else "r12,n12"
        lines = [header] + [f"{format(float(x), '.17g')},{format(float(y), '.17g')}"
                            for x, y in rows]
        assert curve_csv_bytes(tag, points) == ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("tag", ["cr_rank3", "m3ts_tau"])
    @pytest.mark.parametrize("points", [2.5, True, 1, 0, -3])
    def test_curve_needs_an_int_of_at_least_two_points(self, tag, points):
        with pytest.raises(DomainError, match="grid points"):
            curve_csv_bytes(tag, points)


@pytest.mark.parametrize("field, value", [("rank", True), ("c12", "0.5"), ("index", 1234.0)])
def test_json_reader_names_one_wrong_typed_value_among_many(field, value):
    rows = json.loads(records_to_json([_rec(r12=k / 2000) for k in range(2000)]))
    rows[1234][field] = value
    with pytest.raises(ValueError, match=f"^record 1234: {field}: "):
        records_from_json(json.dumps(rows))


def _reference_margin(region, rec, tol):
    c, n, r, t = rec.c12, rec.n12, rec.r12, rec.tau
    if region in ("cr_rank3", "nr_rank3"):
        v, bound = (c, cr_rank3_r_bound) if region == "cr_rank3" else (n, nr_rank3_r_bound)
        return max(v - r, r - bound(v)) if v > tol else r - WITNESS_THRESHOLD
    return {
        "prop1": lambda: max(-r, r - 1.0),
        "cr_rank2": lambda: max(c - r, r - math.sqrt(c)),
        "cr_rank2_lower": lambda: r - math.sqrt(c),
        "cr_rank4": lambda: max(c - r, r - rank4_r_bound(c)),
        "r_geq_c": lambda: c - r,
        "nr_rank2": lambda: max(nr_rank2_n_lower(r) - n, n - r),
        "nr_rank2_lower": lambda: nr_rank2_n_lower(r) - n,
        "nr_rank4": lambda: max(n - r, r - rank4_r_bound(n)),
        "witness_separable": lambda: r - WITNESS_THRESHOLD,
        "rc_tau_identity": lambda: abs(r**4 - c**2 * (c**2 + t)),
        "m3ts_max_tau": lambda: t - (1.0 - c**2),
    }[region]()


def _reference_verify(records, region, tol):
    """One record at a time: a non-finite measure gives a NaN margin; NaN
    offenders first, then by falling margin, each in index order."""
    worst, offenders = -math.inf, []
    for idx, rec in enumerate(records):
        values = [rec.c12, rec.n12, rec.r12] + ([] if rec.tau is None else [rec.tau])
        finite = all(math.isfinite(v) for v in values)
        margin = _reference_margin(region, rec, tol) if finite else math.nan
        if math.isnan(margin) or margin > worst:
            worst = margin
        if not margin <= tol:
            offenders.append((idx, margin))
    offenders.sort(key=lambda pair: (not math.isnan(pair[1]), -pair[1]))
    return worst, len(offenders), offenders[:10]


@pytest.mark.parametrize("region", REGION_TAGS)
@pytest.mark.parametrize("tol", [None, -0.05])
def test_verify_equals_the_reference_loop(region, tol):
    needs_tau = region in ("rc_tau_identity", "m3ts_max_tau")
    records = scatter((2, 2, 2), 300, seed=8)
    if not needs_tau:
        records += separable_campaign(300, seed=8)
    records += [records[0]._replace(c12=math.nan), records[1]._replace(r12=math.inf),
                records[2]._replace(tau=-math.inf), records[3]._replace(n12=math.nan)]
    report = verify(records, region, tol)
    assert repr(verify(list(records), region, tol)) == repr(report)  # a list of rows
    worst, violations, offenders = _reference_verify(records, region, report.tolerance)
    assert report.total == len(records)
    assert report.violations == violations
    assert str(report.worst_margin) == str(worst)  # NaN too
    assert [(i, str(m)) for i, m in report.offenders] == [(i, str(m)) for i, m in offenders]
