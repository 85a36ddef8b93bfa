import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutangle import (
    DimensionError,
    DomainError,
    MeasureRecord,
    ViolationReport,
    figure_dataset,
    perturbation_campaign,
    read_records_csv,
    records_csv_bytes,
    records_from_json,
    records_to_json,
    scatter,
    separable_campaign,
    verify,
    write_records_csv,
)


def _rec(rank=2, c12=0.3, n12=0.3, r12=0.5, tau=None, family="test"):
    return MeasureRecord(rank=rank, c12=c12, n12=n12, r12=r12, tau=tau, family=family)


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


class TestVerifyNonFinite:
    def test_nan_margin_counts_as_violation(self):
        recs = [_rec(r12=0.5, c12=0.3), _rec(r12=math.nan, c12=0.3), _rec(r12=0.4, c12=0.2)]
        report = verify(recs, "cr_rank2")
        assert report.violations == 1
        assert report.offenders[0][0] == 1
        assert math.isnan(report.worst_margin)

    def test_nan_record_fails_cli_verify(self, tmp_path):
        from permutangle.cli import run

        path = write_records_csv([_rec(r12=0.5, c12=0.3), _rec(r12=math.nan)], tmp_path / "r.csv")
        assert run(["verify", "--region", "cr_rank2", "--input", str(path)]) == 1
