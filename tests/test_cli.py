import contextlib
import io
import json
import math
import re
import runpy
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutangle import FAMILY_TAGS, records_from_json, sample_params, substream
from permutangle.cli import run
from permutangle.measures import WITNESS_THRESHOLD


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasureCommand:
    def test_werner_closed_vs_numeric(self, capsys):
        code, out, _ = _run(capsys, "measure", "--family", "werner", "--params", "p=0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "quantity,closed_form,numeric,abs_diff"
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert float(rows["c12"][1]) == pytest.approx(0.25)
        assert float(rows["n12"][1]) == pytest.approx(0.25)
        assert float(rows["r12"][1]) == pytest.approx(0.5946035575, abs=1e-9)
        for row in rows.values():
            if row[3]:
                assert float(row[3]) < 1e-9

    def test_json_format(self, capsys):
        code, out, _ = _run(
            capsys, "measure", "--family", "m3ts", "--params", "c12=0.6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"]["tau"] == pytest.approx(0.64)
        assert max(payload["abs_diff"].values()) < 1e-9

    def test_bad_family_exits_2(self, capsys):
        code, _, _ = _run(capsys, "measure", "--family", "nope", "--params", "p=0.1")
        assert code == 2

    def test_bad_params_exit_2(self, capsys):
        code, _, err = _run(capsys, "measure", "--family", "werner", "--params", "p=1.7")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("bell_diagonal", "p1=nan,p2=0.5,p3=0.5,p4=0", "p1=nan is not finite"),
            ("ansatz2", "alpha=0.2,beta=nan", "beta=nan is not finite"),
            ("canonical3", "lambda0=nan,lambda3=1", "lambda0=nan is not finite"),
            ("cq_state", "p=0.5,a=nan:0:0", "a=.* is not finite"),
            ("werner", "p=0.5,bel=psi-", "no parameter 'bel'"),
            ("werner", "p=0:0:1", "p must be a finite real number"),
        ],
    )
    def test_invalid_params_name_the_key_and_exit_2(self, capsys, family, params, message):
        code, out, err = _run(capsys, "measure", "--family", family, "--params", params)
        assert code == 2 and out == ""
        assert re.search(message, err), err

    @pytest.mark.parametrize("family, params, key", [
        ("werner", "p=0.2,p=0.9", "p"),
        ("werner", "p=0.2, p =0.2", "p"),
        ("bell_diagonal", "p1=0.5,p2=0.5,p3=0,p3=0,p4=0", "p3"),
    ])
    def test_repeated_key_exits_2_naming_it(self, capsys, family, params, key):
        code, out, err = _run(capsys, "measure", "--family", family, "--params", params)
        assert code == 2 and out == ""
        assert f"parameter {key!r} given more than once" in err, err

    def test_bloch_vector_inside_the_slack_is_measured(self, capsys):
        code, out, err = _run(
            capsys, "measure", "--family", "cq_state", "--params", "p=1,a=0:0:-1.0000000004"
        )
        assert code == 0, err
        assert out.startswith("quantity,closed_form,numeric,abs_diff")


def _cli_text(value) -> str:
    if isinstance(value, tuple):
        return ":".join(repr(float(v)) for v in value)
    if isinstance(value, complex):
        return str(complex(value)).strip("()")
    return repr(float(value))


#: Parameter names of several families, plus near misses.
_PARAM_KEYS = ("p1", "p", "bell", "c", "a", "b", "w", "lambda0", "lambda4", "theta", "c12",
               "c13", "alpha", "beta", "bel", "lambda5", "")
_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-2, 10**30).map(str),
    st.complex_numbers(allow_nan=True, allow_infinity=True).map(_cli_text),
)
_VALUE_TEXT = st.one_of(
    _NUMBER_TEXT,
    st.lists(st.floats(-1.0, 1.0).map(repr) | _NUMBER_TEXT, min_size=1, max_size=4).map(":".join),
    st.sampled_from(["phi+", "psi-", "nan", "-inf", "1e400", "x", ""]),
    st.text(max_size=6),
)


@st.composite
def _measure_argv(draw):
    """A family and its --params text: in-domain values from ``sample_params``
    with up to three pairs replaced, added or dropped, or arbitrary text."""
    family = draw(st.sampled_from(FAMILY_TAGS))
    if draw(st.integers(0, 9)) == 0:
        return family, draw(st.text(max_size=20))
    params = sample_params(family, substream(draw(st.integers(0, 2**32 - 1)), 0))
    pairs = [(key, _cli_text(value)) for key, value in params.items()]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(pairs)))
        pair = (draw(st.sampled_from(_PARAM_KEYS + tuple(params))), draw(_VALUE_TEXT))
        pairs[at:at + draw(st.integers(0, 1))] = [pair] if draw(st.booleans()) else []
    return family, ",".join(f"{key}={value}" for key, value in pairs)


@settings(max_examples=300, deadline=None)
@given(argv=_measure_argv())
def test_measure_params_fuzz(argv):
    """Any --params text exits 0 with finite values, or exits 2."""
    family, text = argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["measure", "--family", family, "--params", text])
    assert code in (0, 2), err.getvalue()
    if code == 0:
        for line in out.getvalue().strip().split("\n")[1:]:
            assert all(math.isfinite(float(v)) for v in line.split(",")[1:] if v), line


class TestSampleCommand:
    def test_identical_bytes_on_rerun(self, capsys):
        args = ["sample", "--dims", "2,2,2", "--n", "100", "--seed", "7"]
        code1, out1, _ = _run(capsys, *args)
        code2, out2, _ = _run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("index,rank,c12,n12,r12,tau,family\n")
        assert len(out1.strip().split("\n")) == 101

    def test_missing_seed_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "sample", "--dims", "2,2", "--n", "10")
        assert code == 2

    def test_out_file_and_json(self, capsys, tmp_path):
        path = tmp_path / "records.json"
        code, _, _ = _run(
            capsys, "sample", "--dims", "2,2,3", "--n", "20", "--seed", "3",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        records = records_from_json(path.read_text())
        assert len(records) == 20
        assert all(r.rank == 3 for r in records)

    def test_bad_dims_exit_2(self, capsys):
        code, _, _ = _run(capsys, "sample", "--dims", "2,5", "--n", "5", "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("dims", ["2,x", "2,,2", "2.0,2"])
    def test_dims_that_are_not_ints_exit_2_naming_them(self, capsys, dims):
        code, out, err = _run(capsys, "sample", "--dims", dims, "--n", "5", "--seed", "1")
        assert (code, out) == (2, "")
        shown = {"2,x": "(2, 'x')", "2,,2": "(2, '', 2)", "2.0,2": "(2.0, 2)"}[dims]
        assert f"unsupported scatter dims {shown}; supported: " in err, err


@pytest.mark.parametrize("argv", [
    ("sample", "--dims", "2,2,2", "--n", "5"),
    ("perturb", "--kind", "mems1_fig8", "--n", "5"),
    ("figure", "--id", "1", "--n", "5"),
    ("figure", "--id", "6"),
    ("figure", "--id", "11"),
], ids=["sample", "perturb", "figure-1", "figure-6", "figure-11"])
def test_negative_seed_exits_2(capsys, tmp_path, argv):
    out = ("--out", str(tmp_path)) if argv[0] == "figure" else ()
    code, _, err = _run(capsys, *argv, "--seed", "-4", *out)
    assert code == 2
    assert "seed" in err, err
    assert not list(tmp_path.iterdir())


class TestCurveCommand:
    def test_rank4_three_points(self, capsys):
        code, out, _ = _run(capsys, "curve", "--id", "cr_rank4", "--points", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r12,c12"
        xs = [float(ln.split(",")[0]) for ln in lines[1:]]
        ys = [float(ln.split(",")[1]) for ln in lines[1:]]
        knee = WITNESS_THRESHOLD
        assert xs == pytest.approx([knee, (knee + 1) / 2, 1.0], abs=1e-12)
        assert ys[0] == pytest.approx(0.0, abs=1e-12)
        assert ys[2] == pytest.approx(1.0, abs=1e-12)

    def test_default_point_count(self, capsys):
        code, out, _ = _run(capsys, "curve", "--id", "nr_rank2_lower")
        assert code == 0
        assert len(out.strip().split("\n")) == 513

    def test_same_bytes_as_figure_curve(self, capsys, tmp_path):
        path = tmp_path / "cr_rank3.csv"
        assert _run(capsys, "curve", "--id", "cr_rank3", "--out", str(path))[0] == 0
        assert _run(capsys, "figure", "--id", "6", "--out", str(tmp_path / "fig"))[0] == 0
        assert path.read_bytes() == (tmp_path / "fig" / "fig6_curve_cr_rank3.csv").read_bytes()

    def test_unknown_curve_exit_2(self, capsys):
        code, _, _ = _run(capsys, "curve", "--id", "bogus")
        assert code == 2


class TestPerturbCommand:
    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exits_2(self, capsys, eps):
        code, out, err = _run(
            capsys, "perturb", "--kind", "werner_fig5", "--eps", eps, "--n", "5", "--seed", "0"
        )
        assert code == 2 and out == ""
        assert "epsilon" in err, err

    def test_eps_whose_norm_overflows_exits_2(self, capsys):
        code, out, err = _run(
            capsys, "perturb", "--kind", "mems1_fig8", "--n", "3", "--seed", "1", "--eps", "1e160"
        )
        assert code == 2 and out == ""
        assert "eps" in err, err

    def test_deterministic_and_correct_kind(self, capsys):
        args = ["perturb", "--kind", "mems1_fig8", "--eps", "0.51", "--n", "30", "--seed", "2"]
        code1, out1, _ = _run(capsys, *args)
        code2, out2, _ = _run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2
        assert "mems1_fig8" in out1


class TestVerifyCommand:
    def test_clean_region_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "recs.csv"
        code, _, _ = _run(
            capsys, "sample", "--dims", "2,2,2", "--n", "300", "--seed", "5",
            "--out", str(path),
        )
        assert code == 0
        code, out, _ = _run(capsys, "verify", "--region", "cr_rank2", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == 0
        assert report["total"] == 300

    def test_violated_region_exits_one(self, capsys, tmp_path):
        path = tmp_path / "recs4.csv"
        _run(capsys, "sample", "--dims", "2,2,4", "--n", "300", "--seed", "5",
             "--out", str(path))
        code, out, _ = _run(
            capsys, "verify", "--region", "nr_rank2_lower", "--input", str(path)
        )
        assert code == 1
        assert json.loads(out)["violations"] > 0

    def test_out_of_order_indices_exit_2(self, capsys, tmp_path):
        path = tmp_path / "recs.csv"
        _run(capsys, "sample", "--dims", "2,2,2", "--n", "3", "--seed", "5", "--out", str(path))
        lines = path.read_text().splitlines()
        for k, index in enumerate((5, 3, 3)):
            lines[k + 1] = f"{index}," + lines[k + 1].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        code, _, err = _run(capsys, "verify", "--region", "prop1", "--input", str(path))
        assert code == 2
        assert "index" in err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_exits_2(self, capsys, tmp_path, tol):
        path = tmp_path / "recs.csv"
        path.write_text("index,rank,c12,n12,r12,tau,family\n0,2,0.5,0.25,0.0,,off\n")
        code, out, err = _run(
            capsys, "verify", "--region", "cr_rank2", "--input", str(path), "--tol", tol
        )
        assert code == 2 and out == ""
        assert "tol" in err, err

    def test_missing_input_exit_2(self, capsys):
        code, _, _ = _run(capsys, "verify", "--region", "cr_rank2", "--input", "/no/such.csv")
        assert code == 2

    @pytest.mark.parametrize("source", ["empty", "missing"])
    @pytest.mark.parametrize("tol", [" 1e-9", "nan", "1_0"])
    def test_tolerance_is_checked_before_the_input_is_read(self, capsys, tmp_path, source, tol):
        """A bad --tol is named even when the input is empty or missing."""
        path = tmp_path / "empty.csv"
        if source == "empty":
            path.write_text("")
        code, out, err = _run(
            capsys, "verify", "--region", "cr_rank2", "--input", str(path), "--tol", tol)
        assert code == 2 and out == ""
        assert err.startswith("error: tol must be a finite real number"), err
        assert repr(float(tol) if tol == "nan" else tol) in err, err

    @pytest.mark.parametrize("region, row", [
        ("cr_rank2", "0,2,-2,0.1,0.5,,x"),  # sqrt(c12) of a negative c12
        ("cr_rank2_lower", "0,2,-2,0.1,0.5,,x"),
        ("cr_rank4", "0,2,-2,0.1,0.5,,x"),  # ((2 c12 + 1) / 3) ** 0.75 is complex
        ("nr_rank4", "0,2,0.1,-2,0.5,,x"),
        ("nr_rank2", "0,2,0.1,0.1,1e200,,x"),  # (1 - r12) ** 2 overflows
        ("rc_tau_identity", "0,2,0.1,0.1,1e200,0.5,x"),
    ])
    def test_finite_record_outside_the_bound_domain_is_a_violation(self, capsys, tmp_path,
                                                                  region, row):
        path = tmp_path / "recs.csv"
        path.write_text(f"index,rank,c12,n12,r12,tau,family\n{row}\n")
        code, out, err = _run(capsys, "verify", "--region", region, "--input", str(path))
        report = json.loads(out)
        assert (code, err) == (1, "")
        assert report["violations"] == 1 and report["offenders"][0][0] == 0


class TestFigureCommand:
    def test_figure_bundle(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys, "figure", "--id", "7", "--out", str(tmp_path), "--n", "150", "--seed", "2"
        )
        assert code == 0
        assert (tmp_path / "fig7_scatter.csv").exists()
        assert (tmp_path / "fig7_curve_nr_rank2_lower.csv").exists()
        meta = json.loads((tmp_path / "fig7_meta.json").read_text())
        assert meta["regions"][0]["violations"] == 0

    def test_unknown_figure_exit_2(self, capsys, tmp_path):
        code, _, _ = _run(capsys, "figure", "--id", "13", "--out", str(tmp_path))
        assert code == 2

    def test_zero_samples_exit_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, "figure", "--id", "1", "--n", "0", "--out", str(tmp_path))
        assert code == 2
        assert "error" in err
        assert not (tmp_path / "fig1_scatter.csv").exists()

    @pytest.mark.parametrize("n", ["-3", "0", str(2**32 + 1)])
    @pytest.mark.parametrize("fig_id", ["6", "11"])
    def test_bad_sample_count_of_a_curves_only_figure_exits_2(self, capsys, tmp_path, fig_id, n):
        """A figure without a scatter checks --n as a scatter figure does."""
        code, out, err = _run(capsys, "figure", "--id", fig_id, "--n", n, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert "sample count" in err, err
        assert not list(tmp_path.iterdir())


class TestUsage:
    def test_no_command(self, capsys):
        assert _run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys):
        assert _run(capsys, "sample", "--frobnicate", "1")[0] == 2

    def test_usage_error_then_clean_verify(self, capsys, tmp_path):
        path = tmp_path / "recs.csv"
        path.write_text("index,rank,c12,n12,r12,tau,family\n0,2,0.25,0.25,0.4,,x\n")
        assert _run(capsys, "verify", "--region", "no_region", "--input", str(path))[0] == 2
        code, out, err = _run(capsys, "verify", "--region", "cr_rank2", "--input", str(path))
        assert (code, err) == (0, "") and json.loads(out)["violations"] == 0

    def test_workers_flag_is_gone(self, capsys):
        argv = ("sample", "--dims", "2,2,2", "--n", "10", "--seed", "1", "--workers", "2")
        assert _run(capsys, *argv)[0] == 2

    def test_python_dash_m_prints_the_usage(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["permutangle", "--help"])
        with pytest.raises(SystemExit) as caught:
            runpy.run_module("permutangle", run_name="__main__")
        assert caught.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: permutangle ")
        assert all(command in out for command in
                   ("measure", "sample", "curve", "perturb", "figure", "verify"))

    @pytest.mark.parametrize("command", ["measure", "sample", "curve", "perturb"])
    def test_file_commands_take_one_out_flag(self, capsys, command):
        code, out, _ = _run(capsys, command, "--help")
        assert code == 0
        assert out.count("--out OUT") == 2  # the usage line and the option list
        assert re.search(r"\n  --out OUT +write to this file instead of stdout\n", out), out


#: Each place the command line reads a number: its arguments with ``{}`` for
#: the number's text, ``OUT`` for a path the command may write and ``CSV`` for
#: a records file; a number that reads there; and whether whitespace around the
#: text belongs to a separator (",", "=" or ":"), which the parser strips.
_NUMBER_SLOTS = {
    "sample --n": ("sample --dims 2,2,2 --n {} --seed 1 --out OUT", "10", False),
    "sample --seed": ("sample --dims 2,2,2 --n 5 --seed {} --out OUT", "17", False),
    "perturb --n": ("perturb --kind mems1_fig8 --n {} --seed 1 --out OUT", "10", False),
    "perturb --seed": ("perturb --kind mems1_fig8 --n 5 --seed {} --out OUT", "17", False),
    "perturb --eps": ("perturb --kind mems1_fig8 --n 5 --seed 1 --eps {} --out OUT", "0.25", False),
    "figure --n": ("figure --id 6 --n {} --out OUT", "10", False),
    "figure --seed": ("figure --id 6 --seed {} --out OUT", "17", False),
    "figure --id": ("figure --id {} --n 5 --out OUT", "10", False),
    "curve --points": ("curve --id cr_rank4 --points {} --out OUT", "10", False),
    "verify --tol": ("verify --region cr_rank2 --input CSV --tol {}", "0.25", False),
    "sample --dims part": ("sample --dims 2,2,{} --n 5 --seed 1 --out OUT", "02", True),
    "measure --params value": ("measure --family werner --params p={} --out OUT", "0.25", True),
    "measure colon-vector part": (
        "measure --family cq_state --params p=0.5,a={}:0:0 --out OUT", "0.25", True),
}


def _spellings(number: str, separated: bool) -> dict[str, str]:
    """Spellings of ``number`` the program never writes: ``_`` before its last digit,
    Arabic-Indic digits, and a space, inside the number where one around it
    belongs to a separator, else in front of it."""
    return {
        "underscore": f"{number[:-1]}_{number[-1]}",
        "arabic-indic": number.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
        "space": f"{number[:-1]} {number[-1]}" if separated else f" {number}",
    }


def _argv(template: str, text: str, tmp_path) -> list[str]:
    csv = tmp_path / "records.csv"
    csv.write_text("index,rank,c12,n12,r12,tau,family\n0,2,0.5,0.25,0.75,,x\n")
    paths = {"OUT": str(tmp_path / "out"), "CSV": str(csv)}
    return [paths.get(arg, arg).replace("{}", text) for arg in template.split()]


@pytest.mark.parametrize("spelling", ["underscore", "arabic-indic", "space"])
@pytest.mark.parametrize("slot", _NUMBER_SLOTS)
def test_number_text_the_program_never_writes_exits_2_naming_it(capsys, tmp_path, slot, spelling):
    """Python's parsers read the underscore, Arabic-Indic and leading-space spellings
    as the number; the command line passes each on as text, which the library's
    own check refuses by name, and nothing is written."""
    template, number, separated = _NUMBER_SLOTS[slot]
    text = _spellings(number, separated)[spelling]
    code, out, err = _run(capsys, *_argv(template, text, tmp_path))
    assert (code, out) == (2, ""), err
    assert text in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("template, spaced, plain", [
    ("measure --family werner --params {}", "p = 0.5", "p=0.5"),
    ("measure --family cq_state --params {}", "p=0.5, a = 0 : 0.5 : 0", "p=0.5,a=0:0.5:0"),
    ("sample --dims {} --n 5 --seed 1", "2, 2, 3", "2,2,3"),
])
def test_whitespace_around_a_separator_is_read(capsys, tmp_path, template, spaced, plain):
    code, out, err = _run(capsys, *_argv(template, spaced, tmp_path))
    assert (code, err) == (0, "") and out
    assert _run(capsys, *_argv(template, plain, tmp_path)) == (code, out, err)
