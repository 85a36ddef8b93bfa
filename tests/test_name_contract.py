"""The name contract of every family, curve, region, perturbation kind and Werner fiducial.

Each name is looked up in its registry by ``errors.check_key``. A name the
registry does not hold, an unhashable one such as a list included, raises
``DomainError`` naming the value as passed and the known names.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import permutangle
from permutangle import (
    DomainError,
    MeasureRecord,
    boundary_curve,
    closed_form_measures,
    curve_grid,
    make_state,
    numeric_measures,
    perturbation_campaign,
    sample_params,
    verify,
)
from permutangle.errors import check_key
from permutangle.experiments import curve_csv_bytes
from permutangle.families import state_stack

RECORD = MeasureRecord(rank=2, c12=0.3, n12=0.3, r12=0.5, tau=None, family="test")

#: entry point -> (call of the name under test, a name the call accepts)
ENTRY_POINTS = {
    "make_state": (lambda name: make_state(name, p=0.5), "werner"),
    "state_stack": (lambda name: state_stack(name, p=0.5), "werner"),
    "closed_form_measures": (lambda name: closed_form_measures(name, p=0.5), "werner"),
    "numeric_measures": (lambda name: numeric_measures(name, p=0.5), "werner"),
    "sample_params": (lambda name: sample_params(name, np.random.default_rng(1)), "werner"),
    "boundary_curve": (lambda name: boundary_curve(name, [0.5]), "cr_rank3"),
    "curve_grid": (lambda name: curve_grid(name, 3), "cr_rank3"),
    "curve_csv_bytes": (lambda name: curve_csv_bytes(name, 3), "m3ts_tau"),
    "verify": (lambda name: verify([RECORD], name), "cr_rank2"),
    "perturbation_campaign": (lambda name: perturbation_campaign(name, 2, 1), "mems1_fig8"),
    "werner bell": (lambda name: make_state("werner", p=0.5, bell=name), "psi-"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_known_name_is_accepted(entry):
    call, good = ENTRY_POINTS[entry]
    call(good)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("kind", ["string", "list"])
def test_an_unknown_name_is_a_domain_error_naming_it(entry, kind):
    """A list holding a known name is unhashable: it takes the same path."""
    call, good = ENTRY_POINTS[entry]
    bad = {"string": "no_such_name", "list": [good]}[kind]
    with pytest.raises(DomainError, match=rf"^unknown .*{re.escape(repr(bad))}; known: \("):
        call(bad)


def test_check_key_returns_the_entry_and_names_every_known_key():
    table = {"a": 1, "b": 2}
    assert check_key("b", table, "letter") == 2
    with pytest.raises(DomainError, match=re.escape("unknown letter {}; known: ('a', 'b')")):
        check_key({}, table, "letter")


def test_unknown_names_are_reported_only_by_check_key():
    """No ``DomainError`` message starting "unknown" is built outside ``errors.check_key``."""
    builders = set()
    for path in sorted(Path(permutangle.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for statement in tree.body:
            for node in ast.walk(statement):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "DomainError" and node.args):
                    continue
                message = node.args[0]
                if isinstance(message, ast.JoinedStr):
                    message = message.values[0]
                if isinstance(message, ast.Constant) and str(message.value).startswith("unknown"):
                    builders.add((path.name, getattr(statement, "name", f"line {node.lineno}")))
    assert builders == {("errors.py", "check_key")}
