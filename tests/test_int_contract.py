"""The integer contract of every count, seed, figure id, dimension and subsystem label.

Each is an int or a numpy integer (which acts as the equal int). A float,
even 2.0, a bool or a string is rejected, with an error naming the value as
passed, before anything is computed or written; nothing is truncated to an
int.
Sample counts, campaign seeds and curve grid sizes are checked in
``test_experiments.py`` and ``test_families.py``.
"""

import json

import numpy as np
import pytest

from permutangle import (
    DensityMatrix,
    DimensionError,
    DomainError,
    PureState,
    figure_dataset,
    haar_random_pure,
    haar_random_unitary,
    partial_transpose,
    path_invariant_spectrum,
    realign,
    records_csv_bytes,
    reduce,
    scatter,
    substream,
)
from permutangle.qstate import reduce_pure_stack, substreams

PSI = haar_random_pure((2, 2), np.random.default_rng(19))
RHO = PSI.density_matrix()


def _state(state):
    """A state's dims as written (so a numpy integer shows) and its bits."""
    data = state.amplitudes if isinstance(state, PureState) else state.matrix
    return repr(state.dims), data.tobytes()


def _figure(fig_id, out):
    """The bytes of each file of a figure bundle, by name."""
    figure_dataset(fig_id, out)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


#: entry point -> (call of the value under test and an output directory,
#: an int the call accepts, the error it raises for a value that is not an int)
ENTRY_POINTS = {
    "scatter dims": (lambda d, out: records_csv_bytes(scatter((d, 2, 2), 3, 1)), 2,
                     DimensionError),
    "PureState dims": (lambda d, out: _state(PureState((d, 2), PSI.amplitudes)), 2,
                       DimensionError),
    "DensityMatrix dims": (lambda d, out: _state(DensityMatrix((d, 2), RHO.matrix)), 2,
                           DimensionError),
    "haar_random_pure dims": (
        lambda d, out: _state(haar_random_pure((d, 2), np.random.default_rng(3))), 2,
        DimensionError),
    "haar_random_unitary dim": (
        lambda d, out: haar_random_unitary(d, np.random.default_rng(3)).tobytes(), 2,
        DimensionError),
    "reduce_pure_stack dims": (
        lambda d, out: reduce_pure_stack(PSI.amplitudes[None], (d, 2), (1,)).tobytes(), 2,
        DimensionError),
    "reduce label": (lambda k, out: _state(reduce(PSI, (k,))), 1, DimensionError),
    "partial_transpose dims": (
        lambda d, out: partial_transpose(RHO.matrix, 2, dims=(d, 2)).tobytes(), 2,
        DimensionError),
    "partial_transpose subsystem": (
        lambda k, out: partial_transpose(RHO, k).tobytes(), 2, DimensionError),
    "realign dims": (lambda d, out: realign(RHO.matrix, (d, 2)).tobytes(), 2, DimensionError),
    "path label": (lambda k, out: path_invariant_spectrum(PSI, (k, 2)).tobytes(), 1,
                   DimensionError),
    "substream seed": (lambda s, out: substream(s, 7).random(), 3, DomainError),
    "substream index": (lambda i, out: substream(3, i).random(), 1, DomainError),
    "substreams seed": (lambda s, out: [rng.random() for rng in substreams(s, [0, 7])], 3,
                        DomainError),
    "substreams index": (lambda i, out: [rng.random() for rng in substreams(3, [0, i])], 1,
                         DomainError),
    "figure id": (_figure, 6, DomainError),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("kind", ["float", "bool", "string"])
def test_a_value_that_is_not_an_int_is_rejected_before_anything_is_written(
        entry, kind, tmp_path):
    call, good, error = ENTRY_POINTS[entry]
    bad = {"float": float(good), "bool": True, "string": str(good)}[kind]
    with pytest.raises(error) as caught:
        call(bad, tmp_path)
    assert repr(bad) in str(caught.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_numpy_integer_acts_as_the_equal_int(entry, tmp_path):
    call, good, _ = ENTRY_POINTS[entry]
    (tmp_path / "int").mkdir()
    (tmp_path / "numpy").mkdir()
    assert call(np.int64(good), tmp_path / "numpy") == call(good, tmp_path / "int")


def test_a_numpy_integer_figure_id_is_a_json_int_in_the_meta_file(tmp_path):
    meta = json.loads(figure_dataset(np.int64(6), tmp_path)["meta"].read_text())
    assert (meta["config"]["figure"], type(meta["config"]["figure"])) == (6, int)


@pytest.mark.parametrize("index", [-1, 2**32, 2**64])
def test_both_stream_entry_points_reject_an_index_beyond_one_word(index):
    with pytest.raises(DomainError, match=repr(index)):
        substream(3, index)
    with pytest.raises(DomainError, match=repr(index)):
        next(substreams(3, [index]))


def test_both_stream_entry_points_take_the_last_index_of_one_word():
    assert substream(3, 2**32 - 1).random() == next(substreams(3, [2**32 - 1])).random()


@pytest.mark.parametrize("dim", [0, -1])
def test_a_unitary_dimension_below_one_is_rejected(dim):
    with pytest.raises(DimensionError, match=repr(dim)):
        haar_random_unitary(dim, np.random.default_rng(3))
