"""Permutation-based correlation measures for small quantum states.

The central quantity, ``r12``, combines the two defining permutations of a
bipartite density matrix (partial transpose, then realignment) into the
determinant-based measure d * |det|^(1/d^2). The package provides the
supporting linear-algebra kernels, state containers and Haar sampling, the
named boundary-state families with their closed forms, and reproducible
Monte-Carlo campaigns with region verification.
"""

from .errors import DegenerateStateError, DimensionError, DomainError, HermiticityError
from .experiments import (
    FIGURE_IDS,
    MeasureRecord,
    PERTURBATION_KINDS,
    Records,
    REGION_TAGS,
    ViolationReport,
    build_record,
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
from .families import (
    CURVE_TAGS,
    FAMILY_TAGS,
    boundary_curve,
    closed_form_measures,
    curve_grid,
    make_state,
    numeric_measures,
    sample_params,
)
from .measures import (
    WITNESS_THRESHOLD,
    concurrence,
    negativity,
    pure_concurrence,
    r12,
    r12_via_singular_values,
    three_tangle,
)
from .permutations import (
    link_product,
    link_transform,
    partial_transpose,
    path_invariant_spectrum,
    realign,
)
from .qstate import (
    DensityMatrix,
    PureState,
    haar_random_pure,
    haar_random_unitary,
    mix,
    perturb_pure,
    purify,
    random_fixed_eigvecs,
    reduce,
    substream,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
