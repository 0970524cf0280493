"""kerovlab: exact Kerov character polynomials and free cumulants of Young diagrams."""

from .partitions import (
    Partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    parse_partition,
    z_factor,
)
from .symfunc import SymFunc
from .cumulants import c_values, free_cumulants, q_values
from .characters import dimension, mn_character, normalized_character
from .kerov import (
    CumulantPolynomial,
    KerovPolynomial,
    KerovProvider,
    change_generators,
    compute_kerov,
    graded_component,
    krr1_closed_form,
    krr3_closed_form,
    weighted_triple_sum,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "conjugate",
    "enumerate_partitions",
    "format_partition",
    "parse_partition",
    "z_factor",
    "SymFunc",
    "c_values",
    "free_cumulants",
    "q_values",
    "dimension",
    "mn_character",
    "normalized_character",
    "CumulantPolynomial",
    "KerovPolynomial",
    "KerovProvider",
    "change_generators",
    "compute_kerov",
    "graded_component",
    "krr1_closed_form",
    "krr3_closed_form",
    "weighted_triple_sum",
    "__version__",
]
