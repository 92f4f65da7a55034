"""Exact SLOCC classification of true tripartite entangled 2 x M x N states."""

from .scalars import GaussianRational
from .states import PureState
from .operators import OperatorTriple, random_ilo
from .families import ClassLabel, make_canonical, make_expression
from .ranges import slocc_signature, count_product_states, range_subspace
from .classify import classify, decide_equivalence
from .verify import verify_theorem, verify_appendix_theta45

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "PureState",
    "OperatorTriple",
    "random_ilo",
    "ClassLabel",
    "make_canonical",
    "make_expression",
    "slocc_signature",
    "count_product_states",
    "range_subspace",
    "classify",
    "decide_equivalence",
    "verify_theorem",
    "verify_appendix_theta45",
    "__version__",
]
