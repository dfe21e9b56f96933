"""Exact differential calculi on finite sets, the finite T0 spaces they
generate, and simplicial coarse graining of their polyhedral realizations.

Everything is computed over exact Gaussian rationals; all operations are
pure functions over immutable values and safe to share between threads.
The values compare by value and can be copied, deep-copied and pickled.
"""

from .scalars import GaussianRational
from .envelope import (
    EmptyWord,
    EqualAdjacentLetters,
    Form,
    IndexOutOfRange,
    WordError,
    basis_words,
    differential,
    form_product,
    inner,
    is_subsequence,
    unit,
    word_validate,
)
from .ideals import BasicIdeal, GradeZeroGenerator
from .automata import longest_avoiding_word
from .manifolds import (
    InfiniteDimensional,
    Manifold,
    NotAntisymmetric,
    Relation,
    StructureReport,
    StructureViolation,
)
from .complexes import NotASimplex, SimplicialComplex
from .topology import (
    FiniteSpace,
    HasseDiagram,
    TooLarge,
    generated_space,
    hasse,
    is_t0,
    open_sets,
    poset_isomorphic,
)
from .coarse import (
    CorrespondenceReport,
    Covering,
    NotACover,
    STANDARD_CIRCLE_ARCS,
    STANDARD_CIRCLE_EXTRA_POINTS,
    UncoveredPoint,
    circle_covering,
    sampled_substitute,
    simplicial_substitute,
    trace_substitute,
    verify_correspondence,
)
from .errors import FinitaryError, members

__version__ = "0.1.0"

__all__ = [
    "BasicIdeal",
    "CorrespondenceReport",
    "Covering",
    "EmptyWord",
    "EqualAdjacentLetters",
    "FinitaryError",
    "FiniteSpace",
    "Form",
    "GaussianRational",
    "GradeZeroGenerator",
    "HasseDiagram",
    "IndexOutOfRange",
    "InfiniteDimensional",
    "Manifold",
    "NotACover",
    "NotASimplex",
    "NotAntisymmetric",
    "Relation",
    "STANDARD_CIRCLE_ARCS",
    "STANDARD_CIRCLE_EXTRA_POINTS",
    "SimplicialComplex",
    "StructureReport",
    "StructureViolation",
    "TooLarge",
    "UncoveredPoint",
    "WordError",
    "basis_words",
    "circle_covering",
    "differential",
    "form_product",
    "generated_space",
    "hasse",
    "inner",
    "is_subsequence",
    "is_t0",
    "longest_avoiding_word",
    "members",
    "open_sets",
    "poset_isomorphic",
    "sampled_substitute",
    "simplicial_substitute",
    "trace_substitute",
    "unit",
    "verify_correspondence",
    "word_validate",
]
