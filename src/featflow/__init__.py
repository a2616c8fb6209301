"""FIRST/FOLLOW computation for unification-based grammars.

Results are sets of binding-preserving category pairs kept as subsumption
antichains, with negative restriction for finiteness and an active-pairs
agenda next to a naive baseline.
"""

from .fs import (
    Node,
    UnificationFailed,
    atom,
    clone,
    clone_many,
    empty,
    equivalent,
    make_path,
    make_restrictor,
    node,
    restrict,
    restrict_many,
    subsumes,
    subsumes_many,
    unifiable,
    unify,
    unify_copy,
    unify_in_place,
)
from .grammar import (
    Diagnostic,
    Grammar,
    GrammarSyntaxError,
    Rule,
    format_roots,
    is_preterminal,
    label_of,
    parse_category,
    parse_category_sequence,
    parse_grammar,
    parse_restrictor,
    validate,
)
from .firstfollow import (
    EPSILON,
    EpsilonMark,
    IterationRow,
    LimitExceeded,
    ModeReport,
    Pair,
    PairSet,
    RunStats,
    UnknownCategory,
    compare_modes,
    compute_first,
    compute_follow,
    first_of_string,
    format_pair,
    pair_equivalent,
    pair_sets_equivalent,
    pair_subsumes,
    query,
)

__version__ = "0.1.0"
