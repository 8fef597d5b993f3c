"""Contextual families of monoid-annotated relations.

Building blocks:

- :mod:`ctxfam.monoid` — the annotation values (B, N, Q) and their sums;
- :mod:`ctxfam.relation` — assignments and annotated relations, with
  marginalisation and dependency satisfaction;
- :mod:`ctxfam.family` — locally consistent families over an antichain
  of contexts, and the search for a single global witness relation;
- :mod:`ctxfam.realisability` — overlap projection graphs over chordless
  context cycles, realisability by edge cycle covers or exact rational
  feasibility, constructive realisation, and cycle decomposition;
- :mod:`ctxfam.fdlogic` — derivation rules for unary functional
  dependencies under local consistency with replayable traces,
  counterexample construction, and a bounded semantic oracle;
- :mod:`ctxfam.formats` — the textual formats shared with the CLI.
"""

from .family import (
    ContextError,
    ContextSet,
    ContextualFamily,
    ConsistencyViolation,
    LocalConsistencyError,
    check_global_consistency,
    find_violation,
)
from .fdlogic import (
    FD,
    DerivationTrace,
    EntailmentVerdict,
    MissingCoveringContextError,
    RuleSet,
    TraceStep,
    UnsupportedDependencyError,
    build_counterexample,
    derives,
    format_trace,
    random_family_satisfying,
    semantic_entails_oracle,
    verify_trace,
)
from .formats import (
    FormatError,
    parse_family,
    parse_fd,
    parse_fds,
    parse_relations,
    serialize_decomposition,
    serialize_family,
    serialize_relation,
)
from .monoid import (
    MonoidKind,
    MonoidValue,
    parse_value,
)
from .realisability import (
    NotChordlessCycleError,
    NotRealisableError,
    OpgEdge,
    OpgVertex,
    OverlapProjectionGraph,
    build_opg,
    classify_chordless_cycle,
    decompose_cycles,
    find_realisation,
    find_simple_cycle_through,
    realisable_lp,
    realise,
)
from .relation import (
    Assignment,
    DomainError,
    KRelation,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "ConsistencyViolation",
    "ContextError",
    "ContextSet",
    "ContextualFamily",
    "DerivationTrace",
    "DomainError",
    "EntailmentVerdict",
    "FD",
    "FormatError",
    "KRelation",
    "LocalConsistencyError",
    "MissingCoveringContextError",
    "MonoidKind",
    "MonoidValue",
    "NotChordlessCycleError",
    "NotRealisableError",
    "OpgEdge",
    "OpgVertex",
    "OverlapProjectionGraph",
    "RuleSet",
    "TraceStep",
    "UnsupportedDependencyError",
    "build_counterexample",
    "build_opg",
    "check_global_consistency",
    "classify_chordless_cycle",
    "decompose_cycles",
    "derives",
    "find_realisation",
    "find_simple_cycle_through",
    "find_violation",
    "format_trace",
    "parse_family",
    "parse_fd",
    "parse_fds",
    "parse_relations",
    "parse_value",
    "random_family_satisfying",
    "realisable_lp",
    "realise",
    "semantic_entails_oracle",
    "serialize_decomposition",
    "serialize_family",
    "serialize_relation",
    "verify_trace",
]
