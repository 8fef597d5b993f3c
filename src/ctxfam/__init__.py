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
    check_local_consistency,
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
    chain_rule_derives,
    classical_closure,
    cycle_rule_derives,
    derivation_closure,
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
    serialize_fd,
    serialize_fds,
    serialize_relation,
)
from .monoid import (
    KindMismatchError,
    MonoidKind,
    MonoidValue,
    add,
    format_value,
    msum,
    natural_leq,
    parse_value,
    subtract,
)
from .realisability import (
    CycleOrdering,
    NotChordlessCycleError,
    NotRealisableError,
    NotSimplyCyclicError,
    OpgEdge,
    OpgVertex,
    OverlapProjectionGraph,
    build_opg,
    classify_chordless_cycle,
    decompose_cycles,
    family_from_weights,
    find_realisation,
    find_simple_cycle_through,
    lift_uniform,
    realisable_chordless,
    realisable_lp,
    realise,
)
from .relation import (
    Assignment,
    DomainError,
    KRelation,
    consistent,
    scalar_fill,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "ConsistencyViolation",
    "ContextError",
    "ContextSet",
    "ContextualFamily",
    "CycleOrdering",
    "DerivationTrace",
    "DomainError",
    "EntailmentVerdict",
    "FD",
    "FormatError",
    "KRelation",
    "KindMismatchError",
    "LocalConsistencyError",
    "MissingCoveringContextError",
    "MonoidKind",
    "MonoidValue",
    "NotChordlessCycleError",
    "NotRealisableError",
    "NotSimplyCyclicError",
    "OpgEdge",
    "OpgVertex",
    "OverlapProjectionGraph",
    "RuleSet",
    "TraceStep",
    "UnsupportedDependencyError",
    "add",
    "build_counterexample",
    "build_opg",
    "chain_rule_derives",
    "check_global_consistency",
    "check_local_consistency",
    "classical_closure",
    "classify_chordless_cycle",
    "consistent",
    "cycle_rule_derives",
    "decompose_cycles",
    "derivation_closure",
    "derives",
    "family_from_weights",
    "find_realisation",
    "find_simple_cycle_through",
    "find_violation",
    "format_trace",
    "format_value",
    "lift_uniform",
    "msum",
    "natural_leq",
    "parse_family",
    "parse_fd",
    "parse_fds",
    "parse_relations",
    "parse_value",
    "random_family_satisfying",
    "realisable_chordless",
    "realisable_lp",
    "realise",
    "scalar_fill",
    "semantic_entails_oracle",
    "serialize_decomposition",
    "serialize_family",
    "serialize_fd",
    "serialize_fds",
    "serialize_relation",
    "subtract",
    "verify_trace",
]
