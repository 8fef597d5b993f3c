"""Command-line front end.

Every subcommand prints its verdict on the first line of stdout and uses
the exit code to report it: 0 when the property holds (consistent,
realisable, derivable, entailed), 1 when it is refuted (with a witness
or counterexample following the verdict where one exists), and 2 for
input errors.  Families and dependency lists are read in the formats of
:mod:`ctxfam.formats`, and every witness is emitted in the same family
format, so it can be fed back to ``check``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .family import (
    ContextualFamily,
    LocalConsistencyError,
    check_global_consistency,
)
from .fdlogic import (
    FD,
    RuleSet,
    build_counterexample,
    derivation_closure,
    derives,
    format_trace,
    semantic_entails_oracle,
)
from .formats import (
    FormatError,
    parse_fd,
    parse_fds,
    parse_family,
    parse_relations,
    serialize_decomposition,
    serialize_family,
    serialize_relation,
)
from .monoid import MonoidKind, parse_value
from .realisability import (
    NotChordlessCycleError,
    NotRealisableError,
    build_opg,
    classify_chordless_cycle,
    decompose_cycles,
    find_realisation,
    realisable_lp,  # not called here; perfbench/spans.py wraps it in this module
    realise,
)


class InputError(Exception):
    """User-facing problem with arguments or input files; exits 2."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _load_family(path: str) -> ContextualFamily:
    try:
        return parse_family(_read(path))
    except FormatError as exc:
        raise InputError(f"{path}: {exc}") from None
    except (LocalConsistencyError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_fds(path: str) -> List[FD]:
    try:
        return parse_fds(_read(path))
    except FormatError as exc:
        raise InputError(f"{path}: {exc}") from None


def _parse_query(text: str) -> FD:
    try:
        return parse_fd(text)
    except FormatError as exc:
        raise InputError(f"query: {exc.message}") from None


def _parse_kind(text: str, allowed: str) -> MonoidKind:
    if text not in allowed.split("|"):
        raise InputError(f"monoid must be one of {allowed}, got {text!r}")
    return MonoidKind(text)


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from None


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        relations = parse_relations(_read(args.family))
    except FormatError as exc:
        raise InputError(f"{args.family}: {exc}") from None
    try:
        ContextualFamily(relations)
    except LocalConsistencyError as exc:
        print("locally inconsistent")
        print(exc.violation.describe())
        return 1
    except ValueError as exc:
        raise InputError(f"{args.family}: {exc}") from None
    print("locally consistent")
    return 0


def _cmd_global(args: argparse.Namespace) -> int:
    family = _load_family(args.family)
    witness = check_global_consistency(family)
    if witness is None:
        print("globally inconsistent")
        return 1
    print("globally consistent")
    sys.stdout.write(serialize_relation(witness))
    return 0


def _cmd_opg(args: argparse.Namespace) -> int:
    family = _load_family(args.family)
    try:
        ordering = classify_chordless_cycle(family.contexts)
    except NotChordlessCycleError as exc:
        raise InputError(str(exc)) from None
    graph = build_opg(family, ordering)
    print(
        f"overlap projection graph: {len(graph.vertices)} vertices, "
        f"{len(graph.edges)} edges"
    )
    print(
        "cycle order: "
        + " | ".join(" ".join(sorted(c)) for c in ordering.contexts)
    )
    for vertex in graph.vertices:
        print(f"vertex {vertex}")
    for edge in graph.edges:
        print(f"edge {edge.describe()}")
    if args.dot is not None:
        _emit(graph.to_dot(), args.dot)
    return 0


def _cmd_realisable(args: argparse.Namespace) -> int:
    family = _load_family(args.family)
    kind = _parse_kind(args.monoid, "N|Q")
    try:
        witness = find_realisation(family.support(), kind)
    except NotRealisableError as exc:
        print("not realisable")
        for edge in exc.uncovered:
            print(f"uncovered edge: {edge.describe()}")
        return 1
    print("realisable")
    sys.stdout.write(serialize_family(witness))
    return 0


def _cmd_realise(args: argparse.Namespace) -> int:
    family = _load_family(args.family)
    kind = _parse_kind(args.monoid, "N|Q")
    weight = None
    if args.weight is not None:
        try:
            weight = parse_value(kind, args.weight)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    support = family.support()
    try:
        classify_chordless_cycle(support.contexts)
    except NotChordlessCycleError as exc:
        raise InputError(str(exc)) from None
    try:
        witness = realise(support, kind, weight)
    except NotRealisableError as exc:
        print("not realisable")
        for edge in exc.uncovered:
            print(f"uncovered edge: {edge.describe()}")
        return 1
    except ValueError as exc:
        raise InputError(str(exc)) from None
    print("realisable")
    _emit(serialize_family(witness), args.output)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    family = _load_family(args.family)
    if family.kind is MonoidKind.B:
        raise InputError("decomposition needs an N or Q family")
    try:
        classify_chordless_cycle(family.contexts)
    except NotChordlessCycleError as exc:
        raise InputError(str(exc)) from None
    parts = decompose_cycles(family)
    print(f"decomposition: {len(parts)} cycles")
    sys.stdout.write(serialize_decomposition(parts))
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    sigma = _load_fds(args.fds)
    phi = _parse_query(args.query)
    try:
        rules = RuleSet.from_string(args.rules)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    try:
        ok, trace = derives(sigma, phi, rules)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if not ok:
        print("not derivable")
        return 1
    print("derivable")
    if args.trace and trace is not None:
        print(format_trace(trace))
    return 0


def _cmd_entail(args: argparse.Namespace) -> int:
    sigma = _load_fds(args.fds)
    phi = _parse_query(args.query)
    try:
        verdict = semantic_entails_oracle(
            sigma, phi, domain_size=args.domain, max_rows=args.max_rows
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if verdict.holds:
        print("entailment holds")
        if not verdict.conclusive:
            print(
                f"bounded only: no counterexample with domain size "
                f"{args.domain} and at most {args.max_rows} rows per context"
            )
        return 0
    print("entailment refuted")
    assert verdict.counterexample is not None
    sys.stdout.write(serialize_family(verdict.counterexample))
    return 1


def _cmd_counterexample(args: argparse.Namespace) -> int:
    sigma = _load_fds(args.fds)
    phi = _parse_query(args.query)
    kind = _parse_kind(args.monoid, "B|N|Q")
    try:
        closure = derivation_closure(sigma, RuleSet.CR, [phi.variables])
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if phi.rhs <= phi.lhs or phi in closure:
        print("derivable; no counterexample")
        return 0
    try:
        family = build_counterexample(sigma, phi, kind)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    print("counterexample found")
    _emit(serialize_family(family), args.output)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxfam",
        description=(
            "Consistency, realisability, and dependency reasoning for "
            "contextual families of annotated relations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate local consistency of a family")
    p.add_argument("family", help="family document")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("global", help="search for a global witness relation")
    p.add_argument("family", help="family document")
    p.set_defaults(func=_cmd_global)

    p = sub.add_parser("opg", help="print the overlap projection graph")
    p.add_argument("family", help="family document over a chordless cycle")
    p.add_argument("--dot", metavar="FILE", help="also write DOT text to FILE")
    p.set_defaults(func=_cmd_opg)

    p = sub.add_parser("realisable", help="decide realisability of the support")
    p.add_argument("family", help="family document")
    p.add_argument("--monoid", required=True, help="N or Q")
    p.set_defaults(func=_cmd_realisable)

    p = sub.add_parser("realise", help="construct a weighted family on the support")
    p.add_argument("family", help="family document over a chordless cycle")
    p.add_argument("--monoid", required=True, help="N or Q")
    p.add_argument("--weight", help="base cycle weight (default 1)")
    p.add_argument("--output", metavar="FILE", help="write the family to FILE")
    p.set_defaults(func=_cmd_realise)

    p = sub.add_parser("decompose", help="peel a weighted family into cycles")
    p.add_argument("family", help="N or Q family over a chordless cycle")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("derive", help="decide derivability of a dependency")
    p.add_argument("fds", help="dependency document")
    p.add_argument("--query", required=True, help="dependency to derive")
    p.add_argument(
        "--rules",
        default="cr",
        help="rule set: cr, full, classical, or nra (default cr)",
    )
    p.add_argument("--trace", action="store_true", help="print a derivation trace")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("entail", help="bounded semantic entailment check")
    p.add_argument("fds", help="dependency document")
    p.add_argument("--query", required=True, help="dependency to test")
    p.add_argument("--domain", type=int, default=2, help="domain size (default 2)")
    p.add_argument(
        "--max-rows", type=int, default=4, help="row budget per context (default 4)"
    )
    p.set_defaults(func=_cmd_entail)

    p = sub.add_parser(
        "counterexample", help="construct a family refuting an underivable dependency"
    )
    p.add_argument("fds", help="dependency document")
    p.add_argument("--query", required=True, help="dependency to refute")
    p.add_argument("--monoid", default="B", help="B, N, or Q (default B)")
    p.add_argument("--output", metavar="FILE", help="write the family to FILE")
    p.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
