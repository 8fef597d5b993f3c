"""Command-line front end.

Every subcommand prints its verdict on the first line of stdout and uses
the exit code to report it: 0 when the property holds (consistent,
realisable, derivable, entailed), 1 when it is refuted (with a witness
or counterexample following the verdict where one exists), and 2 for
input errors.  :func:`main` is the one place where an input error, or a
``ValueError`` the library raises on its input, becomes exit 2; a
handler catches an error itself only to prefix it with its source or to
report it as a verdict.  Families and dependency lists are read in the
formats of :mod:`ctxfam.formats`, and every witness is emitted in the
same family format, so it can be fed back to ``check``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, List, Optional

from .family import (
    ContextualFamily,
    LocalConsistencyError,
    check_global_consistency,
)
from .fdlogic import (
    FD,
    RuleSet,
    build_counterexample,
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
    NotRealisableError,
    build_opg,
    decompose_cycles,
    find_realisation,
    realisable_lp,  # not called here; perfbench/spans.py wraps it in this module
    realise,
)


class InputError(Exception):
    """User-facing problem with arguments or input files; exits 2."""


def _read(path: str) -> str:
    """The text of the file at ``path``; an unreadable file or one that is
    not UTF-8 is an input error that names the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_family(path: str) -> ContextualFamily:
    try:
        return parse_family(_read(path))
    except ValueError as exc:
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


def _emit(verdict: str, text: str, path: Optional[str]) -> None:
    """Print ``verdict``, then ``text``; with a ``path``, write ``text`` to
    that file instead, before anything reaches stdout, so a file that
    cannot be written prints no verdict, only the error."""
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from None
        text = ""
    print(verdict)
    sys.stdout.write(text)


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
    graph = build_opg(_load_family(args.family))
    vertices, edges = graph.texts()
    lines = [
        f"overlap projection graph: {len(vertices)} vertices, {len(edges)} edges",
        "cycle order: " + " | ".join(" ".join(r.names) for r in graph.relations),
    ]
    lines += [f"vertex {text}" for text in vertices]
    lines += [f"edge {text}" for text in edges]
    _emit("\n".join(lines), "" if args.dot is None else graph.to_dot(), args.dot)
    return 0


def _report_realisation(
    args: argparse.Namespace,
    build: Callable[[ContextualFamily, MonoidKind], ContextualFamily],
    output: Optional[str],
) -> int:
    """Realise the support of ``args.family`` in ``args.monoid`` with
    ``build(family, kind)``: print the verdict, then the witness or the
    uncovered edges; a witness for ``output`` is written there first."""
    family = _load_family(args.family)
    kind = _parse_kind(args.monoid, "N|Q")
    try:
        witness = build(family, kind)
    except NotRealisableError as exc:
        print("not realisable")
        for edge in exc.uncovered:
            print(f"uncovered edge: {edge.describe()}")
        return 1
    _emit("realisable", serialize_family(witness), output)
    return 0


def _cmd_realisable(args: argparse.Namespace) -> int:
    return _report_realisation(args, find_realisation, None)


def _cmd_realise(args: argparse.Namespace) -> int:
    def build(family: ContextualFamily, kind: MonoidKind) -> ContextualFamily:
        weight = None if args.weight is None else parse_value(kind, args.weight)
        return realise(family, kind, weight)

    return _report_realisation(args, build, args.output)


def _cmd_decompose(args: argparse.Namespace) -> int:
    parts = decompose_cycles(_load_family(args.family))
    print(f"decomposition: {len(parts)} cycles")
    sys.stdout.write(serialize_decomposition(parts))
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    sigma = _load_fds(args.fds)
    phi = _parse_query(args.query)
    ok, trace = derives(sigma, phi, RuleSet.from_string(args.rules))
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
    verdict = semantic_entails_oracle(
        sigma, phi, domain_size=args.domain, max_rows=args.max_rows
    )
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
    family = build_counterexample(sigma, phi, kind)
    if family is None:
        print("derivable; no counterexample")
        return 0
    _emit("counterexample found", serialize_family(family), args.output)
    return 1


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each call gets a fresh namespace."""
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
    # Input numbers are capped at 4300 digits (``parse_value``), but the
    # witnesses and violations built from them are written exactly.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
