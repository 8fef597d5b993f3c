"""Spans around ctxfam's layers, installed from the benchmark's own code.

Each wrapper replaces a public function or constructor at the place its
callers look it up (the ``ctxfam.cli`` module globals, the module
globals of the library modules that call each other, and the class
attributes of the constructors), calls the original unchanged, and
records a span: name, start, end, parent span and job id.  Counters are
kept at the same boundaries.  Spans stay in memory until the run ends.

A layer is the part of a span name before the first dot.  A layer's
self time is the time of its spans minus the time of their child spans.
No layer waits on another thread, a lock or a device, and the only I/O
is reading small input files, so no wait times are recorded.
"""

from __future__ import annotations

import gzip
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "formats", "family", "feasibility", "realisability", "relation", "fdlogic")


class OverBudget(BaseException):
    """Raised from the budget timer inside a job; carries the layer of the
    innermost open span.  A BaseException, so no ``except Exception`` in
    the program can swallow it."""


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent, job]
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.sizes: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.cycles: set = set()
        self.job = -1
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> float:
        span = self.spans[index]
        span[2] = perf_counter()
        if index in self.stack:
            self.stack.remove(index)
        return span[2] - span[1]

    def settle(self) -> None:
        """Close whatever a budget interrupt left open."""
        while self.stack:
            self.close(self.stack[-1])

    def open_layer(self) -> str:
        return self.spans[self.stack[-1]][0].split(".")[0] if self.stack else "cli"

    # -- installation -----------------------------------------------------

    def _replace(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner: object, attr: str, name: str,
             after: Optional[Callable[[object, tuple, float], None]] = None) -> None:
        original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = self.close(index)
            if after is not None:
                after(result, args, seconds)
            return result

        self._replace(owner, attr, wrapper)

    def count(self, owner: object, attr: str, name: str,
              amount: Optional[Callable[[tuple], int]] = None) -> None:
        """Count calls (and optionally a size) without a span: for
        constructors called far too often to time one by one."""
        original = owner.__dict__[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if amount is not None:
                counts[name + ".amount"] += amount(args)
            return original(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def install(self) -> None:
        from ctxfam import cli, family, fdlogic, formats, realisability
        from ctxfam.family import ContextualFamily
        from ctxfam.monoid import MonoidValue
        from ctxfam.relation import KRelation

        c = self.counts

        def parsed(result, _args, seconds):
            rows = sum(len(r) for r in result)
            c["formats.rows_parsed"] += rows
            self.sizes["formats.parse"].append((rows / len(result), seconds))

        def dependencies(result, _args, _seconds):
            c["formats.rows_parsed"] += len(result)

        def serialized(result, _args, _seconds):
            c["formats.bytes_out"] += len(result)

        def solved(_result, args, _seconds):
            c["feasibility.unknowns_max"] = max(c["feasibility.unknowns_max"], len(args[2]))

        def realised(_result, args, seconds):
            size = sum(len(r) for r in args[0].maximal_relations())
            self.sizes["realisability.realise"].append((size, seconds))

        def searched(result, _args, _seconds):
            self.cycles.add((self.job, frozenset(e.label for e in result)))

        def graphed(result, _args, _seconds):
            c["realisability.opg_edges"] += len(result.edges)

        def decomposed(result, _args, _seconds):
            c["realisability.decompose_parts"] += len(result)

        def derived(result, _args, _seconds):
            c["fdlogic.trace_steps"] += len(result[1].steps) if result[1] else 0

        def sampled(result, _args, _seconds):
            c["fdlogic.sampler_families"] += result is not None

        for module in (cli, formats):
            self.wrap(module, "parse_relations", "formats.parse", parsed)
        self.wrap(cli, "parse_fds", "formats.parse", dependencies)
        for attr in ("serialize_family", "serialize_relation", "serialize_decomposition"):
            self.wrap(cli, attr, "formats.serialize", serialized)
        self.wrap(ContextualFamily, "__init__", "family.validate")
        self.wrap(cli, "check_global_consistency", "family.global")
        for module in (family, realisability):
            self.wrap(module, "find_rational_solution", "feasibility.solve", solved)
        for module in (cli, realisability):
            self.wrap(module, "build_opg", "realisability.opg", graphed)
        self.wrap(cli, "realise", "realisability.realise", realised)
        self.wrap(realisability, "find_simple_cycle_through", "realisability.cycle_search",
                  searched)
        self.wrap(cli, "decompose_cycles", "realisability.decompose", decomposed)
        self.wrap(cli, "realisable_lp", "realisability.lp")
        self.count(KRelation, "__init__", "relation.krelations_built", lambda a: len(a[3]))
        self.wrap(KRelation, "marginalise", "relation.marginalise")
        self.count(MonoidValue, "__init__", "monoid.values_built")
        self.wrap(cli, "derives", "fdlogic.derive", derived)
        self.wrap(cli, "semantic_entails_oracle", "fdlogic.oracle")
        self.wrap(cli, "build_counterexample", "fdlogic.counterexample")
        self.wrap(fdlogic, "random_family_satisfying", "fdlogic.sampler", sampled)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as out:
            out.write("job\tname\tstart\tend\tparent\n")
            for name, start, end, parent, job in self.spans:
                out.write(f"{job}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def times(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Inclusive time, self time and call count per span name."""
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for name, start, end, parent, _job in self.spans:
            seconds = end - start
            total[name] += seconds
            own[name] += seconds
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= seconds
        return total, own, calls

    def metrics(self, jobs: int, over_budget: Dict[str, int],
                overhead_share: float) -> Dict[str, Tuple[float, str]]:
        """The per-layer table: work per job, self seconds per job, ratios."""
        total, own, calls = self.times()
        c = self.counts
        per = 1.0 / max(jobs, 1)
        searches = calls["realisability.cycle_search"]
        sampler = calls["fdlogic.sampler"]
        out: Dict[str, Tuple[float, str]] = {
            "cli.self_s": (own["cli.main"] * per, "s/job"),
            "formats.parse_s": (own["formats.parse"] * per, "s/job"),
            "formats.rows_parsed": (c["formats.rows_parsed"] * per, "1/job"),
            "formats.parse_rows_per_s": (
                c["formats.rows_parsed"] / total["formats.parse"] if total["formats.parse"] else 0.0,
                "1/s"),
            "formats.parse_slope": (slope(self.sizes["formats.parse"]), "ratio"),
            "formats.serialize_s": (own["formats.serialize"] * per, "s/job"),
            "formats.bytes_out": (c["formats.bytes_out"] * per, "B/job"),
            "family.validate_calls": (calls["family.validate"] * per, "1/job"),
            "family.validate_s": (own["family.validate"] * per, "s/job"),
            "family.global_calls": (calls["family.global"] * per, "1/job"),
            "family.global_s": (own["family.global"] * per, "s/job"),
            "feasibility.solve_calls": (calls["feasibility.solve"] * per, "1/job"),
            "feasibility.solve_s": (own["feasibility.solve"] * per, "s/job"),
            "feasibility.unknowns_max": (c["feasibility.unknowns_max"], "count"),
            "realisability.realise_s": (own["realisability.realise"] * per, "s/job"),
            "realisability.cycle_searches": (searches * per, "1/job"),
            "realisability.cycle_yield": (len(self.cycles) / searches if searches else 0.0,
                                          "ratio"),
            "realisability.realise_slope": (slope(self.sizes["realisability.realise"]), "ratio"),
            "realisability.decompose_s": (own["realisability.decompose"] * per, "s/job"),
            "realisability.decompose_parts": (c["realisability.decompose_parts"] * per, "1/job"),
            "realisability.opg_s": (own["realisability.opg"] * per, "s/job"),
            "realisability.opg_edges": (c["realisability.opg_edges"] * per, "1/job"),
            "realisability.lp_s": (own["realisability.lp"] * per, "s/job"),
            "relation.krelations_built": (c["relation.krelations_built"] * per, "1/job"),
            "relation.rows_stored": (c["relation.krelations_built.amount"] * per, "1/job"),
            "relation.marginalise_calls": (calls["relation.marginalise"] * per, "1/job"),
            "relation.marginalise_s": (own["relation.marginalise"] * per, "s/job"),
            "monoid.values_built": (c["monoid.values_built"] * per, "1/job"),
            "fdlogic.derive_s": (own["fdlogic.derive"] * per, "s/job"),
            "fdlogic.trace_steps": (c["fdlogic.trace_steps"] * per, "1/job"),
            "fdlogic.oracle_s": (own["fdlogic.oracle"] * per, "s/job"),
            "fdlogic.counterexample_s": (own["fdlogic.counterexample"] * per, "s/job"),
            "fdlogic.sampler_s": (own["fdlogic.sampler"] * per, "s/job"),
            "fdlogic.sampler_yield": (c["fdlogic.sampler_families"] / sampler if sampler else 0.0,
                                      "ratio"),
        }
        for layer in LAYERS:
            out[f"{layer}.over_budget"] = (float(over_budget.get(layer, 0)), "count")
        out["trace.overhead_share"] = (overhead_share, "ratio")
        return out


def slope(samples: List[Tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    points = [(math.log(s), math.log(t)) for s, t in samples if s > 0 and t > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx
