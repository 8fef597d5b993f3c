"""Seeded generators for the four workloads.

Each generator turns ``(seed, job index)`` into one job: a ctxfam
command line over documents written to a work directory, or a direct
call of the random sampler, together with a check of its output whose
verdict is known by construction.  Nothing here imports ctxfam except
the sampler job, which calls the library the way a test would.

Jobs come in passes.  Every pass of a workload has the same make-up of
commands, shapes and sizes; the seed only decides the rows, values and
weights.  A run holds a fixed number of whole passes, so its job mix does
not depend on the seed or on how fast the machine is.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import checker
from checker import CheckError

# Per-job time budget in nominal seconds (wall seconds at the reference
# pace of pace.py), one per workload.  Each value sits
# in a gap of the seed's job-time distribution (see README.md): far above
# the slowest job that finishes, and, on global-lp, far below the
# Fourier-Motzkin blow-ups, which otherwise run past 15 s.
BUDGET_S = {
    "cycle-realise": 12.0,
    "global-lp": 0.5,
    "fd-entail": 0.5,
    "bulk-check": 15.0,
}

Output = Tuple[int, str]  # exit code, captured stdout


@dataclass
class Job:
    """One unit of work and the check of its result.

    ``argv`` is the command line for ``ctxfam.cli.main``; a job without
    it calls ``call`` instead, and ``render`` turns the returned value
    into an output after the timing has stopped.  ``check`` raises
    :class:`CheckError` on a wrong verdict or witness; it receives the
    job's output and a lookup, by position, of the outputs of the jobs in
    its ``group``.  ``index`` is the job's place in its run.
    """

    name: str
    check: Callable[[Output, Callable[[int], Output]], None]
    argv: Optional[List[str]] = None
    call: Optional[Callable[[], object]] = None
    render: Optional[Callable[[object], Output]] = None
    group: List["Job"] = field(default_factory=list)
    index: int = -1


# Size ranges: labels per family on cycle-realise, rows per context on
# bulk-check.  A pass holds 16 jobs at sizes spaced evenly in log scale
# over the range, so job times spread smoothly and percentiles do not sit
# on a step between two sizes.  The command at each size turns from pass
# to pass, so four passes put every command at every size.
SIZE_RANGE = {"cycle-realise": (40, 200), "bulk-check": (300, 2000)}


def pass_slot(workload: str, i: int) -> Tuple[int, int, int]:
    """Pass number, size and role (0-3) of job ``i``."""
    p, slot = divmod(i, 16)
    lo, hi = SIZE_RANGE[workload]
    return p, round(lo * (hi / lo) ** (slot / 15)), (slot + p + 1) % 4


# Units per pass: jobs, or on fd-entail instances (each one to three jobs).
PASS_UNITS = {"cycle-realise": 16, "global-lp": 360, "fd-entail": 192, "bulk-check": 16}
# Nominal seconds per pass.  A run of S seconds holds round(S / PASS_S)
# passes, so its work is fixed: a faster program finishes the same jobs
# sooner.  At S = 20 that is 6, 5, 5 and 3 passes, whose jobs take 20-28 s
# of wall time at this commit on a shared 2-vCPU x86-64 VM with Python
# 3.11; cycle-realise holds more passes than its 4.5 s per pass would
# give, so that its tail percentile rests on more jobs of the top sizes.
PASS_S = {"cycle-realise": 3.4, "global-lp": 4.0, "fd-entail": 4.0, "bulk-check": 7.0}


# ---------------------------------------------------------------------------
# Documents


Rel = Dict[Tuple[str, ...], int]  # value tuple in context order -> weight


def family_text(kind: str, contexts: Sequence[Tuple[str, ...]], rels: Sequence[Rel]) -> str:
    lines = [f"monoid {kind}"]
    for variables, rel in zip(contexts, rels):
        lines.append("context " + " ".join(variables))
        for values in sorted(rel):
            cells = " ".join(values)
            lines.append(cells if kind == "B" else f"{cells} : {rel[values]}")
    return "\n".join(lines) + "\n"


def grow_global(rng: random.Random, variables: Sequence[str], domain: int,
                contexts: Sequence[Tuple[str, ...]], done: Callable[[List[Rel], int], bool],
                prefix: str = "v", max_weight: int = 1) -> List[Rel]:
    """Marginals of a random weighted global relation, grown one global
    row at a time until ``done(marginals, rows drawn)`` holds."""
    position = {v: n for n, v in enumerate(variables)}
    index = [[position[v] for v in c] for c in contexts]
    rels: List[Rel] = [{} for _ in contexts]
    drawn = 0
    while not done(rels, drawn):
        drawn += 1
        row = [f"{prefix}{rng.randrange(domain)}" for _ in variables]
        weight = rng.randint(1, max_weight)
        for rel, idx in zip(rels, index):
            key = tuple(row[n] for n in idx)
            rel[key] = rel.get(key, 0) + weight
    return rels


def cycle_contexts(k: int, ternary: bool) -> List[Tuple[str, ...]]:
    xs = [f"x{i}" for i in range(k)]
    if ternary:
        return [(xs[i], f"m{i}", xs[(i + 1) % k]) for i in range(k)]
    return [(xs[i], xs[(i + 1) % k]) for i in range(k)]


def variables_of(contexts: Sequence[Tuple[str, ...]]) -> List[str]:
    return sorted({v for c in contexts for v in c})


def labels(rels: Sequence[Rel]) -> int:
    return sum(len(r) for r in rels)


def planted_cycle(rng: random.Random, contexts: List[Tuple[str, ...]], domain: int,
                  done: Callable[[List[Rel], int], bool]) -> Tuple[List[Rel], Dict[str, str]]:
    """Two value-disjoint cycle supports plus one cross row.

    The cross row leads from the first component into the second at one
    context; nothing leads back, so its overlap-projection-graph edge
    lies on no cycle and the support is not realisable.
    """
    variables = variables_of(contexts)
    first = grow_global(rng, variables, domain, contexts, done, "a")
    second = grow_global(rng, variables, domain, contexts, done, "b")
    rels = [{**a, **b} for a, b in zip(first, second)]
    at = rng.randrange(len(contexts))
    left = rng.choice(sorted(first[at]))
    right = rng.choice(sorted(second[at]))
    cross = left[:-1] + right[-1:]
    rels[at][cross] = 1
    return rels, dict(zip(contexts[at], cross))


def expect_lines(out: Output, code: int, first: str) -> List[str]:
    got_code, text = out
    lines = text.splitlines()
    if got_code != code or not lines or lines[0] != first:
        head = lines[0] if lines else "<no output>"
        raise CheckError(f"expected exit {code} '{first}', got exit {got_code} '{head}'")
    return lines


def rest(text: str) -> str:
    return text.split("\n", 1)[1] if "\n" in text else ""


def check_uncovered(lines: List[str], cross: Dict[str, str]) -> None:
    wanted = ",".join(f"{v}={cross[v]}" for v in sorted(cross))
    if not any(line.startswith("uncovered edge:") and line.endswith(wanted) for line in lines):
        raise CheckError(f"planted cross row {wanted} is not reported uncovered")


# ---------------------------------------------------------------------------
# cycle-realise


def cycle_realise(seed: int, i: int, work: Path) -> Job:
    rng = random.Random(f"cycle-realise/{seed}/{i}")
    p, target, role = pass_slot("cycle-realise", i)
    k = 3 + i % 4
    ternary = (i // 4) % 2 == 1
    contexts = cycle_contexts(k, ternary)
    variables = variables_of(contexts)
    kind = "NQ"[(i // 8) % 2]
    per_context = target / k
    domain = max(2, math.ceil((3 * per_context) ** (1 / len(contexts[0]))))
    enough = lambda rels, _: labels(rels) >= target  # noqa: E731
    path = work / f"cycle-{i}.fam"

    if role == 3:
        half = lambda rels, _: labels(rels) >= target // 2  # noqa: E731
        rels, cross = planted_cycle(rng, contexts, domain, half)
        path.write_text(family_text("B", contexts, rels))
        command = ("realise", "realisable")[(i // 8) % 2]

        def check_planted(out: Output, _lookup) -> None:
            check_uncovered(expect_lines(out, 1, "not realisable"), cross)

        return Job(f"{command}-planted", check_planted,
                   [command, str(path), "--monoid", kind])

    if role == 2:
        rels = grow_global(rng, variables, domain, contexts, enough, max_weight=3)
        text = family_text("N", contexts, rels)
        path.write_text(text)
        given = checker.parse_family(text)[1]

        def check_decompose(out: Output, _lookup) -> None:
            parts = checker.parse_decomposition(rest(out[1]))
            expect_lines(out, 0, f"decomposition: {len(parts)} cycles")
            checker.check_decomposition(parts, given)

        return Job("decompose", check_decompose, ["decompose", str(path)])

    rels = grow_global(rng, variables, domain, contexts, enough)
    text = family_text("B", contexts, rels)
    path.write_text(text)
    given = checker.parse_family(text)[1]
    command = "realise" if role == 0 else "realisable"

    def check_realised(out: Output, _lookup) -> None:
        expect_lines(out, 0, "realisable")
        checker.check_realisation(rest(out[1]), given, kind)

    return Job(command, check_realised,
               [command, str(path), "--monoid", kind])


# ---------------------------------------------------------------------------
# global-lp

SHAPES: Dict[str, List[Tuple[str, ...]]] = {
    "path": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
    "star": [("h", "a"), ("h", "b"), ("h", "c"), ("h", "d")],
    "grid": [("g00", "g01"), ("g01", "g02"), ("g10", "g11"), ("g11", "g12"),
             ("g00", "g10"), ("g01", "g11"), ("g02", "g12")],
    "chorded": [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")],
    "acyclic": [("a", "b", "c"), ("b", "c", "d"), ("c", "d", "e"), ("c", "e", "f")],
}
# Large weighted global searches per global-lp pass.  The Fourier-Motzkin
# and integer-search blow-ups come from these jobs, so their number per
# run is fixed; a run holds more than ten of them, so the tail percentile
# measures them.
LARGE_PER_PASS = 3


def twisted(rng: random.Random, contexts: List[Tuple[str, ...]], domain: int,
            weight: int) -> List[Rel]:
    """Equality on every binary context but one, which shifts values by
    one: locally consistent, and no global relation exists because the
    values cannot close up around a cycle through the shifted context."""
    variables = variables_of(contexts)
    perm = {v: rng.sample(range(domain), domain) for v in variables}
    shifted = rng.randrange(len(contexts))
    rels = []
    for n, (u, v) in enumerate(contexts):
        step = 1 if n == shifted else 0
        rels.append({(f"v{perm[u][a]}", f"v{perm[v][(a + step) % domain]}"): weight
                     for a in range(domain)})
    return rels


def global_lp(seed: int, i: int, work: Path) -> Job:
    """Job ``i`` of global-lp; negative indices name the large jobs."""
    rng = random.Random(f"global-lp/{seed}/{i}")
    j, role = divmod(i, 4)
    domain = 2 + j % 3
    kind = "BNQ"[(j // 3) % 3]
    path = work / f"global-{i}.fam"

    if i < 0:
        shape = ("grid", "path", "star")[-i % 3]
        kind = "NQ"[-i % 2]
        nrows = 12
    elif role == 3:
        shape = ("grid", "chorded")[j % 2]
        contexts = SHAPES[shape]
        path.write_text(family_text(kind, contexts, twisted(rng, contexts, domain, rng.randint(1, 3))))

        def check_twisted(out: Output, _lookup) -> None:
            expect_lines(out, 1, "globally inconsistent")

        return Job(f"global-twisted-{shape}", check_twisted, ["global", str(path)])
    elif role == 2:
        shape = list(SHAPES)[j % 5]
        kind = "B"
        nrows = 2 + j % 5
    elif role == 1:
        shape = ("path", "grid", "chorded", "acyclic")[j % 4]
        kind = "NQ"[j % 2]
        # Three global rows on the grid already blow up now and then; the
        # blow-ups belong to the large jobs, whose number per run is fixed.
        nrows = 2 if shape == "grid" else 2 + (j >> 2) % 2
    else:
        shape = list(SHAPES)[j % 5]
        kind = "B"
        nrows = 2 + j % 5

    contexts = SHAPES[shape]
    variables = variables_of(contexts)
    rels = grow_global(rng, variables, domain, contexts, lambda _, drawn: drawn == nrows,
                       max_weight=1 if kind == "B" else 3)
    text = family_text(kind, contexts, rels)
    path.write_text(text)
    given = checker.parse_family(text)[1]

    if role == 2 and i >= 0:
        def check_lp(out: Output, _lookup) -> None:
            expect_lines(out, 0, "realisable")
            checker.check_realisation(rest(out[1]), given, "Q")

        return Job(f"realisable-{shape}", check_lp,
                   ["realisable", str(path), "--monoid", "Q"])

    def check_global(out: Output, _lookup) -> None:
        expect_lines(out, 0, "globally consistent")
        checker.check_global_witness(rest(out[1]), kind, given)

    return Job(f"global-{'large-' if i < 0 else ''}{kind}-{shape}", check_global,
               ["global", str(path)])


# ---------------------------------------------------------------------------
# fd-entail


def chain_premises(n: int) -> List[str]:
    """The length-n chain-rule premise set of acceptance criterion 09."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    cs = [f"c{i}" for i in range(1, n)]
    lines = [f"{xs[i]} -> {xs[i + 1]}" for i in range(n - 1)]
    lines += [f"{c} -> {xs[-1]}" for c in cs]
    lines.append(f"cd {xs[0]} {cs[0]} {xs[-1]}")
    for i in range(n - 2):
        lines.append(f"cd {xs[i]} {cs[i]} {xs[i + 1]}")
        lines.append(f"cd {cs[i]} {xs[i + 1]} {cs[i + 1]}")
    lines.append(f"cd {xs[n - 2]} {cs[n - 2]} {xs[-1]}")
    for i in range(n - 2):
        lines.append(f"cd {cs[i]} {cs[i + 1]} {xs[-1]}")
    return lines


def cycle_premises(k: int) -> List[str]:
    """The length-k cycle premise set of acceptance criterion 09."""
    vs = [f"x{i}" for i in range(k)]
    pairs = [(vs[i], vs[(i + 1) % k]) for i in range(k)]
    return [f"{a} -> {b}" for a, b in pairs] + [f"cd {a} {b}" for a, b in pairs]


def sampler_job(seed: int, i: int, j: int) -> Job:
    from ctxfam import fdlogic, formats

    shapes = [("cycle", k) for k in range(2, 7)] + [("chain", n) for n in (3, 4, 5)]
    shape, n = shapes[j % len(shapes)]
    lines = cycle_premises(n) if shape == "cycle" else chain_premises(n)
    premises = checker.parse_dependencies("\n".join(lines))
    sigma = formats.parse_fds("\n".join(lines))
    serialize = formats.serialize_family

    def call():
        return fdlogic.random_family_satisfying(sigma, random.Random(f"fd-entail/{seed}/{i}"))

    def render(family) -> Output:
        return (0, "") if family is None else (1, serialize(family))

    def check_sample(out: Output, _lookup) -> None:
        # The all-zero family satisfies every premise, so the bounded
        # search always has a family to return.
        if out[0] != 1:
            raise CheckError("sampler returned no family")
        checker.check_model(out[1], premises, "B")

    return Job(f"sample-{shape}{n}", check_sample, call=call, render=render)


def fd_entail(seed: int, i: int, work: Path) -> List[Job]:
    """Jobs for one instance: a group of three small-instance jobs, one
    large derivation, or one sampler call."""
    rng = random.Random(f"fd-entail/{seed}/{i}")
    j, role = divmod(i, 4)
    if role == 3:
        return [sampler_job(seed, i, j)]
    path = work / f"fds-{i}.fd"
    if role == 1:
        return [large_derive(rng, j, path)]

    nv = 5 + j % 4
    vs = [f"v{n}" for n in range(nv)]
    lines = set()
    for _ in range(rng.randint(2, 8)):
        a, b = rng.sample(vs, 2)
        lines.add(f"{a} -> {b}")
    for _ in range(rng.randint(0, 5)):
        a, b = sorted(rng.sample(vs, 2))
        lines.add(f"cd {a} {b}")
    text = "\n".join(sorted(lines)) + "\n"
    path.write_text(text)
    premises = checker.parse_dependencies(text)
    x, y = rng.sample(vs, 2)
    query = f"{x} -> {y}"
    goal = checker.parse_dependency(query)
    kind = "BNQ"[j % 3]
    rules = ("cr", "full")[j % 2]

    def check_derive(out: Output, lookup) -> None:
        # In the unary fragment with binary CDs the oracle is conclusive
        # and both rule sets are complete, so the verdicts must match.
        entailed = lookup(1)[0] == 0
        expect_lines(out, 0 if entailed else 1, "derivable" if entailed else "not derivable")

    def check_entail(out: Output, _lookup) -> None:
        if out[0] == 0:
            expect_lines(out, 0, "entailment holds")
            return
        expect_lines(out, 1, "entailment refuted")
        checker.check_counterexample(rest(out[1]), premises, goal, "B")

    def check_counter(out: Output, lookup) -> None:
        if lookup(1)[0] == 0:
            expect_lines(out, 0, "derivable; no counterexample")
            return
        expect_lines(out, 1, "counterexample found")
        checker.check_counterexample(rest(out[1]), premises, goal, kind)

    return [
        Job("derive-small", check_derive, ["derive", str(path), "--query", query,
                                           "--rules", rules, "--trace"]),
        Job("entail", check_entail, ["entail", str(path), "--query", query]),
        Job("counterexample", check_counter, ["counterexample", str(path), "--query", query,
                                              "--monoid", kind]),
    ]


def large_derive(rng: random.Random, j: int, path: Path) -> Job:
    """Criterion 11 sized premise sets with a query whose verdict is known:
    the inverse of the closing edge of a planted cycle (derivable by the
    cycle rule) or a target unreachable from the source (not derivable,
    since every rule is classically sound)."""
    nv = (20, 30, 40, 50)[j % 4]
    vs = [f"v{n}" for n in range(nv)]
    # Edges only run from the first half into the second and within each
    # half, so nothing in the first half is reachable from the second.
    half = nv // 2
    edges = set()
    while len(edges) < 8 * nv:
        a, b = rng.sample(vs, 2)
        if vs.index(a) >= half and vs.index(b) < half:
            continue
        edges.add((a, b))
    lines = {f"{a} -> {b}" for a, b in edges}
    for _ in range(2 * nv):
        lines.add("cd " + " ".join(sorted(rng.sample(vs, rng.choice([2, 3])))))
    derivable = (j // 4) % 2 == 0
    if derivable:
        loop = rng.sample(vs[half:], 4)
        for a, b in zip(loop, loop[1:] + loop[:1]):
            lines.add(f"{a} -> {b}")
        query = f"{loop[0]} -> {loop[-1]}"
    else:
        x = rng.choice(vs[half:])
        y = rng.choice(vs[:half])
        query = f"{x} -> {y}"
    path.write_text("\n".join(sorted(lines)) + "\n")
    rules = ("cr", "full")[(j // 8) % 2]

    def check_large(out: Output, _lookup) -> None:
        expect_lines(out, 0 if derivable else 1, "derivable" if derivable else "not derivable")

    return Job(f"derive-large-{rules}", check_large,
               ["derive", str(path), "--query", query, "--rules", rules, "--trace"])


# ---------------------------------------------------------------------------
# bulk-check


def bulk_check(seed: int, i: int, work: Path) -> Job:
    rng = random.Random(f"bulk-check/{seed}/{i}")
    _, target, role = pass_slot("bulk-check", i)
    k = 4 if target < 800 else 3
    contexts = cycle_contexts(k, False)
    variables = variables_of(contexts)
    domain = math.ceil(math.sqrt(2.5 * target))
    enough = lambda rels, _: min(len(r) for r in rels) >= target  # noqa: E731
    path = work / f"bulk-{i}.fam"

    if role == 3:
        half = lambda rels, _: min(len(r) for r in rels) >= target // 2  # noqa: E731
        rels, cross = planted_cycle(rng, contexts, domain, half)
        path.write_text(family_text("B", contexts, rels))

        def check_planted(out: Output, _lookup) -> None:
            check_uncovered(expect_lines(out, 1, "not realisable"), cross)

        return Job("realisable-planted", check_planted,
                   ["realisable", str(path), "--monoid", "N"])

    rels = grow_global(rng, variables, domain, contexts, enough, max_weight=3)
    if role == 1:
        at = rng.randrange(k)
        values = rng.choice(sorted(rels[at]))
        rels[at][values] += 1
    path.write_text(family_text("N", contexts, rels))

    if role == 2:
        edges = labels(rels)
        vertices = sum(len({values[0] for values in rel}) for rel in rels)
        first = f"overlap projection graph: {vertices} vertices, {edges} edges"

        def check_opg(out: Output, _lookup) -> None:
            lines = expect_lines(out, 0, first)
            if sum(line.startswith("edge ") for line in lines) != edges:
                raise CheckError("opg lists the wrong number of edges")

        return Job("opg", check_opg, ["opg", str(path)])

    if role == 1:
        def check_perturbed(out: Output, _lookup) -> None:
            expect_lines(out, 1, "locally inconsistent")

        return Job("check-perturbed", check_perturbed, ["check", str(path)])

    def check_consistent(out: Output, _lookup) -> None:
        expect_lines(out, 0, "locally consistent")

    return Job("check", check_consistent, ["check", str(path)])


def generate(workload: str, seed: int, number: int, work: Path) -> List[Job]:
    """The jobs of one pass, with their documents written under ``work``."""
    units = range(number * PASS_UNITS[workload], (number + 1) * PASS_UNITS[workload])
    if workload == "global-lp":
        jobs = [global_lp(seed, i, work) for i in units]
        for n in range(LARGE_PER_PASS):
            at = (2 * n + 1) * len(jobs) // (2 * LARGE_PER_PASS) + n
            jobs.insert(at, global_lp(seed, -1 - number * LARGE_PER_PASS - n, work))
        return jobs
    if workload != "fd-entail":
        return [GENERATORS[workload](seed, i, work) for i in units]
    jobs = []
    for i in units:
        group = fd_entail(seed, i, work)
        for job in group:
            job.group = group
        jobs.extend(group)
    return jobs


GENERATORS = {
    "cycle-realise": cycle_realise,
    "bulk-check": bulk_check,
}
WORKLOADS = ("cycle-realise", "global-lp", "fd-entail", "bulk-check")
