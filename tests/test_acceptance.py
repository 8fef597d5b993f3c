"""Acceptance gate: twelve end-to-end criteria, one test (and one printed
pass line) each.

Each criterion exercises the public API the way the command-line tool
does, at the stated corpus sizes and time budgets.  The printed lines go
straight to the terminal (bypassing capture) so a plain pytest run shows
one verdict line per criterion.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from ctxfam.family import (
    ContextualFamily,
    _support_join,
    check_global_consistency,
    find_violation,
)
from ctxfam.fdlogic import (
    FD,
    RuleSet,
    build_counterexample,
    derives,
    random_family_satisfying,
    semantic_entails_oracle,
    verify_trace,
)
from ctxfam.formats import parse_family, serialize_family
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.realisability import (
    NotRealisableError,
    build_opg,
    decompose_cycles,
    realisable_lp,
    realise,
)
from ctxfam.relation import KRelation

from conftest import (
    brel,
    chain_brute_force,
    chain_premises,
    chain_rule_derives,
    cycle_contexts,
    derivation_closure,
    lift_uniform,
    lp_witness,
    random_weighted_family,
    wrel,
)

u = FD.unary
cd = FD.cd

KINDS = (MonoidKind.B, MonoidKind.N, MonoidKind.Q)


def report(capsys, number: int, text: str) -> None:
    with capsys.disabled():
        print(f"criterion {number:02d}: PASS — {text}")


def random_cycle_support(rng):
    """A random locally consistent B-family over a chordless cycle."""
    contexts = cycle_contexts(rng.randint(3, 5))
    return random_family_satisfying([cd(sorted(c)) for c in contexts], rng)


class TestAcceptance:
    def test_criterion_01_teaching_family_verdicts(
        self, capsys, teaching_family
    ):
        started = time.perf_counter()
        assert find_violation(teaching_family.maximal_relations()) is None
        rebuilt = ContextualFamily(teaching_family.maximal_relations())
        assert check_global_consistency(rebuilt) is None
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        report(
            capsys, 1,
            f"teaching family locally consistent, globally inconsistent "
            f"({elapsed * 1000:.0f} ms)",
        )

    def test_criterion_02_opg_counts_and_uncovered_edge(
        self, capsys, teaching_family
    ):
        graph = build_opg(teaching_family)
        assert len(graph.vertices) == 6
        assert len(graph.edges) == 7
        uncovered = graph.uncovered_edges()
        assert len(uncovered) == 1
        assert uncovered[0].describe() == (
            "2:Alice -> 0:CS  Course=CS,Student=Alice"
        )
        report(
            capsys, 2,
            "6 vertices, 7 edges, single uncovered edge CS/Alice blocks N and Q",
        )

    def test_criterion_03_extension_realises(self, capsys, extended_family):
        assert build_opg(extended_family).uncovered_edges() == ()
        assert realise(extended_family, MonoidKind.Q).support() == extended_family
        weighted = realise(extended_family, MonoidKind.N)
        revalidated = parse_family(serialize_family(weighted))
        assert revalidated == weighted
        assert weighted.support() == extended_family
        assert all(not v.is_zero for rel in weighted.maximal_relations() for _, v in rel.rows())
        report(
            capsys, 3,
            "adding (Math, Bob) flips realisability; N witness re-validates "
            "and projects onto the input support",
        )

    def test_criterion_04_five_context_feasibility(
        self, capsys, five_context_family
    ):
        for kind in (MonoidKind.Q, MonoidKind.N):
            with pytest.raises(NotRealisableError, match="^support is not realisable$") as err:
                realisable_lp(five_context_family, kind)
            assert err.value.uncovered == ()
        for names in ((("a", "b"), ("b", "c"), ("c", "a")),
                      (("a", "d"), ("d", "c"), ("c", "a"))):
            restriction = ContextualFamily(
                [five_context_family.relation_at(frozenset(p)) for p in names]
            )
            assert realisable_lp(restriction, MonoidKind.Q).support() == restriction
            assert build_opg(restriction).uncovered_edges() == ()
        report(
            capsys, 4,
            "five-context family infeasible; both triangle restrictions "
            "feasible, agreeing with the edge-cycle-cover test",
        )

    def test_criterion_05_rational_natural_equivalence(self, capsys):
        rng = random.Random(501)
        checked = feasible = 0
        while checked < 200:
            family = random_cycle_support(rng)
            if family is None or not any(family.maximal_relations()):
                continue
            rational = lp_witness(family, MonoidKind.Q)
            natural = lp_witness(family, MonoidKind.N)
            assert (rational is None) == (natural is None)
            if natural is not None:
                feasible += 1
                assert all(
                    isinstance(v.payload, int) and v.payload >= 1
                    for rel in natural.maximal_relations() for _, v in rel.rows()
                )
                assert ContextualFamily(natural.maximal_relations()) == natural
                assert natural.support() == family
            checked += 1
        assert feasible >= 20
        report(
            capsys, 5,
            f"200 random cycle families: Q and N feasibility agree "
            f"({feasible} feasible, all integer witnesses verified)",
        )

    def test_criterion_06_decomposition_round_trip(self, capsys):
        rng = random.Random(601)
        done = 0
        scales = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]
        while done < 100:
            support = random_cycle_support(rng)
            if support is None or not any(support.maximal_relations()):
                continue
            weights = lp_witness(support, MonoidKind.Q)
            if weights is None:
                continue
            factor = rng.choice(scales)
            family = ContextualFamily(
                KRelation.from_assignments(
                    rel.variables,
                    MonoidKind.Q,
                    {row: MonoidValue.of(MonoidKind.Q, value.payload * factor) for row, value in rel.rows()},
                )
                for rel in weights.maximal_relations()
            )
            parts = decompose_cycles(family)
            assert parts
            assert all(not w.is_zero for w, _ in parts)
            total = lift_uniform(parts[0][1], parts[0][0])
            for weight, sub in parts[1:]:
                total = total + lift_uniform(sub, weight)
            assert total == family
            done += 1
        report(
            capsys, 6,
            "100 random realisable Q-families decompose into positive "
            "cycle combinations that rebuild the family exactly",
        )

    def test_criterion_07_transitivity_fails_with_counterexamples(
        self, capsys
    ):
        sigma = [u("x", "y"), u("y", "z"),
                 cd(["x", "y"]), cd(["y", "z"]), cd(["x", "z"])]
        goal = u("x", "z")
        ok, _ = derives(sigma, goal, RuleSet.FULL)
        assert not ok
        for kind in KINDS:
            family = build_counterexample(sigma, goal, kind)
            assert parse_family(serialize_family(family)) == family
            assert all(family.satisfies(premise) for premise in sigma)
            assert not family.satisfies(goal)
        report(
            capsys, 7,
            "x -> z underivable from {x -> y, y -> z} with binary contexts; "
            "B, N, Q counterexamples all re-validate",
        )

    def test_criterion_08_contextual_transitivity(self, capsys):
        sigma = [u("x", "y"), u("y", "z"), cd(["x", "y", "z"])]
        goal = u("x", "z")
        ok, trace = derives(sigma, goal, RuleSet.FULL)
        assert ok
        assert trace.steps[-1].rule == "chain"
        assert verify_trace(trace, sigma, goal)
        report(
            capsys, 8,
            "ternary context restores x -> z with a replayable chain trace",
        )

    def test_criterion_09_rule_soundness(self, capsys):
        rng = random.Random(901)
        families = violations = 0

        def check(family, conclusion):
            nonlocal families, violations
            if family is None:
                return
            families += 1
            if not family.satisfies(conclusion):
                violations += 1

        for k in range(2, 7):
            vs = [f"x{i}" for i in range(k)]
            pairs = [(vs[i], vs[(i + 1) % k]) for i in range(k)]
            sigma = [u(a, b) for a, b in pairs]
            sigma += [cd([a, b]) for a, b in pairs]
            conclusion = u(vs[0], vs[-1])
            for kind in KINDS:
                produced = 0
                while produced < 45:
                    if kind is MonoidKind.B:
                        family = random_family_satisfying(sigma, rng)
                    else:
                        family = random_weighted_family(
                            sigma, conclusion.variables, kind, rng
                        )
                    if family is None:
                        continue
                    check(family, conclusion)
                    produced += 1

        for n in (3, 4, 5):
            sigma, conclusion = chain_premises(n)
            for kind in KINDS:
                produced = 0
                while produced < 40:
                    if kind is MonoidKind.B:
                        family = random_family_satisfying(sigma, rng)
                    else:
                        family = random_weighted_family(
                            sigma, conclusion.variables, kind, rng
                        )
                    if family is None:
                        continue
                    check(family, conclusion)
                    produced += 1

        assert families >= 1000
        assert violations == 0
        report(
            capsys, 9,
            f"{families} premise-satisfying families across B, N, Q uphold "
            f"cycle (k=2..6) and chain (n=3..5) conclusions; 0 violations",
        )

    def test_criterion_10_completeness_against_oracle(self, capsys):
        rng = random.Random(1001)
        started = time.perf_counter()
        instances = queries = 0
        while instances < 500:
            nv = rng.randint(2, 5)
            vs = [f"v{i}" for i in range(nv)]
            sigma = set()
            for _ in range(rng.randint(1, 6)):
                a, b = rng.sample(vs, 2)
                sigma.add(u(a, b))
            for _ in range(rng.randint(0, 4)):
                sigma.add(cd(rng.sample(vs, 2)))
            sigma = sorted(sigma, key=lambda f: f.sort_key)
            for x, y in itertools.permutations(vs, 2):
                derived, _ = derives(sigma, u(x, y), RuleSet.CR)
                verdict = semantic_entails_oracle(sigma, u(x, y))
                assert verdict.conclusive
                assert derived == verdict.holds
                queries += 1
            instances += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        report(
            capsys, 10,
            f"500 instances, {queries} unary queries: derivability matches "
            f"the bounded semantic oracle exactly ({elapsed:.1f} s)",
        )

    def test_criterion_11_closure_scales_and_is_deterministic(self, capsys):
        rng = random.Random(1101)
        vs = [f"v{i}" for i in range(50)]
        sigma = []
        for _ in range(400):
            a, b = rng.sample(vs, 2)
            sigma.append(u(a, b))
        for _ in range(100):
            sigma.append(cd(rng.sample(vs, rng.choice([2, 3]))))
        closures = []
        worst = 0.0
        for _ in range(3):
            started = time.perf_counter()
            closures.append(derivation_closure(sigma, RuleSet.FULL))
            worst = max(worst, time.perf_counter() - started)
        assert worst < 10.0
        assert closures[0] == closures[1] == closures[2]
        report(
            capsys, 11,
            f"closure of 500 dependencies over 50 variables in "
            f"{worst * 1000:.0f} ms per run, identical across 3 runs",
        )

    def test_criterion_12_chain_search_matches_brute_force(self, capsys):
        rng = random.Random(1201)
        for _ in range(100):
            nv = rng.randint(2, 5)
            vs = [f"v{i}" for i in range(nv)]
            sigma = set()
            for _ in range(rng.randint(2, 8)):
                a, b = rng.sample(vs, 2)
                sigma.add(u(a, b))
            for _ in range(rng.randint(1, 5)):
                size = rng.choice([2, 3]) if nv >= 3 else 2
                sigma.add(cd(rng.sample(vs, size)))
            sigma = sorted(sigma, key=lambda f: f.sort_key)
            x, y = rng.sample(vs, 2)
            assert chain_rule_derives(sigma, x, y) == chain_brute_force(
                sigma, x, y
            )
        report(
            capsys, 12,
            "chain-rule search agrees with brute-force instantiation on "
            "100 random instances",
        )


# ---------------------------------------------------------------------------
# The Bell (CHSH) scenario: Alice measures a0 or a1, Bob b0 or b1, each with
# outcome 0 or 1.  The four joint measurements form a chordless 4-cycle.

BELL_CONTEXTS = [("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1")]

# The possibilistic table of Hardy's model, one row "xy" per possible
# outcome pair of each context in BELL_CONTEXTS.
HARDY = [("00", "01", "10", "11"), ("00", "01", "11"), ("00", "10", "11"), ("00", "01", "10")]


def bell_family(kind, tables):
    """The family of one ``{"xy": weight}`` table per Bell context; a B
    table lists its rows only."""
    if kind is MonoidKind.B:
        return ContextualFamily([brel(c, map(tuple, t)) for c, t in zip(BELL_CONTEXTS, tables)])
    return ContextualFamily([
        wrel(kind, c, [(tuple(xy), w) for xy, w in t.items()]) for c, t in zip(BELL_CONTEXTS, tables)
    ])


def noisy_pr_box(p):
    """``p * PR + (1 - p) * uniform`` in Q: equal outcomes get weight
    ``(1 + p) / 4`` in the first three contexts, unequal ones in
    ``{a1 b1}``, and the others ``(1 - p) / 4``."""
    likely, unlikely = (1 + p) / 4, (1 - p) / 4
    equal = {"00": likely, "11": likely, "01": unlikely, "10": unlikely}
    unequal = {"00": unlikely, "11": unlikely, "01": likely, "10": likely}
    tables = [equal, equal, equal, unequal]
    return bell_family(MonoidKind.Q, [{xy: w for xy, w in t.items() if w} for t in tables])


def marginals_match(witness, family):
    return all(witness.marginalise(c) == family.relation_at(c) for c in family.contexts)


class TestBellScenarios:
    """The paper's motivating families, quantum-style probability tables
    and their possibilistic supports, with verdicts known from the
    literature."""

    def test_pr_box_is_strongly_contextual(self):
        # Popescu and Rohrlich, Found. Phys. 24 (1994): the PR box is
        # no-signalling, so the family is locally consistent, and its CHSH
        # value 4 exceeds the bound 2 of every global distribution.
        box = noisy_pr_box(Fraction(1))
        assert check_global_consistency(box) is None
        # Abramsky and Brandenburger, New J. Phys. 13 (2011): no global
        # assignment agrees with the PR box's support in all four
        # contexts (strong contextuality), so its support join is empty.
        support = box.support()
        assert _support_join(support)[0] == []
        assert check_global_consistency(support) is None

    @pytest.mark.parametrize(
        "p, consistent",
        [(Fraction(1, 2), True), (Fraction(1, 2) + Fraction(1, 1000), False)],
        ids=["p=1/2", "p=1/2+1/1000"],
    )
    def test_noisy_pr_box_meets_the_chsh_bound_exactly(self, p, consistent):
        # Fine, Phys. Rev. Lett. 48 (1982): a family over the CHSH
        # contexts has a global distribution exactly when every CHSH
        # inequality holds; the CHSH value here is 4p, so exactly when
        # p <= 1/2.
        family = noisy_pr_box(p)
        witness = check_global_consistency(family)
        assert (witness is not None) is consistent
        assert witness is None or marginals_match(witness, family)
        # Every outcome pair is possible in every context, so the support
        # is the full table: all 16 global assignments agree with it, and
        # the possibilistic level sees no contextuality (Abramsky and
        # Brandenburger 2011).
        support = family.support()
        join = check_global_consistency(support)
        assert join is not None and marginals_match(join, support)
        assert len(join) == len(_support_join(support)[0]) == 16

    def test_hardy_table_is_logically_contextual_and_realisable(self):
        # Hardy, Phys. Rev. Lett. 71 (1993), read possibilistically by
        # Abramsky and Brandenburger 2011: some global assignments agree
        # with every table, so the support join is not empty (5 rows, by
        # enumerating the 16 assignments), but the row a0 b0 = 1 1 lies
        # in none of them (logical contextuality), so the family is
        # globally inconsistent.
        family = bell_family(MonoidKind.B, HARDY)
        assert check_global_consistency(family) is None
        join, _ = _support_join(family)
        assert len(join) == 5
        points = [dict(zip(sorted(family.contexts.variables), t)) for t in join]
        assert not [t for t in points if t["a0"] == t["b0"] == "1"]
        # Hardy's quantum model has this support, and a support realisable
        # over Q is realisable over N by clearing denominators; the graph
        # test and the LP agree.
        assert build_opg(family).uncovered_edges() == ()
        for kind in (MonoidKind.N, MonoidKind.Q):
            assert realisable_lp(family, kind).support() == family
            assert realise(family, kind).support() == family

    def test_noncontextual_mixture_has_a_checked_witness(self):
        # Fine 1982: a mixture of deterministic global assignments is a
        # global distribution, so its marginals are globally consistent.
        mixture = {("0", "0", "0", "0"): 2, ("0", "1", "1", "0"): 1, ("1", "1", "0", "1"): 3}
        tables = []
        for x, y in BELL_CONTEXTS:
            table = {}
            for values, weight in mixture.items():
                point = dict(zip(("a0", "a1", "b0", "b1"), values))
                table[point[x] + point[y]] = table.get(point[x] + point[y], 0) + weight
            tables.append(table)
        family = bell_family(MonoidKind.N, tables)
        witness = check_global_consistency(family)
        assert witness is not None and witness.kind is MonoidKind.N
        assert marginals_match(witness, family)
        assert witness.total() == MonoidValue.of(MonoidKind.N, 6)
