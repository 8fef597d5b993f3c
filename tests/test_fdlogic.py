"""Dependency derivation, traces, counterexamples, and the semantic oracle."""

import gc
import itertools
import math
import random
from bisect import insort
from dataclasses import replace

import pytest

from ctxfam.family import ContextSet, ContextualFamily, check_global_consistency, find_violation
from ctxfam import fdlogic
from ctxfam.fdlogic import (
    FD,
    DerivationTrace,
    MissingCoveringContextError,
    RuleSet,
    TraceStep,
    UnsupportedDependencyError,
    _ClosureEngine,
    _context_candidates,
    build_counterexample,
    derives,
    format_trace,
    random_family_satisfying,
    semantic_entails_oracle,
    verify_trace,
)
from ctxfam.formats import parse_fd, parse_fds
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.relation import Assignment, KRelation

from conftest import (
    chain_brute_force,
    chain_premises,
    chain_rule_derives,
    cycle_rule_derives,
    derivation_closure,
)
from row_reference import classical_closure

u = FD.unary
cd = FD.cd


class TestFd:
    def test_cd_has_equal_sides(self):
        assert cd(["x", "y"]).is_cd
        assert not u("x", "y").is_cd
        assert u("x", "x").is_cd

    def test_empty_sides_rejected(self):
        with pytest.raises(ValueError):
            FD(frozenset(), frozenset({"x"}))

    def test_display(self):
        assert str(u("x", "y")) == "x -> y"
        assert str(cd(["y", "x"])) == "cd x y"
        assert str(FD(frozenset({"b", "a"}), frozenset({"c"}))) == "a b -> c"


class TestClassicalClosure:
    """CLASSICAL and NRA derive a goal under a covering CD exactly when its
    right side lies in the context-blind attribute closure of its left."""

    def check(self, sigma, goals):
        for phi in goals:
            expected = phi.rhs <= classical_closure(sigma, phi.lhs)
            for rules in (RuleSet.CLASSICAL, RuleSet.NRA):
                assert derives(sigma, phi, rules)[0] == expected, (phi, rules)

    def test_transitive_chain(self):
        sigma = [u("x", "y"), u("y", "z"), cd(["x", "y", "z"])]
        assert classical_closure(sigma, {"x"}) == {"x", "y", "z"}
        self.check(sigma, [u("x", "z"), FD(frozenset("x"), frozenset("yz")), u("z", "x")])

    def test_no_premises(self):
        sigma = [cd(["x", "y"])]
        assert classical_closure(sigma, {"x"}) == {"x"}
        self.check(sigma, [u("x", "x"), u("x", "y")])

    def test_uncovered_left_side_blocks(self):
        sigma = [FD(frozenset({"x", "y"}), frozenset({"z"})), cd(["x", "y", "z"])]
        assert classical_closure(sigma, {"x"}) == {"x"}
        self.check(sigma, [u("x", "z"), FD(frozenset("xy"), frozenset("z"))])

    def test_seeded_corpus(self):
        rng = random.Random(12)
        for _ in range(150):
            vs = [f"v{i}" for i in range(rng.randint(3, 7))]
            sides = [1, 1, 2]
            sigma = {
                FD(frozenset(rng.sample(vs, rng.choice(sides))), frozenset(rng.sample(vs, rng.choice(sides))))
                for _ in range(rng.randint(1, 2 * len(vs)))
            }
            sigma = sorted(sigma | {cd(vs)}, key=lambda f: f.sort_key)
            self.check(sigma, [
                FD(frozenset(rng.sample(vs, rng.choice([1, 2]))), frozenset(rng.sample(vs, rng.choice([1, 2]))))
                for _ in range(3)
            ])


class TestCycleRule:
    def test_inverting_a_three_cycle(self):
        sigma = [u("x", "y"), u("y", "z"), u("z", "x")]
        assert cycle_rule_derives(sigma, "x", "z")

    def test_no_cycle_no_inversion(self):
        assert not cycle_rule_derives([u("x", "y")], "y", "x")

    def test_two_cycle(self):
        assert cycle_rule_derives([u("x", "y"), u("y", "x")], "x", "y")

    def test_path_without_return_edge(self):
        sigma = [u("x", "y"), u("y", "z")]
        assert not cycle_rule_derives(sigma, "x", "z")


class TestChainRule:
    def test_ternary_context_recovers_transitivity(self):
        sigma = [u("x", "y"), u("y", "z"), cd(["x", "y", "z"])]
        assert chain_rule_derives(sigma, "x", "z")

    def test_binary_contexts_refuse_transitivity(self):
        sigma = [u("x", "y"), u("y", "z"), cd(["x", "y"]), cd(["y", "z"]), cd(["x", "z"])]
        assert not chain_rule_derives(sigma, "x", "z")

    def test_length_four_instance(self):
        sigma = [
            u("x1", "x2"), u("x2", "x3"), u("x3", "x4"),
            u("c1", "x4"), u("c2", "x4"), u("c3", "x4"),
            cd(["x1", "c1", "x4"]), cd(["x1", "c1", "x2"]), cd(["c1", "x2", "c2"]),
            cd(["x2", "c2", "x3"]), cd(["c2", "x3", "c3"]), cd(["x3", "c3", "x4"]),
            cd(["c1", "c2", "x4"]), cd(["c2", "c3", "x4"]),
        ]
        assert chain_rule_derives(sigma, "x1", "x4")
        assert chain_brute_force(sigma, "x1", "x4")

    def test_missing_certificate_context_blocks(self):
        sigma = [
            u("x1", "x2"), u("x2", "x3"), u("x3", "x4"),
            u("c1", "x4"), u("c2", "x4"), u("c3", "x4"),
            cd(["x1", "c1", "x4"]), cd(["x1", "c1", "x2"]), cd(["c1", "x2", "c2"]),
            cd(["x2", "c2", "x3"]), cd(["c2", "x3", "c3"]), cd(["x3", "c3", "x4"]),
            cd(["c1", "c2", "x4"]),  # certificate ladder stops early
        ]
        assert not chain_rule_derives(sigma, "x1", "x4")
        assert not chain_brute_force(sigma, "x1", "x4")

    def test_matches_brute_force(self):
        rng = random.Random(1234)
        for _ in range(120):
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
            assert chain_rule_derives(sigma, x, y) == chain_brute_force(sigma, x, y)


class TestDerivationClosure:
    def test_cycle_rotations_all_invert(self):
        sigma = [u("x", "y"), u("y", "z"), u("z", "x")]
        closure = derivation_closure(sigma)
        for goal in (u("x", "z"), u("z", "y"), u("y", "x")):
            assert goal in closure

    def test_transitivity_stays_out_with_binary_contexts(self):
        sigma = [
            u("x", "y"), u("y", "z"),
            cd(["x", "y"]), cd(["y", "z"]), cd(["x", "z"]),
        ]
        closure = derivation_closure(sigma, RuleSet.FULL)
        assert u("x", "z") not in closure

    def test_empty_premises_close_to_nothing(self):
        assert derivation_closure([]) == frozenset()

    def test_closure_is_deterministic(self):
        rng = random.Random(3)
        vs = [f"v{i}" for i in range(8)]
        sigma = []
        for _ in range(20):
            a, b = rng.sample(vs, 2)
            sigma.append(u(a, b))
        for _ in range(6):
            sigma.append(cd(rng.sample(vs, 3)))
        runs = {derivation_closure(sigma, RuleSet.FULL) for _ in range(3)}
        assert len(runs) == 1

    def test_non_unary_premise_rejected(self):
        with pytest.raises(UnsupportedDependencyError):
            derivation_closure([FD(frozenset({"x", "y"}), frozenset({"z"}))])

    @pytest.mark.parametrize("rules", [RuleSet.CLASSICAL, RuleSet.NRA])
    def test_covering_rule_sets_rejected(self, rules):
        with pytest.raises(ValueError, match="^closure is defined for the CR and FULL rule sets$"):
            derivation_closure([], rules)


class TestDerives:
    def test_ternary_context_transitivity_full(self):
        sigma = [u("x", "y"), u("y", "z"), cd(["x", "y", "z"])]
        ok, trace = derives(sigma, u("x", "z"), RuleSet.FULL)
        assert ok
        assert trace.steps[-1].rule == "chain"
        assert verify_trace(trace, sigma, u("x", "z"))

    def test_ternary_context_not_enough_for_plain_cycle_rules(self):
        sigma = [u("x", "y"), u("y", "z"), cd(["x", "y", "z"])]
        ok, _ = derives(sigma, u("x", "z"), RuleSet.CR)
        assert not ok

    def test_binary_contexts_refuse_transitivity(self):
        sigma = [u("x", "y"), u("y", "z"), cd(["x", "z"])]
        ok, _ = derives(sigma, u("x", "z"), RuleSet.FULL)
        assert not ok

    def test_reflexive_goal_is_free(self):
        ok, trace = derives([], u("x", "x"))
        assert ok
        assert verify_trace(trace, [], u("x", "x"))

    def test_cycle_trace_replays(self):
        sigma = [u("x", "y"), u("y", "z"), u("z", "x")]
        ok, trace = derives(sigma, u("x", "z"))
        assert ok
        assert trace.steps[-1].rule == "cycle"
        assert verify_trace(trace, sigma, u("x", "z"))
        assert format_trace(trace).splitlines()[-1].startswith("4. x -> z")

    def test_classical_needs_covering_context(self):
        with pytest.raises(MissingCoveringContextError):
            derives([u("x", "y")], u("x", "y"), RuleSet.CLASSICAL)

    def test_classical_transitivity_inside_one_context(self):
        sigma = [u("x", "y"), u("y", "z"), cd(["x", "y", "z"])]
        ok, trace = derives(sigma, u("x", "z"), RuleSet.CLASSICAL)
        assert ok
        assert verify_trace(trace, sigma, u("x", "z"))

    def test_nra_general_dependencies(self):
        sigma = [
            FD(frozenset({"a", "b"}), frozenset({"c"})),
            cd(["a", "b", "c", "d"]),
        ]
        goal = FD(frozenset({"a", "b", "d"}), frozenset({"c", "d"}))
        ok, trace = derives(sigma, goal, RuleSet.NRA)
        assert ok
        assert verify_trace(trace, sigma, goal)

    def test_nra_respects_underivable_goals(self):
        sigma = [FD(frozenset({"a"}), frozenset({"b"})), cd(["a", "b", "c"])]
        ok, _ = derives(sigma, FD(frozenset({"b"}), frozenset({"a"})), RuleSet.NRA)
        assert not ok

    def test_traces_replay_on_random_derivable_queries(self):
        rng = random.Random(77)
        replayed = 0
        for _ in range(200):
            nv = rng.randint(2, 5)
            vs = [f"v{i}" for i in range(nv)]
            sigma = set()
            for _ in range(rng.randint(1, 6)):
                a, b = rng.sample(vs, 2)
                sigma.add(u(a, b))
            for _ in range(rng.randint(0, 3)):
                size = rng.choice([2, 3]) if nv >= 3 else 2
                sigma.add(cd(rng.sample(vs, size)))
            sigma = sorted(sigma, key=lambda f: f.sort_key)
            x, y = rng.sample(vs, 2)
            for rules in (RuleSet.CR, RuleSet.FULL):
                ok, trace = derives(sigma, u(x, y), rules)
                if ok:
                    assert verify_trace(trace, sigma, u(x, y))
                    replayed += 1
        assert replayed > 20

    @pytest.mark.parametrize("rules", [RuleSet.CR, RuleSet.FULL])
    def test_traces_leave_no_cyclic_garbage(self, rules):
        cases = [
            ([u("x", "y"), u("y", "x")], u("y", "x")),
            ([u("x", "y"), u("y", "z"), u("z", "x")], u("x", "z")),
        ]
        if rules is RuleSet.FULL:
            cases.append(([u("x", "y"), u("y", "z"), cd(["x", "y", "z"])], u("x", "z")))
        gc.collect()
        gc.disable()
        try:
            for sigma, goal in cases:
                ok, trace = derives(sigma, goal, rules)
                assert ok
                del trace
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_non_unary_goal_is_refused_before_the_closure(self, monkeypatch):
        built = []

        class CountingEngine(_ClosureEngine):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(fdlogic, "_ClosureEngine", CountingEngine)
        sigma = [u(f"v{i}", f"v{i + 1}") for i in range(49)] + [cd(["v0", "v1", "v2"])]
        goal = FD(frozenset({"v0", "v1"}), frozenset({"v2"}))
        for rules in (RuleSet.CR, RuleSet.FULL):
            with pytest.raises(UnsupportedDependencyError, match="goal v0 v1 -> v2"):
                derives(sigma, goal, rules)
        assert built == []
        # A premise outside the fragment is still reported ahead of the goal.
        wide = FD(frozenset({"v0", "v1"}), frozenset({"v3"}))
        with pytest.raises(UnsupportedDependencyError, match="v0 v1 -> v3 is neither"):
            derives(sigma + [wide], goal, RuleSet.FULL)
        assert derives(sigma, u("v0", "v1"), RuleSet.FULL)[0]
        assert len(built) == 1


# Each base trace is a document, a query, a rule set and the rule of
# every step: the chain trace is the FULL derivation of a -> d with two
# certificates (c and e), the cycle trace a CR derivation, and the
# covering traces those of NRA and CLASSICAL over one CD of every variable.
COVERING = "a b -> c\nc -> d\ncd a b c d\n"
TRACES = {
    "chain": ("a -> b\nb -> d\nc -> d\ne -> d\ncd a c d\ncd a c b\ncd b e d\ncd c b e\ncd c e d\n",
              "a -> d", RuleSet.FULL, ["premise"] * 9 + ["chain"]),
    "cycle": ("x -> y\ny -> z\nz -> x\ncd x y\ncd y z\ncd x z\n",
              "y -> x", RuleSet.CR, ["premise"] * 3 + ["cycle"]),
    "nra": (COVERING, "a b -> d", RuleSet.NRA,
            ["reflexivity", "premise", "augmentation", "reflexivity", "chain", "premise",
             "augmentation", "premise", "chain", "reflexivity", "premise", "chain"]),
    "classical": (COVERING, "a b -> d", RuleSet.CLASSICAL,
                  ["reflexivity", "premise", "augmentation", "transitivity", "premise",
                   "augmentation", "transitivity", "reflexivity", "transitivity"]),
}


def base_trace(name):
    """The premises, goal and trace of ``TRACES[name]``, checked to be the
    valid trace of the listed steps."""
    document, query, rules, shape = TRACES[name]
    sigma, goal = parse_fds(document), parse_fd(query)
    ok, trace = derives(sigma, goal, rules)
    assert ok and [step.rule for step in trace.steps] == shape
    assert verify_trace(trace, sigma, goal)
    return sigma, goal, trace


def changed(index, change):
    """The change of step ``index`` to the fields ``change(trace)`` names."""

    def apply(trace):
        steps = list(trace.steps)
        steps[index] = replace(steps[index], **change(trace))
        return DerivationTrace(tuple(steps))

    return apply


def put_first(step):
    """The change that puts ``step`` first, each antecedent moved along."""

    def apply(trace):
        moved = [replace(s, antecedents=tuple(j + 1 for j in s.antecedents)) for s in trace.steps]
        return DerivationTrace((step, *moved))

    return apply


def dropping(index, dropped):
    """Step ``index`` with antecedent ``dropped`` left out."""
    return changed(index, lambda t: {"antecedents": tuple(j for j in t.steps[index].antecedents if j != dropped)})


class TestVerifyTraceRejects:
    """One change to a valid trace, and the replay refuses it; each change
    leaves every other check satisfied, so one check alone refuses it."""

    @pytest.mark.parametrize(
        "name, change",
        [
            ("chain", changed(9, lambda t: {"fd": u("a", "b"), "rule": "premise", "antecedents": (), "detail": ()})),
            ("chain", changed(9, lambda t: {"rule": "chains"})),
            ("chain", changed(9, lambda t: {"antecedents": t.steps[9].antecedents + (9,)})),
            ("cycle", changed(3, lambda t: {"antecedents": (0, 1, -2)})),
            ("chain", put_first(TraceStep(u("b", "a"), "premise"))),
            ("chain", changed(9, lambda t: {"rule": "premise", "antecedents": (), "detail": ()})),
            ("nra", put_first(TraceStep(u("a", "b"), "reflexivity"))),
            ("nra", changed(11, lambda t: {"rule": "reflexivity", "antecedents": (), "detail": ()})),
            ("cycle", changed(3, lambda t: {"antecedents": (1, 2)})),
            ("cycle", changed(3, lambda t: {"antecedents": (0, 1, 1)})),
            ("chain", dropping(9, 2)),
            ("chain", dropping(9, 4)),
            ("chain", changed(9, lambda t: {"detail": ("binary",) + t.steps[9].detail[1:]})),
            ("nra", changed(2, lambda t: {"detail": (("a",),)})),
            ("classical", changed(8, lambda t: {"antecedents": (6, 4)})),
            ("nra", put_first(TraceStep(cd(["a", "b", "e"]), "reflexivity"))),
            ("nra", changed(2, lambda t: {"antecedents": (1, 0)})),
            ("nra", changed(2, lambda t: {"detail": ()})),
            ("classical", changed(8, lambda t: {"antecedents": (6,)})),
            ("chain", changed(9, lambda t: {"detail": t.steps[9].detail[:2] + (("c", "e", "c"),)})),
            ("cycle", changed(3, lambda t: {"antecedents": tuple(map(str, t.steps[3].antecedents))})),
            ("cycle", changed(3, lambda t: {"antecedents": tuple(map(float, t.steps[3].antecedents))})),
        ],
        ids=[
            "last-dependency", "rule-name", "antecedent-forward", "antecedent-negative",
            "premise-not-stated", "goal-as-premise", "reflexivity-outside", "goal-as-reflexivity",
            "cycle-path-breaks", "cycle-closes-wrong", "missing-certificate-edge", "missing-cd",
            "chain-detail-tag", "augmentation-added-set", "transitivity-middle", "no-stated-set",
            "augmentation-two-antecedents", "augmentation-no-added-set", "transitivity-one-antecedent",
            "chain-certificate-count", "antecedent-text", "antecedent-float",
        ],
    )
    def test_one_change_is_refused(self, name, change):
        sigma, goal, trace = base_trace(name)
        assert not verify_trace(change(trace), sigma, goal)

    def test_chain_concludes_its_ends(self):
        """The chain a -> b -> d, every requirement stated, relabelled to
        conclude the stated goal a -> b."""
        sigma, _, trace = base_trace("chain")
        goal = u("a", "b")
        steps = trace.steps[:-1] + (replace(trace.steps[-1], fd=goal),)
        assert not verify_trace(DerivationTrace(steps), sigma, goal)

    @pytest.mark.parametrize(
        "document, conclusion, first",
        [
            ("x -> y\ny -> x\n", "x -> x y", "y -> x"),
            ("y -> x z\nx -> y\n", "y -> x", "y -> x z"),
        ],
        ids=["cycle-conclusion-not-unary", "cycle-antecedent-not-unary"],
    )
    def test_cycle_steps_are_unary(self, document, conclusion, first):
        """A cycle step over two stated premises, refused because its
        conclusion or one antecedent is not unary."""
        sigma, goal = parse_fds(document), parse_fd(conclusion)
        steps = [TraceStep(parse_fd(first), "premise"), TraceStep(parse_fd("x -> y"), "premise"),
                 TraceStep(goal, "cycle", (0, 1))]
        assert not verify_trace(DerivationTrace(tuple(steps)), sigma, goal)

    def test_empty_trace_is_refused(self):
        sigma, goal, _ = base_trace("cycle")
        assert not verify_trace(DerivationTrace(()), sigma, goal)

    @pytest.mark.parametrize(
        "rule, antecedents, detail",
        [
            ("chain", (0, 1, 2), ("sets", ("x",), ("y",))),
            ("chain", (0, 1, 2), ("unary", ("x", "y", "z"))),
            ("augmentation", (0,), (5,)),
        ],
        ids=["sets-three-parts", "unary-two-parts", "augmentation-number"],
    )
    def test_malformed_detail_is_refused(self, rule, antecedents, detail):
        """A last step whose detail is not of its rule's shape answers
        False rather than raising; the well-formed step in its place
        replays."""
        sigma = parse_fds("x -> y\ny -> z\ncd x y z\n")
        goal = u("x", "z")
        premises = tuple(TraceStep(fd, "premise") for fd in sigma)

        def trace(*last):
            return DerivationTrace(premises + (TraceStep(goal, *last),))

        assert verify_trace(trace("chain", (0, 1, 2), ("sets", ("x",), ("y",), ("z",))), sigma, goal)
        assert verify_trace(trace(rule, antecedents, detail), sigma, goal) is False


class TestCounterexamples:
    def test_broken_transitivity(self):
        sigma = [u("x", "y"), u("y", "z")]
        phi = u("x", "z")
        family = build_counterexample(sigma, phi)
        assert all(family.satisfies(p) for p in sigma)
        assert not family.satisfies(phi)
        relation = family.relation_at(frozenset({"x", "z"}))
        assert len(relation) == 4

    def test_unreachable_goal(self):
        sigma = [u("y", "z")]
        phi = u("x", "y")
        family = build_counterexample(sigma, phi)
        assert all(family.satisfies(p) for p in sigma)
        assert not family.satisfies(phi)

    def test_weighted_counterexamples_match_the_boolean_shape(self):
        sigma = [u("x", "y"), u("y", "z")]
        phi = u("x", "z")
        boolean = build_counterexample(sigma, phi, MonoidKind.B)
        for kind in (MonoidKind.N, MonoidKind.Q):
            weighted = build_counterexample(sigma, phi, kind)
            assert weighted.kind is kind
            assert weighted.support() == boolean
            four_rows = weighted.relation_at(frozenset({"x", "z"}))
            two_rows = weighted.relation_at(frozenset({"x", "y"}))
            assert {w.payload for _, w in four_rows.rows()} == {1}
            assert {w.payload for _, w in two_rows.rows()} == {2}

    def test_derivable_goal_rejected(self):
        sigma = [u("x", "y"), u("y", "x")]
        assert build_counterexample(sigma, u("x", "y")) is None
        assert build_counterexample(sigma, u("x", "x")) is None

    def test_contextual_exactly_when_classically_derivable(self):
        """A counterexample to a goal CR does not derive is globally
        inconsistent exactly when the context-blind closure derives the
        goal: a global relation would satisfy every premise and so the goal."""
        seen = {True: 0, False: 0}
        for seed in range(40):
            for sigma, phi in entail_shape_corpus(seed, 8):
                if derives(sigma, phi)[0]:
                    continue
                classical = phi.rhs <= classical_closure(sigma, phi.lhs)
                seen[classical] += 1
                for kind in MonoidKind:
                    family = build_counterexample(sigma, phi, kind)
                    assert (check_global_consistency(family) is None) == classical, (sigma, phi, kind)
        assert min(seen.values()) >= 10

    @pytest.mark.parametrize("goal, derivable", [(u("x", "z"), True), (u("z", "x"), False)])
    def test_wide_cd_query_builds_one_engine(self, monkeypatch, goal, derivable):
        """Beside a CD wider than two variables one FULL engine decides the
        query: x -> z needs the chain rule, and z -> x is refused."""
        built = []

        class CountingEngine(_ClosureEngine):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(fdlogic, "_ClosureEngine", CountingEngine)
        sigma = [u("x", "y"), u("y", "z"), cd(["x", "y", "z"])]
        if derivable:
            assert build_counterexample(sigma, goal) is None
        else:
            with pytest.raises(UnsupportedDependencyError, match="binary CDs; got cd x y z$"):
                build_counterexample(sigma, goal)
        assert [rules for _, rules, *_ in built] == [RuleSet.FULL]

    def test_cr_and_full_agree_on_the_fragment(self):
        """CR is complete for unary premises with CDs of at most two
        variables, so the chain rule derives nothing more there: the FULL
        engine that decides every counterexample query decides as CR."""
        derived = refuted = 0
        for sigma, phi in fragment_corpus(40, 300):
            closure = derivation_closure(sigma, RuleSet.CR)
            assert derivation_closure(sigma, RuleSet.FULL) == closure, sigma
            assert (build_counterexample(sigma, phi) is None) == (phi in closure), (sigma, phi)
            derived += sum(fd.lhs != fd.rhs for fd in closure - set(sigma))
            refuted += phi not in closure
        assert derived >= 150 and 100 <= refuted <= 250

    def test_cd_premises_shape_contexts(self):
        sigma = [u("x", "y"), cd(["y", "z"])]
        phi = u("x", "z")
        family = build_counterexample(sigma, phi)
        assert frozenset({"y", "z"}) in family.contexts
        assert not family.satisfies(phi)


def built_or_refused(sigma, phi, kind):
    """``build_counterexample``'s answer, or "refused" where it raises
    :class:`UnsupportedDependencyError`."""
    try:
        return build_counterexample(sigma, phi, kind)
    except UnsupportedDependencyError:
        return "refused"


class TestThreeVariableScope:
    """The unary completeness claim on every premise set of a small scope:
    each nonempty set (1 023) of the six unary dependencies and four CDs
    over a, b and c, with each of the nine unary queries, the reflexive
    ones included."""

    def test_full_decides_as_the_oracle_and_counterexamples_refute(self):
        """FULL derives a query exactly when the domain-3 oracle finds no
        counterexample.  ``build_counterexample`` returns None exactly on
        the derivable queries; on the others it refuses in every kind, or
        returns in B, N and Q a locally consistent family that satisfies
        the premises and violates the query."""
        candidates = [u(x, y) for x, y in itertools.permutations("abc", 2)]
        candidates += [cd(s) for s in ("ab", "ac", "bc", "abc")]
        queries = [u(x, y) for x in "abc" for y in "abc"]
        total = underivable = built = refused = 0
        for size in range(1, len(candidates) + 1):
            for sigma in map(list, itertools.combinations(candidates, size)):
                for phi in queries:
                    total += 1
                    derived = derives(sigma, phi, RuleSet.FULL)[0]
                    oracle = semantic_entails_oracle(sigma, phi, domain_size=3)
                    assert oracle.holds == derived, (sigma, phi)
                    answers = [built_or_refused(sigma, phi, kind) for kind in MonoidKind]
                    if derived:
                        assert answers == [None] * 3, (sigma, phi)
                        continue
                    underivable += 1
                    if answers == ["refused"] * 3:
                        refused += 1
                        continue
                    for kind, family in zip(MonoidKind, answers):
                        assert isinstance(family, ContextualFamily) and family.kind is kind, (sigma, phi)
                        assert all(family.satisfies(p) for p in sigma), (sigma, phi, kind)
                        assert not family.satisfies(phi), (sigma, phi, kind)
                        assert find_violation(family.maximal_relations()) is None, (sigma, phi, kind)
                    built += 1
        assert (total, underivable, built, refused) == (9207, 2490, 1338, 1152)


class TestOracle:
    def test_cycle_inversion_holds(self):
        sigma = [u("x", "y"), u("y", "z"), u("z", "x")]
        verdict = semantic_entails_oracle(sigma, u("x", "z"))
        assert verdict.holds
        assert verdict.conclusive

    def test_transitivity_refuted(self):
        sigma = [u("x", "y"), u("y", "z")]
        verdict = semantic_entails_oracle(sigma, u("x", "z"))
        assert not verdict.holds
        family = verdict.counterexample
        assert all(family.satisfies(p) for p in sigma)
        assert not family.satisfies(u("x", "z"))

    def test_reflexive_goal_holds(self):
        verdict = semantic_entails_oracle([], u("x", "x"))
        assert verdict.holds

    def test_ternary_contexts_flagged_bounded_only(self):
        sigma = [u("x", "y"), u("y", "z"), cd(["x", "y", "z"])]
        verdict = semantic_entails_oracle(sigma, u("x", "z"))
        assert verdict.holds
        assert not verdict.conclusive


class TestAgreementProperties:
    def test_derivable_goals_resist_random_search(self):
        rng = random.Random(4)
        sigma = [u("x", "y"), u("y", "z"), u("z", "x")]
        goal = u("x", "z")
        ok, _ = derives(sigma, goal)
        assert ok
        for _ in range(150):
            family = random_family_satisfying(sigma + [cd(goal.variables)], rng)
            if family is None:
                continue
            assert family.satisfies(goal)

    def test_closure_agrees_with_oracle_on_small_instances(self):
        rng = random.Random(6)
        for _ in range(60):
            nv = rng.randint(2, 4)
            vs = [f"v{i}" for i in range(nv)]
            sigma = set()
            for _ in range(rng.randint(1, 5)):
                a, b = rng.sample(vs, 2)
                sigma.add(u(a, b))
            for _ in range(rng.randint(0, 2)):
                sigma.add(cd(rng.sample(vs, 2)))
            sigma = sorted(sigma, key=lambda f: f.sort_key)
            x, y = rng.sample(vs, 2)
            ok, _ = derives(sigma, u(x, y))
            verdict = semantic_entails_oracle(sigma, u(x, y))
            assert verdict.conclusive
            assert ok == verdict.holds


# ---------------------------------------------------------------------------
# The engine, its traces, the single-rule checks and the counterexample
# construction as they were before each search and rule instance got one
# implementation, kept as references: each had its own breadth-first
# search, chain-instance reader or chain-requirement list.  The chain-rule
# search is the one that ran on variable names and frozenset atoms before
# the library's moved to interned variables and bitmasks.


def _context_atoms(context_sets):
    """Every variable set of size one to three inside some stated set.
    Chain-rule side conditions only ever ask about such sets."""
    atoms = set()
    for c in context_sets:
        vs = sorted(c)
        for size in (1, 2, 3):
            if size <= len(vs):
                for combo in itertools.combinations(vs, size):
                    atoms.add(frozenset(combo))
    return frozenset(atoms)


def reference_third_elements(atoms):
    """For each pair {u, v} (or singleton {u}), the sorted ws such that
    the collapsed set {u, v, w} is an available atom."""
    table = {}
    for atom in atoms:
        vs = sorted(atom)
        if len(vs) == 1:
            (a,) = vs
            table.setdefault(frozenset({a}), set()).add(a)
        elif len(vs) == 2:
            a, b = vs
            table.setdefault(frozenset({a, b}), set()).update((a, b))
            table.setdefault(frozenset({a}), set()).add(b)
            table.setdefault(frozenset({b}), set()).add(a)
        else:
            a, b, c = vs
            table.setdefault(frozenset({a, b}), set()).add(c)
            table.setdefault(frozenset({a, c}), set()).add(b)
            table.setdefault(frozenset({b, c}), set()).add(a)
    return {k: tuple(sorted(v)) for k, v in table.items()}


def reference_chain_states(variables, edges, in_adj, atoms, thirds, target):
    witnesses = tuple(
        c
        for c in variables
        if (c, target) in edges and frozenset({c, target}) in atoms
    )
    witness_set = set(witnesses)
    succ = {}
    frontier = []
    for a in in_adj.get(target, []):
        for c in thirds.get(frozenset({a, target}), ()):
            if c in witness_set and (a, c) not in succ:
                succ[(a, c)] = None
                frontier.append((a, c))
    frontier.sort()
    while frontier:
        fresh = []
        for b, c2 in frontier:
            limit = thirds.get(frozenset({c2, target}), ())
            for c1 in thirds.get(frozenset({b, c2}), ()):
                if c1 not in witness_set or c1 not in limit:
                    continue
                for a in thirds.get(frozenset({c1, b}), ()):
                    if (a, b) in edges and (a, c1) not in succ:
                        succ[(a, c1)] = (b, c2)
                        fresh.append((a, c1))
        fresh.sort()
        frontier = fresh
    return succ, witnesses


def reference_chain_instance(x, y, succ, witnesses, atoms):
    for c1 in witnesses:
        if (x, c1) not in succ or frozenset({x, c1, y}) not in atoms:
            continue
        xs = [x]
        cs = [c1]
        state = succ[(x, c1)]
        while state is not None:
            xs.append(state[0])
            cs.append(state[1])
            state = succ[state]
        xs.append(y)
        return tuple(xs), tuple(cs)
    return None


class ReferenceEngine:
    def __init__(self, variables, premise_edges, context_sets, use_chain):
        self.variables = tuple(sorted(set(variables)))
        self.atoms = _context_atoms(context_sets)
        self.thirds = reference_third_elements(self.atoms)
        self.use_chain = use_chain
        self.edges = {}
        self.out_adj = {v: [] for v in self.variables}
        self.in_adj = {v: [] for v in self.variables}
        for u_, v in sorted(set(premise_edges)):
            self._add((u_, v), ("premise",))
        for v in self.variables:
            if (v, v) not in self.edges:
                self._add((v, v), ("reflexivity",))
        self._run()

    def _add(self, edge, justification):
        if edge in self.edges:
            return
        self.edges[edge] = justification
        insort(self.out_adj[edge[0]], edge[1])
        insort(self.in_adj[edge[1]], edge[0])

    def _reach(self, x):
        parent = {}
        frontier = []
        for b in self.out_adj[x]:
            if b not in parent:
                parent[b] = x
                frontier.append(b)
        order = list(frontier)
        while frontier:
            fresh = []
            for a in frontier:
                for b in self.out_adj[a]:
                    if b not in parent:
                        parent[b] = a
                        fresh.append(b)
            fresh.sort()
            order.extend(fresh)
            frontier = fresh
        return parent, order

    def _path_edges(self, x, y, parent):
        path = []
        walk = y
        while walk != x:
            prev = parent[walk]
            path.append((prev, walk))
            if prev == x:
                break
            walk = prev
        path.reverse()
        return tuple(path)

    def _run(self):
        while True:
            additions = {}
            for x in self.variables:
                parent, order = self._reach(x)
                for y in order:
                    if y == x or (x, y) in self.edges or (x, y) in additions:
                        continue
                    if (y, x) in self.edges:
                        path = self._path_edges(x, y, parent)
                        additions[(x, y)] = ("cycle", path, (y, x))
            if self.use_chain:
                edge_set = set(self.edges)
                for y in self.variables:
                    succ, witnesses = reference_chain_states(
                        self.variables, edge_set, self.in_adj, self.atoms, self.thirds, y
                    )
                    if not succ:
                        continue
                    for x in self.variables:
                        if x == y or (x, y) in self.edges or (x, y) in additions:
                            continue
                        instance = reference_chain_instance(x, y, succ, witnesses, self.atoms)
                        if instance is not None:
                            additions[(x, y)] = ("chain",) + instance
            if not additions:
                return
            for edge in sorted(additions):
                self._add(edge, additions[edge])


def _split_premises(sigma):
    """Unary edges, context sets, and variables of a premise list;
    rejects dependencies outside the unary + CD fragment."""
    edges = []
    contexts = []
    variables = set()
    for fd in sigma:
        if fd.is_unary:
            (a,) = fd.lhs
            (b,) = fd.rhs
            edges.append((a, b))
        elif not fd.is_cd:
            raise UnsupportedDependencyError(
                f"{fd} is neither unary nor a CD; "
                "only CLASSICAL and NRA accept general dependencies"
            )
        contexts.append(fd.variables)
        variables |= fd.variables
    return edges, contexts, sorted(variables)


def reference_engine(sigma, rules, extra_context_sets):
    edges, contexts, variables = _split_premises(list(sigma))
    extra = [frozenset(s) for s in extra_context_sets]
    for s in extra:
        variables = sorted(set(variables) | s)
    return ReferenceEngine(variables, edges, contexts + extra, rules is RuleSet.FULL)


def reference_trace(engine, sigma, goal):
    premise_cds = {fd.lhs for fd in sigma if fd.is_cd}
    steps = []
    index = {}

    def emit_cd(vs):
        key = ("cd", vs)
        if key in index:
            return index[key]
        rule = "premise" if vs in premise_cds else "reflexivity"
        steps.append(TraceStep(FD(vs, vs), rule))
        index[key] = len(steps) - 1
        return index[key]

    def emit_fd(edge):
        key = ("fd", edge)
        if key in index:
            return index[key]
        just = engine.edges[edge]
        if just[0] in ("premise", "reflexivity"):
            steps.append(TraceStep(FD.unary(*edge), just[0]))
        elif just[0] == "cycle":
            _, path, closing = just
            ants = [emit_fd(e) for e in path] + [emit_fd(closing)]
            steps.append(TraceStep(FD.unary(*edge), "cycle", tuple(ants)))
        else:
            _, xs, cs = just
            target = xs[-1]
            n = len(xs)
            ants = []
            for i in range(n - 1):
                ants.append(emit_fd((xs[i], xs[i + 1])))
            for c in cs:
                ants.append(emit_fd((c, target)))
            cd_sets = [frozenset({xs[0], cs[0], target})]
            cd_sets += [frozenset({xs[i], cs[i], xs[i + 1]}) for i in range(n - 1)]
            cd_sets += [frozenset({cs[i], xs[i + 1], cs[i + 1]}) for i in range(n - 2)]
            cd_sets += [frozenset({cs[i], cs[i + 1], target}) for i in range(n - 2)]
            for s in cd_sets:
                ants.append(emit_cd(s))
            deduped = tuple(dict.fromkeys(ants))
            steps.append(TraceStep(FD.unary(*edge), "chain", deduped, ("unary", xs, cs)))
        index[key] = len(steps) - 1
        return index[key]

    emit_fd(goal)
    return DerivationTrace(tuple(steps))


def reference_derives(sigma, phi, rules):
    _split_premises(sigma)
    if phi.rhs <= phi.lhs:
        return True, DerivationTrace((TraceStep(phi, "reflexivity"),))
    (x,) = phi.lhs
    (y,) = phi.rhs
    engine = reference_engine(sigma, rules, [phi.variables])
    if (x, y) not in engine.edges:
        return False, None
    return True, reference_trace(engine, sigma, (x, y))


def reference_cycle_rule_derives(sigma, x, y):
    edges, _, variables = _split_premises(list(sigma))
    if (y, x) not in set(edges):
        return False
    adj = {v: [] for v in variables}
    for a, b in sorted(set(edges)):
        adj[a].append(b)
    if x not in adj or y not in adj:
        return False
    seen = set()
    frontier = list(adj[x])
    seen.update(frontier)
    while frontier:
        fresh = []
        for a in frontier:
            for b in adj[a]:
                if b not in seen:
                    seen.add(b)
                    fresh.append(b)
        frontier = fresh
    return y in seen


def reference_chain_rule_derives(sigma, x, y):
    edges, contexts, variables = _split_premises(list(sigma))
    if x not in variables or y not in variables:
        return False
    atoms = _context_atoms(contexts)
    thirds = reference_third_elements(atoms)
    edge_set = set(edges)
    in_adj = {v: [] for v in variables}
    for a, b in sorted(edge_set):
        in_adj[b].append(a)
    succ, witnesses = reference_chain_states(variables, edge_set, in_adj, atoms, thirds, y)
    return reference_chain_instance(x, y, succ, witnesses, atoms) is not None


def reference_counterexample(sigma, phi, kind):
    premises = list(sigma)
    for fd in premises:
        if not fd.is_unary and not (fd.is_cd and len(fd.lhs) <= 2):
            raise UnsupportedDependencyError(
                f"counterexample construction covers unary premises and "
                f"binary CDs; got {fd}"
            )
    (x,) = phi.lhs
    (y,) = phi.rhs
    contexts = ContextSet.from_sets([fd.variables for fd in premises] + [phi.variables])
    variables = sorted(contexts.variables)
    adjacency = {v: set() for v in variables}
    for fd in premises:
        if fd.is_unary:
            (a,) = fd.lhs
            (b,) = fd.rhs
            adjacency[a].add(b)
    reached = set()
    frontier = sorted(adjacency[x])
    reached.update(frontier)
    while frontier:
        fresh = []
        for a in frontier:
            for b in sorted(adjacency[a]):
                if b not in reached:
                    reached.add(b)
                    fresh.append(b)
        frontier = fresh
    if y not in reached:
        closed = {x} | reached
        row_zero = Assignment({v: "0" for v in variables})
        row_split = Assignment({v: "0" if v in closed else "1" for v in variables})
        one = MonoidValue.one(kind)
        total = KRelation.from_assignments(variables, kind, {row_zero: one, row_split: one})
        return ContextualFamily([total.marginalise(c) for c in contexts])
    small = MonoidValue.one(kind)
    big = small + small if kind is not MonoidKind.B else small
    relations = []
    for c in contexts:
        if c == phi.variables:
            rows = [Assignment({x: a, y: b}) for a in ("0", "1") for b in ("0", "1")]
            value = small
        else:
            rows = [Assignment({v: "0" for v in c}), Assignment({v: "1" for v in c})]
            value = big
        relations.append(KRelation.from_assignments(c, kind, dict.fromkeys(rows, value)))
    return ContextualFamily(relations)


def reference_decided_counterexample(sigma, phi, kind):
    """The counterexample query as ``build_counterexample`` decides it:
    None when CR derives the goal, or when a CD wider than two variables
    is among the premises and FULL derives it; else the reference
    construction."""
    if reference_derives(sigma, phi, RuleSet.CR)[0]:
        return None
    wide = any(fd.is_cd and len(fd.lhs) > 2 for fd in sigma)
    if wide and reference_derives(sigma, phi, RuleSet.FULL)[0]:
        return None
    return reference_counterexample(sigma, phi, kind)


def named_edges(engine):
    """The engine's edges and justifications in order, with the interned
    variables in their pairs, paths and chain instances named."""
    names = engine.variables

    def pair(edge):
        return names[edge[0]], names[edge[1]]

    out = []
    for edge, just in engine.edges.items():
        if just[0] == "cycle":
            just = ("cycle", tuple(pair(e) for e in just[1]), pair(just[2]))
        elif just[0] == "chain":
            just = ("chain",) + tuple(tuple(names[i] for i in vs) for vs in just[1:])
        out.append((pair(edge), just))
    return out


def _rows_satisfy(rows, positions, fd):
    """Whether a whole set of rows satisfies fd: the check the pairwise
    masks of ``_context_candidates`` replaced."""
    lhs = [positions[v] for v in sorted(fd.lhs)]
    rhs = [positions[v] for v in sorted(fd.rhs)]
    seen = {}
    for row in rows:
        left = tuple(row[i] for i in lhs)
        right = tuple(row[i] for i in rhs)
        prior = seen.get(left)
        if prior is None:
            seen[left] = right
        elif prior != right:
            return False
    return True


def candidate_sets(context, sigma, phi, domain, max_rows):
    """``_context_candidates`` with each support as its set of rows."""
    vs, rows, masks = _context_candidates(context, sigma, phi, domain, max_rows)
    return vs, [frozenset(row for j, row in enumerate(rows) if mask >> j & 1) for mask in masks]


def reference_context_candidates(context, sigma, phi, domain, max_rows):
    vs = tuple(sorted(context))
    positions = {v: i for i, v in enumerate(vs)}
    all_rows = sorted(itertools.product(domain, repeat=len(vs)))
    relevant = [fd for fd in sigma if fd.variables <= context]
    check_phi = phi is not None and phi.variables <= context
    out = []
    for size in range(1, min(max_rows, len(all_rows)) + 1):
        for combo in itertools.combinations(all_rows, size):
            if any(not _rows_satisfy(combo, positions, fd) for fd in relevant):
                continue
            if check_phi and _rows_satisfy(combo, positions, phi):
                continue
            out.append(frozenset(combo))
    return vs, out


def outcome(function, *args):
    """The value, or the type and message of the exception raised."""
    try:
        return ("value", function(*args))
    except ValueError as exc:
        return ("raised", type(exc), str(exc))


def small_corpus(seed, count):
    """Unary premises with binary and ternary CDs over 3-10 variables,
    some with reflexive self-loops, each with queries including x -> x."""
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(3, 10)
        vs = [f"v{i}" for i in range(nv)]
        sigma = set()
        for _ in range(rng.randint(1, 3 * nv)):
            sigma.add(u(*rng.sample(vs, 2)))
        for _ in range(rng.randint(0, 2)):
            v = rng.choice(vs)
            sigma.add(u(v, v))
        for _ in range(rng.randint(0, 2 * nv)):
            sigma.add(cd(rng.sample(vs, rng.choice([2, 3]))))
        sigma = sorted(sigma, key=lambda f: f.sort_key)
        v = rng.choice(vs)
        yield sigma, [tuple(rng.sample(vs, 2)) for _ in range(3)] + [(v, v)]


def large_corpus(seed):
    """The shape of the large derivations of the fd-entail benchmark: n
    variables, 8n edges that never lead from the second half back into the
    first, and 2n binary or ternary CDs, with a planted 4-cycle."""
    rng = random.Random(seed)
    for nv in (20, 30, 40, 50):
        vs = [f"v{n}" for n in range(nv)]
        half = nv // 2
        edges = set()
        while len(edges) < 8 * nv:
            a, b = rng.sample(vs, 2)
            if vs.index(a) < half or vs.index(b) >= half:
                edges.add((a, b))
        sigma = {u(a, b) for a, b in edges}
        sigma |= {cd(rng.sample(vs, rng.choice([2, 3]))) for _ in range(2 * nv)}
        loop = rng.sample(vs[half:], 4)
        sigma |= {u(a, b) for a, b in zip(loop, loop[1:] + loop[:1])}
        sigma = sorted(sigma, key=lambda f: f.sort_key)
        yield sigma, [(loop[0], loop[-1]), (rng.choice(vs[half:]), rng.choice(vs[:half]))]


def edge_corpus(seed, count):
    """Premise sets at the edges of the chain search's atoms: self-loops
    (one-variable CDs, ``cd x`` being ``x -> x``), CDs over four to six
    variables, and queries naming variables outside the premises, one of
    which sorts before every premise variable."""
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(3, 8)
        vs = [f"v{i}" for i in range(nv)]
        sigma = set()
        for _ in range(rng.randint(1, 3 * nv)):
            sigma.add(u(*rng.sample(vs, 2)))
        for _ in range(rng.randint(1, 3)):
            sigma.add(cd([rng.choice(vs)]))
        for _ in range(rng.randint(0, nv)):
            sigma.add(cd(rng.sample(vs, rng.randint(2, min(nv, 6)))))
        sigma = sorted(sigma, key=lambda f: f.sort_key)
        names = vs + ["a", "zz"]
        yield sigma, [tuple(rng.sample(vs, 2)) for _ in range(3)] + [
            tuple(rng.sample(names, 2)) for _ in range(3)
        ]


class TestAgainstReference:
    def check(self, sigma, queries, counterexamples=True):
        for rules in (RuleSet.CR, RuleSet.FULL):
            extra = [u(*queries[0]).variables]
            engine = _ClosureEngine(sigma, rules, extra)
            old = reference_engine(sigma, rules, extra)
            assert named_edges(engine) == list(old.edges.items())
            assert derivation_closure(sigma + [cd(s) for s in extra], rules) == frozenset(
                u(a, b) for a, b in old.edges
            )
            for x, y in queries:
                ours = derives(sigma, u(x, y), rules)
                theirs = reference_derives(sigma, u(x, y), rules)
                assert ours == theirs
                if ours[1] is not None:
                    assert format_trace(ours[1]) == format_trace(theirs[1])
        for x, y in queries:
            assert cycle_rule_derives(sigma, x, y) == reference_cycle_rule_derives(sigma, x, y)
            assert chain_rule_derives(sigma, x, y) == reference_chain_rule_derives(sigma, x, y)
        if not counterexamples:
            return
        # The construction covers binary CDs only; the full premise set
        # checks the refusal, the binary part the two shapes.
        binary = [fd for fd in sigma if len(fd.variables) <= 2]
        kinds = (MonoidKind.B, MonoidKind.N, MonoidKind.Q)
        cases = [(sigma, u(*queries[0]), MonoidKind.B)]
        cases += [(binary, u(x, y), kinds[i % 3]) for i, (x, y) in enumerate(queries)]
        for case in cases:
            assert outcome(build_counterexample, *case) == outcome(reference_decided_counterexample, *case)

    def test_small_premise_sets(self):
        derivable = refuted = 0
        for sigma, queries in small_corpus(8, 150):
            self.check(sigma, queries)
            for x, y in queries:
                ok, _ = derives(sigma, u(x, y), RuleSet.FULL)
                derivable += ok and x != y
                refuted += not ok
        assert derivable > 100 and refuted > 100

    def test_large_derivations(self):
        for sigma, queries in large_corpus(9):
            self.check(sigma, queries, counterexamples=False)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_large_derivations_at_more_seeds(self, seed):
        for sigma, queries in large_corpus(seed):
            self.check(sigma, queries, counterexamples=False)

    def test_edge_case_atoms(self):
        chains = outside = 0
        for sigma, queries in edge_corpus(13, 120):
            self.check(sigma, queries)
            engine = _ClosureEngine(sigma, RuleSet.FULL, [])
            chains += sum(len(j[1]) > 2 for j in engine.edges.values() if j[0] == "chain")
            premise_vars = {v for fd in sigma for v in fd.variables}
            outside += sum(not {x, y} <= premise_vars for x, y in queries)
        assert chains > 50 and outside > 50

    def test_edges_are_keyed_by_index_pairs(self):
        """Interned in sorted name order: the premises first, sorted, then
        the reflexive edges, then what the passes derive."""
        sigma = [u("c", "b"), u("b", "a"), u("a", "c"), cd(["a", "b", "c"])]
        engine = _ClosureEngine(sigma, RuleSet.FULL, [frozenset({"d"})])
        assert engine.variables == ("a", "b", "c", "d")
        keys = list(engine.edges)
        assert keys[:7] == [(0, 2), (1, 0), (2, 1), (0, 0), (1, 1), (2, 2), (3, 3)]
        assert keys[7:] == [(0, 1), (1, 2), (2, 0)]
        assert engine.edges[(0, 1)] == ("cycle", ((0, 2), (2, 1)), (1, 0))
        assert all(type(a) is int and type(b) is int for a, b in keys)

    def test_fragment_is_one_decision(self, monkeypatch):
        """The oracle's ``conclusive`` flag and the counterexample refusal
        agree on which premise sets are in the unary + binary-CD fragment.
        With the bounded search stubbed out, ``conclusive`` is the fragment
        test alone; the refusal shows wherever FULL leaves the goal open,
        which inside the fragment is where CR does."""
        monkeypatch.setattr(fdlogic, "_backtrack_family", lambda *args: None)
        counts = {True: 0, False: 0}
        for sigma, queries in small_corpus(8, 150):
            for x, y in queries[:3]:
                fragment = semantic_entails_oracle(sigma, u(x, y)).conclusive
                try:
                    if build_counterexample(sigma, u(x, y)) is None:
                        continue
                    refused = False
                except UnsupportedDependencyError:
                    refused = True
                assert refused != fragment
                counts[fragment] += 1
        assert counts[True] > 30 and counts[False] > 100

    def test_chain_rule_with_absent_variables(self):
        sigma = [u("x", "y"), u("y", "z"), cd(["x", "y", "z"])]
        assert chain_rule_derives(sigma, "x", "z")
        for x, y in [("x", "w"), ("w", "z"), ("w", "w"), ("a", "z")]:
            assert chain_rule_derives(sigma, x, y) is False

    def test_context_candidates(self):
        for sigma, queries in small_corpus(11, 60):
            contexts = ContextSet.from_sets(fd.variables for fd in sigma)
            for context in contexts:
                if len(context) > 2:
                    continue
                for phi in [None] + [u(x, y) for x, y in queries]:
                    args = (context, sigma, phi, ["0", "1"], 4)
                    assert candidate_sets(*args) == reference_context_candidates(*args)
        # Ternary and four-variable contexts, domains 1-3 and budgets 1-5,
        # with unary, general and CD premises and goals inside and outside
        # the context, wherever the reference enumerates at most 25 000
        # combinations (once past 5000).
        rng = random.Random(17)
        names = ["a", "b", "c", "d", "e"]
        cases = inside = 0
        for width, size, max_rows in itertools.product((3, 4), (1, 2, 3), range(1, 6)):
            combinations = sum(math.comb(size**width, k) for k in range(1, max_rows + 1))
            if combinations > 25_000:
                continue
            for _ in range(3 if combinations <= 5000 else 1):
                context = frozenset(rng.sample(names, width))
                inner = sorted(context)
                sigma = [u(*rng.sample(inner, 2)) for _ in range(rng.randint(0, 2))]
                sigma.append(FD(frozenset(inner[:2]), frozenset(inner[2:3])))
                sigma.append(cd(inner))
                sigma.append(u(*rng.sample(names, 2)))
                goals = [None, u(*rng.sample(inner, 2)), FD(frozenset(inner[1:3]), frozenset(inner[:1]))]
                goals.append(u(inner[0], next(v for v in names if v not in context)))
                for phi in goals:
                    args = (context, sigma, phi, [str(i) for i in range(size)], max_rows)
                    assert candidate_sets(*args) == reference_context_candidates(*args)
                    cases += 1
                    inside += phi is not None and phi.variables <= context
        assert cases >= 250 and inside >= 120


def trace_pass(trace):
    """The closure pass that derived a trace's goal: 0 for a premise or
    reflexivity, else one after the latest of its antecedents."""
    passes = []
    for step in trace.steps:
        passes.append(1 + max(passes[j] for j in step.antecedents) if step.antecedents else 0)
    return passes[-1]


def premise_reach(sigma, x):
    """The variables reachable from x along at least one premise edge."""
    edges, _, _ = _split_premises(sigma)
    seen, frontier = set(), [x]
    while frontier:
        a = frontier.pop()
        for b in [b for a2, b in edges if a2 == a and b not in seen]:
            seen.add(b)
            frontier.append(b)
    return seen


class TestGoalDirected:
    """``derives`` stops at its goal; verdicts and traces stay those of the
    full closure."""

    def test_late_stuck_and_outside_goals(self):
        """Goals derived at pass 2 or later, goals reachable along premise
        edges but not derivable, and goals naming variables outside the
        premises."""
        counts = {"late": 0, "stuck": 0, "outside": 0}
        for number, (sigma, _) in enumerate(small_corpus(31, 60)):
            rng = random.Random(number)
            variables = sorted({v for fd in sigma for v in fd.variables})
            full = reference_engine(sigma, RuleSet.FULL, [])
            pairs = [
                e for e, just in full.edges.items()
                if just[0] in ("cycle", "chain") and trace_pass(reference_trace(full, sigma, e)) >= 2
            ]
            pairs += [tuple(rng.sample(variables, 2)) for _ in range(6)]
            pairs += [(rng.choice(variables), "zz"), ("a", rng.choice(variables))]
            for x, y in pairs:
                for rules in (RuleSet.CR, RuleSet.FULL):
                    ours = derives(sigma, u(x, y), rules)
                    theirs = reference_derives(sigma, u(x, y), rules)
                    assert ours == theirs
                    if ours[0]:
                        assert format_trace(ours[1]) == format_trace(theirs[1])
                        counts["late"] += trace_pass(ours[1]) >= 2
                    counts["stuck"] += not ours[0] and y in premise_reach(sigma, x)
                    counts["outside"] += not {x, y} <= set(variables)
        assert counts["late"] >= 20 and counts["stuck"] >= 100 and counts["outside"] >= 200

    @pytest.mark.parametrize("seed", [0, 9, 21])
    def test_large_queries_run_no_full_closure(self, monkeypatch, seed):
        """On the benchmark's large shape, a planted-cycle goal computes the
        chain states of at most one target and an unreachable goal of none;
        the whole FULL closure computes them for every target, pass by pass."""
        calls = []
        chain_states = fdlogic._chain_states

        def counting(*args):
            calls.append(args[2])
            return chain_states(*args)

        monkeypatch.setattr(fdlogic, "_chain_states", counting)
        for sigma, (planted, unreachable) in large_corpus(seed):
            del calls[:]
            assert derives(sigma, u(*planted), RuleSet.FULL)[0]
            assert len(calls) <= 1
            del calls[:]
            assert derives(sigma, u(*unreachable), RuleSet.FULL) == (False, None)
            assert calls == []


class TestSamplerEdges:
    def test_no_contexts_gives_no_family(self):
        assert random_family_satisfying([], random.Random(0)) is None

    def test_extra_contexts_alone_give_a_family(self):
        family = random_family_satisfying([cd(["a", "b"])], random.Random(0))
        assert family is not None
        assert list(family.contexts) == [frozenset({"a", "b"})]


# The two searches the one search replaced: the recursive backtrack that
# re-projected every candidate against every earlier choice, and the
# profile scan for all-binary contexts, with the oracle's size dispatch.


def reference_admissible(context, sigma, phi):
    positions = {v: i for i, v in enumerate(sorted(context))}
    relevant = [fd for fd in sigma if fd.variables <= context]
    goal = phi if phi is not None and phi.variables <= context else None

    def admissible(rows):
        if any(not _rows_satisfy(rows, positions, fd) for fd in relevant):
            return False
        return goal is None or not _rows_satisfy(rows, positions, goal)

    return admissible


def reference_family_from_choice(contexts, vs_list, chosen):
    relations = []
    for context, vs, rows in zip(contexts, vs_list, chosen):
        assignments = [Assignment(zip(vs, row)) for row in sorted(rows)]
        relations.append(
            KRelation.from_assignments(
                context, MonoidKind.B, dict.fromkeys(assignments, MonoidValue.one(MonoidKind.B))
            )
        )
    return ContextualFamily(relations)


def reference_backtrack_family(contexts, sigma, phi, domain, max_rows, rng=None):
    vs_list = []
    candidate_lists = []
    for c in contexts:
        vs, cands = reference_context_candidates(c, sigma, phi, domain, max_rows)
        if not cands:
            return None
        if rng is not None:
            cands = list(cands)
            rng.shuffle(cands)
        vs_list.append(vs)
        candidate_lists.append(cands)

    overlaps = []
    for i, ci in enumerate(contexts):
        cell = []
        for j in range(i):
            shared = sorted(ci & contexts[j])
            mine = tuple(vs_list[i].index(v) for v in shared)
            theirs = tuple(vs_list[j].index(v) for v in shared)
            cell.append((j, mine, theirs))
        overlaps.append(cell)

    def restrict(rows, idx):
        return frozenset(tuple(row[i] for i in idx) for row in rows)

    chosen = []

    def walk(depth):
        if depth == len(contexts):
            return True
        for cand in candidate_lists[depth]:
            ok = True
            for j, mine, theirs in overlaps[depth]:
                if restrict(cand, mine) != restrict(chosen[j], theirs):
                    ok = False
                    break
            if ok:
                chosen.append(cand)
                if walk(depth + 1):
                    return True
                chosen.pop()
        return False

    if not walk(0):
        return None
    return reference_family_from_choice(contexts, vs_list, chosen)


def reference_profile_family(contexts, sigma, phi, domain, max_rows):
    variables = sorted({v for c in contexts for v in c})
    profiles = [
        tuple(combo)
        for size in range(1, len(domain) + 1)
        for combo in itertools.combinations(domain, size)
    ]
    tables = []
    for c in contexts:
        vs = tuple(sorted(c))
        admissible = reference_admissible(c, sigma, phi)
        table = {}
        if len(vs) == 1:
            for pi, profile in enumerate(profiles):
                rows = frozenset((val,) for val in profile)
                if len(rows) <= max_rows and admissible(rows):
                    table[(pi,)] = rows
        else:
            for pu, mu in enumerate(profiles):
                for pv, mv in enumerate(profiles):
                    best = None
                    for size in range(1, max_rows + 1):
                        for combo in itertools.combinations(
                            sorted(itertools.product(mu, mv)), size
                        ):
                            if frozenset(r[0] for r in combo) != frozenset(mu):
                                continue
                            if frozenset(r[1] for r in combo) != frozenset(mv):
                                continue
                            rows = frozenset(combo)
                            if admissible(rows):
                                best = rows
                                break
                        if best is not None:
                            break
                    if best is not None:
                        table[(pu, pv)] = best
        tables.append((vs, table))

    index_of = {v: i for i, v in enumerate(variables)}
    keys = [tuple(index_of[v] for v in vs) for vs, _ in tables]
    for assignment in itertools.product(range(len(profiles)), repeat=len(variables)):
        chosen = []
        for (vs, table), key in zip(tables, keys):
            cell = table.get(tuple(assignment[i] for i in key))
            if cell is None:
                break
            chosen.append(cell)
        else:
            return reference_family_from_choice(contexts, [t[0] for t in tables], chosen)
    return None


def oracle_contexts(sigma, phi):
    premises = sorted(set(sigma), key=lambda f: f.sort_key)
    contexts = list(ContextSet.from_sets([fd.variables for fd in premises] + [phi.variables]))
    return premises, contexts


def reference_oracle_family(sigma, phi, domain_size, max_rows):
    """The counterexample of the size dispatch: the profile scan on small
    all-binary context sets, the backtrack everywhere else."""
    premises, contexts = oracle_contexts(sigma, phi)
    domain = [str(i) for i in range(domain_size)]
    variables = {v for c in contexts for v in c}
    binary = all(len(c) <= 2 for c in contexts)
    if binary and (2 ** domain_size - 1) ** len(variables) <= 300_000:
        return reference_profile_family(contexts, premises, phi, domain, max_rows)
    return reference_backtrack_family(contexts, premises, phi, domain, max_rows)


def criterion_10_corpus(instances):
    """The premise sets and queries of acceptance criterion 10: 2-5
    variables, unary premises and binary CDs."""
    rng = random.Random(1001)
    for _ in range(instances):
        vs = [f"v{i}" for i in range(rng.randint(2, 5))]
        sigma = set()
        for _ in range(rng.randint(1, 6)):
            sigma.add(u(*rng.sample(vs, 2)))
        for _ in range(rng.randint(0, 4)):
            sigma.add(cd(rng.sample(vs, 2)))
        sigma = sorted(sigma, key=lambda f: f.sort_key)
        for x, y in itertools.permutations(vs, 2):
            yield sigma, u(x, y)


def entail_shape_corpus(seed, count):
    """The shape of the fd-entail benchmark's entail queries: 5-8
    variables, 2-8 edges and 0-5 binary CDs."""
    rng = random.Random(seed)
    for j in range(count):
        vs = [f"v{n}" for n in range(5 + j % 4)]
        sigma = {u(*rng.sample(vs, 2)) for _ in range(rng.randint(2, 8))}
        sigma |= {cd(rng.sample(vs, 2)) for _ in range(rng.randint(0, 5))}
        yield sorted(sigma, key=lambda f: f.sort_key), u(*rng.sample(vs, 2))


def fragment_corpus(seed, count):
    """Premise sets of the fragment in which CR is complete, over 2-7
    variables: unary dependencies and CDs of one or two variables, each
    with a unary goal."""
    rng = random.Random(seed)
    for _ in range(count):
        vs = [f"v{n}" for n in range(rng.randint(2, 7))]
        sigma = {u(*rng.sample(vs, 2)) for _ in range(rng.randint(0, 2 * len(vs)))}
        sigma |= {cd(rng.sample(vs, rng.randint(1, 2))) for _ in range(rng.randint(0, len(vs)))}
        yield sorted(sigma, key=lambda f: f.sort_key), u(*rng.sample(vs, 2))


SAMPLER_PREMISES = [
    [u(f"x{i}", f"x{(i + 1) % k}") for i in range(k)]
    + [cd([f"x{i}", f"x{(i + 1) % k}"]) for i in range(k)]
    for k in range(2, 7)
] + [chain_premises(n)[0] for n in (3, 4, 5)]
# The sampler jobs of the fd-entail benchmark seed their generators so.
WORKLOAD_SEEDS = [f"fd-entail/{s}/{i}" for s in (5, 11) for i in range(10)]

# Premise sets, goals and extra context sets whose contexts differ in one
# respect only, with the number of context classes, hence candidate
# builds, each should take.  The extra sets {b c e} and {e f} hold no
# premise, so only their arity tells them apart.
CLASS_CASES = [
    pytest.param([u("a", "b"), u("b", "c")], None, [], 2, 4, 1, id="one-class"),
    pytest.param([u("a", "b"), cd(["a", "b"]), cd(["b", "c"])], None, [], 2, 4, 2, id="one-premise"),
    pytest.param([u("a", "b"), u("c", "b")], None, [], 2, 4, 2, id="direction"),
    pytest.param([cd(["a", "b"]), cd(["b", "c"])], u("a", "b"), [], 2, 4, 2, id="goal-fits"),
    pytest.param(
        [u("a", "b"), u("c", "d")], None, [{"b", "c", "e"}, {"e", "f"}], 2, 4, 3, id="binary-and-ternary"
    ),
    pytest.param(
        [cd(["a", "b", "c"]), cd(["b", "c", "d"]), cd(["c", "d", "e"]), u("a", "b"), u("c", "d")],
        None, [], 3, 3, 2, id="domain-3-ternary",
    ),
]


def count_candidate_builds(monkeypatch):
    """The contexts ``_context_candidates`` is called for, from now on."""
    builds = []
    build = fdlogic._context_candidates

    def counted(*args):
        builds.append(args[0])
        return build(*args)

    monkeypatch.setattr(fdlogic, "_context_candidates", counted)
    return builds


class TestOneSearch:
    def check(self, sigma, phi, domain_size=2, max_rows=4):
        verdict = semantic_entails_oracle(sigma, phi, domain_size=domain_size, max_rows=max_rows)
        expected = reference_oracle_family(sigma, phi, domain_size, max_rows)
        assert verdict.counterexample == expected
        if domain_size < 3:
            # Without the recorded failures, the plain backtrack takes
            # seconds per query at domain 3.
            premises, contexts = oracle_contexts(sigma, phi)
            domain = [str(i) for i in range(domain_size)]
            assert verdict.counterexample == reference_backtrack_family(
                contexts, premises, phi, domain, max_rows
            )
        return verdict.counterexample is not None

    def test_criterion_10_corpus(self):
        refuted = sum(self.check(sigma, phi) for sigma, phi in criterion_10_corpus(120))
        assert refuted > 500

    def test_entail_shape(self):
        refuted = sum(self.check(sigma, phi) for sigma, phi in entail_shape_corpus(5, 120))
        assert refuted > 60

    def test_domain_and_row_variants(self):
        variants = [(3, 4), (1, 4), (2, 2), (2, 3), (3, 3)]
        refuted = 0
        for i, (sigma, phi) in enumerate(criterion_10_corpus(30)):
            refuted += self.check(sigma, phi, *variants[i % len(variants)])
        assert refuted > 80

    @pytest.mark.parametrize("sigma", SAMPLER_PREMISES)
    def test_sampler_draws(self, sigma):
        premises = sorted(set(sigma), key=lambda f: f.sort_key)
        contexts = list(ContextSet.from_sets(fd.variables for fd in premises))
        chain = any(fd.is_cd and len(fd.lhs) == 3 for fd in premises)
        for seed in [*range(6), *(WORKLOAD_SEEDS if chain else [])]:
            rng, reference_rng = random.Random(seed), random.Random(seed)
            drawn = random_family_satisfying(sigma, rng)
            expected = reference_backtrack_family(
                contexts, premises, None, ["0", "1"], 4, rng=reference_rng
            )
            assert drawn == expected
            assert rng.getstate() == reference_rng.getstate()

    @pytest.mark.parametrize("sigma, phi, extra, domain_size, max_rows, classes", CLASS_CASES)
    def test_sharing_never_crosses_a_class(
        self, monkeypatch, sigma, phi, extra, domain_size, max_rows, classes
    ):
        premises = sorted(set(sigma), key=lambda f: f.sort_key)
        goal_sets = [] if phi is None else [phi.variables]
        context_set = ContextSet.from_sets([fd.variables for fd in premises] + goal_sets + extra)
        domain = [str(i) for i in range(domain_size)]
        builds = count_candidate_builds(monkeypatch)
        for seed in [None, *range(4)]:
            builds.clear()
            rng = None if seed is None else random.Random(seed)
            found = fdlogic._backtrack_family(context_set, premises, phi, domain, max_rows, rng)
            assert found is not None
            assert len(builds) == classes
            reference_rng = None if seed is None else random.Random(seed)
            assert found == reference_backtrack_family(
                list(context_set), premises, phi, domain, max_rows, rng=reference_rng
            )

    @pytest.mark.parametrize(
        "sigma, contexts, builds",
        [(chain_premises(5)[0], 11, 4), (chain_premises(3)[0], 5, 4), (SAMPLER_PREMISES[4], 6, 2)],
        ids=["chain-5", "chain-3", "cycle-6"],
    )
    def test_one_candidate_build_per_class(self, monkeypatch, sigma, contexts, builds):
        counted = count_candidate_builds(monkeypatch)
        family = random_family_satisfying(sigma, random.Random(0))
        assert len(family.contexts) == contexts
        assert len(counted) == builds

    def test_families_pass_the_pairwise_check(self):
        """The search assembles its family without the pairwise check;
        validating the same relations gives an equal family."""
        queries = itertools.chain(criterion_10_corpus(40), entail_shape_corpus(5, 40))
        families = [semantic_entails_oracle(sigma, phi).counterexample for sigma, phi in queries]
        families += [
            random_family_satisfying(sigma, random.Random(seed))
            for sigma in SAMPLER_PREMISES
            for seed in range(6)
        ]
        families = [f for f in families if f is not None]
        assert len(families) > 200
        for f in families:
            assert f == ContextualFamily(list(f.maximal_relations()))

    def test_sampler_leaves_no_cyclic_garbage(self):
        sigma, _ = chain_premises(4)
        gc.collect()
        gc.disable()
        try:
            family = random_family_satisfying(sigma, random.Random(0))
            assert family is not None
            del family
            assert gc.collect() == 0
        finally:
            gc.enable()
