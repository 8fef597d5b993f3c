"""Functional dependencies when tables only overlap, never join.

Classically, x -> y and y -> z force x -> z.  When the dependencies live
in separate overlapping tables that are merely locally consistent, that
transitivity fails — and a machine-checkable counterexample proves it.
What survives is a different pair of rules: cycles of dependencies can
be inverted, and transitivity returns when a wider context covers the
whole chain.  Derivations come with traces that replay step by step.

Run:  python3 demos/fd_entailment.py
"""

from itertools import permutations

from ctxfam import (
    FD,
    MonoidKind,
    RuleSet,
    build_counterexample,
    derives,
    format_trace,
    semantic_entails_oracle,
    serialize_family,
    verify_trace,
)

u = FD.unary
cd = FD.cd


def main() -> None:
    sigma = [u("x", "y"), u("y", "z"), cd(["x", "y"]), cd(["y", "z"]), cd(["x", "z"])]
    goal = u("x", "z")
    print("Premises:", ", ".join(str(f) for f in sigma))
    print("Goal:    ", goal)
    ok, _ = derives(sigma, goal, RuleSet.FULL)
    print("Derivable under the contextual rules?", ok)
    print()

    family = build_counterexample(sigma, goal, MonoidKind.N)
    print("A weighted family satisfying every premise but not the goal:")
    print(serialize_family(family))
    assert all(family.satisfies(premise) for premise in sigma)
    assert not family.satisfies(goal)

    verdict = semantic_entails_oracle(sigma, goal)
    print("Bounded semantic search agrees:",
          "entailed" if verdict.holds else "refuted",
          "(conclusive)" if verdict.conclusive else "(bounded only)")
    print()

    cycle = [u("x", "y"), u("y", "z"), u("z", "x")]
    print("Premises:", ", ".join(str(f) for f in cycle))
    ok, trace = derives(cycle, u("x", "z"))
    print("x -> z derivable?", ok, "— a cycle of dependencies inverts:")
    print(format_trace(trace))
    assert verify_trace(trace, cycle, u("x", "z"))
    print()

    chain = [u("x", "y"), u("y", "z"), cd(["x", "y", "z"])]
    print("Premises:", ", ".join(str(f) for f in chain))
    ok, trace = derives(chain, u("x", "z"), RuleSet.FULL)
    print("x -> z derivable?", ok, "— one ternary context covers the chain:")
    print(format_trace(trace))
    assert verify_trace(trace, chain, u("x", "z"))
    print()

    print("Everything derivable from the three-cycle premises:")
    for x, y in permutations("xyz", 2):
        if derives(cycle, u(x, y))[0]:
            print("  ", u(x, y))


if __name__ == "__main__":
    main()
