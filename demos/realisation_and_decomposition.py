"""Realisability beyond simple cycles, and taking realisations apart.

When the contexts do not form one chordless cycle, realisability is an
exact rational feasibility question: one unknown per supported row, at
least one each, marginals forced to agree on every overlap.  This script
shows a five-context family that is infeasible even though both of its
triangle restrictions are feasible, then decomposes a weighted
realisation into positively weighted simple cycles and rebuilds it.

Run:  python3 demos/realisation_and_decomposition.py
"""

from ctxfam import (
    ContextualFamily,
    KRelation,
    MonoidKind,
    MonoidValue,
    NotRealisableError,
    build_opg,
    decompose_cycles,
    parse_family,
    realisable_lp,
    realise,
    serialize_decomposition,
    serialize_family,
)

FIVE_CONTEXTS = """\
monoid B
context a b
0 0
1 1
context b c
0 0
0 1
1 1
context c a
0 1
1 0
context a d
0 0
1 1
context d c
0 0
1 1
"""

EXTENDED_TIMETABLE = """\
monoid B
context Student Teacher
Alice Charlie
Bob David
context Teacher Course
Charlie Math
David CS
context Course Student
Math Alice
Math Bob
CS Alice
CS Bob
"""


def feasible(family: ContextualFamily) -> bool:
    """Whether the support of ``family`` has a rational realisation."""
    try:
        realisable_lp(family, MonoidKind.Q)
    except NotRealisableError:
        return False
    return True


def lift(weight: MonoidValue, sub: ContextualFamily) -> ContextualFamily:
    """The cycle ``sub`` with each of its rows annotated ``weight``."""
    return ContextualFamily(
        [KRelation.from_assignments(r.variables, weight.kind, dict.fromkeys(r.support, weight))
         for r in sub.maximal_relations()]
    )


def main() -> None:
    family = parse_family(FIVE_CONTEXTS)
    print("Five overlapping binary contexts (two triangles glued on c-a):")
    print(serialize_family(family))

    print("Feasibility of the whole family over Q:")
    print("  ->", "feasible" if feasible(family) else "infeasible")
    print()

    print("Yet each triangle on its own is fine, and for triangles the")
    print("rational feasibility test agrees with the graph test (every")
    print("edge on a cycle):")
    for names in ((("a", "b"), ("b", "c"), ("c", "a")),
                  (("a", "d"), ("d", "c"), ("c", "a"))):
        restriction = ContextualFamily(
            [family.relation_at(frozenset(pair)) for pair in names]
        )
        covered = not build_opg(restriction).uncovered_edges()
        label = " ".join("".join(sorted(p)) for p in names)
        print(f"  triangle {label}: feasible={feasible(restriction)}, edges covered={covered}")
    print()

    print("Obstructions are therefore not local to any triangle: the two")
    print("triangles impose incompatible masses along the shared contexts.")
    print()

    extended = parse_family(EXTENDED_TIMETABLE)
    weighted = realise(extended, MonoidKind.Q)
    print("A rational realisation of the extended timetable:")
    print(serialize_family(weighted))

    parts = decompose_cycles(weighted)
    print(f"It decomposes into {len(parts)} positively weighted simple cycles:")
    print(serialize_decomposition(parts))

    total = lift(*parts[0])
    for weight, sub in parts[1:]:
        total = total + lift(weight, sub)
    print("Summing the weighted cycles rebuilds the realisation exactly:",
          total == weighted)


if __name__ == "__main__":
    main()
