"""A walkthrough of local vs. global consistency on a small timetable.

Three two-column tables describe who teaches whom, who teaches what, and
which course each student takes.  Every pair of tables agrees on its
shared column, yet no single three-column table projects onto all three:
the family is locally consistent but globally inconsistent.  The overlap
projection graph pins the obstruction to one specific row, and adding a
single row repairs it.

Run:  python3 demos/teachers_courses.py
"""

from ctxfam import (
    MonoidKind,
    build_opg,
    check_global_consistency,
    parse_family,
    realise,
    serialize_family,
)

TIMETABLE = """\
monoid B
context Student Teacher
Alice Charlie
Bob David
context Teacher Course
Charlie Math
David CS
context Course Student
Math Alice
CS Alice
CS Bob
"""


def main() -> None:
    family = parse_family(TIMETABLE)
    print("The timetable, one table per context:")
    print(serialize_family(family))

    print("Constructing the family already checked every pairwise overlap,")
    print("so the three tables are locally consistent.\n")

    witness = check_global_consistency(family)
    print("Is there one three-column table behind them?")
    print("  ->", "yes" if witness is not None else "no: globally inconsistent")
    print()

    graph = build_opg(family)
    print(
        f"The overlap projection graph has {len(graph.vertices)} vertices "
        f"and {len(graph.edges)} edges; rows become edges between the"
    )
    print("boundary values of consecutive contexts around the cycle.")
    uncovered = graph.uncovered_edges()
    print(f"Edges lying on no cycle ({len(uncovered)}):")
    for edge in uncovered:
        print("   ", edge.describe())
    print()
    print("That one row — Alice taking CS — can never appear in any")
    print("weighted realisation, for natural or rational weights:")
    for kind in (MonoidKind.N, MonoidKind.Q):
        print(f"  realisable over {kind}? {not uncovered}")
    print()

    extended = parse_family(TIMETABLE.replace("Math Alice\n", "Math Alice\nMath Bob\n"))
    print("Add the single row (Math, Bob) and every edge joins a cycle:")
    covered = not build_opg(extended).uncovered_edges()
    for kind in (MonoidKind.N, MonoidKind.Q):
        print(f"  realisable over {kind}? {covered}")
    print()

    weighted = realise(extended, MonoidKind.N)
    print("A natural-weighted realisation (each context marginal-consistent,")
    print("support exactly the extended timetable):")
    print(serialize_family(weighted))
    assert weighted.support() == extended

    print("Interestingly, the extended family still has no single Boolean")
    print("table behind it — weighted and possibilistic global views differ:")
    print("  Boolean global table exists?", check_global_consistency(extended) is not None)


if __name__ == "__main__":
    main()
