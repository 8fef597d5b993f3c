"""The Bell scenario: quantum-style families and their possibilistic shadows.

Alice measures a0 or a1 and Bob b0 or b1, each with outcome 0 or 1.  The
four joint measurements are the contexts {a0 b0}, {a0 b1}, {a1 b0} and
{a1 b1}, which form a chordless 4-cycle.  This script runs three
textbook families through the global and realisability checks:

* the Popescu-Rohrlich box (Found. Phys. 1994), mixed with uniform
  noise: its CHSH value is 4p, and it is globally consistent exactly when
  p <= 1/2 (Fine, PRL 1982), while its support stays consistent;
* the PR box's support, whose support join is empty: strong
  contextuality (Abramsky and Brandenburger, NJP 2011);
* a Hardy-type table (Hardy, PRL 1993): some global assignments agree
  with every table, yet one supported row extends to none of them,
  which is logical contextuality; the support is still realisable;

and finishes with a noncontextual natural-valued model, a mixture of
deterministic global assignments, whose global witness is printed.

Run:  python3 demos/bell_scenarios.py
"""

from fractions import Fraction
from itertools import product

from ctxfam import (
    MonoidKind,
    build_opg,
    check_global_consistency,
    parse_family,
    realise,
    serialize_family,
    serialize_relation,
)

CONTEXTS = [("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1")]


def document(kind: str, tables) -> str:
    """A family document over the four contexts, one table of
    ``{"xy": weight}`` per context (weight None for B)."""
    lines = [f"monoid {kind}"]
    for (x, y), table in zip(CONTEXTS, tables):
        lines.append(f"context {x} {y}")
        for (u, v), weight in table.items():
            lines.append(f"{u} {v}" if weight is None else f"{u} {v} : {weight}")
    return "\n".join(lines) + "\n"


def noisy_pr_box(p: Fraction) -> str:
    """p * PR + (1 - p) * uniform: equal outcomes get (1 + p) / 4 in the
    first three contexts and unequal ones in {a1 b1}."""
    likely, unlikely = (1 + p) / 4, (1 - p) / 4
    equal = {"00": likely, "11": likely, "01": unlikely, "10": unlikely}
    unequal = {"00": unlikely, "11": unlikely, "01": likely, "10": likely}
    tables = [equal, equal, equal, unequal]
    return document("Q", [{xy: w for xy, w in t.items() if w} for t in tables])


def chsh(family) -> Fraction:
    """E(a0 b0) + E(a0 b1) + E(a1 b0) - E(a1 b1), where E is the weight of
    equal outcomes less that of unequal ones."""
    total = Fraction(0)
    for sign, context in zip((1, 1, 1, -1), CONTEXTS):
        for row, value in family.relation_at(context).rows():
            agree = row[context[0]] == row[context[1]]
            total += sign * (1 if agree else -1) * value.payload
    return total


def agreeing(tables):
    """The global assignments (a0, a1, b0, b1) whose outcomes in every
    context are a row of that context's table."""
    return [
        point
        for point in (dict(zip(("a0", "a1", "b0", "b1"), values)) for values in product("01", repeat=4))
        if all(point[x] + point[y] in table for (x, y), table in zip(CONTEXTS, tables))
    ]


HARDY = [("00", "01", "10", "11"), ("00", "01", "11"), ("00", "10", "11"), ("00", "01", "10")]

# Deterministic global assignments (a0, a1, b0, b1) and their weights.
MIXTURE = {("0", "0", "0", "0"): 2, ("0", "1", "1", "0"): 1, ("1", "1", "0", "1"): 3}


def mixture_document() -> str:
    tables = []
    for x, y in CONTEXTS:
        table = {}
        for values, weight in MIXTURE.items():
            point = dict(zip(("a0", "a1", "b0", "b1"), values))
            xy = point[x] + point[y]
            table[xy] = table.get(xy, 0) + weight
        tables.append(dict(sorted(table.items())))
    return document("N", tables)


def main() -> None:
    print("Contexts: {a0 b0}, {a0 b1}, {a1 b0}, {a1 b1}, a chordless 4-cycle.\n")

    print("The PR box mixed with uniform noise, p * PR + (1 - p) * uniform:")
    for p in (Fraction(1), Fraction(1, 2), Fraction(1, 2) + Fraction(1, 1000)):
        family = parse_family(noisy_pr_box(p))
        consistent = check_global_consistency(family) is not None
        print(f"p = {p}: CHSH value {chsh(family)}, globally consistent: {consistent}")
    support = parse_family(noisy_pr_box(Fraction(1, 2) + Fraction(1, 1000))).support()
    join = check_global_consistency(support)
    print(f"The noisy box's support is globally consistent with {len(join)} join rows:")
    print("possibilistically there is no contextuality left to see.\n")

    pr_support = parse_family(noisy_pr_box(Fraction(1))).support()
    tables = [[row[x] + row[y] for row in pr_support.relation_at((x, y)).support] for x, y in CONTEXTS]
    print("The PR box's own support:")
    print("  globally consistent:", check_global_consistency(pr_support) is not None)
    print(f"  {len(agreeing(tables))} of the 16 global assignments agree with every table:")
    print("  strong contextuality.\n")

    hardy = parse_family(document("B", [dict.fromkeys(t) for t in HARDY]))
    print("A Hardy-type table:")
    print(serialize_family(hardy))
    print("  globally consistent:", check_global_consistency(hardy) is not None)
    agree = agreeing(HARDY)
    stranded = [xy for xy in HARDY[0] if all(point["a0"] + point["b0"] != xy for point in agree)]
    print(f"  {len(agree)} of the 16 global assignments agree with every table,")
    rows = ", ".join(" ".join(xy) for xy in stranded)
    print(f"  but the row a0 b0 = {rows} extends to none of them: logical contextuality.")
    covered = not build_opg(hardy).uncovered_edges()
    for kind in (MonoidKind.N, MonoidKind.Q):
        print(f"  realisable over {kind}? {covered}")
    print("A natural-weighted realisation of that support:")
    print(serialize_family(realise(hardy, MonoidKind.N)))

    mixture = parse_family(mixture_document())
    witness = check_global_consistency(mixture)
    print("A noncontextual model: 2, 1 and 3 copies of three deterministic")
    print("global assignments, marginalised to the four contexts.")
    print("Its global witness:")
    print(serialize_relation(witness))


if __name__ == "__main__":
    main()
