"""The independent checker accepts correct witnesses and rejects each of
them once a single weight is changed.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_checker.py
"""

import pytest

import checker
from checker import CheckError

# A B-support on the triangle x-y, y-z, z-x with two disjoint cycles.
SUPPORT = """monoid B
context x y
0 0
1 1
context y z
0 0
1 1
context x z
0 0
1 1
"""
# A realisation of SUPPORT in N: cycle 0 with weight 2, cycle 1 with weight 3.
REALISED = """monoid N
context x y
0 0 : 2
1 1 : 3
context y z
0 0 : 2
1 1 : 3
context x z
0 0 : 2
1 1 : 3
"""
GLOBAL = """monoid N
context x y z
0 0 0 : 2
1 1 1 : 3
"""
DECOMPOSITION = """cycle 1 weight 2
context x y
0 0
context y z
0 0
context x z
0 0
cycle 2 weight 3
context x y
1 1
context y z
1 1
context x z
1 1
"""


def change_one_weight(text: str, old: str, new: str) -> str:
    assert text.count(old) >= 1
    return text.replace(old, new, 1)


def test_realisation():
    given = checker.parse_family(SUPPORT)[1]
    checker.check_realisation(REALISED, given, "N")
    with pytest.raises(CheckError):
        checker.check_realisation(change_one_weight(REALISED, "0 0 : 2", "0 0 : 5"), given, "N")


def test_global_witness():
    given = checker.parse_family(REALISED)[1]
    checker.check_global_witness(GLOBAL, "N", given)
    with pytest.raises(CheckError):
        checker.check_global_witness(change_one_weight(GLOBAL, "1 1 1 : 3", "1 1 1 : 4"),
                                     "N", given)


def test_decomposition():
    given = checker.parse_family(REALISED)[1]
    checker.check_decomposition(checker.parse_decomposition(DECOMPOSITION), given)
    broken = change_one_weight(DECOMPOSITION, "weight 3", "weight 1")
    with pytest.raises(CheckError):
        checker.check_decomposition(checker.parse_decomposition(broken), given)


def test_counterexample():
    premises = checker.parse_dependencies("x -> y\ncd x y\ncd y z\ncd x z\n")
    goal = checker.parse_dependency("x -> z")
    family = """monoid N
context x y
0 0 : 2
1 1 : 2
context y z
0 0 : 1
0 1 : 1
1 0 : 1
1 1 : 1
context x z
0 0 : 1
0 1 : 1
1 0 : 1
1 1 : 1
"""
    checker.check_counterexample(family, premises, goal, "N")
    with pytest.raises(CheckError):
        checker.check_counterexample(change_one_weight(family, "1 1 : 2", "1 1 : 3"),
                                     premises, goal, "N")
