"""The indexes that construction fills equal those the rows alone give.

``build_arguments`` and ``compute_attacks`` fill the indexes of what they
return from what they computed on the way: the positions, the rows by
conclusion, the parents and the natural count of an argument set, and the
attackers, targets and natural witnesses of an attack graph.  The
rows-only constructors, ``ArgumentSet(theory, ids, rows)`` and
``AttackGraph(arguments, rows, suppressed_rows, generalized)`` (which
copying and pickling use), derive each of them from the rows.  Both paths
must agree on the disjoint unions of small conflict theories, on the
goldens, and on seeded cyclic theories with superiority pairs, under
both readings.
"""

from __future__ import annotations

import re

import pytest

from deonarg import (ArgumentSet, AttackGraph, build_arguments, compute_attacks, parse_theory,
                     serialize_theory)
from deonarg.testkit import GeneratorParams, generate_theory

#: four small conflict theories of 12-14 arguments each
PARTS = {
    "A": "r1: => obl(a).\nr2: => obl(~a).\nr3: perm(a) => b.\nr4: perm(~a) => obl(c).\n",
    "B": "n1: => obl(a).\nn2: => obl(~a).\nn3: perm_w(a), perm_w(~a) => obl(c).\n"
    "n4: => obl(~c).\nn3 > n4.\n",
    "C": "fact f.\nr1: f => obl(a).\nr2: => obl(~a).\nr3: => perm(a).\nr4: perm(~a) => d.\n",
    "D": "r1: => a.\nr2: a => obl(b).\nr3: perm_w(~b) => d.\nr4: => perm(~b).\n"
    "r5: perm(~b) => e.\n",
}
_KEYWORDS = frozenset({"fact", "obl", "perm", "perm_w"})


def union(parts: str) -> str:
    """The parts joined, part i with ``p<i>_`` in front of its atoms and rule labels."""
    return "".join(
        re.sub(r"\b[A-Za-z_]\w*\b",
               lambda m: m.group(0) if m.group(0) in _KEYWORDS else f"p{i}_{m.group(0)}",
               PARTS[name])
        for i, name in enumerate(parts)
    )


_SET_INDEXES = ("_positions", "_by_conclusion", "_parents", "natural")
_GRAPH_INDEXES = ("_attackers", "_targets", "_witnesses")


def check(text: str) -> None:
    theory = parse_theory(text)
    arguments = build_arguments(theory)
    derived = ArgumentSet(theory, arguments.ids, arguments.rows)
    for name in _SET_INDEXES:
        assert getattr(arguments, name) == getattr(derived, name), (name, text)
    for generalized in (False, True):
        graph = compute_attacks(arguments, imaginary_subargument_attacks=generalized)
        rebuilt = AttackGraph(arguments, graph.rows, graph.suppressed_rows, generalized)
        for name in _GRAPH_INDEXES:
            assert getattr(graph, name) == getattr(rebuilt, name), (name, generalized, text)


@pytest.mark.parametrize("parts", ["AAB", "ABC", "ABCD", "DDDD"])
def test_the_fill_paths_agree_on_unions_of_conflict_parts(parts):
    text = union(parts)
    # a disjoint union: its arguments are those of its parts
    assert len(build_arguments(parse_theory(text))) == sum(
        len(build_arguments(parse_theory(PARTS[name]))) for name in parts)
    check(text)


def test_the_fill_paths_agree_on_the_goldens(goldens):
    for prepared in goldens.values():
        check(prepared.text)


def test_the_fill_paths_agree_on_cyclic_theories_with_superiority_pairs():
    suppressing = 0  # theories where superiority suppresses a record
    for seed in range(150):
        theory = generate_theory(GeneratorParams(
            seed=seed, atom_count=3, rule_count=7, acyclic=False, superiority_count=3))
        check(serialize_theory(theory))
        suppressing += bool(compute_attacks(build_arguments(theory)).suppressed_rows)
    assert suppressing
