"""The indexes that construction fills equal a scan of the rows.

``build_arguments`` and ``compute_attacks`` fill the indexes of what they
return from what they computed on the way, and each table's constructor
has no other caller: copies and pickles rerun construction.  Each index
must equal the scan of the rows written below: the positions, the rows by
conclusion, the parents and the natural count of an argument set, and the
attackers, targets and natural witnesses of an attack graph.  The check
runs on the disjoint unions of small conflict theories, on the goldens,
and on seeded cyclic theories with superiority pairs, under both
readings.
"""

from __future__ import annotations

import re

import pytest

from deonarg import build_arguments, compute_attacks, parse_theory, serialize_theory
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


def scan_set(arguments) -> dict:
    """The argument set's indexes, read off its ids and rows."""
    rows = arguments.rows
    by_conclusion, parents = {}, [[] for _ in rows]
    for n, (_, _, conclusion, children) in enumerate(rows):
        by_conclusion.setdefault(conclusion, []).append(n)
        for child in children:
            parents[child].append(n)
    natural = sum(kind != "imaginary" for kind, _, _, _ in rows)
    # the natural rows, each after its natural children, then the imaginary rows as one block
    assert all(kind == "imaginary" for kind, _, _, _ in rows[natural:])
    assert all(child < n or child >= natural for n, row in enumerate(rows[:natural])
               for child in row[3])
    return {
        "_positions": {identifier: n for n, identifier in enumerate(arguments.ids)},
        "_by_conclusion": by_conclusion,
        "_parents": tuple([found or () for found in parents]),  # () where a row has none
        "natural": natural,
    }


def scan_graph(graph) -> dict:
    """The graph's adjacency index, read off its surviving rows."""
    arguments = graph.arguments
    attackers, targets, witnesses = ([set() for _ in arguments.rows] for _ in range(3))
    for a, t, _, w in graph.rows:
        attackers[t].add(a)
        targets[a].add(t)
        if arguments.rows[w][0] != "imaginary":
            witnesses[a].add(w)
    return {name: tuple(tuple(sorted(found)) for found in scan) for name, scan in
            (("_attackers", attackers), ("_targets", targets), ("_witnesses", witnesses))}


def check(text: str) -> None:
    arguments = build_arguments(parse_theory(text))
    for name, index in scan_set(arguments).items():
        assert getattr(arguments, name) == index, (name, text)
    for generalized in (False, True):
        graph = compute_attacks(arguments, imaginary_subargument_attacks=generalized)
        for name, index in scan_graph(graph).items():
            assert getattr(graph, name) == index, (name, generalized, text)


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
