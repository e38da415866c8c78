"""Argument sets and attack graphs pickle and copy as a rerun of their construction.

A set's pickle holds its theory, and loading it reruns ``build_arguments``;
a graph's holds its set and its reading, and loading it reruns
``compute_attacks``.  So a tall set round-trips at construction cost
instead of flattening each argument's tree on its own, and every index is
the one construction fills.
"""

from __future__ import annotations

import copy
import pickle

from deonarg import build_arguments, compute_attacks, parse_theory

_INDEXES = ("ids", "rows", "_positions", "_by_conclusion", "_parents", "natural")
_GRAPH_INDEXES = ("rows", "suppressed_rows", "generalized", "_attackers", "_targets", "_witnesses")


def _twins(original):
    return pickle.loads(pickle.dumps(original)), copy.deepcopy(original), copy.copy(original)


def test_a_tall_set_and_its_graph_round_trip_equal(ladder):
    arguments = build_arguments(parse_theory(ladder.chain(1000)))
    top = arguments.natural_ids()[-1]
    for twin in _twins(arguments):
        assert twin == arguments and twin is not arguments
        assert [getattr(twin, name) for name in _INDEXES] == [
            getattr(arguments, name) for name in _INDEXES
        ]
        assert twin.argument(top) == arguments.argument(top)
    for generalized in (False, True):
        graph = compute_attacks(arguments, imaginary_subargument_attacks=generalized)
        for twin in _twins(graph):
            assert twin == graph and twin is not graph
            assert [getattr(twin, name) for name in _GRAPH_INDEXES] == [
                getattr(graph, name) for name in _GRAPH_INDEXES
            ]


def test_a_generalized_graph_round_trips_with_its_reading():
    # the imaginary premise of r2 lifts r1's condition-1 attack to r2's and r3's arguments
    theory = parse_theory("r1: => obl(a).\nr2: perm_w(~a) => b.\nr3: b => obl(c).\n")
    arguments = build_arguments(theory)
    narrow = compute_attacks(arguments)
    graph = compute_attacks(arguments, imaginary_subargument_attacks=True)
    assert graph.generalized and len(graph.rows) > len(narrow.rows)
    for twin in _twins(graph):
        assert twin == graph and twin != narrow
        assert twin.generalized is True and twin.rows == graph.rows
        assert twin.pairs == graph.pairs


def test_a_built_set_round_trips_equal(goldens):
    for prepared in goldens.values():
        arguments = prepared.arguments
        for twin in _twins(arguments):
            assert twin == arguments
            assert twin.ordered == arguments.ordered
            assert (twin._parents, twin.natural) == (arguments._parents, arguments.natural)
            assert twin._closures() == arguments._closures()
        # the closures built children first equal the walks
        assert [tuple(closure) for closure in arguments._closures()] == [
            arguments.sub_ids(identifier) for identifier in arguments.ids
        ]
