"""Argument sets pickle and copy as their row table.

Pickling hands over the set's fields, the theory, the ids and the rows,
and the copy's constructor rebuilds every index from them, so a tall set
round-trips at table cost instead of flattening each argument's tree on
its own.
"""

from __future__ import annotations

import copy
import pickle

from deonarg import ArgumentSet, build_arguments, compute_attacks, parse_theory

_INDEXES = ("ids", "rows", "_positions", "_by_conclusion", "_parents", "natural")


def _twins(original):
    return pickle.loads(pickle.dumps(original)), copy.deepcopy(original), copy.copy(original)


def test_a_tall_set_and_its_graph_round_trip_equal(ladder):
    arguments = build_arguments(parse_theory(ladder.chain(1000)))
    graph = compute_attacks(arguments)
    top = arguments.natural_ids()[-1]
    for twin in _twins(arguments):
        assert twin == arguments and twin is not arguments
        assert [getattr(twin, name) for name in _INDEXES] == [
            getattr(arguments, name) for name in _INDEXES
        ]
        assert twin.argument(top) == arguments.argument(top)
    for twin in _twins(graph):
        assert twin == graph and twin is not graph
        assert (twin._attackers, twin._targets, twin._witnesses) == (
            graph._attackers, graph._targets, graph._witnesses
        )


def test_a_set_rebuilt_from_its_rows_round_trips_equal(goldens):
    for prepared in goldens.values():
        arguments = prepared.arguments
        rebuilt = ArgumentSet(prepared.theory, arguments.ids, arguments.rows)
        assert rebuilt == arguments and rebuilt.ordered == arguments.ordered
        assert (rebuilt._parents, rebuilt.natural) == (arguments._parents, arguments.natural)
        assert rebuilt._closures() == arguments._closures()
        for twin in _twins(rebuilt):
            assert twin == rebuilt
            assert twin.ordered == rebuilt.ordered
            assert (twin._parents, twin.natural) == (rebuilt._parents, rebuilt.natural)
            assert twin._closures() == rebuilt._closures()
        # the closures built children first equal the walks
        assert [tuple(closure) for closure in rebuilt._closures()] == [
            rebuilt.sub_ids(identifier) for identifier in rebuilt.ids
        ]
