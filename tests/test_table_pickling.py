"""Argument sets pickle and copy as their row table.

Pickling hands over the theory, the ids and the rows, and the copy
rebuilds every index from them, so a tall set round-trips at table
cost instead of flattening each argument's tree on its own.
"""

from __future__ import annotations

import copy
import importlib.util
import pickle
from pathlib import Path

from deonarg import ArgumentSet, build_arguments, compute_attacks, parse_theory

_INDEXES = ("_ids", "_rows", "_positions", "_by_conclusion", "_parents", "_order")


def _ladder():
    path = Path(__file__).resolve().parents[1] / "scripts" / "ladder.py"
    spec = importlib.util.spec_from_file_location("ladder", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _twins(original):
    return pickle.loads(pickle.dumps(original)), copy.deepcopy(original), copy.copy(original)


def test_a_tall_set_and_its_graph_round_trip_equal():
    arguments = build_arguments(parse_theory(_ladder().chain(1000)))
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
        assert (twin._attackers, twin._targets, twin._at_witness) == (
            graph._attackers, graph._targets, graph._at_witness
        )


def test_a_set_listing_parents_before_children_round_trips_equal(goldens):
    for prepared in goldens.values():
        listed = ArgumentSet(prepared.theory, tuple(reversed(prepared.arguments.ordered)))
        for twin in _twins(listed):
            assert twin == listed
            assert twin.ordered == listed.ordered
            assert (twin._parents, twin._order) == (listed._parents, listed._order)
            assert twin._closures() == listed._closures()
        # the closures built children first equal the walks, in a set whose order is not
        assert [tuple(closure) for closure in listed._closures()] == [
            listed.sub_ids(identifier) for identifier in listed.ids
        ]
