"""The attack relation between arguments.

Four attack conditions, each annotated on the edge together with the witness
subargument of the target that carries the conflict:

1. the target is an imaginary weak-permission argument for ``l`` and the
   attacker concludes ``obl(~l)``;
2. some subargument of the target concludes a plain literal ``l`` and the
   attacker concludes ``~l``;
3. some subargument of the target concludes ``obl(l)`` or ``perm(l)`` and
   the attacker concludes ``obl(~l)``;
4. some subargument of the target concludes ``obl(l)`` and the attacker
   concludes ``perm(~l)``.

Permissions never clash with permissions, and plain conclusions never clash
with deontic ones.  By default condition 1 targets only the imaginary
argument itself; the generalized reading (``imaginary_subargument_attacks``)
also lifts it to natural arguments containing the imaginary premise.

An edge record is suppressed when the witness's top rule is declared
superior to the attacker's top rule.  A pair survives while any of its
witness records survives; condition-1 records are never suppressed.

The clashes of an attacker depend only on its conclusion, and suppression
only on its top rule and the witness's, so one pass over the argument
table, on positions, makes the records.  Clashing conclusions share an
atom, so they are found by atom and a form-and-polarity code in a fixed
table.  The concluders of a conclusion share their hits, the
``(condition, witness)`` pairs they clash at, save those that an inferior
top rule loses (by lookups, made once a call, of the rows with one and of
its superiors).  Each group of hits becomes one block of records, split
into target, condition and witness columns in one pass, in that order,
that every concluder in it takes as its rows: the rows come out sorted,
attacker by attacker, with no sort over all of them.
"""

from __future__ import annotations

import bisect
from functools import partial
from itertools import repeat
from typing import Iterable, Sequence

from .arguments import ArgumentId, ArgumentSet
from .model import DeonticOperator, Literal, Record, Theory

# ---------------------------------------------------------------------------
# edge records
# ---------------------------------------------------------------------------


#: one record as argument positions: ``(attacker, target, condition, witness)``
Row = tuple[int, int, int, int]


class AttackGraph(Record):
    """All attack records over an argument set, split by suppression.

    The records are kept as position rows, sorted: ``rows`` the surviving
    ones and ``suppressed_rows`` those removed by superiority.  ``edges``
    and ``suppressed`` decode them to id tuples when called.  The
    graph's only adjacency index, the distinct attackers and targets of
    each argument and the natural witnesses each attacker attacks at
    (which undercut reads), as position tuples in position order, is
    filled once, with no (attacker, target) tuple, from the groups of
    attackers with the same surviving targets and witnesses that
    ``compute_attacks``, the constructor's one caller, made.  The indexes
    take no part in equality or ``repr``; a copy or a pickle holds the
    argument set and the reading and reruns ``compute_attacks``.
    """

    _fields = ("arguments", "rows", "suppressed_rows", "generalized")
    __slots__ = (*_fields, "_attackers", "_targets", "_witnesses")

    def __init__(self, arguments: ArgumentSet, rows: tuple[Row, ...],
                 suppressed_rows: tuple[Row, ...], generalized: bool,
                 groups: Iterable[tuple[tuple[Sequence[int], Sequence[int]], list[int]]]) -> None:
        targets, attackers, witnessed = ([()] * len(arguments) for _ in range(3))
        natural = arguments.natural
        for (found, witnesses), members in groups:
            reach, members, hit = tuple(dict.fromkeys(found)), tuple(members), sorted({*witnesses})
            hit = tuple(hit[: bisect.bisect_left(hit, natural)])  # the natural ones
            for a in members:
                targets[a], witnessed[a] = reach, hit
            for k in reach:  # merge the sorted run of attackers into the one held
                held = attackers[k]
                attackers[k] = (held + members if not held or held[-1] < members[0]
                                else tuple(sorted(held + members)))
        values = (arguments, rows, suppressed_rows, generalized,
                  tuple(attackers), tuple(targets), tuple(witnessed))
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __reduce__(self) -> tuple:
        rerun = partial(compute_attacks, imaginary_subargument_attacks=self.generalized)
        return rerun, (self.arguments,)

    def _records(self, rows: Iterable[Row]) -> tuple[tuple, ...]:
        ids = self.arguments.ids
        return tuple([(ids[a], ids[t], c, ids[w]) for a, t, c, w in rows])

    @property
    def edges(self) -> tuple[tuple, ...]:
        """The rows as ``(attacker, target, condition, witness)`` ids, in id order.

        Only perfbench's traced counters read it.
        """
        return self._records(self.rows)

    @property
    def suppressed(self) -> tuple[tuple, ...]:
        """The suppressed rows, decoded as ``edges``; only perfbench's traced counters read it."""
        return self._records(self.suppressed_rows)

    @property
    def pairs(self) -> frozenset[tuple[ArgumentId, ArgumentId]]:
        ids = self.arguments.ids
        return frozenset([(ids[a], ids[t]) for a, found in enumerate(self._targets) for t in found])


# ---------------------------------------------------------------------------
# computation
# ---------------------------------------------------------------------------


#: a conclusion's code is 2 * form + (1 if negative), form 0 for a plain literal, else this
_FORMS = {operator: 1 + operator.rank for operator in DeonticOperator}  # obl 1, perm 2, perm_w 3
#: an attacker's code -> ``(condition, code)`` of each witness conclusion it clashes with
_HITS = (
    ((2, 1),), ((2, 0),),  # l: ~l
    ((1, 7), (3, 3), (3, 5)), ((1, 6), (3, 2), (3, 4)),  # obl(l): perm_w(~l), obl(~l), perm(~l)
    ((4, 3),), ((4, 2),),  # perm(l): obl(~l)
    (), (),  # perm_w(l): the imaginary arguments attack nothing
)


def compute_attacks(
    arguments: ArgumentSet,
    theory: Theory | None = None,
    *,
    imaginary_subargument_attacks: bool = False,
) -> AttackGraph:
    """Compute every attack record, split by the superiority of ``arguments.theory``."""
    if theory is not None and theory is not arguments.theory and theory != arguments.theory:
        raise ValueError("the theory is not the one the arguments were built from")
    narrow, parents, supers = not imaginary_subargument_attacks, arguments._parents, {}

    def block(hits: list[tuple[int, int]]) -> tuple:
        """The hits' records as sorted columns: targets, conditions and witnesses.  A hit's
        targets are its witness and, unless narrow, every argument above it, walked once."""
        records = [(t, c, w) for c, w in hits for t in (
            (w,) if c == 1 and narrow or not parents[w] else supers.get(w)
            or supers.setdefault(w, tuple(sorted(arguments._walk(w, True, set())))))]
        records.sort()
        columns: tuple[list[int], list[int], list[int]] = ([], [], [])
        found, conditions, witnesses = columns  # one pass, no object per record
        for t, c, w in records:
            found.append(t)
            conditions.append(c)
            witnesses.append(w)
        return columns

    # one pass (see the module docstring), on positions, by atom and code
    by_atom: dict[str, dict[int, list[int]]] = {}
    for conclusion, concluders in arguments._by_conclusion.items():
        literal, form = conclusion, 0
        if conclusion.__class__ is not Literal:
            literal, form = conclusion.literal, _FORMS[conclusion.operator]
        by_atom.setdefault(literal.atom, {})[2 * form + (not literal.positive)] = concluders
    superiors: dict[str, set[str]] = {}  # inferior label -> the labels superior to it
    for superior, inferior in arguments.theory.superiority:
        superiors.setdefault(inferior, set()).add(superior)
    # the rows whose top rule is inferior, with its label, and each row's top rule label
    labels = [getattr(row[1], "label", None) for row in arguments.rows] if superiors else ()
    inferior = {a: label for a, label in enumerate(labels) if label in superiors}
    rows_of: dict[int, tuple] = {}  # attacker -> the columns of its kept and its lost records
    groups = []  # the kept records' targets and witnesses, with their attackers
    for group in by_atom.values():
        for code, concluders in group.items():
            found = _HITS[code] and [(condition, w) for condition, clashing in _HITS[code]
                                     if clashing in group for w in group[clashing]]
            if not found:  # perm_w builds no list: imaginary arguments attack nothing
                continue
            by_label = {None: concluders}
            if inferior and not inferior.keys().isdisjoint(concluders):
                by_label = {}  # an inferior top rule loses the hits at its superiors' derivations
                for a in concluders:
                    by_label.setdefault(inferior.get(a), []).append(a)
            for label, members in by_label.items():
                lost = label and [(c, w) for c, w in found if labels[w] in superiors[label]]
                columns = block([hit for hit in found if hit not in lost] if lost else found)
                records = columns, block(lost) if lost else None
                for a in members:
                    rows_of[a] = records
                groups.append(((columns[0], columns[2]), members))

    surviving, suppressed = [], []
    for a in sorted(rows_of):  # each attacker's records are one block, in order
        kept, lost = rows_of[a]
        surviving += zip(repeat(a), *kept)
        if lost:
            suppressed += zip(repeat(a), *lost)
    return AttackGraph(arguments, tuple(surviving), tuple(suppressed), not narrow, groups)
