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

The attackers at a witness depend only on its conclusion, and suppression
only on the witness and the attacker, so the records are enumerated
witness-first, on the positions of the argument table: once per
conclusion, once per (witness, attacker) pair, then one record for every
argument containing the witness.  Clashing conclusions share an atom, so
they are found by atom and a form-and-polarity code in a fixed table.

A record is kept as a row of argument positions, ``(attacker, target,
condition, witness)``, and the graph holds the rows sorted, which is
(attacker, target) id order.  Its indexes are built once from the rows,
by position; ``Attack`` records, with ids, are made only when ``edges``,
``suppressed`` or ``records_between`` is called.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from .arguments import ArgumentId, ArgumentSet
from .model import Literal, Record, Theory

# ---------------------------------------------------------------------------
# edge records
# ---------------------------------------------------------------------------


class Attack(Record):
    """One witnessed attack record; a pair of arguments may carry several.

    ``condition`` is 1..4; ``witness`` is the subargument of the target
    carrying the conflict.
    """

    __slots__ = _fields = ("attacker", "target", "condition", "witness")


#: one record as argument positions: ``(attacker, target, condition, witness)``
Row = tuple[int, int, int, int]


class AttackGraph(Record):
    """All attack records over an argument set, split by suppression.

    The records are kept as position rows, sorted: ``rows`` the surviving
    ones and ``suppressed_rows`` those removed by superiority.  ``edges``,
    ``suppressed`` and ``records_between`` turn them into ``Attack``
    records when called.  The graph's only adjacency index is built once,
    when it is constructed, from the surviving rows: the distinct attackers
    and targets of each argument and the attackers at each witness, as
    position tuples in position order.  The semantics, wp and the id-keyed
    views read these tuples, the views decoding positions when called.
    The indexes take no part in equality or ``repr``.
    """

    _fields = ("arguments", "rows", "suppressed_rows", "generalized")
    __slots__ = (*_fields, "_attackers", "_targets", "_at_witness")

    def __init__(
        self,
        arguments: ArgumentSet,
        rows: tuple[Row, ...],
        suppressed_rows: tuple[Row, ...],
        generalized: bool = False,
    ) -> None:
        size = len(arguments)
        # the rows are sorted, so the distinct pairs, in first-seen order,
        # leave every attacker and target list in position (id) order
        attackers: dict[int, list[int]] = {}
        targets: dict[int, list[int]] = {}
        for a, t in dict.fromkeys([(a, t) for a, t, _, _ in rows]):
            attackers.setdefault(t, []).append(a)
            targets.setdefault(a, []).append(t)
        # a witness is among the arguments containing it, so each attacker
        # at a witness has the record targeting the witness itself
        at_witness: dict[int, list[int]] = {}
        for a, t, _, w in rows:
            if t == w:
                at_witness.setdefault(w, []).append(a)

        def by_position(found: dict[int, list[int]]) -> tuple[tuple[int, ...], ...]:
            out: list[tuple[int, ...]] = [()] * size
            for k, js in found.items():
                out[k] = tuple(js)
            return tuple(out)

        values = (arguments, rows, suppressed_rows, generalized,
                  by_position(attackers), by_position(targets), by_position(at_witness))
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _records(self, rows: Iterable[Row]) -> tuple[Attack, ...]:
        ids = self.arguments.ids
        return tuple([Attack(ids[a], ids[t], c, ids[w]) for a, t, c, w in rows])

    @property
    def edges(self) -> tuple[Attack, ...]:
        """Surviving records, in (attacker, target) id order."""
        return self._records(self.rows)

    @property
    def suppressed(self) -> tuple[Attack, ...]:
        """Records removed by superiority, in (attacker, target) id order."""
        return self._records(self.suppressed_rows)

    @property
    def pairs(self) -> frozenset[tuple[ArgumentId, ArgumentId]]:
        ids = self.arguments.ids
        return frozenset([(ids[a], ids[t]) for a, found in enumerate(self._targets) for t in found])

    def _decoded(self, index: tuple[tuple[int, ...], ...], identifier: ArgumentId) -> tuple:
        n = self.arguments._positions.get(identifier)
        return () if n is None else self.arguments._decode(index[n])

    def attackers_of(self, target: ArgumentId) -> tuple[ArgumentId, ...]:
        """Distinct attackers of the target, in id order (post-suppression)."""
        return self._decoded(self._attackers, target)

    def targets_of(self, attacker: ArgumentId) -> tuple[ArgumentId, ...]:
        return self._decoded(self._targets, attacker)

    def records_between(self, attacker: ArgumentId, target: ArgumentId) -> tuple[Attack, ...]:
        """The surviving records of one pair, found by bisecting the sorted rows."""
        a = self.arguments._positions.get(attacker)
        t = self.arguments._positions.get(target)
        if a is None or t is None:
            return ()
        rows = self.rows
        return self._records(rows[bisect.bisect(rows, (a, t)) : bisect.bisect(rows, (a, t + 1))])

    def attackers_at(self, witness: ArgumentId) -> tuple[ArgumentId, ...]:
        """Distinct attackers of the records witnessed at the given argument."""
        return self._decoded(self._at_witness, witness)


# ---------------------------------------------------------------------------
# computation
# ---------------------------------------------------------------------------


#: code -> ``(condition, code)`` of its clashing conclusions; a code is 2 * form
#: + (1 if negative), form 0 for a plain literal, else 1 + rank (obl 1, perm 2, perm_w 3)
_CLASHES = (
    ((2, 1),), ((2, 0),),  # l: ~l
    ((3, 3), (4, 5)), ((3, 2), (4, 4)),  # obl(l): obl(~l), perm(~l)
    ((3, 3),), ((3, 2),),  # perm(l): obl(~l)
    ((1, 3),), ((1, 2),),  # perm_w(l), the imaginary arguments': obl(~l)
)


def compute_attacks(
    arguments: ArgumentSet,
    theory: Theory | None = None,
    *,
    imaginary_subargument_attacks: bool = False,
) -> AttackGraph:
    """Compute every attack record, then apply the superiority of ``arguments.theory``."""
    if theory is not None and theory is not arguments.theory and theory != arguments.theory:
        raise ValueError("the theory is not the one the arguments were built from")
    theory = arguments.theory

    # witness-first (see the module docstring), on positions, by atom and code
    by_atom: dict[str, dict[int, list[int]]] = {}
    for conclusion, witnesses in arguments._by_conclusion.items():
        literal, form = conclusion, 0
        if conclusion.__class__ is not Literal:
            literal, form = conclusion.literal, 1 + conclusion.operator.rank
        by_atom.setdefault(literal.atom.name, {})[2 * form + (not literal.positive)] = witnesses
    supers = arguments._supers
    top_rule = [None if rule is None else rule.label for _, rule, _, _ in arguments._rows]
    surviving: list[Row] = []
    suppressed: list[Row] = []
    for group in by_atom.values():
        for code, witnesses in group.items():
            clashes = [
                (condition, group[clashing])
                for condition, clashing in _CLASHES[code]
                if clashing in group
            ]
            if not clashes:
                continue
            narrow = clashes[0][0] == 1 and not imaginary_subargument_attacks
            for w in witnesses:
                targets = (w,) if narrow else supers[w]
                for condition, attackers in clashes:
                    for a in attackers:
                        out = surviving
                        if condition != 1 and theory.is_superior(top_rule[w], top_rule[a]):
                            out = suppressed
                        out.extend([(a, t, condition, w) for t in targets])

    return AttackGraph(
        arguments,
        tuple(sorted(surviving)),
        tuple(sorted(suppressed)),
        generalized=imaginary_subargument_attacks,
    )
