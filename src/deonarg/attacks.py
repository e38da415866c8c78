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
witness-first: once per conclusion, once per (witness, attacker) pair, then
one record for every argument containing the witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .arguments import ArgumentId, ArgumentSet
from .model import Conclusion, DeonticOperator, Literal, Theory, obl, perm

# ---------------------------------------------------------------------------
# edge records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Attack:
    """One witnessed attack record; a pair of arguments may carry several."""

    attacker: ArgumentId
    target: ArgumentId
    condition: int  # 1..4
    witness: ArgumentId  # subargument of the target carrying the conflict


_pair = attrgetter("attacker", "target")
_witness_and_attacker = attrgetter("witness", "attacker")


@dataclass(frozen=True)
class AttackGraph:
    """All attack records over an argument set, split by suppression.

    Every lookup index over the surviving records is built once, when the
    graph is constructed.
    """

    arguments: ArgumentSet
    edges: tuple[Attack, ...]  # surviving records, in (attacker, target) id order
    suppressed: tuple[Attack, ...]  # removed by superiority
    generalized: bool = False
    _pairs: frozenset[tuple[ArgumentId, ArgumentId]] = field(init=False, repr=False, compare=False)
    _attacker_index: dict[ArgumentId, tuple[ArgumentId, ...]] = field(
        init=False, repr=False, compare=False
    )
    _target_index: dict[ArgumentId, tuple[ArgumentId, ...]] = field(
        init=False, repr=False, compare=False
    )
    _witness_index: dict[ArgumentId, tuple[ArgumentId, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # the edges come in (attacker, target) id order, so the distinct pairs,
        # in first-seen order, leave every attacker and target list in id order
        pairs = dict.fromkeys(map(_pair, self.edges))
        by_witness: dict[ArgumentId, list[ArgumentId]] = {}
        for witness, attacker in dict.fromkeys(map(_witness_and_attacker, self.edges)):
            by_witness.setdefault(witness, []).append(attacker)
        attackers: dict[ArgumentId, list[ArgumentId]] = {}
        targets: dict[ArgumentId, list[ArgumentId]] = {}
        for attacker, target in pairs:
            attackers.setdefault(target, []).append(attacker)
            targets.setdefault(attacker, []).append(target)
        object.__setattr__(self, "_pairs", frozenset(pairs))
        object.__setattr__(self, "_attacker_index", {k: tuple(v) for k, v in attackers.items()})
        object.__setattr__(self, "_target_index", {k: tuple(v) for k, v in targets.items()})
        object.__setattr__(self, "_witness_index", {k: tuple(v) for k, v in by_witness.items()})

    @property
    def pairs(self) -> frozenset[tuple[ArgumentId, ArgumentId]]:
        return self._pairs

    def attackers_of(self, target: ArgumentId) -> tuple[ArgumentId, ...]:
        """Distinct attackers of the target, in id order (post-suppression)."""
        return self._attacker_index.get(target, ())

    def targets_of(self, attacker: ArgumentId) -> tuple[ArgumentId, ...]:
        return self._target_index.get(attacker, ())

    def records_between(self, attacker: ArgumentId, target: ArgumentId) -> tuple[Attack, ...]:
        """The surviving records of one pair, by a scan of the edges."""
        return tuple(edge for edge in self.edges if _pair(edge) == (attacker, target))

    def attackers_at(self, witness: ArgumentId) -> tuple[ArgumentId, ...]:
        """Distinct attackers of the records witnessed at the given argument."""
        return self._witness_index.get(witness, ())


# ---------------------------------------------------------------------------
# computation
# ---------------------------------------------------------------------------


def compute_attacks(
    arguments: ArgumentSet,
    theory: Theory | None = None,
    *,
    imaginary_subargument_attacks: bool = False,
) -> AttackGraph:
    """Compute every attack record, then apply superiority suppression."""
    if theory is None:
        theory = arguments.theory

    # witness-first (see the module docstring), in positions until the sort
    ids = arguments.ids
    position = arguments._positions
    top_rule = {identifier: argument.top_rule for identifier, argument in arguments}
    surviving: list[tuple[int, int, int, int]] = []
    suppressed: list[tuple[int, int, int, int]] = []
    for conclusion, witness_ids in arguments._by_conclusion.items():
        clashes = [(c, found) for c, found in _clashing_concluders(arguments, conclusion) if found]
        if not clashes:
            continue
        narrow = clashes[0][0] == 1 and not imaginary_subargument_attacks
        for witness_id in witness_ids:
            w = position[witness_id]
            if narrow:
                targets: tuple[int, ...] = (w,)
            else:
                targets = tuple(position[t] for t in arguments.super_ids(witness_id))
            for condition, attacker_ids in clashes:
                for attacker_id in attacker_ids:
                    out = surviving
                    if condition != 1 and theory.is_superior(
                        top_rule[witness_id], top_rule[attacker_id]
                    ):
                        out = suppressed
                    a = position[attacker_id]
                    out.extend([(a, t, condition, w) for t in targets])

    def records(found: list[tuple[int, int, int, int]]) -> tuple[Attack, ...]:
        found.sort()
        return tuple([Attack(ids[a], ids[t], c, ids[w]) for a, t, c, w in found])

    return AttackGraph(
        arguments,
        records(surviving),
        records(suppressed),
        generalized=imaginary_subargument_attacks,
    )


def _clashing_concluders(
    arguments: ArgumentSet, conclusion: Conclusion
) -> tuple[tuple[int, tuple[ArgumentId, ...]], ...]:
    """``(condition, attackers)`` for a witness with the given conclusion."""
    if isinstance(conclusion, Literal):
        return ((2, arguments.concluders(conclusion.negated)),)
    flipped = conclusion.literal.negated
    if conclusion.operator is DeonticOperator.OBLIGATION:
        return ((3, arguments.concluders(obl(flipped))), (4, arguments.concluders(perm(flipped))))
    if conclusion.operator is DeonticOperator.PERMISSION:
        return ((3, arguments.concluders(obl(flipped))),)
    # a weak permission, concluded only by imaginary arguments: condition 1
    return ((1, arguments.concluders(obl(flipped))),)
