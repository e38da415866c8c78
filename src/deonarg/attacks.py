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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arguments import ArgumentId, ArgumentSet
from .model import DeonticOperator, Literal, Theory, obl, perm

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


@dataclass(frozen=True)
class AttackGraph:
    """All attack records over an argument set, split by suppression.

    Every lookup index over the surviving records is built once, when the
    graph is constructed.
    """

    arguments: ArgumentSet
    edges: tuple[Attack, ...]  # surviving records
    suppressed: tuple[Attack, ...]  # removed by superiority
    generalized: bool = False
    _records: dict[tuple[ArgumentId, ArgumentId], tuple[Attack, ...]] = field(
        init=False, repr=False, compare=False
    )
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
        records: dict[tuple[ArgumentId, ArgumentId], list[Attack]] = {}
        by_witness: dict[ArgumentId, dict[ArgumentId, None]] = {}
        for edge in self.edges:
            records.setdefault((edge.attacker, edge.target), []).append(edge)
            by_witness.setdefault(edge.witness, {})[edge.attacker] = None
        # grouping the pairs in id order leaves every group in id order
        position = self.arguments._positions
        attackers: dict[ArgumentId, list[ArgumentId]] = {}
        targets: dict[ArgumentId, list[ArgumentId]] = {}
        for attacker, target in sorted(records, key=lambda p: (position[p[0]], position[p[1]])):
            attackers.setdefault(target, []).append(attacker)
            targets.setdefault(attacker, []).append(target)
        object.__setattr__(self, "_records", {k: tuple(v) for k, v in records.items()})
        object.__setattr__(self, "_pairs", frozenset(records))
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
        return self._records.get((attacker, target), ())

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

    records: list[Attack] = []
    for target_id, target in arguments:
        for witness_id in arguments.sub_ids(target_id):
            witness = arguments.argument(witness_id)
            conclusion = witness.conclusion
            if isinstance(conclusion, Literal):
                for attacker_id in arguments.concluders(conclusion.negated):
                    records.append(Attack(attacker_id, target_id, 2, witness_id))
            elif conclusion.operator is DeonticOperator.OBLIGATION:
                flipped = conclusion.literal.negated
                for attacker_id in arguments.concluders(obl(flipped)):
                    records.append(Attack(attacker_id, target_id, 3, witness_id))
                for attacker_id in arguments.concluders(perm(flipped)):
                    records.append(Attack(attacker_id, target_id, 4, witness_id))
            elif conclusion.operator is DeonticOperator.PERMISSION:
                flipped = conclusion.literal.negated
                for attacker_id in arguments.concluders(obl(flipped)):
                    records.append(Attack(attacker_id, target_id, 3, witness_id))
            else:  # weak permission: condition 1
                if witness.is_imaginary and (witness_id == target_id or imaginary_subargument_attacks):
                    flipped = conclusion.literal.negated
                    for attacker_id in arguments.concluders(obl(flipped)):
                        records.append(Attack(attacker_id, target_id, 1, witness_id))

    top_rule = {identifier: argument.top_rule for identifier, argument in arguments}
    surviving: list[Attack] = []
    suppressed: list[Attack] = []
    for record in records:
        if record.condition != 1 and theory.is_superior(
            top_rule[record.witness], top_rule[record.attacker]
        ):
            suppressed.append(record)
        else:
            surviving.append(record)

    position = arguments._positions

    def order(edge: Attack) -> tuple[int, int, int, int]:
        return (
            position[edge.attacker],
            position[edge.target],
            edge.condition,
            position[edge.witness],
        )

    return AttackGraph(
        arguments,
        tuple(sorted(surviving, key=order)),
        tuple(sorted(suppressed, key=order)),
        generalized=imaginary_subargument_attacks,
    )
