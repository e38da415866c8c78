"""Independent verification tools: brute-force semantics, a reference
grounded extension, a reference argument construction, a reference attack
scan, the support and undercut predicates, a reference weak-permission
iteration and a theory generator.

The brute-force evaluator enumerates every subset of arguments and applies
the extension definitions directly (conflict-freeness, defence of every
member, closure under defended arguments, attacking every outsider).  The
reference grounded extension iterates Dung's characteristic function over
the attacking pairs, in polynomial time, so it reaches sizes the
enumeration cannot.  The reference construction chains forward over ``Argument`` objects, numbers
them by its own structural key and reads the closures off the trees.  The
reference attack scan visits every subargument of every target and finds
its attackers by scanning the argument set.  Support and undercut are
stated once, over the closures read off the trees and the attackers found
by a scan of the attack records; the reference weak-permission iteration
re-tests every argument in every round against them.  The tools read only
the argument trees and the attack records, and share no index, key or
traversal code with the engine, so they serve as oracles for it on small
instances.
"""

from __future__ import annotations

import itertools
import random
import string
from typing import Iterable

from .arguments import (
    Argument,
    ArgumentId,
    ArgumentSet,
)
from .attacks import AttackGraph
from .wp import FixpointInvariantError, WpExtension
from .model import (
    BodyElement,
    DeonticLiteral,
    DeonticOperator,
    Literal,
    Record,
    Rule,
    Theory,
    conclusion_sort_key,
    obl,
    perm,
    perm_w,
)

# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


class OracleSizeError(Exception):
    """Raised when an instance is too large for exhaustive enumeration."""


class OracleResult(Record):
    # grounded: one set of argument ids; complete, stable: tuples of them
    __slots__ = _fields = ("grounded", "complete", "stable")


def brute_force_extensions(graph: AttackGraph, *, max_arguments: int = 15) -> OracleResult:
    """Evaluate grounded/complete/stable semantics by subset enumeration."""
    ids = graph.arguments.ids
    count = len(ids)
    if count > max_arguments:
        raise OracleSizeError(f"{count} arguments exceed the enumeration limit of {max_arguments}")

    position = {identifier: n for n, identifier in enumerate(ids)}
    attacker_mask = [0] * count
    target_mask = [0] * count
    for attacker, target in _pairs(graph):
        attacker_mask[position[target]] |= 1 << position[attacker]
        target_mask[position[attacker]] |= 1 << position[target]

    full = (1 << count) - 1
    complete_masks: list[int] = []
    stable_masks: list[int] = []
    for subset in range(1 << count):
        members = _bits(subset)
        if any(attacker_mask[i] & subset for i in members):
            continue  # not conflict-free
        attacked = 0
        for i in members:
            attacked |= target_mask[i]
        if subset | attacked == full:
            stable_masks.append(subset)  # attacks every outsider
        # admissible: every member's attackers are attacked by the subset
        if any(attacker_mask[i] & ~attacked for i in members):
            continue
        # complete: additionally contains every argument it defends
        closed = True
        for j in range(count):
            if subset >> j & 1:
                continue
            if attacker_mask[j] & ~attacked == 0:
                closed = False
                break
        if closed:
            complete_masks.append(subset)

    complete_sets = tuple(_unmask(mask, ids) for mask in complete_masks)
    stable_sets = tuple(_unmask(mask, ids) for mask in stable_masks)
    minimal = [
        mask for mask in complete_masks if all(mask & other == mask for other in complete_masks)
    ]
    if len(minimal) != 1:
        raise AssertionError("expected a unique least complete extension")
    return OracleResult(_unmask(minimal[0], ids), complete_sets, stable_sets)


def _bits(mask: int) -> list[int]:
    out = []
    index = 0
    while mask:
        if mask & 1:
            out.append(index)
        mask >>= 1
        index += 1
    return out


def _unmask(mask: int, ids: tuple[ArgumentId, ...]) -> frozenset[ArgumentId]:
    return frozenset(ids[i] for i in _bits(mask))


def _pairs(graph: AttackGraph) -> frozenset[tuple[ArgumentId, ArgumentId]]:
    """The attacking ``(attacker, target)`` id pairs, read off the attack records."""
    ids = graph.arguments.ids
    return frozenset([(ids[a], ids[t]) for a, t, _, _ in graph.rows])


def reference_grounded(graph: AttackGraph) -> frozenset[ArgumentId]:
    """The least fixed point of Dung's characteristic function, iterated from the empty set.

    ``F(S)`` holds the arguments whose every attacker is attacked by ``S``.
    The attackers are read off the attack records alone, and every iteration
    rescans the pairs and re-tests every argument, so no labelling or index
    of the engine takes part.  Polynomial: at most one iteration per argument.
    """
    pairs = _pairs(graph)
    attackers: dict[ArgumentId, set[ArgumentId]] = {i: set() for i in graph.arguments.ids}
    for attacker, target in pairs:
        attackers[target].add(attacker)
    current: frozenset[ArgumentId] = frozenset()
    while True:
        attacked = {target for attacker, target in pairs if attacker in current}
        following = frozenset(i for i, found in attackers.items() if found <= attacked)
        if following == current:
            return current
        current = following


# ---------------------------------------------------------------------------
# reference argument construction
# ---------------------------------------------------------------------------


#: each kind's place in the structural key; imaginary arguments are numbered
#: apart from the natural ones, and their rank orders them as children
_RANKS = {"fact": 0, "rule-application": 1, "permission-axiom": 2, "imaginary": 2}


def reference_arguments(
    theory: Theory,
) -> tuple[tuple[tuple[ArgumentId, Argument], ...], dict[ArgumentId, tuple[ArgumentId, ...]]]:
    """The ``(id, Argument)`` pairs by naive forward chaining, and each closure as ids.

    Every round applies every rule to every matching combination of the
    arguments so far, except those whose trees already use its label, and
    adds each obligation's permission, until a round finds nothing new.
    Natural arguments are numbered in the order of their structural key,
    ``(height, kind rank, top rule, conclusion key, children's keys)``,
    imaginary ones in literal order; the closures are read off the trees.
    """
    labels: dict[Argument, frozenset[str]] = {}  # every rule label in the tree
    keys: dict[Argument, tuple] = {}  # the structural key

    def note(argument: Argument) -> Argument:  # its children are noted already
        children = argument.children
        own = {argument.rule.label} if argument.kind == "rule-application" else set()
        labels[argument] = frozenset(own.union(*[labels[child] for child in children]))
        height = 1 + max(keys[child][0] for child in children) if children else 0
        keys[argument] = (height, _RANKS[argument.kind], argument.top_rule or "",
                          conclusion_sort_key(argument.conclusion),
                          tuple([keys[child] for child in children]))
        return argument

    imaginary = [note(Argument("imaginary", None, perm_w(literal)))
                 for literal in theory.literal_universe]
    naturals: set[Argument] = {note(Argument("fact", None, literal)) for literal in theory.facts}
    while True:
        built = [*naturals, *imaginary]
        found: set[Argument] = {
            note(Argument("rule-application", rule, rule.head, subs))
            for rule in theory.rules
            for subs in itertools.product(
                *([a for a in built if a.conclusion == element] for element in rule.body)
            )
            if not any(rule.label in labels[sub] for sub in subs)
        }
        found |= {
            note(Argument("permission-axiom", a.rule, perm(a.conclusion.literal), (a,)))
            for a in found
            if getattr(a.conclusion, "operator", None) is DeonticOperator.OBLIGATION
        }
        if found <= naturals:
            break
        naturals |= found
    ordered = [(f"A{n}", a) for n, a in enumerate(sorted(naturals, key=keys.__getitem__))]
    ordered += [(f"I{n + 1}", a) for n, a in enumerate(imaginary)]
    position = {argument: n for n, (_, argument) in enumerate(ordered)}
    closures = {
        identifier: tuple(ordered[n][0] for n in sorted(map(position.get, argument.subarguments())))
        for identifier, argument in ordered
    }
    return tuple(ordered), closures


# ---------------------------------------------------------------------------
# reference attack scan
# ---------------------------------------------------------------------------

#: one attack record as ids: ``(attacker, target, condition, witness)``
AttackRow = tuple[ArgumentId, ArgumentId, int, ArgumentId]


def reference_attacks(
    arguments: ArgumentSet, *, imaginary_subargument_attacks: bool = False
) -> tuple[list[AttackRow], list[AttackRow]]:
    """Surviving and suppressed attack records by the definitions, target first.

    For each target, each subargument of its tree and each clash of that
    subargument's conclusion, every argument concluding the clashing
    conclusion is an attacker.  Records are sorted by the positions of
    attacker, target and witness, then split by superiority.  Every
    target rescans all arguments: keep instances small.  Superiority is
    read from ``arguments.theory``, as ``compute_attacks`` reads it.
    """
    records = []
    named = {argument: identifier for identifier, argument in arguments}
    for target, argument in arguments:
        for sub in argument.subarguments():
            witness, conclusion = named[sub], sub.conclusion
            if isinstance(conclusion, Literal):
                clashes = [(2, conclusion.negated)]
            elif conclusion.operator is DeonticOperator.OBLIGATION:
                flipped = conclusion.literal.negated
                clashes = [(3, obl(flipped)), (4, DeonticLiteral(DeonticOperator.PERMISSION, flipped))]
            elif conclusion.operator is DeonticOperator.PERMISSION:
                clashes = [(3, obl(conclusion.literal.negated))]
            elif witness == target or imaginary_subargument_attacks:
                clashes = [(1, obl(conclusion.literal.negated))]
            else:
                clashes = []
            for condition, clashing in clashes:
                for attacker, other in arguments:
                    if other.conclusion == clashing:
                        records.append((attacker, target, condition, witness))
    index = {identifier: n for n, identifier in enumerate(arguments.ids)}.__getitem__
    records.sort(key=lambda r: (index(r[0]), index(r[1]), r[2], index(r[3])))
    top = {identifier: argument.top_rule for identifier, argument in arguments}
    surviving: list[AttackRow] = []
    suppressed: list[AttackRow] = []
    for record in records:
        attacker, _, condition, witness = record
        if condition != 1 and arguments.theory.is_superior(top[witness], top[attacker]):
            suppressed.append(record)
        else:
            surviving.append(record)
    return surviving, suppressed


# ---------------------------------------------------------------------------
# support and undercut
# ---------------------------------------------------------------------------


class ReferenceGraph(Record):
    """What the predicates read of an attack graph, once: the ids, the imaginary ids, each
    argument's proper subargument closure (off its tree) and attackers (in id order), and
    the attackers at each witness and the attacking pairs (off the attack records)."""

    __slots__ = _fields = ("ids", "imaginary", "proper", "attackers", "at_witness", "pairs")


def reference_graph(graph: AttackGraph) -> ReferenceGraph:
    arguments = graph.arguments
    ids = arguments.ids
    order = {identifier: n for n, identifier in enumerate(ids)}
    named = {argument: identifier for identifier, argument in arguments}
    proper = {
        identifier: tuple(sorted({named[sub] for sub in argument.subarguments()} - {identifier},
                                 key=order.__getitem__))
        for identifier, argument in arguments
    }
    imaginary = frozenset(i for i, argument in arguments if argument.kind == "imaginary")
    attacking: dict[ArgumentId, set[ArgumentId]] = {identifier: set() for identifier in ids}
    at_witness: dict[ArgumentId, set[ArgumentId]] = {identifier: set() for identifier in ids}
    for a, t, _, w in graph.rows:
        attacking[ids[t]].add(ids[a])
        at_witness[ids[w]].add(ids[a])
    attackers = {i: tuple(sorted(found, key=order.__getitem__)) for i, found in attacking.items()}
    return ReferenceGraph(ids, imaginary, proper, attackers, at_witness, _pairs(graph))


def supported_by(view: ReferenceGraph, members: Iterable[ArgumentId]) -> frozenset[ArgumentId]:
    """The arguments the set supports: those whose every proper subargument is a member."""
    chosen = frozenset(members)
    return frozenset(i for i in view.ids if chosen.issuperset(view.proper[i]))


def undercut_by(view: ReferenceGraph, members: Iterable[ArgumentId]) -> frozenset[ArgumentId]:
    """The arguments the set undercuts: it supports an attacker at a proper natural subargument.

    Only records whose witness is a proper, non-imaginary subargument of the
    argument count; a rebuttal witnessed at the argument itself never
    undercuts it.
    """
    supported = supported_by(view, members)
    return frozenset(
        identifier for identifier in view.ids
        if any(witness not in view.imaginary and not supported.isdisjoint(view.at_witness[witness])
               for witness in view.proper[identifier])
    )


def undercuts(view: ReferenceGraph, members: Iterable[ArgumentId], identifier: ArgumentId) -> bool:
    return identifier in undercut_by(view, members)


# ---------------------------------------------------------------------------
# reference weak-permission iteration
# ---------------------------------------------------------------------------


def reference_wp(graph: AttackGraph, *, fixpoint_guards: bool = True) -> WpExtension:
    """The weak-permission fixed point by the textbook round-by-round iteration.

    Every round re-tests every argument against the previous snapshot:
    rejection first, then acceptance, with the same guards, clauses,
    witnesses and invariant checks as ``wp.wp_extension``.  Support and
    undercut are the predicates above, evaluated on the whole snapshot
    each round, so the cost is cubic on tall chains: keep instances small.
    Each change is written as a row over the graph's ids, ``(position,
    clause, witness positions)``, the ``WpExtension`` form.
    """
    view = reference_graph(graph)
    ids, imaginary, proper, attackers = view.ids, view.imaginary, view.proper, view.attackers
    order = {identifier: n for n, identifier in enumerate(ids)}

    def in_order(found) -> tuple[ArgumentId, ...]:
        return tuple(sorted(found, key=order.__getitem__))

    def rejection(identifier, rejected, justified, supported) -> tuple | None:
        if identifier in imaginary:
            hits = tuple(a for a in attackers[identifier] if a in justified)
            return ("attacker-justified", hits) if hits else None
        hits = tuple(sub for sub in proper[identifier] if sub in rejected)
        if hits:
            return ("subargument-rejected", hits)
        hits = tuple(a for a in attackers[identifier] if a in supported)
        return ("attacker-supported", hits) if hits else None

    def acceptance(identifier, rejected, supported, undercut) -> tuple | None:
        if identifier in imaginary:
            clause = "attackers-all-rejected"
            holds = all(a in rejected for a in attackers[identifier])
        else:
            clause = "supported-and-defended"
            holds = identifier in supported and all(
                a in rejected or a in undercut for a in attackers[identifier]
            )
        return (clause, attackers[identifier]) if holds else None

    def rows(changes: dict) -> tuple:
        return tuple((order[identifier], clause, tuple(map(order.__getitem__, hits)))
                     for identifier, (clause, hits) in changes.items())

    justified: frozenset[ArgumentId] = frozenset()
    rejected: frozenset[ArgumentId] = frozenset()
    steps: list[tuple] = []
    index = 0
    while True:  # each round that does not stop adds an argument to a finite set
        index += 1
        supported, undercut = supported_by(view, justified), undercut_by(view, justified)
        newly_rejected = {}
        for identifier in ids:
            if identifier in rejected or (fixpoint_guards and identifier in justified):
                continue
            change = rejection(identifier, rejected, justified, supported)
            if change is not None:
                newly_rejected[identifier] = change
        grown_rejected = rejected.union(newly_rejected)
        newly_justified = {}
        for identifier in ids:
            if identifier in justified or (fixpoint_guards and identifier in grown_rejected):
                continue
            change = acceptance(identifier, rejected, supported, undercut)
            if change is not None:
                newly_justified[identifier] = change
        grown_justified = justified.union(newly_justified)

        overlap = grown_justified & grown_rejected
        if overlap:
            raise FixpointInvariantError(index, "overlap", in_order(overlap))
        clash = {
            member
            for attacker, target in view.pairs
            if attacker in grown_justified and target in grown_justified
            for member in (attacker, target)
        }
        if clash:
            raise FixpointInvariantError(index, "conflict", in_order(clash))

        if not newly_rejected and not newly_justified:
            return WpExtension(ids, tuple(steps))
        rejected, justified = grown_rejected, grown_justified
        steps.append((rows(newly_rejected), rows(newly_justified)))


# ---------------------------------------------------------------------------
# seeded theory generator
# ---------------------------------------------------------------------------


class GeneratorParams(Record):
    """Knobs for random theory generation; identical params give identical output.

    ``seed`` is the only field without a default.
    """

    _defaults = {
        "atom_count": 4,
        "fact_count": 2,
        "rule_count": 5,
        "max_body_len": 2,
        "obligation_head_bias": 0.3,
        "permission_head_weight": 0.1,
        "deontic_body_weight": 0.2,
        "weak_permission_body_weight": 0.15,
        "acyclic": True,
        "inject_conflict": False,
        "empty_obligation_bodies": False,
        "superiority_count": 0,
    }
    __slots__ = _fields = ("seed", *_defaults)


def generate_theory(params: GeneratorParams) -> Theory:
    """Draw a random well-formed theory from the given parameters."""
    rng = random.Random(params.seed)
    atoms = list(string.ascii_lowercase[: params.atom_count])
    order = {atom: n for n, atom in enumerate(atoms)}

    facts: set[Literal] = set()
    for _ in range(params.fact_count):
        facts.add(Literal(rng.choice(atoms), positive=rng.random() < 0.7))

    used: list[str] = sorted({fact.atom for fact in facts}) or atoms[:1]
    rules: list[Rule] = []
    for n in range(params.rule_count):
        label = f"r{n + 1}"
        head = _draw_head(rng, params, atoms, used)
        head_atom = head.atom if isinstance(head, Literal) else head.literal.atom
        if head_atom not in used:
            used.append(head_atom)
        body = _draw_body(rng, params, atoms, order, head, head_atom)
        rules.append(Rule(label, body, head))
        for element in body:
            atom = element.atom if isinstance(element, Literal) else element.literal.atom
            if atom not in used:
                used.append(atom)

    if params.inject_conflict:
        # an empty-bodied obligation pair guarantees a conflicted literal
        atom = rng.choice(used)
        base = len(rules)
        positive = Literal(atom, True)
        rules.append(Rule(f"r{base + 1}", (), obl(positive)))
        rules.append(Rule(f"r{base + 2}", (), obl(positive.negated)))

    superiority: set[tuple[str, str]] = set()
    labels = [rule.label for rule in rules]
    if params.superiority_count and len(labels) >= 2:
        attempts = 0
        while len(superiority) < params.superiority_count and attempts < 50:
            attempts += 1
            superior, inferior = rng.sample(labels, 2)
            superiority.add((superior, inferior))

    return Theory(frozenset(facts), tuple(rules), frozenset(superiority))


def _draw_head(
    rng: random.Random,
    params: GeneratorParams,
    atoms: list[str],
    used: list[str],
) -> Literal | DeonticLiteral:
    roll = rng.random()
    literal = Literal(rng.choice(atoms), positive=rng.random() < 0.6)
    if roll < params.obligation_head_bias:
        # obligations over already-used atoms make conflicts likely
        literal = Literal(rng.choice(used), positive=rng.random() < 0.6)
        return DeonticLiteral(DeonticOperator.OBLIGATION, literal)
    if roll < params.obligation_head_bias + params.permission_head_weight:
        return DeonticLiteral(DeonticOperator.PERMISSION, literal)
    return literal


def _draw_body(
    rng: random.Random,
    params: GeneratorParams,
    atoms: list[str],
    order: dict[str, int],
    head: Literal | DeonticLiteral,
    head_atom: str,
) -> tuple[BodyElement, ...]:
    if (
        params.empty_obligation_bodies
        and isinstance(head, DeonticLiteral)
        and head.operator is DeonticOperator.OBLIGATION
    ):
        return ()
    if params.acyclic:
        # drawing body atoms strictly below the head keeps the atom graph a DAG
        pool = [atom for atom in atoms if order[atom] < order[head_atom]]
    else:
        pool = list(atoms)
    if not pool:
        return ()
    size = rng.randint(0, params.max_body_len)
    body: list[BodyElement] = []
    for _ in range(size):
        literal = Literal(rng.choice(pool), positive=rng.random() < 0.6)
        roll = rng.random()
        if roll < params.weak_permission_body_weight:
            body.append(DeonticLiteral(DeonticOperator.WEAK_PERMISSION, literal))
        elif roll < params.weak_permission_body_weight + params.deontic_body_weight:
            operator = (
                DeonticOperator.OBLIGATION if rng.random() < 0.7 else DeonticOperator.PERMISSION
            )
            body.append(DeonticLiteral(operator, literal))
        else:
            body.append(literal)
    return tuple(body)
