"""Core data model: literals, deontic literals, rules, theories.

A theory is a set of plain-literal facts, a set of labelled defeasible rules
whose heads are plain or deontic literals, and an optional superiority
relation over rule labels.  Negation appears in two places only: inside a
literal (``~p``) and as an outer negation of a deontic literal, which is
normalised away at construction time (see :func:`push_negation`).
"""

from __future__ import annotations

import enum
from typing import Any, Iterable, Union

# ---------------------------------------------------------------------------
# immutable records
# ---------------------------------------------------------------------------


class Record:
    """Base of the immutable value records.

    A record class names its fields in ``_fields``, in constructor order,
    and keeps them in its first ``__slots__``, in the same order, before
    any value it derives from them (``WpExtension``'s fields are its ids
    and trace rows; it keeps the sets they add up to).  Each class gets
    ``_setters`` when it is defined: the ``__set__`` of each of its own
    slots, in ``__slots__`` order.  Records set their slots only through
    these descriptors; a slot filled later is set through its descriptor
    by name (``ArgumentSet.ordered``).  The shared constructor takes the
    fields by position or by name, fills trailing ones from the class's
    ``_defaults`` and raises ``TypeError`` as a function call would; a
    record that normalises or derives fields, or is made once per row,
    writes its ``__init__`` out over the same setters.  After that,
    assigning or deleting any attribute raises ``AttributeError``.  A copy
    or a pickle calls the constructor on the fields, save for the engine
    tables, whose constructors take what construction found: theirs rerun
    ``build_arguments`` or ``compute_attacks``.  Two records are equal
    when they are of the same class and their field tuples are equal, and
    a record hashes as its field tuple; (deontic) literals store the hash
    when built.  ``repr`` reads ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}
    _setters: tuple = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "__slots__" in cls.__dict__:  # else the parent's slots and setters stand
            cls._setters = tuple([cls.__dict__[name].__set__ for name in cls.__slots__])

    def __init__(self, *values: Any, **named: Any) -> None:
        if named or len(values) != len(self._fields):
            values = self._bind(values, named)
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _bind(self, values: tuple, named: dict[str, Any]) -> tuple:
        """The fields' values, bound from a call as to a function of the fields."""
        call, fields = f"{self.__class__.__qualname__}()", self._fields
        if len(values) > len(fields):
            raise TypeError(f"{call} takes {len(fields)} arguments but {len(values)} were given")
        rest = fields[len(values):]
        for name in named:
            if name not in rest:
                problem = "multiple values for" if name in fields else "an unexpected keyword"
                raise TypeError(f"{call} got {problem} argument {name!r}")
        bound = {**self._defaults, **named}
        missing = [name for name in rest if name not in bound]
        if missing:
            raise TypeError(f"{call} missing required arguments: {', '.join(missing)}")
        return (*values, *[bound[name] for name in rest])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through the constructor
        return self.__class__, self._values()


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------


class Literal(Record):
    """An atom or its negation; an atom is its name."""

    _fields = ("atom", "positive")
    __slots__ = (*_fields, "_hash")

    def __init__(self, atom: str, positive: bool = True) -> None:
        set_atom, set_positive, set_hash = self._setters
        set_atom(self, atom)
        set_positive(self, positive)
        set_hash(self, hash((atom, positive)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.atom, self.positive) == (other.atom, other.positive)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.atom if self.positive else f"~{self.atom}"

    @property
    def negated(self) -> Literal:
        return Literal(self.atom, not self.positive)

    def sort_key(self) -> tuple:
        # positive polarity sorts first
        return (self.atom, 0 if self.positive else 1)


def lit(name: str) -> Literal:
    """Build a literal from compact text such as ``"p"`` or ``"~p"``."""
    if name.startswith("~"):
        return Literal(name[1:], positive=False)
    return Literal(name)


#: the complementary literal (involution: flips polarity)
complement = Literal.negated.fget


# ---------------------------------------------------------------------------
# deontic literals
# ---------------------------------------------------------------------------


class DeonticOperator(enum.Enum):
    """Modalities a rule may wrap around a literal."""

    OBLIGATION = "obl"
    PERMISSION = "perm"
    WEAK_PERMISSION = "perm_w"

    # members are singletons compared by identity: hash them so, not through ``Enum.__hash__``
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self._value_  # the plain attribute, not the slower ``value`` property

    @property
    def rank(self) -> int:
        return _OPERATOR_RANK[self]


_OPERATOR_RANK = {op: rank for rank, op in enumerate(DeonticOperator)}  # obl 0, perm 1, perm_w 2


class DeonticLiteral(Record):
    """A literal under a deontic operator, e.g. ``obl(~p)``."""

    _fields = ("operator", "literal")
    __slots__ = (*_fields, "_hash")

    def __init__(self, operator: DeonticOperator, literal: Literal) -> None:
        set_operator, set_literal, set_hash = self._setters
        set_operator(self, operator)
        set_literal(self, literal)
        set_hash(self, hash((operator, literal)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.operator, self.literal) == (other.operator, other.literal)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        literal = self.literal
        return f"{self.operator._value_}({'' if literal.positive else '~'}{literal.atom})"

    def sort_key(self) -> tuple:
        return (_OPERATOR_RANK[self.operator], *self.literal.sort_key())


def obl(literal: Literal) -> DeonticLiteral:
    return DeonticLiteral(DeonticOperator.OBLIGATION, literal)


def perm(literal: Literal) -> DeonticLiteral:
    return DeonticLiteral(DeonticOperator.PERMISSION, literal)


def perm_w(literal: Literal) -> DeonticLiteral:
    return DeonticLiteral(DeonticOperator.WEAK_PERMISSION, literal)


#: Anything that may appear in a rule body.
BodyElement = Union[Literal, DeonticLiteral]

#: Anything an argument may conclude (rule heads exclude weak permission).
Conclusion = Union[Literal, DeonticLiteral]


def push_negation(target: DeonticLiteral) -> DeonticLiteral:
    """Normalise an outer negation applied to a deontic literal.

    not obl(l)    becomes  perm(~l)
    not perm(l)   becomes  obl(~l)
    not perm_w(l) becomes  obl(~l)
    """
    flipped = target.literal.negated
    if target.operator is DeonticOperator.OBLIGATION:
        return DeonticLiteral(DeonticOperator.PERMISSION, flipped)
    return DeonticLiteral(DeonticOperator.OBLIGATION, flipped)


def conclusion_sort_key(conclusion: Conclusion) -> tuple:
    """Total deterministic order: plain literals first, then deontic ones."""
    if conclusion.__class__ is Literal:  # the sort keys written out: this runs once a row
        return (0, conclusion.atom, 0 if conclusion.positive else 1)
    return (1, *conclusion.sort_key())


# ---------------------------------------------------------------------------
# rules and theories
# ---------------------------------------------------------------------------


class Rule(Record):
    """A labelled defeasible rule ``label: body => head``."""

    __slots__ = _fields = ("label", "body", "head")

    def __init__(self, label: str, body: tuple[BodyElement, ...], head: Conclusion) -> None:
        set_label, set_body, set_head = self._setters
        set_label(self, label)
        kept: list[BodyElement] = []  # exact duplicates dropped, first occurrences in order
        for element in body:
            if element not in kept:
                kept.append(element)
        set_body(self, tuple(kept))
        set_head(self, head)

    def __str__(self) -> str:
        return self._text(map(str, self.body), str(self.head))

    def _text(self, body: Iterable[str], head: str) -> str:  # from its parts' text
        body = ", ".join(body)
        return f"{self.label}: {body} => {head}" if body else f"{self.label}: => {head}"


class Theory(Record):
    """Facts, rules (kept sorted by label) and a superiority relation.

    Superiority pairs are ``(superior_label, inferior_label)``.
    """

    __slots__ = _fields = ("facts", "rules", "superiority")

    def __init__(
        self,
        facts: frozenset[Literal] = frozenset(),
        rules: tuple[Rule, ...] = (),
        superiority: frozenset[tuple[str, str]] = frozenset(),
    ) -> None:
        set_facts, set_rules, set_superiority = self._setters
        set_facts(self, frozenset(facts))
        set_rules(self, tuple(sorted(rules, key=lambda r: r.label)))
        set_superiority(self, frozenset(superiority))

    # -- derived views ------------------------------------------------------

    @property
    def literal_universe(self) -> tuple[Literal, ...]:
        """Both polarities of every atom, by atom name, positive first: the theory's own
        literal objects, and new ones only for the polarities it never mentions."""
        held: dict[str, list] = {}  # atom -> its [positive, negative] literal, or None
        elements = [element for rule in self.rules for element in (*rule.body, rule.head)]
        for literal in (*self.facts, *elements):
            if literal.__class__ is not Literal:
                literal = literal.literal
            held.setdefault(literal.atom, [None, None])[not literal.positive] = literal
        out: list[Literal] = []
        for atom in sorted(held):
            positive, negative = held[atom]
            out += (positive or Literal(atom, True), negative or Literal(atom, False))
        return tuple(out)

    def is_superior(self, superior_label: str | None, inferior_label: str | None) -> bool:
        if superior_label is None or inferior_label is None:
            return False
        return (superior_label, inferior_label) in self.superiority


def theory_text(theory: Theory) -> tuple[list[str], list[list[str]], list[str], str]:
    """The text of the facts (by ``Literal.sort_key``) and of each rule's body and head, each
    formatted once, and the source they make, as ``parser.serialize_theory`` writes it."""
    facts = [str(fact) for fact in sorted(theory.facts, key=Literal.sort_key)]
    bodies = [[*map(str, rule.body)] for rule in theory.rules]  # in rule order, as the heads
    heads = [str(rule.head) for rule in theory.rules]
    lines = [*[f"fact {fact}" for fact in facts], *map(Rule._text, theory.rules, bodies, heads)]
    lines += [f"{superior} > {inferior}" for superior, inferior in sorted(theory.superiority)]
    return facts, bodies, heads, "".join([f"{line}.\n" for line in lines])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class Violation(Record):
    """A single well-formedness failure, tied to a rule label when one applies."""

    __slots__ = _fields = ("message", "label")
    _defaults = {"label": None}

    def __str__(self) -> str:
        return f"[{self.label}] {self.message}" if self.label else self.message


class TheoryValidationError(Exception):
    """Raised when a theory fails well-formedness checks."""

    def __init__(self, violations: tuple[Violation, ...]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


def validate_theory(theory: Theory) -> tuple[Violation, ...]:
    """Collect every well-formedness violation (empty tuple means valid)."""
    violations: list[Violation] = []

    seen: set[str] = set()
    for rule in theory.rules:
        if rule.label in seen:
            violations.append(Violation("duplicate rule label", rule.label))
        seen.add(rule.label)

    for rule in theory.rules:
        head = rule.head
        if isinstance(head, DeonticLiteral) and head.operator is DeonticOperator.WEAK_PERMISSION:
            violations.append(Violation("rule head may not be a weak permission", rule.label))

    labels = {rule.label for rule in theory.rules}
    for superior, inferior in sorted(theory.superiority):
        if superior == inferior:
            violations.append(Violation(f"superiority pair ({superior}, {inferior}) is reflexive", superior))
        for label in (superior, inferior):
            if label not in labels:
                violations.append(Violation(f"superiority references unknown rule label '{label}'", None))

    return tuple(violations)


def ensure_valid(theory: Theory) -> Theory:
    """Validate and return the theory, raising on any violation."""
    violations = validate_theory(theory)
    if violations:
        raise TheoryValidationError(violations)
    return theory
