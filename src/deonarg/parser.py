"""Parser and serializer for the theory language.

Statements end with ``.`` and comments run from ``%`` to end of line::

    fact a.                     % plain-literal fact
    r1: => obl(p).              % empty-body rule
    r2: a, perm_w(p) => s.      % body elements are comma-separated
    r1 > r2.                    % superiority between rule labels

Literals are ``ident`` or ``~ident``; deontic elements are ``obl(l)``,
``perm(l)`` and ``perm_w(l)``.  An outer ``~`` on a deontic element is
normalised at parse time (``~obl(p)`` parses as ``perm(~p)``), so parsed
theories never contain negated modalities.

One ``findall`` over a plain pattern scans the text into lexemes, and each
distinct lexeme's kind is told from its text; an error rescans the text for
its token's offset, so offsets and spans are found for errors only.  The
result is hash-consed: each distinct literal and deontic literal in it is one
object, by a table local to the parse.
"""

from __future__ import annotations

import re
from itertools import islice

from .model import (
    BodyElement,
    DeonticLiteral,
    DeonticOperator,
    Literal,
    Record,
    Rule,
    Theory,
    ensure_valid,
    push_negation,
    theory_text,
)

# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

#: for ``findall``: the search steps over whitespace, and a match is an identifier, a
#: punctuation mark, a comment or (``\S``) a character that starts no token
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|=>|[~:,.()>]|%[^\n]*|\S")

#: each punctuation lexeme's kind is its own text; every other token is an ``ident``
_PUNCTUATION = frozenset(("=>", "~", ":", ",", ".", "(", ")", ">"))

_OPERATORS = {op.value: op for op in DeonticOperator}


class SourceSpan(Record):
    """1-based position of a token in the source text."""

    __slots__ = _fields = ("line", "column", "lexeme")
    _defaults = {"lexeme": ""}

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


def _span(text: str, index: int, lexeme: str) -> SourceSpan:
    """The span of the token at ``index`` of the scan, found by rescanning the text (errors
    only); only ``\\n`` starts a new line."""
    starts = (match.start() for match in _TOKEN_RE.finditer(text) if match.group()[0] != "%")
    offset = next(islice(starts, index, None), len(text))
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(text.count("\n", 0, line_start) + 1, offset - line_start + 1, lexeme)


class ParseError(Exception):
    """A syntax error, carrying the offending source position."""

    def __init__(self, message: str, span: SourceSpan, expected: str | None = None):
        self.reason = message
        self.span = span
        self.expected = expected
        detail = f"{span}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


def _scan(text: str) -> tuple[list[str], list[str]]:
    """The tokens' kinds and texts, then an ``eof`` token; a :class:`ParseError` at the
    first character that starts no token."""
    lexemes = _TOKEN_RE.findall(text)
    if "%" in text:  # only a comment holds one
        lexemes = [lexeme for lexeme in lexemes if lexeme[0] != "%"]
    kind_of = dict.fromkeys(lexemes, "ident")  # each distinct lexeme, by first occurrence
    for lexeme in kind_of:
        if lexeme in _PUNCTUATION:
            kind_of[lexeme] = lexeme
        elif not (lexeme.isascii() and lexeme.isidentifier()):  # 'é'.isidentifier() holds
            span = _span(text, lexemes.index(lexeme), lexeme)
            raise ParseError(f"unexpected character {lexeme!r}", span)
    return [*map(kind_of.__getitem__, lexemes), "eof"], lexemes + [""]


# ---------------------------------------------------------------------------
# recursive-descent parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.kinds, self.lexemes = _scan(text)
        self.index = 0
        self.interned: dict = {}  # literals by (name, positive), others by (operator, literal)

    def expect(self, kind: str, expected: str) -> str:
        index = self.index
        if self.kinds[index] != kind:
            raise self.error(expected)
        self.index = index + 1
        return self.lexemes[index]

    def error(self, expected: str, after: str = "") -> ParseError:
        """An "unexpected <current token>" error, its span found by rescanning the text."""
        index = self.index
        lexeme = self.lexemes[index]
        found = "end of input" if self.kinds[index] == "eof" else repr(lexeme)
        span = _span(self.text, index, lexeme)
        return ParseError(f"unexpected {found}{after}", span, expected)

    def _interned_literal(self, name: str, positive: bool) -> Literal:
        literal = self.interned.get((name, positive))
        if literal is None:
            literal = self.interned[name, positive] = Literal(name, positive)
        return literal

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Theory:
        facts: list[Literal] = []
        rules: list[Rule] = []
        superiority: list[tuple[str, str]] = []
        kinds = self.kinds
        while kinds[self.index] != "eof":
            first = self.expect("ident", "a statement ('fact', a rule label, or a superiority pair)")
            kind = kinds[self.index]
            if first == "fact" and kind in ("ident", "~"):
                facts.append(self._literal())
                self.expect(".", "'.'")
            elif kind == ":":
                self.index += 1
                rules.append(self._rule_tail(first))
            elif kind == ">":
                self.index += 1
                superiority.append((first, self.expect("ident", "a rule label")))
                self.expect(".", "'.'")
            else:
                raise self.error(
                    "':' to start a rule, '>' for superiority, or a literal after 'fact'",
                    after=f" after '{first}'",
                )
        return Theory(frozenset(facts), tuple(rules), frozenset(superiority))

    def _rule_tail(self, label: str) -> Rule:
        body: list[BodyElement] = []
        if self.kinds[self.index] != "=>":
            body.append(self._element())
            while self.kinds[self.index] == ",":
                self.index += 1
                body.append(self._element())
        self.expect("=>", "'=>'")
        head = self._element()  # heads share element syntax; well-formedness is checked later
        self.expect(".", "'.'")
        return Rule(label, tuple(body), head)

    def _literal(self) -> Literal:
        negated = self.kinds[self.index] == "~"
        if negated:
            self.index += 1
        return self._interned_literal(self.expect("ident", "an atom name"), not negated)

    def _element(self) -> BodyElement:
        """A literal or a deontic literal, with outer negation pushed inward."""
        negated = self.kinds[self.index] == "~"
        if negated:
            self.index += 1
        name = self.expect("ident", "an atom name or deontic operator")
        operator = _OPERATORS.get(name)
        if operator is None or self.kinds[self.index] != "(":
            return self._interned_literal(name, not negated)
        self.index += 1
        inner = self._literal()
        self.expect(")", "')'")
        if negated:
            normal = push_negation(DeonticLiteral(operator, inner))
            operator = normal.operator
            inner = self._interned_literal(inner.atom, normal.literal.positive)
        deontic = self.interned.get((operator, inner))
        if deontic is None:
            deontic = self.interned[operator, inner] = DeonticLiteral(operator, inner)
        return deontic


def parse_theory(text: str, *, validate: bool = True) -> Theory:
    """Parse source text into a :class:`Theory`.

    Raises :class:`ParseError` on bad syntax and, unless ``validate`` is
    false, :class:`deonarg.model.TheoryValidationError` on well-formedness
    violations (duplicate labels, weak-permission heads, bad superiority).
    """
    theory = _Parser(text).parse()
    if validate:
        ensure_valid(theory)
    return theory


# ---------------------------------------------------------------------------
# serializer
# ---------------------------------------------------------------------------


def serialize_theory(theory: Theory) -> str:
    """Canonical text: facts first (sorted), rules by label, superiority last.

    ``parse_theory(serialize_theory(t)) == t`` holds for every valid theory.
    """
    return theory_text(theory)[-1]
