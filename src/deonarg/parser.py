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
"""

from __future__ import annotations

import re

from .model import (
    Atom,
    BodyElement,
    DeonticLiteral,
    DeonticOperator,
    Literal,
    Record,
    Rule,
    Theory,
    ensure_valid,
    push_negation,
)

# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>=>)
  | (?P<punct>[~:,.()>])
    """,
    re.VERBOSE,
)

_OPERATORS = {op.value: op for op in DeonticOperator}


class SourceSpan(Record):
    """1-based position of a token in the source text."""

    __slots__ = _fields = ("line", "column", "lexeme")

    def __init__(self, line: int, column: int, lexeme: str = "") -> None:
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "lexeme", lexeme)

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class _Token(Record):
    # kind: 'ident', '=>', '~', ':', ',', '.', '(', ')', '>', 'eof'
    __slots__ = _fields = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: SourceSpan) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "span", span)


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


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            span = SourceSpan(line, pos - line_start + 1, text[pos])
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        kind, end = match.lastgroup, match.end()
        if kind == "ws" or kind == "comment":
            # skipped, but newlines advance the line counter
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
        else:
            lexeme = match.group()
            tag = "ident" if kind == "ident" else "=>" if kind == "arrow" else lexeme
            tokens.append(_Token(tag, lexeme, SourceSpan(line, pos - line_start + 1, lexeme)))
        pos = end
    tokens.append(_Token("eof", "", SourceSpan(line, pos - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, kind: str, expected: str) -> _Token:
        if self.current.kind != kind:
            raise ParseError(
                f"unexpected {self._describe(self.current)}", self.current.span, expected
            )
        return self.advance()

    @staticmethod
    def _describe(token: _Token) -> str:
        return "end of input" if token.kind == "eof" else f"{token.text!r}"

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Theory:
        facts: list[Literal] = []
        rules: list[Rule] = []
        superiority: list[tuple[str, str]] = []
        while self.current.kind != "eof":
            first = self.expect("ident", "a statement ('fact', a rule label, or a superiority pair)")
            if first.text == "fact" and self.current.kind in ("ident", "~"):
                facts.append(self._literal())
                self.expect(".", "'.'")
            elif self.current.kind == ":":
                self.advance()
                rules.append(self._rule_tail(first.text))
            elif self.current.kind == ">":
                self.advance()
                other = self.expect("ident", "a rule label")
                superiority.append((first.text, other.text))
                self.expect(".", "'.'")
            else:
                raise ParseError(
                    f"unexpected {self._describe(self.current)} after '{first.text}'",
                    self.current.span,
                    "':' to start a rule, '>' for superiority, or a literal after 'fact'",
                )
        return Theory(frozenset(facts), tuple(rules), frozenset(superiority))

    def _rule_tail(self, label: str) -> Rule:
        body: list[BodyElement] = []
        if self.current.kind != "=>":
            body.append(self._element())
            while self.current.kind == ",":
                self.advance()
                body.append(self._element())
        self.expect("=>", "'=>'")
        head = self._element()  # heads share element syntax; well-formedness is checked later
        self.expect(".", "'.'")
        return Rule(label, tuple(body), head)

    def _literal(self) -> Literal:
        negated = False
        if self.current.kind == "~":
            self.advance()
            negated = True
        name = self.expect("ident", "an atom name")
        return Literal(Atom(name.text), positive=not negated)

    def _element(self) -> BodyElement:
        """A literal or a deontic literal, with outer negation pushed inward."""
        negated = False
        if self.current.kind == "~":
            self.advance()
            negated = True
        name = self.expect("ident", "an atom name or deontic operator")
        if name.text in _OPERATORS and self.current.kind == "(":
            self.advance()
            inner = self._literal()
            self.expect(")", "')'")
            deontic = DeonticLiteral(_OPERATORS[name.text], inner)
            return push_negation(deontic) if negated else deontic
        return Literal(Atom(name.text), positive=not negated)


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
    lines: list[str] = []
    for fact in sorted(theory.facts, key=lambda l: l.sort_key()):
        lines.append(f"fact {fact}.")
    for rule in theory.rules:
        lines.append(f"{rule}.")
    for superior, inferior in sorted(theory.superiority):
        lines.append(f"{superior} > {inferior}.")
    return "\n".join(lines) + ("\n" if lines else "")
