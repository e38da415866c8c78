"""Deontic argumentation engine.

Parse theories of facts, labelled defeasible rules and superiority pairs;
build their argument sets (including imaginary weak-permission arguments);
compute the annotated attack relation; evaluate grounded, complete, stable
and weak-permission fixpoint semantics; and verify structural properties.
"""

from .arguments import (
    Argument,
    ArgumentId,
    ArgumentSet,
    build_arguments,
)
from .attacks import AttackGraph, compute_attacks
from .model import (
    BodyElement,
    Conclusion,
    DeonticLiteral,
    DeonticOperator,
    Literal,
    Rule,
    Theory,
    TheoryValidationError,
    Violation,
    complement,
    ensure_valid,
    lit,
    obl,
    perm,
    perm_w,
    push_negation,
    validate_theory,
)
from .parser import ParseError, SourceSpan, parse_theory, serialize_theory
from .semantics import (
    DEFAULT_ARGUMENT_LIMIT,
    ArgumentLimitExceeded,
    SemanticsResult,
    complete_extensions,
    evaluate,
    grounded_extension,
    is_conflict_free,
    justified_conclusions,
    stable_extensions,
)
from .wp import FixpointInvariantError, TraceStep, WpExtension, wp_extension

__all__ = [
    "Argument",
    "ArgumentId",
    "ArgumentLimitExceeded",
    "ArgumentSet",
    "AttackGraph",
    "BodyElement",
    "CheckReport",
    "CheckResult",
    "Conclusion",
    "ConflictPair",
    "DEFAULT_ARGUMENT_LIMIT",
    "DeonticLiteral",
    "DeonticOperator",
    "FixpointInvariantError",
    "Literal",
    "ParseError",
    "Rule",
    "SemanticsResult",
    "SourceSpan",
    "Theory",
    "TheoryValidationError",
    "TraceStep",
    "Violation",
    "WpExtension",
    "build_arguments",
    "complement",
    "complete_extensions",
    "compute_attacks",
    "conflict_pairs",
    "conflicted_literals",
    "ensure_valid",
    "evaluate",
    "facultative_status",
    "grounded_extension",
    "is_conflict_free",
    "justified_conclusions",
    "lit",
    "obl",
    "parse_theory",
    "perm",
    "perm_w",
    "push_negation",
    "serialize_theory",
    "stable_extensions",
    "validate_theory",
    "verify_theorems",
    "wp_conflicted_literals",
    "wp_extension",
]

__version__ = "0.1.0"

#: names served by ``analysis``, which only ``check`` needs: it is imported
#: on first access to one of them (PEP 562), not with the package
_ANALYSIS_NAMES = frozenset({
    "CheckReport",
    "CheckResult",
    "ConflictPair",
    "conflict_pairs",
    "conflicted_literals",
    "facultative_status",
    "verify_theorems",
    "wp_conflicted_literals",
})


def __getattr__(name: str) -> object:
    if name in _ANALYSIS_NAMES:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
