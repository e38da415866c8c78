"""Structured-output document format.

Defines the JSON document emitted by the command-line interface, a
JSON Schema describing it, and builders that assemble document
sections from engine objects.  Everything is ordered canonically so
identical inputs produce byte-identical documents.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from .arguments import ArgumentSet
from .attacks import AttackGraph
from .model import Theory, theory_text
from .wp import WpExtension

# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

_STRINGS = {"type": "array", "items": {"type": "string"}}


def _records(**properties: Any) -> dict[str, Any]:
    """An array of objects that hold exactly these properties."""
    return {"type": "array", "items": {"type": "object", "required": [*properties],
                                       "additionalProperties": False, "properties": properties}}


_EDGE_LIST = _records(
    attacker={"type": "string"},
    target={"type": "string"},
    condition={"type": "integer", "minimum": 1, "maximum": 4},
    witness={"type": "string"},
)
_CHANGE_LIST = _records(argument={"type": "string"}, clause={"type": "string"}, witnesses=_STRINGS)

SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "urn:deonarg:output",
    "type": "object",
    "required": ["theory"],
    "additionalProperties": False,
    "properties": {
        "theory": {
            "type": "object",
            "required": ["source", "facts", "rules", "superiority"],
            "additionalProperties": False,
            "properties": {
                "source": {"type": "string"},
                "facts": _STRINGS,
                "rules": _records(label={"type": "string"}, body=_STRINGS, head={"type": "string"}),
                "superiority": {
                    "type": "array",
                    "items": {**_STRINGS, "minItems": 2, "maxItems": 2},
                },
            },
        },
        "arguments": _records(
            id={"type": "string"},
            kind={"enum": ["imaginary", "fact", "rule-application", "permission-axiom"]},
            conclusion={"type": "string"},
            sub=_STRINGS,
            top_rule={"type": ["string", "null"]},
        ),
        "attacks": {
            "type": "object",
            "required": ["edges", "suppressed"],
            "additionalProperties": False,
            "properties": {"edges": _EDGE_LIST, "suppressed": _EDGE_LIST},
        },
        "result": {
            "type": "object",
            "required": ["semantics", "justified_arguments", "justified_conclusions", "flags"],
            "additionalProperties": False,
            "properties": {
                "semantics": {"enum": ["grounded", "complete", "stable", "wp"]},
                "extensions": {"type": "array", "items": _STRINGS},
                "justified_arguments": _STRINGS,
                "rejected_arguments": _STRINGS,
                "justified_conclusions": _STRINGS,
                "flags": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "no_stable_extensions": {"type": "boolean"},
                        "imaginary_subargument_attacks": {"type": "boolean"},
                        "fixpoint_guards": {"type": "boolean"},
                    },
                },
            },
        },
        "trace": _records(
            step={"type": "integer", "minimum": 1}, rejected=_CHANGE_LIST, justified=_CHANGE_LIST
        ),
        "checks": _records(
            name={"type": "string"},
            status={"enum": ["pass", "fail", "skipped"]},
            detail={"type": "string"},
        ),
    },
}


def validate_document(document: dict[str, Any]) -> None:
    """Raise ``jsonschema.ValidationError`` when the document is malformed.

    Needs ``jsonschema``, which deonarg does not depend on: install the
    ``test`` extra (``pip install '.[test]'``).  Nothing else in deonarg
    imports it.
    """
    import jsonschema

    jsonschema.validate(document, SCHEMA)


# ---------------------------------------------------------------------------
# section builders
# ---------------------------------------------------------------------------

def theory_section(theory: Theory) -> dict[str, Any]:
    facts, bodies, heads, source = theory_text(theory)
    return {
        "source": source,
        "facts": facts,
        "rules": [{"label": r.label, "body": b, "head": h} for r, b, h in zip(theory.rules, bodies, heads)],
        "superiority": [list(pair) for pair in sorted(theory.superiority)],
    }


def arguments_section(arguments: ArgumentSet) -> list[dict[str, Any]]:
    subs = arguments._closures()  # one pass over them and the rows, by position
    return [
        {
            "id": name,
            "kind": kind,
            "conclusion": str(conclusion),
            "sub": sub,
            "top_rule": None if rule is None else rule.label,
        }
        for name, (kind, rule, conclusion, _), sub in zip(arguments.ids, arguments.rows, subs)
    ]


def attacks_section(graph: AttackGraph) -> dict[str, Any]:
    ids = graph.arguments.ids
    return {
        key: [{"attacker": ids[a], "target": ids[t], "condition": c, "witness": ids[w]}
              for a, t, c, w in rows]
        for key, rows in (("edges", graph.rows), ("suppressed", graph.suppressed_rows))
    }


def _changes(ids: tuple[str, ...], rows: Iterable[tuple]) -> list[dict[str, Any]]:
    return [
        {"argument": ids[n], "clause": clause, "witnesses": [ids[w] for w in hits] if hits else []}
        for n, clause, hits in rows
    ]


def trace_section(extension: WpExtension) -> list[dict[str, Any]]:
    ids = extension.ids  # the trace's rows, read with no record built
    return [
        {"step": index, "rejected": _changes(ids, rejected) if rejected else [],
         "justified": _changes(ids, justified) if justified else []}  # most steps have one side
        for index, (rejected, justified) in enumerate(extension.rows, 1)
    ]


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

#: flat records encoded and written at a time
_BATCH = 2048
#: the value types of a flat record
_SCALARS = frozenset({str, int, bool, type(None)})
#: the JSON of the constants
_LITERALS = {None: "null", True: "true", False: "false"}


def write_document(document: Any, write: Callable[[str], Any]) -> None:
    """Write ``json.dumps(document, indent=2)``, byte for byte, through ``write`` in pieces.

    ``json`` runs its C encoder only without ``indent``.  Here every string
    goes through the C string encoder and a list of strings is one join.
    A list of flat records (their values strings, integers, booleans or
    None) is written a batch at a time, each batch one call of the C
    encoder with the newline and the fields' indent in its item separator:
    an encoded string holds no raw newline, so one replace of that
    separator between two records gives each record its own lines.
    A list's kind is read off its first member, as every list of ``SCHEMA``
    holds one kind: strings, lists of strings, or records of one shape.
    """
    from json import JSONEncoder
    from json.encoder import encode_basestring_ascii as string

    def text(item: Any, pad: str) -> str:
        """One value, whole."""
        inner = pad + "  "
        if isinstance(item, str):
            return string(item)
        if isinstance(item, dict):
            opened, closed = "{", "}"
            members = [string(key) + ": " + text(member, inner) for key, member in item.items()]
        elif isinstance(item, (list, tuple)):
            opened, closed = "[", "]"
            members = (map(string, item) if item and isinstance(item[0], str)
                       else [text(member, inner) for member in item])
        elif item is None or item is True or item is False:
            return _LITERALS[item]
        else:
            return int.__repr__(item)  # as json writes an integer
        if not item:
            return opened + closed
        return opened + "\n" + inner + (",\n" + inner).join(members) + "\n" + pad + closed

    def stream(item: Any, pad: str) -> None:
        """One value: a record a key at a time, flat records a batch at a time, else whole."""
        inner, field = pad + "  ", pad + "    "
        if isinstance(item, dict) and item:
            opened = "{\n" + inner
            for key, member in item.items():
                write(opened + string(key) + ": ")
                stream(member, inner)
                opened = ",\n" + inner
            write("\n" + pad + "}")
        elif not (isinstance(item, (list, tuple)) and item and isinstance(item[0], dict)
                  and item[0] and _SCALARS.issuperset(map(type, item[0].values()))):
            write(text(item, pad))
        else:  # flat records
            encode = JSONEncoder(separators=(",\n" + field, ": "), check_circular=False).encode
            between = "\n" + inner + "},\n" + inner + "{\n" + field
            opened = "[\n" + inner + "{\n" + field
            for start in range(0, len(item), _BATCH):
                batch = encode(item[start : start + _BATCH])  # [{"k": v,\n<field>"k": v},\n<field>{
                write(opened + batch[2:-2].replace("},\n" + field + "{", between))
                opened = between
            write("\n" + inner + "}\n" + pad + "]")

    stream(document, "")
