"""Machine-readable run reports with a published schema.

Reports serialize to JSON; the canonical form (sorted keys, elapsed time
omitted) is the determinism contract: identical instance, budget and seed
produce byte-identical canonical reports.  Witnesses embedded in a report can
be revalidated against the cube they came from.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Any, NoReturn

from .hypercube import Coords, Diagonal, Hypercube

SCHEMA_VERSION = 1

REPORT_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "transversal-lab search report",
    "type": "object",
    "additionalProperties": False,
    "required": [
        "schema_version",
        "instance",
        "operation",
        "group",
        "params",
        "seed",
        "count",
        "exact",
        "exhausted",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "instance": {"type": "string"},
        "operation": {"type": "string"},
        "group": {"type": "string"},
        "params": {"type": "object"},
        "seed": {"type": "integer"},
        "count": {"type": ["integer", "null"]},
        "exact": {"type": "boolean"},
        "exhausted": {"type": "boolean"},
        "witnesses": {"type": "array", "items": {"$ref": "#/definitions/diagonal"}},
        "bachelor_cells": {"type": "array", "items": {"$ref": "#/definitions/cell"}},
        "packing": {"type": "array", "items": {"$ref": "#/definitions/diagonal"}},
        "certificates": {"type": "object"},
        "elapsed_s": {"type": "number"},
    },
    "definitions": {
        "cell": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "entry": {
            "type": "object",
            "additionalProperties": False,
            "required": ["coords", "symbol"],
            "properties": {
                "coords": {"$ref": "#/definitions/cell"},
                "symbol": {"type": "integer", "minimum": 0},
            },
        },
        "diagonal": {"type": "array", "items": {"$ref": "#/definitions/entry"}},
    },
}


def diagonal_to_json(D: Diagonal) -> list[dict]:
    return [{"coords": list(e.coords), "symbol": e.symbol} for e in D.entries]


def cell_from_json(obj, H: Hypercube) -> Coords:
    """A cell of the host cube from its JSON form: an array of d integers in
    [0, n), checked by ``Hypercube.entry``."""
    if not isinstance(obj, list):
        raise ValueError(f"cell {obj!r} is not a list of {H.d} integers in [0, {H.n})")
    return H.entry(obj).coords


def diagonal_from_json(obj, H: Hypercube) -> Diagonal:
    """Rebuild and revalidate a diagonal from its JSON form against a host cube
    (each cell by ``cell_from_json``, each symbol by ``Diagonal.from_entries``)."""
    if not isinstance(obj, list):
        raise ValueError(f"diagonal {obj!r} is not a list of entries")
    entries = []
    for rec in obj:
        if not (isinstance(rec, dict) and set(rec) == {"coords", "symbol"}):
            raise ValueError(f"diagonal entry {rec!r} needs coords and an integer symbol")
        entries.append((cell_from_json(rec["coords"], H), rec["symbol"]))
    return Diagonal.from_entries(H, entries)


@dataclass
class SearchReport:
    instance: str
    operation: str
    group: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    count: int | None = None
    exact: bool = True
    exhausted: bool = False
    witnesses: list[Diagonal] = field(default_factory=list)
    bachelor_cells: list[tuple[int, ...]] | None = None
    packing: list[Diagonal] | None = None
    certificates: dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def to_dict(self, *, include_elapsed: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "instance": self.instance,
            "operation": self.operation,
            "group": self.group,
            "params": self.params,
            "seed": self.seed,
            "count": self.count,
            "exact": self.exact,
            "exhausted": self.exhausted,
        }
        if self.witnesses:
            out["witnesses"] = [diagonal_to_json(D) for D in self.witnesses]
        if self.bachelor_cells is not None:
            out["bachelor_cells"] = [list(c) for c in self.bachelor_cells]
        if self.packing is not None:
            out["packing"] = [diagonal_to_json(D) for D in self.packing]
        if self.certificates:
            out["certificates"] = self.certificates
        if include_elapsed:
            out["elapsed_s"] = self.elapsed_s
        return out

    def json(self) -> str:
        d = self.to_dict()
        validate_report(d)
        return json.dumps(d, indent=2, sort_keys=True) + "\n"

    def canonical_json(self) -> str:
        """Determinism contract form: sorted keys, no timing."""
        d = self.to_dict(include_elapsed=False)
        validate_report(d)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))


class ReportError(Exception):
    """A report does not match REPORT_SCHEMA.  A program fault, never bad
    input, so it is neither a ValueError nor a KeyError."""


def _json_path(path: tuple) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def _fail(path: tuple, complaint: str, value: Any) -> NoReturn:
    raise ReportError(f"report {_json_path(path)} {complaint}: {value!r}")


# Draft 7's types: an integer is an int that is not a bool, or a float with
# no fractional part; a number is any numbers.Number but a bool; arrays are
# lists (never tuples) and objects are dicts.
def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) or isinstance(x, float) and x.is_integer()


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


def _is_version(x) -> bool:
    # `const` compares with ==, except that a bool never equals a number
    return not isinstance(x, bool) and x == SCHEMA_VERSION


def _check_cell(cell, path: tuple) -> None:
    if not isinstance(cell, list):
        _fail(path, "is not an array", cell)
    for i, c in enumerate(cell):
        if not (_is_integer(c) and c >= 0):
            _fail((*path, i), "is not an integer >= 0", c)


def _check_diagonal(diagonal, path: tuple) -> None:
    if not isinstance(diagonal, list):
        _fail(path, "is not an array", diagonal)
    for i, entry in enumerate(diagonal):
        if not (isinstance(entry, dict) and len(entry) == 2
                and "coords" in entry and "symbol" in entry):
            _fail((*path, i), "is not an object with exactly coords and symbol", entry)
        _check_cell(entry["coords"], (*path, i, "coords"))
        symbol = entry["symbol"]
        if not (_is_integer(symbol) and symbol >= 0):
            _fail((*path, i, "symbol"), "is not an integer >= 0", symbol)


# each key of REPORT_SCHEMA's properties: a scalar test and what it asks
# for, or the check of every item of an array
_SCALARS = {
    "schema_version": (_is_version, f"is not {SCHEMA_VERSION}"),
    "instance": (lambda x: isinstance(x, str), "is not a string"),
    "operation": (lambda x: isinstance(x, str), "is not a string"),
    "group": (lambda x: isinstance(x, str), "is not a string"),
    "params": (lambda x: isinstance(x, dict), "is not an object"),
    "seed": (_is_integer, "is not an integer"),
    "count": (lambda x: x is None or _is_integer(x), "is not an integer or null"),
    "exact": (lambda x: isinstance(x, bool), "is not a boolean"),
    "exhausted": (lambda x: isinstance(x, bool), "is not a boolean"),
    "certificates": (lambda x: isinstance(x, dict), "is not an object"),
    "elapsed_s": (_is_number, "is not a number"),
}
_ARRAYS = {"witnesses": _check_diagonal, "bachelor_cells": _check_cell, "packing": _check_diagonal}


def validate_report(obj: dict) -> None:
    """Raise ReportError, naming the JSON path at fault, unless ``obj`` is a
    valid report.  A direct check of REPORT_SCHEMA in one walk of the dict;
    it accepts exactly the documents a Draft 7 validator of the schema does."""
    if not isinstance(obj, dict):
        _fail((), "is not an object", obj)
    for key in REPORT_SCHEMA["required"]:
        if key not in obj:
            _fail((), "lacks a required key", key)
    for key, value in obj.items():
        if key in _SCALARS:
            test, complaint = _SCALARS[key]
            if not test(value):
                _fail((key,), complaint, value)
        elif key in _ARRAYS:
            if not isinstance(value, list):
                _fail((key,), "is not an array", value)
            check = _ARRAYS[key]
            for i, item in enumerate(value):
                check(item, (key, i))
        else:
            _fail((key,), "is not a key of the schema", key)
