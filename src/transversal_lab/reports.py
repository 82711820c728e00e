"""Machine-readable run reports with a published schema.

Reports serialize to JSON; the canonical form (sorted keys, elapsed time
omitted) is the determinism contract: identical instance, budget and seed
produce byte-identical canonical reports.  Witnesses embedded in a report can
be revalidated against the cube they came from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import jsonschema

from .hypercube import Coords, Diagonal, Entry, Hypercube

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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def cell_from_json(obj, H: Hypercube) -> Coords:
    """A cell of the host cube from its JSON form: a list of d integers in [0, n)."""
    if not (
        isinstance(obj, list)
        and len(obj) == H.d
        and all(_is_int(c) and 0 <= c < H.n for c in obj)
    ):
        raise ValueError(f"cell {obj!r} is not a list of {H.d} integers in [0, {H.n})")
    return tuple(obj)


def diagonal_from_json(obj, H: Hypercube, *, transversal: bool = False) -> Diagonal:
    """Rebuild and revalidate a diagonal from its JSON form against a host cube."""
    if not isinstance(obj, list):
        raise ValueError(f"diagonal {obj!r} is not a list of entries")
    entries = []
    for rec in obj:
        if not (isinstance(rec, dict) and set(rec) == {"coords", "symbol"}
                and _is_int(rec["symbol"])):
            raise ValueError(f"diagonal entry {rec!r} needs coords and an integer symbol")
        entries.append(Entry(cell_from_json(rec["coords"], H), rec["symbol"]))
    return Diagonal.from_entries(H, entries, transversal=transversal)


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


def validate_report(obj: dict) -> None:
    jsonschema.validate(obj, REPORT_SCHEMA)
