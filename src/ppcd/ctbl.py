"""Ingestion of group character-degree tables.

A table is either a complete degree multiset (with multiplicities,
checkable against the group order via the sum-of-squares identity) or
a bare degree set.  Only three complete tables ship with the package
(A5, S5, A6) -- small enough that the order identity pins them down --
plus the generic degree set of PGL2(p); anything larger has to be
ingested by the caller.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .partitions import TRIAL_DIVISION_LIMIT, is_prime, require_int, require_prime

__all__ = [
    "DegreeTable",
    "bundled_names",
    "bundled_table",
    "cd_pprime",
    "load_degree_table",
    "pgl2_degree_set",
]


@dataclass(frozen=True)
class DegreeTable:
    """A named group with its irreducible degrees.

    ``degrees`` holds (degree, multiplicity) pairs sorted by degree
    when the document gave a multiset, else None and only
    ``degree_set`` is populated.  ``complete`` means the multiset
    covers all irreducible characters, in which case a present
    ``order`` must satisfy sum(mult * degree^2) = order.
    """

    name: str
    complete: bool
    degree_set: frozenset[int]
    degrees: tuple[tuple[int, int], ...] | None = None
    order: int | None = None


def _schema_error(message: str) -> ValueError:
    return ValueError(f"degree-table schema violation: {message}")


def _check_positive_int(value, what: str) -> int:
    message = f"degree-table schema violation: {what} must be a positive integer, got {{!r}}"
    return require_int(value, 1, message)


def _int_text(value: int) -> str:
    """str(value), or its bit length where str() would pass the
    interpreter's digit limit (the order and the degrees were parsed
    under that limit, but a sum of squares can exceed it)."""
    try:
        return str(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def load_degree_table(document: str) -> DegreeTable:
    """Parse and validate a JSON degree-table document.

    Multiset form: {"name": str, "complete": bool, "degrees":
    [[degree, multiplicity], ...], "order": int?}.  Set form:
    {"degree_set": [degree, ...], "name": str?}.  Unknown keys are
    rejected; a complete multiset with an order is checked against the
    sum-of-squares identity.  Any document that does not load raises
    ValueError: bad JSON, nesting deeper than the parser's recursion
    limit, and integer literals past the interpreter's digit limit are
    all schema violations.
    """
    try:
        data = json.loads(document)
    except RecursionError:
        raise _schema_error("not valid JSON (nested too deeply)") from None
    except ValueError as exc:  # a JSONDecodeError, or an over-long integer literal
        raise _schema_error(f"not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise _schema_error("top level must be an object")

    if "degree_set" in data:
        extra = set(data) - {"degree_set", "name"}
        if extra:
            raise _schema_error(f"unexpected keys {sorted(extra)} in set form")
        raw = data["degree_set"]
        if not isinstance(raw, list) or not raw:
            raise _schema_error("degree_set must be a non-empty list")
        degs = frozenset(_check_positive_int(d, "degree") for d in raw)
        name = data.get("name", "unnamed")
        if not isinstance(name, str):
            raise _schema_error("name must be a string")
        return DegreeTable(name=name, complete=False, degree_set=degs)

    extra = set(data) - {"name", "order", "complete", "degrees"}
    if extra:
        raise _schema_error(f"unexpected keys {sorted(extra)}")
    for key in ("name", "complete", "degrees"):
        if key not in data:
            raise _schema_error(f"missing key {key!r}")
    if not isinstance(data["name"], str):
        raise _schema_error("name must be a string")
    if not isinstance(data["complete"], bool):
        raise _schema_error("complete must be a boolean")
    raw = data["degrees"]
    if not isinstance(raw, list) or not raw:
        raise _schema_error("degrees must be a non-empty list of [degree, mult] pairs")
    seen: dict[int, int] = {}
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise _schema_error(f"degree entry must be a [degree, mult] pair, got {item!r}")
        d = _check_positive_int(item[0], "degree")
        m = _check_positive_int(item[1], "multiplicity")
        if d in seen:
            raise _schema_error(f"degree {d} listed twice")
        seen[d] = m
    order = data.get("order")
    if order is not None:
        order = _check_positive_int(order, "order")
    if data["complete"] and order is not None:
        total = sum(m * d * d for d, m in seen.items())
        if total != order:
            raise ValueError(
                f"sum-of-squares mismatch for {data['name']}: "
                f"degrees give {_int_text(total)}, order says {order}"
            )
    return DegreeTable(
        name=data["name"],
        complete=data["complete"],
        degree_set=frozenset(seen),
        degrees=tuple(sorted(seen.items())),
        order=order,
    )


def cd_pprime(table: DegreeTable, p: int) -> set[int]:
    """The degrees not divisible by p."""
    require_prime(p)
    return {d for d in table.degree_set if d % p}


def pgl2_degree_set(p: int) -> set[int]:
    """Degree set {1, p-1, p, p+1} of PGL2(p) for a prime p > 5.

    p is tested by trial division, so like ``require_prime`` it is
    refused above ``TRIAL_DIVISION_LIMIT`` before any division is tried.
    """
    if require_int(p, 6, "expected a prime p > 5, got {!r}") > TRIAL_DIVISION_LIMIT:
        raise ValueError(f"expected a prime <= {TRIAL_DIVISION_LIMIT}, got {p}")
    if not is_prime(p):
        raise ValueError(f"expected a prime p > 5, got {p!r}")
    return {1, p - 1, p, p + 1}


_BUNDLED = {"A5": "a5.json", "S5": "s5.json", "A6": "a6.json"}


def bundled_names() -> list[str]:
    return sorted(_BUNDLED)


def bundled_table(name: str) -> DegreeTable:
    """One of the shipped tables (A5, S5, A6), run through the loader."""
    try:
        filename = _BUNDLED[name]
    except KeyError:
        raise ValueError(f"no bundled table {name!r}; have {bundled_names()}") from None
    document = resources.files("ppcd").joinpath("data", filename).read_text()
    return load_degree_table(document)
