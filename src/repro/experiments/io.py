"""JSON / CSV serialisation for sweep and serving results.

JSON keeps the nested row structure verbatim, and :func:`write_json`'s
file is byte-for-byte ``json.dumps(payload, indent=2) + "\\n"``.  It is
written as a stream: each container whose values are all scalars (every
row of a request or trace table) is one call to the stdlib C encoder,
whose item separator already carries the ``indent=2`` line break, and
goes straight to the file.  That is about twice as fast as
``json.dump(indent=2)``, which falls back to the pure-Python encoder,
and never holds the whole document in memory.

CSV flattens each row with
dotted keys (``prefill.latency.total_s``) so spreadsheet tooling can
consume it, and :func:`read_csv` re-parses cells so a write/read
round-trip is *type-faithful*:

* Numeric parsing is restricted to known-numeric columns.  A column is
  numeric unless its leaf name (the last dotted segment) is in
  ``string_columns`` — by default :data:`DEFAULT_STRING_COLUMNS`, the
  identifier/message columns this repo emits (``model``, ``scheme``,
  ``kernel``, ``status``, ``error``, ``phase``, ``scope``, ``policy``,
  ``scenario``, ``event``, ``series``, ``key``).  This keeps
  an error message like ``"nan"``, ``"inf"`` or ``"1234"`` a string
  instead of silently becoming a number.
* ``True`` / ``False`` cells in numeric columns round-trip as booleans,
  not as the strings ``"True"`` / ``"False"``.
* Because flattening joins keys with ``.``, input keys containing a dot
  would collide with the nesting on read — :func:`flatten_row` raises
  on them instead of silently mangling the row.

>>> from repro.experiments.io import flatten_row, unflatten_row
>>> flat = flatten_row({"a": {"b": 1.5}, "c": "x"})
>>> flat
{'a.b': 1.5, 'c': 'x'}
>>> unflatten_row(flat)
{'a': {'b': 1.5}, 'c': 'x'}
"""

from __future__ import annotations

import csv
import functools
import json
import re
from typing import Dict, FrozenSet, List, Sequence

__all__ = [
    "DEFAULT_STRING_COLUMNS",
    "flatten_row",
    "unflatten_row",
    "write_json",
    "read_json",
    "write_csv",
    "read_csv",
]

#: Leaf column names that are never numeric-parsed on CSV read: the
#: identifier and free-text columns emitted by the sweep and serving
#: drivers.  Everything else is treated as a numeric/boolean column.
DEFAULT_STRING_COLUMNS: FrozenSet[str] = frozenset(
    {"model", "scheme", "kernel", "status", "error", "phase", "scope",
     "policy", "scenario", "engine", "event", "series", "key",
     "deployment", "router", "action", "kind"}
)

_INT_RE = re.compile(r"[+-]?\d+")


def flatten_row(row: dict, prefix: str = "") -> Dict[str, object]:
    """Flatten nested dicts into dotted keys (scalars pass through).

    Raises
    ------
    ValueError
        If any key contains a ``.``: dotted input keys are
        indistinguishable from the flattening separator and would be
        silently re-nested by :func:`unflatten_row`.
    """
    flat: Dict[str, object] = {}
    for key, value in row.items():
        if "." in str(key):
            raise ValueError(
                f"row key {key!r} contains '.', which collides with the "
                f"dotted-key flattening; rename the key"
            )
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_row(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def unflatten_row(flat: Dict[str, object]) -> dict:
    """Inverse of :func:`flatten_row`: dotted keys back into nesting."""
    row: dict = {}
    for key, value in flat.items():
        parts = key.split(".")
        node = row
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return row


#: Value types the C encoder renders exactly as ``json.dump(indent=2)``
#: does.  Subclasses (and anything else) take the per-item path.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=None)
def _level(depth: int) -> tuple:
    """``(encode, newline, item separator, closing newline)`` for the
    items at nesting ``depth >= 1`` of an ``indent=2`` document."""
    newline = "\n" + "  " * depth
    encode = json.JSONEncoder(separators=("," + newline, ": ")).encode
    return encode, newline, "," + newline, newline[:-2]


def _json_key(key: object, encode) -> str:
    """Coerce and quote a dict key the way ``json.dump`` does."""
    if isinstance(key, str):
        pass
    elif isinstance(key, float):
        key = encode(key)
    elif key is True:
        key = "true"
    elif key is False:
        key = "false"
    elif key is None:
        key = "null"
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError(
            f"keys must be str, int, float, bool or None, "
            f"not {key.__class__.__name__}"
        )
    return encode(key)


def _write_value(write, obj: object, depth: int, markers: set,
                 lead: str = "") -> None:
    """Stream ``lead`` and then ``obj``, which opens at nesting ``depth``.

    A non-empty container whose values are all plain scalars is one C
    encoder call whose item separator already carries the line break
    and indent of ``depth + 1``; only the break after the opening
    bracket and before the closing one are added here.  Any other
    container is walked item by item.
    """
    encode, inner, separator, outer = _level(depth + 1)
    if isinstance(obj, dict):
        is_dict, values = True, obj.values()
    elif isinstance(obj, (list, tuple)):
        is_dict, values = False, obj
    else:
        write(lead + encode(obj))
        return
    if not obj:
        write(lead + ("{}" if is_dict else "[]"))
        return
    if _SCALAR_TYPES.issuperset(map(type, values)):
        text = encode(obj)
        write(lead + text[0] + inner + text[1:-1] + outer + text[-1])
        return
    marker = id(obj)
    if marker in markers:
        raise ValueError("Circular reference detected")
    markers.add(marker)
    lead += ("{" if is_dict else "[") + inner
    if is_dict:
        for key, value in obj.items():
            key_lead = lead + _json_key(key, encode) + ": "
            _write_value(write, value, depth + 1, markers, key_lead)
            lead = separator
    else:
        for value in obj:
            _write_value(write, value, depth + 1, markers, lead)
            lead = separator
    write(outer + ("}" if is_dict else "]"))
    markers.remove(marker)


def write_json(path: str, payload: dict) -> None:
    """Write a JSON document (sweep payloads are plain dict/list/scalar).

    The file holds exactly the bytes of ``json.dumps(payload,
    indent=2) + "\\n"`` — same layout, ``NaN``/``Infinity`` literals,
    ASCII escapes, key coercion, tuples as lists, and the same
    ``ValueError`` / ``TypeError`` on circular or unserialisable input.
    It is streamed: each all-scalar container (every row of a row
    table) is one call to the stdlib C encoder written straight to the
    file, so no document-sized string is ever built.
    """
    with open(path, "w", encoding="utf-8") as fh:
        _write_value(fh.write, payload, 0, set())
        fh.write("\n")


def read_json(path: str) -> dict:
    """Read back a document written by :func:`write_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path: str, rows: Sequence[dict]) -> None:
    """Write rows as CSV with dotted-flattened columns.

    The header is the union of all rows' flattened keys (first-seen
    order), so heterogeneous rows — e.g. ``unsupported`` points without
    phase dicts — serialise with empty cells.
    """
    flat_rows = [flatten_row(r) for r in rows]
    columns: List[str] = []
    for fr in flat_rows:
        for key in fr:
            if key not in columns:
                columns.append(key)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        for fr in flat_rows:
            writer.writerow(fr)


def _parse_cell(text: str, numeric: bool) -> object:
    """Parse one cell: numeric columns get bool/int/float, others stay text."""
    if not numeric:
        return text
    if text == "True":
        return True
    if text == "False":
        return False
    if _INT_RE.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(
    path: str, string_columns: FrozenSet[str] = DEFAULT_STRING_COLUMNS
) -> List[dict]:
    """Read a CSV written by :func:`write_csv` back into nested rows.

    Cells in known-numeric columns (leaf name not in ``string_columns``)
    are re-parsed to bool/int/float; string columns pass through
    verbatim, so message text that *looks* numeric survives the round
    trip.  Empty cells (padding from the union header) are dropped so
    round-tripped rows match the originals.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for flat in reader:
            parsed = {
                k: _parse_cell(v, k.split(".")[-1] not in string_columns)
                for k, v in flat.items()
                if v != ""
            }
            rows.append(unflatten_row(parsed))
        return rows
