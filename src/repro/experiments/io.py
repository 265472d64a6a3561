"""JSON / CSV serialisation for sweep and serving results.

JSON keeps the nested row structure verbatim, and :func:`write_json`'s
file is byte-for-byte ``json.dumps(payload, indent=2) + "\\n"``.  It is
written as a stream, with no call to the pure-Python encoder that
``json.dump(indent=2)`` falls back to:

* A :class:`RowTable` (the request and trace rows) is a sequence of
  row dicts held as equal-length columns with ``str`` keys.  It is
  written as the list of its rows, so its bytes are those of
  ``json.dumps(list(table), indent=2)``, and it is encoded straight
  from its columns, :data:`TABLE_BLOCK_ROWS` rows at a time, each
  distinct value of a column once per block where it can be.  Each row
  of a block fills one ``%`` template built for the block.  A column
  of one exact type (``float`` with every value finite, ``int``,
  ``str``, ``bool``, ``None``) whose values in the block are all
  equal has its text baked into the template; one with at most half
  its values distinct is encoded through a dict over those values;
  otherwise it is one C-level map (``float.__repr__``, ``int.__repr__``,
  the ASCII string escaper, a bool lookup).
  Because ``0.0 == -0.0`` and the two hash alike, a float column whose
  zeros differ in sign is neither baked nor memoised; non-finite
  floats (``repr`` gives ``inf``, ``json.dumps`` ``Infinity``) and any
  other column of scalars (mixed types, ``None`` among numbers,
  subclasses) go through the C encoder value by value.  A block whose
  column holds a container or an unserialisable value is walked row by
  row, so its bytes and errors are the walker's.
* Any other container whose values are all scalars is one call to the
  stdlib C encoder, whose item separator already carries the
  ``indent=2`` line break.  Other containers (plain lists of dict rows
  among them) are walked item by item.

Memory stays at about one block of rows, never the whole document.

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
* List cells are written as JSON arrays and parsed back into lists
  (a trace's ``lost_req_ids``), not left as their text.
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
from collections.abc import Mapping, Sequence
from itertools import chain, filterfalse, repeat
from math import copysign, isfinite
from operator import eq, index as as_index
from typing import Dict, FrozenSet, Iterator, List

__all__ = [
    "DEFAULT_STRING_COLUMNS",
    "RowTable",
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


class RowTable(Sequence):
    """A read-only sequence of row dicts held as columns.

    ``RowTable(columns)`` takes a mapping of ``str`` keys to
    equal-length sequences that support slicing (lists); each row maps
    every key, in the mapping's order, to that column's entry.  The
    columns are read, not copied, and must not be modified.  Unequal
    lengths raise ``ValueError``, a non-``str`` key ``TypeError``.

    Each index and each iteration step returns a fresh dict (editing
    it does not write back), a slice returns a ``RowTable`` over the
    sliced columns, ``==`` compares row by row against any sequence of
    dicts, and :attr:`columns` exposes the columns.  :func:`write_json`
    encodes a table straight from its columns, with the bytes of the
    list of its rows; stdlib ``json`` needs ``list(table)``.

    >>> table = RowTable({"id": [1, 2], "s": [0.5, None]})
    >>> len(table), table[-1]
    (2, {'id': 2, 's': None})
    >>> table[:1] == [{"id": 1, "s": 0.5}]
    True
    """

    def __init__(self, columns: Mapping[str, Sequence]) -> None:
        columns = dict(columns)
        for key in columns:
            if not isinstance(key, str):
                raise TypeError(
                    f"row table keys must be str, not {type(key).__name__}"
                )
        lengths = set(map(len, columns.values()))
        if len(lengths) > 1:
            raise ValueError(
                f"row table columns differ in length: {sorted(lengths)}"
            )
        #: Key -> column, in row key order.
        self.columns = columns
        self._size = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RowTable({key: column[index]
                             for key, column in self.columns.items()})
        index = as_index(index)
        if not -self._size <= index < self._size:
            raise IndexError("row table index out of range")
        return {key: column[index] for key, column in self.columns.items()}

    def __iter__(self) -> Iterator[dict]:
        keys = tuple(self.columns)
        for values in zip(*self.columns.values()):
            yield dict(zip(keys, values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"RowTable({self._size} rows x {len(self.columns)} columns)"


#: Value types the C encoder renders exactly as ``json.dump(indent=2)``
#: does.  Subclasses (and anything else) take the per-item path.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})

#: Rows per block of a row table.  One block's text is built, written
#: and dropped before the next, so the writer holds about this many
#: rows of text at a time.
TABLE_BLOCK_ROWS = 256

#: Exact column type -> the C function that renders each value as
#: ``json.dumps`` does (floats only when every value is finite).
_COLUMN_ENCODERS = {
    float: float.__repr__,
    int: int.__repr__,
    str: json.encoder.encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


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


def _zero_signs_agree(column) -> bool:
    """Whether every float zero in ``column`` has the same sign."""
    return len(set(map(copysign, repeat(1.0), filterfalse(None, column)))) < 2


def _encode_block(columns, encode):
    """Per-column texts of one block of a :class:`RowTable`'s
    ``columns``, or None when a column holds a container or an
    unserialisable value.

    A column of one exact type whose values are all equal is one ``str``,
    their encoded text, to be baked into the block's row template.  Any
    other column is an iterator over its values' texts.  A column of one
    exact type is encoded once per distinct value when at most half its
    values are distinct, else by one C-level map; any other column of
    scalars goes through the C encoder value by value.  The maps are
    lazy: values are encoded in document order as the rows are consumed.
    """
    encoded = []
    for column in columns:
        types = set(map(type, column))
        fast = None
        if len(types) == 1:
            (kind,) = types
            fast = _COLUMN_ENCODERS.get(kind)
            # repr gives inf / nan, json.dumps Infinity / NaN.
            if kind is float and not all(map(isfinite, column)):
                fast = None
        if fast is None:
            if not all(kind is type(None) or issubclass(kind, (str, int, float))
                       for kind in types):
                return None
            encoded.append(map(encode, column))
            continue
        # The column holds one exact type, so ``==`` and hashing merge
        # values with different texts only for 0.0 and -0.0; True == 1
        # cannot meet, as no such column mixes bool and int.
        first = column[0]
        if column.count(first) == len(column) and (
                kind is not float or first or _zero_signs_agree(column)):
            encoded.append(fast(first))
            continue
        distinct = set(column)
        if 2 * len(distinct) <= len(column) and (
                kind is not float or 0.0 not in distinct
                or _zero_signs_agree(column)):
            texts = {value: fast(value) for value in distinct}
            encoded.append(map(texts.__getitem__, column))
        else:
            encoded.append(map(fast, column))
    return encoded


def _write_table(write, table: RowTable, depth: int, markers: set,
                 lead: str) -> None:
    """Stream the rows of a non-empty :class:`RowTable` opening at
    nesting ``depth``, one block of :data:`TABLE_BLOCK_ROWS` rows at a
    time, straight from its columns.

    Each row of a block of scalars fills one template built for the
    block, with the text of each column constant in the block baked in;
    a block with a container or an unserialisable value is walked row
    by row, so its bytes and errors are exactly the walker's.
    """
    encode, _, separator, _ = _level(depth)
    _, inner, field_separator, outer = _level(depth + 1)
    keys = [encode(key).replace("%", "%%") + ": " for key in table.columns]
    columns = table.columns.values()
    for start in range(0, len(table), TABLE_BLOCK_ROWS):
        stop = min(start + TABLE_BLOCK_ROWS, len(table))
        block = _encode_block([column[start:stop] for column in columns],
                              encode)
        if block is None:
            for row in table[start:stop]:
                _write_value(write, row, depth, markers, lead)
                lead = separator
            continue
        template = "{" + inner + field_separator.join(
            key + (texts.replace("%", "%%") if isinstance(texts, str) else "%s")
            for key, texts in zip(keys, block)
        ) + outer + "}"
        slots = [texts for texts in block if not isinstance(texts, str)]
        if slots:
            rows = map(template.__mod__, zip(*slots))
        else:
            rows = repeat(template % (), stop - start)
        write(lead + separator.join(rows))
        lead = separator


def _write_value(write, obj: object, depth: int, markers: set,
                 lead: str = "") -> None:
    """Stream ``lead`` and then ``obj``, which opens at nesting ``depth``.

    A non-empty container whose values are all plain scalars is one C
    encoder call whose item separator already carries the line break
    and indent of ``depth + 1``; only the break after the opening
    bracket and before the closing one are added here.  A
    :class:`RowTable` goes to :func:`_write_table`.  Any other container
    is walked item by item.
    """
    encode, inner, separator, outer = _level(depth + 1)
    if isinstance(obj, dict):
        is_dict, values = True, obj.values()
    elif isinstance(obj, (list, tuple, RowTable)):
        is_dict, values = False, obj
    else:
        write(lead + encode(obj))
        return
    if not obj:
        write(lead + ("{}" if is_dict else "[]"))
        return
    is_table = isinstance(obj, RowTable)
    if not is_table and _SCALAR_TYPES.issuperset(map(type, values)):
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
    elif is_table:
        _write_table(write, obj, depth + 1, markers, lead)
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
    A :class:`RowTable` is written as the list of its rows, so its
    bytes and errors are those of ``json.dumps(list(table), indent=2)``
    in its place.

    It is streamed: a :class:`RowTable` is encoded straight from its
    columns and written one block of :data:`TABLE_BLOCK_ROWS` rows at a
    time (a block holding a container or an unserialisable value is
    walked row by row), each other all-scalar container is one call to
    the stdlib C encoder, and any other container is walked item by
    item.  No document-sized string is ever built.
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
    columns = list(dict.fromkeys(chain.from_iterable(flat_rows)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        for fr in flat_rows:
            writer.writerow({
                k: json.dumps(v) if isinstance(v, list) else v
                for k, v in fr.items()
            })


def _parse_cell(text: str, numeric: bool) -> object:
    """Parse one cell: numeric columns get bool/int/float or a JSON
    list, others stay text."""
    if not numeric:
        return text
    if text.startswith("["):
        try:
            return json.loads(text)
        except ValueError:
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
    are re-parsed to bool/int/float (JSON-array cells to lists); string
    columns pass through verbatim, so message text that *looks* numeric
    survives the round trip.  Empty cells (padding from the union header) are dropped so
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
