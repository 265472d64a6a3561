"""Result records produced by serving simulations.

:class:`RequestRecord` is the per-request outcome (timestamps plus the
derived latency metrics), :class:`RankStats` the per-replica aggregate
counters, and :class:`ServingResult` the bundle a whole simulation
returns — the input type of :mod:`repro.serving.metrics` and of the
cluster layer's per-deployment slices.  :class:`ColumnRecords` holds a
result's records as one list per field (merged and replaced stores are
gathered once, when built) and builds record objects only when read.
"""

from __future__ import annotations

from collections.abc import MutableSequence, Sequence
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter, eq, ne
from typing import Dict, List, Optional, Tuple

from repro.serving.engine.config import ServingConfig

__all__ = ["RequestRecord", "RankStats", "ServingResult", "ColumnRecords"]


@dataclass
class RequestRecord:
    """Outcome of one request: timestamps plus the derived serving metrics.

    Timestamps are absolute simulation seconds; ``None`` until the event
    happens (rejected requests never admit).  ``admit_s`` is the *first*
    admission — a preempted request keeps it, and every eviction bumps
    ``preemptions``.  ``cache_hit`` / ``cached_tokens`` describe the
    prefix-cache outcome of that first admission (always miss/0 with the
    cache disabled).

    ``status`` is one of three terminal outcomes: ``"completed"``,
    ``"rejected"`` (infeasible KV footprint) or ``"failed"`` (lost to a
    replica crash with the retry budget exhausted, shed under
    post-failure overload, or stranded on a dead fleet).  ``retries``
    counts crash-driven re-submissions, ``failovers`` the re-routes that
    landed on a different replica than the crashed one, and ``shed``
    marks a request dropped by the load-shedder; all are zero in
    fault-free runs.
    """

    req_id: int
    rank: int
    arrival_s: float
    prompt_tokens: int
    gen_tokens: int
    priority: int = 0
    slo_ttft_s: float = 0.0
    status: str = "completed"
    admit_s: Optional[float] = None
    first_token_s: Optional[float] = None
    finish_s: Optional[float] = None
    preemptions: int = 0
    session_id: int = -1
    turn: int = 0
    cache_hit: bool = False
    cached_tokens: int = 0
    retries: int = 0
    failovers: int = 0
    shed: bool = False

    @classmethod
    def from_request(cls, request, rank: int) -> "RequestRecord":
        """A fresh record for ``request`` placed on replica ``rank``
        (``-1`` for a request the cluster failed before placing it)."""
        return cls(
            req_id=request.req_id, rank=rank, arrival_s=request.arrival_s,
            prompt_tokens=request.prompt_tokens,
            gen_tokens=request.gen_tokens, priority=request.priority,
            slo_ttft_s=request.slo_ttft_s, session_id=request.session_id,
            turn=request.turn,
        )

    @property
    def queue_s(self) -> float:
        """Arrival-to-first-admission wait."""
        return (self.admit_s - self.arrival_s) if self.admit_s is not None else 0.0

    @property
    def ttft_s(self) -> float:
        """Time to first token: arrival to the first generated token."""
        return (
            (self.first_token_s - self.arrival_s)
            if self.first_token_s is not None
            else 0.0
        )

    @property
    def latency_s(self) -> float:
        """End-to-end request latency (arrival to last token)."""
        return (self.finish_s - self.arrival_s) if self.finish_s is not None else 0.0

    @property
    def tpot_s(self) -> float:
        """Time per output token after the first (0 for 1-token requests)."""
        if self.finish_s is None or self.first_token_s is None or self.gen_tokens < 2:
            return 0.0
        return (self.finish_s - self.first_token_s) / (self.gen_tokens - 1)


#: Every :class:`RequestRecord` field name, in constructor order.
_RECORD_FIELDS = tuple(f.name for f in fields(RequestRecord))


def _derived(name: str, column) -> list:
    """A :class:`RequestRecord` property as a column, from the field
    columns ``column(field)``, computed with the property's own float
    operations element by element (so it rounds identically); missing
    stamps give the property's ``0.0``."""
    if name == "tpot_s":
        return [
            0.0 if finish is None or first is None or gen < 2
            else (finish - first) / (gen - 1)
            for first, finish, gen in zip(
                column("first_token_s"), column("finish_s"),
                column("gen_tokens"),
            )
        ]
    stamp = {"queue_s": "admit_s", "ttft_s": "first_token_s",
             "latency_s": "finish_s"}.get(name)
    if stamp is None:
        raise KeyError(f"no record field {name!r}")
    return [t - arrival if t is not None else 0.0
            for t, arrival in zip(column(stamp), column("arrival_s"))]


#: The derived :class:`RequestRecord` properties a column can be read as.
_DERIVED = ("queue_s", "ttft_s", "tpot_s", "latency_s")


def _part_column(part: Sequence, name: str) -> list:
    """Field ``name`` of a merge part: column records or record objects."""
    column = getattr(part, "column", None)
    if column is None:
        return list(map(attrgetter(name), part))
    return column(name)


class ColumnRecords(MutableSequence):
    """Request records held as columns.

    Engines finish a run holding their outcomes as columns; building one
    :class:`RequestRecord` per request up front would cost time and
    memory the caller may never need (metrics and exports read
    columns).  The store is one list per record field with an optional
    row selection; it builds the record objects only on element access,
    and ``len()`` never materialises.  :meth:`column` returns a field's
    values in row order -- the stored list itself when there is no row
    selection, or, once the records exist (a caller may have edited
    them), read from the records -- and also the derived properties
    (``queue_s``, ``ttft_s``, ``tpot_s``, ``latency_s``), computed
    elementwise with the properties' own arithmetic.

    ``ColumnRecords(fields, rows)`` selects rows of one list per record
    field, :meth:`merge` combines record sequences sorted by ``req_id``
    (how every result holds its records), and :meth:`replace` swaps
    whole field columns; both gather each field once, when they build
    the store.  Records compare equal to any sequence of equal records,
    and edit like a list (which builds the objects first).
    """

    def __init__(self, fields: Dict[str, list],
                 rows: Optional[Sequence[int]] = None) -> None:
        """Records over one list per :class:`RequestRecord` field: the
        entries at ``rows``, in that order, or with ``rows=None`` the
        lists' current entries.  The lists are read, not copied."""
        self._size = len(fields["req_id"]) if rows is None else len(rows)
        self._fields: Optional[Dict[str, list]] = fields
        self._rows = rows
        self._items: Optional[List[RequestRecord]] = None

    @classmethod
    def merge(cls, parts: Sequence[Sequence[RequestRecord]]) -> "ColumnRecords":
        """The records of ``parts`` (record sequences: column records or
        record objects) sorted by ``req_id``; ties keep part order, then
        row order within a part.  A single column part is returned as
        it is, so it must already be sorted."""
        if len(parts) == 1 and isinstance(parts[0], ColumnRecords):
            return parts[0]
        fields = {
            name: list(chain.from_iterable(
                _part_column(part, name) for part in parts
            ))
            for name in _RECORD_FIELDS
        }
        ids = fields["req_id"]
        # A stable sort: ties keep part order, then row order, so a
        # merge of merges equals one flat merge.
        order = sorted(range(len(ids)), key=ids.__getitem__)
        if any(map(ne, order, range(len(order)))):
            for name, values in fields.items():
                fields[name] = list(map(values.__getitem__, order))
        return cls(fields)

    def replace(self, **fields: list) -> "ColumnRecords":
        """These records with the named field columns replaced by
        ``fields`` (lists in row order); the other fields are read from
        ``self``."""
        return ColumnRecords({
            name: fields[name] if name in fields else self.column(name)
            for name in _RECORD_FIELDS
        })

    def __len__(self) -> int:
        return self._size if self._items is None else len(self._items)

    def column(self, name: str) -> list:
        """The ``name`` field (or derived property) of every record, in
        row order.  The list may be shared: callers must not modify
        it."""
        return self.columns((name,))[0]

    def columns(self, names: Sequence[str]) -> List[list]:
        """:meth:`column` of each of ``names``, reading every field the
        columns need once."""
        if self._items is not None:
            return [list(map(attrgetter(name), self._items))
                    for name in names]
        read: Dict[str, list] = {}

        def field(name: str) -> list:
            values = read.get(name)
            if values is None:
                values = read[name] = self._field(name)
            return values

        return [_derived(name, field) if name in _DERIVED else field(name)
                for name in names]

    def _field(self, name: str) -> list:
        values = self._fields[name]
        if self._rows is not None:
            return list(map(values.__getitem__, self._rows))
        # An engine's column may have grown since; the rows are its
        # prefix.
        return values if len(values) == self._size else values[:self._size]

    def _materialize(self) -> List[RequestRecord]:
        if self._items is None:
            items = list(map(RequestRecord, *self.columns(_RECORD_FIELDS)))
            # From here on the objects are the records (a caller may
            # edit them).
            self._fields = self._rows = None
            self._items = items
        return self._items

    def __getitem__(self, index):
        return self._materialize()[index]

    def __setitem__(self, index, value) -> None:
        self._materialize()[index] = value

    def __delitem__(self, index) -> None:
        del self._materialize()[index]

    def insert(self, index: int, value: RequestRecord) -> None:
        """Insert ``value`` before ``index``, as ``list.insert`` does."""
        self._materialize().insert(index, value)

    def __iter__(self):
        return iter(self._materialize())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"ColumnRecords({len(self)} records)"


@dataclass
class RankStats:
    """Per-replica aggregate counters for one simulation."""

    rank: int
    finish_s: float = 0.0
    busy_s: float = 0.0
    energy_j: float = 0.0
    prefill_tokens: int = 0
    output_tokens: int = 0
    decode_iterations: int = 0
    preemptions: int = 0
    requeues: int = 0
    recompute_tokens: int = 0
    kv_peak_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_hit_tokens: int = 0
    kv_logical_bytes: int = 0
    kv_reserved_bytes: int = 0
    kv_final_bytes: int = 0

    @property
    def utilization(self) -> float:
        """Busy share of the rank's active window."""
        return self.busy_s / self.finish_s if self.finish_s > 0 else 0.0


@dataclass
class ServingResult:
    """Everything a simulation produced, ready for metric aggregation."""

    config: ServingConfig
    #: One record per request, sorted by ``req_id``: a
    #: :class:`ColumnRecords` over the engines' outcome columns for a
    #: simulated result (any sequence of records is accepted).
    records: Sequence[RequestRecord]
    rank_stats: List[RankStats]
    kv_capacity_bytes: int
    weight_bytes: int
    #: Per-rank :class:`~repro.serving.engine.cache.PrefixCache`
    #: instances at drain (empty when the cache is disabled, and for
    #: replayed results).
    prefix_caches: Tuple = ()

    @property
    def makespan_s(self) -> float:
        """Time from trace start until the last rank goes idle."""
        return max((rs.finish_s for rs in self.rank_stats), default=0.0)

    @property
    def total_energy_j(self) -> float:
        """Energy across every replica, in joules."""
        return sum(rs.energy_j for rs in self.rank_stats)

    @property
    def output_tokens(self) -> int:
        """Tokens generated across every replica."""
        return sum(rs.output_tokens for rs in self.rank_stats)

    @property
    def prefill_tokens(self) -> int:
        """Prompt (and recomputed prefix) tokens prefilled across replicas."""
        return sum(rs.prefill_tokens for rs in self.rank_stats)

    @property
    def preemptions(self) -> int:
        """KV-pressure evictions across every replica."""
        return sum(rs.preemptions for rs in self.rank_stats)

    @property
    def cache_hits(self) -> int:
        """Prefix-cache admission hits across every replica."""
        return sum(rs.cache_hits for rs in self.rank_stats)

    @property
    def cache_misses(self) -> int:
        """Prefix-cache admission misses across every replica."""
        return sum(rs.cache_misses for rs in self.rank_stats)

    @property
    def cache_evictions(self) -> int:
        """Prefix-cache entry evictions across every replica."""
        return sum(rs.cache_evictions for rs in self.rank_stats)
