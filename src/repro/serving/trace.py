"""Synthetic request traces for the serving simulator.

A trace is a :class:`Trace`: a sequence of :class:`Request` records —
arrival time, prompt length, generation length, priority tier, optional
TTFT SLO and the conversational session/prefix fields — stored as one
numpy column per field and sorted by arrival.  Columnar consumers read
the columns; the request objects are built from them only when someone
reads an element.  The generator is fully seeded; equal specs always
produce identical traces.  Four arrival **scenarios** are available
(:data:`SCENARIOS`):

* ``steady`` — homogeneous Poisson arrivals (exponential inter-arrival
  gaps at ``arrival_rate_per_s``), the shape commonly used to model
  production LLM serving traffic,
* ``bursty`` — a two-state Markov-modulated Poisson process (MMPP):
  the process alternates between a *calm* state at the base rate and a
  *burst* state at ``burst_rate_multiplier`` times the base rate, with
  exponentially distributed dwell times, producing the arrival bursts
  that stress admission control and preemption,
* ``diurnal`` — a non-homogeneous Poisson process whose rate follows a
  sinusoidal day/night cycle, ``rate(t) = base * (1 + amplitude *
  sin(2 pi t / period))``, drawn by thinning.
* ``conversational`` — session-structured multi-turn traffic: sessions
  start as a Poisson process, each holds a correlated sequence of turns
  separated by exponential think-time gaps, every turn's prompt carries
  a shared system prompt (drawn from a small pool) plus the full prior
  context of the session (earlier prompts and replies), so consecutive
  turns share a growing token prefix — the shape a KV prefix cache
  exploits.

All draws are vectorised numpy block draws (no per-request RNG calls),
so 100k-request traces generate in milliseconds.

Prompt/generation lengths are log-normal with configurable mean/shape,
clipped to maxima.  Priority tiers are sampled from
``priority_weights`` (tier 0 first, most important), and each tier may
carry a time-to-first-token SLO from ``slo_ttft_s``.

>>> from repro.serving.trace import TraceSpec, generate_trace
>>> trace = generate_trace(TraceSpec(num_requests=3, seed=7))
>>> [r.req_id for r in trace]
[0, 1, 2]
>>> trace == generate_trace(TraceSpec(num_requests=3, seed=7))  # seeded
True
>>> all(r.prompt_tokens >= 1 and r.gen_tokens >= 1 for r in trace)
True
>>> bursty = generate_trace(TraceSpec(num_requests=3, seed=7, scenario="bursty"))
>>> all(b.arrival_s > 0 for b in bursty)
True
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.experiments.io import RowTable

__all__ = [
    "Request",
    "Trace",
    "TraceSpec",
    "SCENARIOS",
    "generate_trace",
    "trace_rows",
    "rows_to_trace",
]

#: Arrival scenarios understood by :func:`generate_trace`.
SCENARIOS = ("steady", "bursty", "diurnal", "conversational")


@dataclass(frozen=True)
class Request:
    """One inference request in a serving trace.

    Attributes
    ----------
    req_id:
        Stable identifier (trace order).
    arrival_s:
        Arrival time in seconds from trace start.
    prompt_tokens:
        Prompt length processed by the prefill phase.
    gen_tokens:
        Tokens to generate (decode steps; the request completes when the
        last one is produced).
    priority:
        Priority tier, 0 = most important.  Only the ``priority``
        scheduling policy interprets it; the default trace puts every
        request in tier 0.
    slo_ttft_s:
        Time-to-first-token SLO in seconds (0 = no SLO).  Feeds the
        SLO-attainment metric and the ``priority`` policy's deadlines.
    session_id:
        Conversation the request belongs to (-1 = single-shot).  The
        scheduler shards all turns of a session onto the same rank so
        the prefix cache can serve them.
    turn:
        Zero-based turn index within the session.
    shared_prefix_id:
        System-prompt identity shared across sessions (-1 = none).
        Turns with the same id begin with the same
        ``shared_prefix_tokens``-token prefix.
    shared_prefix_tokens:
        Length of the shared system prompt at the head of the prompt.
    context_tokens:
        Carried-over session context (all earlier prompts and replies of
        this session) sitting between the shared prefix and the new user
        message.  ``prompt_tokens`` always covers shared prefix +
        context + at least one new token.
    final_turn:
        True when this is the session's last turn, so the scheduler can
        stop retaining the session's KV prefix for a successor.
    """

    req_id: int
    arrival_s: float
    prompt_tokens: int
    gen_tokens: int
    priority: int = 0
    slo_ttft_s: float = 0.0
    session_id: int = -1
    turn: int = 0
    shared_prefix_id: int = -1
    shared_prefix_tokens: int = 0
    context_tokens: int = 0
    final_turn: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.arrival_s < math.inf:
            raise ValueError(
                f"arrival_s must be finite and non-negative, got {self.arrival_s}"
            )
        if self.prompt_tokens < 1:
            raise ValueError(f"prompt_tokens must be >= 1, got {self.prompt_tokens}")
        if self.gen_tokens < 1:
            raise ValueError(f"gen_tokens must be >= 1, got {self.gen_tokens}")
        if self.priority < 0:
            raise ValueError(f"priority must be >= 0, got {self.priority}")
        if not 0 <= self.slo_ttft_s < math.inf:
            raise ValueError(
                f"slo_ttft_s must be finite and >= 0, got {self.slo_ttft_s}"
            )
        if self.turn < 0:
            raise ValueError(f"turn must be >= 0, got {self.turn}")
        if self.shared_prefix_tokens < 0 or self.context_tokens < 0:
            raise ValueError(
                f"prefix/context token counts must be >= 0, got "
                f"{self.shared_prefix_tokens}/{self.context_tokens}"
            )
        if self.shared_prefix_id < 0 and self.shared_prefix_tokens > 0:
            raise ValueError(
                "shared_prefix_tokens requires a shared_prefix_id >= 0"
            )
        if self.prompt_tokens < self.shared_prefix_tokens + self.context_tokens + 1:
            raise ValueError(
                f"prompt_tokens ({self.prompt_tokens}) must cover the shared "
                f"prefix ({self.shared_prefix_tokens}) + carried context "
                f"({self.context_tokens}) + at least one new token"
            )


#: ``(name, dtype, default)`` of every :class:`Request` field in
#: constructor order -- the columns of a :class:`Trace`.  ``default`` is
#: ``MISSING`` for the four required fields.
_COLUMNS = tuple(
    (f.name, {"int": np.int64, "float": np.float64, "bool": np.bool_}[f.type],
     f.default)
    for f in fields(Request)
)
#: Every :class:`Request` field name, in constructor order.
_REQUEST_FIELDS = tuple(name for name, _, _ in _COLUMNS)


_new = object.__new__
_set = object.__setattr__


def _unchecked_request(req_id, arrival_s, prompt_tokens, gen_tokens,
                       priority, slo_ttft_s, session_id, turn,
                       shared_prefix_id, shared_prefix_tokens,
                       context_tokens, final_turn) -> Request:
    """A :class:`Request` with these field values, built without
    :meth:`Request.__post_init__`.

    Only for rows already validated -- by :class:`Trace`'s column check
    or by an earlier ``Request`` -- so each row is checked exactly once.
    The fields are set one by one, as the dataclass constructor sets
    them (a bulk ``__dict__`` update would give every object its own
    dict, a third larger), so the object equals ``Request(*row)`` under
    ``==``, ``hash`` and ``repr`` and has the same size.
    """
    request = _new(Request)
    _set(request, "req_id", req_id)
    _set(request, "arrival_s", arrival_s)
    _set(request, "prompt_tokens", prompt_tokens)
    _set(request, "gen_tokens", gen_tokens)
    _set(request, "priority", priority)
    _set(request, "slo_ttft_s", slo_ttft_s)
    _set(request, "session_id", session_id)
    _set(request, "turn", turn)
    _set(request, "shared_prefix_id", shared_prefix_id)
    _set(request, "shared_prefix_tokens", shared_prefix_tokens)
    _set(request, "context_tokens", context_tokens)
    _set(request, "final_turn", final_turn)
    return request


def _invalid_rows(columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Mask of the rows :meth:`Request.__post_init__` would refuse (the
    same rules, one numpy pass each)."""
    arrival = columns["arrival_s"]
    slo = columns["slo_ttft_s"]
    prompt = columns["prompt_tokens"]
    shared = columns["shared_prefix_tokens"]
    context = columns["context_tokens"]
    return (
        ~((arrival >= 0) & (arrival < np.inf))
        | (prompt < 1)
        | (columns["gen_tokens"] < 1)
        | (columns["priority"] < 0)
        | ~((slo >= 0) & (slo < np.inf))
        | (columns["turn"] < 0)
        | (shared < 0)
        | (context < 0)
        | ((columns["shared_prefix_id"] < 0) & (shared > 0))
        | (prompt < shared + context + 1)
    )


class Trace(Sequence):
    """An immutable request trace: a sequence of :class:`Request` over columns.

    The trace's only state is :attr:`columns`, which maps every
    :class:`Request` field name, in constructor order, to an
    equal-length read-only numpy array (``int64`` / ``float64`` /
    ``bool``).  Columnar consumers (the rank engine's
    ``submit_columns``) read the columns directly, so a generated million-request trace is never
    boxed into objects.  The :class:`Request` items are built from the
    columns on first element access (one ``tolist()`` per column) and
    kept; the columns were validated on the way in, so the objects are
    built without re-running :meth:`Request.__post_init__`.  Slicing
    returns a ``Trace`` over the sliced columns that reuses any items
    already built, and ``==`` compares element-wise against any
    sequence.

    ``Trace(columns)`` takes a mapping of array-likes; fields with a
    :class:`Request` default may be omitted and are filled with it.
    Every row is checked against the :meth:`Request.__post_init__`
    rules, vectorized, and the first bad row raises that request's own
    ``ValueError``, so no engine — object or columnar — sees a request
    its constructor would refuse.
    :meth:`of` wraps a list of request objects, and :meth:`ordered` puts
    a trace in the ``(arrival_s, req_id)`` order the engines consume.
    """

    def __init__(self, columns: Mapping[str, Iterable]) -> None:
        unknown = sorted(set(columns) - {name for name, _, _ in _COLUMNS})
        if unknown:
            raise ValueError(f"unknown trace column(s) {unknown}")
        n = len(columns["req_id"])
        arrays = {}
        for name, dtype, default in _COLUMNS:
            if name in columns:
                array = np.asarray(columns[name], dtype=dtype).view()
            elif default is MISSING:
                raise ValueError(f"trace column {name!r} is required")
            else:
                array = np.full(n, default, dtype=dtype)
            if array.shape != (n,):
                raise ValueError(
                    f"trace column {name!r} has shape {array.shape}, "
                    f"expected ({n},)"
                )
            arrays[name] = array
        bad = np.flatnonzero(_invalid_rows(arrays))
        if bad.size:
            # Building the first bad row raises its own Request error.
            row = int(bad[0])
            Request(*(array[row].item() for array in arrays.values()))
        self._set(arrays, None)

    def _set(self, columns: dict, items: Optional[List[Request]]) -> None:
        for array in columns.values():
            array.flags.writeable = False
        #: Field name -> read-only column array, in trace order.
        self.columns = columns
        self._items = items

    @classmethod
    def _wrap(cls, columns: dict, items: Optional[List[Request]]) -> "Trace":
        trace = cls.__new__(cls)
        trace._set(columns, items)
        return trace

    @classmethod
    def of(cls, requests: Iterable[Request]) -> "Trace":
        """``requests`` as a :class:`Trace`: a trace is returned unchanged;
        any other iterable has its columns extracted once, and its
        request objects are kept as the trace's items."""
        if isinstance(requests, Trace):
            return requests
        items = list(requests)
        return cls._wrap(
            {
                name: np.fromiter(
                    map(operator.attrgetter(name), items), dtype, len(items)
                )
                for name, dtype, _ in _COLUMNS
            },
            items,
        )

    def ordered(self) -> "Trace":
        """This trace sorted by ``(arrival_s, req_id)`` (stable); ``self``
        when it already is -- the one place arrival order is decided."""
        arrival = self.columns["arrival_s"]
        req_id = self.columns["req_id"]
        later, earlier = arrival[1:], arrival[:-1]
        if not np.any(
            (later < earlier) | ((later == earlier) & (req_id[1:] < req_id[:-1]))
        ):
            return self
        order = np.lexsort((req_id, arrival))
        items = self._items
        return self._wrap(
            {name: array[order] for name, array in self.columns.items()},
            None if items is None else [items[i] for i in order.tolist()],
        )

    def _requests(self) -> List[Request]:
        if self._items is None:
            self._items = list(map(
                _unchecked_request,
                *(array.tolist() for array in self.columns.values()),
            ))
        return self._items

    def __len__(self) -> int:
        return len(self.columns["req_id"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            items = self._items
            return self._wrap(
                {name: array[index] for name, array in self.columns.items()},
                None if items is None else items[index],
            )
        return self._requests()[index]

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"Trace({len(self)} requests)"


@dataclass(frozen=True)
class TraceSpec:
    """Declarative description of a synthetic trace.

    Attributes
    ----------
    num_requests:
        Trace length.
    arrival_rate_per_s:
        Mean request arrival rate in the base (calm) state.
    scenario:
        One of :data:`SCENARIOS`: ``steady`` Poisson arrivals, ``bursty``
        two-state MMPP, or ``diurnal`` sinusoidal rate modulation.
    burst_rate_multiplier / burst_dwell_s / calm_dwell_s:
        Bursty (MMPP) knobs: the burst-state rate is ``base *
        burst_rate_multiplier``; dwell times in each state are
        exponential with these means.
    diurnal_period_s / diurnal_amplitude:
        Diurnal knobs: rate swings by ``amplitude`` (in ``[0, 1]``)
        around the base over a ``period_s`` cycle.
    prompt_mean / prompt_sigma / prompt_max:
        Log-normal prompt-length distribution: ``prompt_mean`` is the
        distribution mean in tokens, ``prompt_sigma`` the log-space
        shape, ``prompt_max`` a hard clip (lengths are also floored at
        one token).
    gen_mean / gen_sigma / gen_max:
        Same three knobs for the generation length.
    sessions / turns_mean / turns_max / think_time_mean_s:
        Conversational knobs: the trace is split across ``sessions``
        conversations (capped at ``num_requests``); per-session turn
        counts are ``1 + Poisson(turns_mean - 1)`` clipped to
        ``turns_max`` and rebalanced so they sum to ``num_requests``
        exactly; consecutive turns are separated by exponential
        think-time gaps with mean ``think_time_mean_s``.  For the
        conversational scenario ``prompt_mean``/``prompt_sigma`` size
        the *new user message* of each turn; the full prompt adds the
        shared prefix and carried context on top (and may exceed
        ``prompt_max``, which clips only the user-message draw).
    system_prompt_pool / system_prompt_tokens:
        Each session samples one of ``system_prompt_pool`` system
        prompts of ``system_prompt_tokens`` tokens, shared across
        sessions — the cross-session prefix a KV cache deduplicates.
        Either knob at 0 disables shared prefixes.
    priority_weights:
        Sampling weights for priority tiers 0..n-1 (tier 0 most
        important).  The default single tier reproduces priority-free
        traces.  Conversational traces draw one tier per session.
    slo_ttft_s:
        Per-tier TTFT SLOs in seconds; empty = no SLOs, otherwise must
        match ``priority_weights`` in length (0 entries mean "no SLO
        for this tier").
    seed:
        RNG seed; equal specs generate identical traces.
    """

    num_requests: int = 64
    arrival_rate_per_s: float = 4.0
    scenario: str = "steady"
    burst_rate_multiplier: float = 8.0
    burst_dwell_s: float = 2.0
    calm_dwell_s: float = 8.0
    diurnal_period_s: float = 60.0
    diurnal_amplitude: float = 0.8
    prompt_mean: float = 128.0
    prompt_sigma: float = 0.6
    prompt_max: int = 1024
    gen_mean: float = 64.0
    gen_sigma: float = 0.6
    gen_max: int = 512
    sessions: int = 8
    turns_mean: float = 4.0
    turns_max: int = 64
    think_time_mean_s: float = 10.0
    system_prompt_pool: int = 4
    system_prompt_tokens: int = 128
    priority_weights: Tuple[float, ...] = (1.0,)
    slo_ttft_s: Tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_requests < 0:
            raise ValueError(f"num_requests must be >= 0, got {self.num_requests}")
        if not self.arrival_rate_per_s > 0:
            raise ValueError(
                f"arrival_rate_per_s must be positive, got {self.arrival_rate_per_s}"
            )
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        if not self.burst_rate_multiplier > 0:
            raise ValueError(
                f"burst_rate_multiplier must be positive, "
                f"got {self.burst_rate_multiplier}"
            )
        for name in ("burst_dwell_s", "calm_dwell_s", "diurnal_period_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1], got {self.diurnal_amplitude}"
            )
        for name in ("prompt_mean", "gen_mean"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("prompt_sigma", "gen_sigma"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("prompt_max", "gen_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("sessions", "turns_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.turns_mean >= 1:
            raise ValueError(f"turns_mean must be >= 1, got {self.turns_mean}")
        for name in ("think_time_mean_s", "system_prompt_pool",
                     "system_prompt_tokens"):
            if not getattr(self, name) >= 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if not self.priority_weights:
            raise ValueError("priority_weights must name at least one tier")
        if not all(w > 0 for w in self.priority_weights):
            raise ValueError(
                f"priority_weights must be positive, got {self.priority_weights}"
            )
        if self.slo_ttft_s:
            if len(self.slo_ttft_s) != len(self.priority_weights):
                raise ValueError(
                    f"slo_ttft_s must be empty or match priority_weights in "
                    f"length ({len(self.priority_weights)}), got "
                    f"{len(self.slo_ttft_s)} entries"
                )
            if not all(0 <= s < math.inf for s in self.slo_ttft_s):
                raise ValueError(
                    f"slo_ttft_s must be finite and >= 0, got {self.slo_ttft_s}"
                )


def _lengths(
    rng: np.random.Generator, count: int, mean: float, sigma: float, maximum: int
) -> np.ndarray:
    """Clipped integer log-normal lengths with the requested mean."""
    # E[lognormal(mu, sigma)] = exp(mu + sigma^2 / 2); solve for mu.
    mu = math.log(mean) - 0.5 * sigma * sigma
    raw = rng.lognormal(mean=mu, sigma=sigma, size=count)
    return np.clip(np.rint(raw).astype(int), 1, maximum)


def _steady_arrivals(rng: np.random.Generator, spec: TraceSpec) -> np.ndarray:
    """Homogeneous Poisson arrivals at the base rate."""
    gaps = rng.exponential(
        scale=1.0 / spec.arrival_rate_per_s, size=spec.num_requests
    )
    return np.cumsum(gaps)


def _bursty_arrivals(rng: np.random.Generator, spec: TraceSpec) -> np.ndarray:
    """Two-state MMPP arrivals: calm at the base rate, bursts above it.

    Vectorised construction: dwell intervals alternate calm/burst with
    exponential durations, each interval's arrival count is Poisson at
    ``rate * duration``, and the arrival times inside an interval are
    uniform order statistics — the textbook-equivalent decomposition of
    a Markov-modulated Poisson process, drawn in numpy blocks instead
    of one scalar draw per arrival.  (The process law is unchanged from
    the original per-request generator, but the RNG draw order is not;
    the serving goldens were regenerated when this landed.)
    """
    rates = np.array(
        [spec.arrival_rate_per_s,
         spec.arrival_rate_per_s * spec.burst_rate_multiplier]
    )
    dwell_means = np.array([spec.calm_dwell_s, spec.burst_dwell_s])
    target = spec.num_requests
    if target == 0:
        return np.empty(0)
    per_cycle = float(rates @ dwell_means)  # expected arrivals per 2 dwells
    chunks: List[np.ndarray] = []
    drawn = 0
    t = 0.0
    state = 0  # start calm
    while drawn < target:
        need = target - drawn
        intervals = 2 * max(4, math.ceil(need / max(per_cycle, 1e-9))) + 2
        means = dwell_means[(state + np.arange(intervals)) % 2]
        durations = rng.exponential(scale=1.0, size=intervals) * means
        starts = t + np.concatenate(([0.0], np.cumsum(durations[:-1])))
        counts = rng.poisson(rates[(state + np.arange(intervals)) % 2] * durations)
        # (0, 1] offsets keep every arrival strictly after trace start.
        offsets = 1.0 - rng.uniform(size=int(counts.sum()))
        arrivals = np.repeat(starts, counts) + offsets * np.repeat(durations, counts)
        chunks.append(arrivals)
        drawn += len(arrivals)
        t = starts[-1] + durations[-1]
        state = (state + intervals) % 2
    # Dwell intervals are disjoint and increasing, so one global sort
    # orders arrivals within and across intervals alike.
    return np.sort(np.concatenate(chunks))[:target]


def _diurnal_arrivals(rng: np.random.Generator, spec: TraceSpec) -> np.ndarray:
    """Sinusoidally modulated Poisson arrivals, drawn by thinning.

    Vectorised thinning: candidate arrivals come from a homogeneous
    Poisson process at the peak rate (block exponential draws), and each
    candidate survives with probability ``rate(t) / rate_max`` (block
    uniform draws) — the same acceptance law as the original
    candidate-at-a-time loop, with a different RNG draw order.
    """
    base = spec.arrival_rate_per_s
    amplitude = spec.diurnal_amplitude
    omega = 2.0 * math.pi / spec.diurnal_period_s
    rate_max = base * (1.0 + amplitude)
    target = spec.num_requests
    if target == 0:
        return np.empty(0)
    # Time-averaged acceptance probability is 1 / (1 + amplitude).
    chunks: List[np.ndarray] = []
    accepted = 0
    t = 0.0
    while accepted < target:
        need = target - accepted
        block = max(16, math.ceil(need * (1.0 + amplitude) * 1.25))
        candidates = t + np.cumsum(rng.exponential(scale=1.0 / rate_max, size=block))
        rate_t = base * (1.0 + amplitude * np.sin(omega * candidates))
        keep = candidates[rng.uniform(size=block) * rate_max <= rate_t]
        chunks.append(keep)
        accepted += len(keep)
        t = float(candidates[-1])
    return np.concatenate(chunks)[:target]


_ARRIVAL_GENERATORS = {
    "steady": _steady_arrivals,
    "bursty": _bursty_arrivals,
    "diurnal": _diurnal_arrivals,
}


def _turn_counts(rng: np.random.Generator, spec: TraceSpec, s: int) -> np.ndarray:
    """Per-session turn counts summing to exactly ``num_requests``.

    Draw ``1 + Poisson(turns_mean - 1)`` per session, clip to
    ``turns_max``, then rebalance in vectorised rounds: surplus turns
    are removed from the longest-drawn sessions first, deficits filled
    one turn per session per round.  Fully seeded; no per-turn draws.
    """
    n = spec.num_requests
    if s * spec.turns_max < n:
        raise ValueError(
            f"conversational trace infeasible: {s} sessions x turns_max "
            f"{spec.turns_max} < num_requests {n}; raise sessions or turns_max"
        )
    counts = 1 + rng.poisson(max(spec.turns_mean - 1.0, 0.0), size=s)
    counts = np.minimum(counts, spec.turns_max)
    deficit = n - int(counts.sum())
    while deficit > 0:
        room = np.flatnonzero(counts < spec.turns_max)
        grow = room[:deficit]
        counts[grow] += 1
        deficit -= grow.size
    while deficit < 0:
        order = np.argsort(-counts, kind="stable")
        rich = order[counts[order] > 1]
        shrink = rich[:-deficit]
        counts[shrink] -= 1
        deficit += shrink.size
    return counts


def _conversational_trace(rng: np.random.Generator, spec: TraceSpec) -> "Trace":
    """Session-structured multi-turn trace (see the module docstring).

    Vectorised construction: session starts are a Poisson process at
    ``arrival_rate_per_s * sessions / num_requests`` (so the long-run
    request rate matches ``arrival_rate_per_s``); turns within a session
    follow at exponential think-time gaps; each turn's prompt is the
    session's shared system prompt + all prior context (earlier user
    messages and replies, *not* clipped by ``prompt_max``) + a fresh
    log-normal user message.  Draw order: turn counts, session starts,
    system-prompt ids, think gaps, user-message lengths, generation
    lengths, per-session priorities.
    """
    n = spec.num_requests
    if n == 0:
        return Trace.of(())
    s = min(spec.sessions, n)
    counts = _turn_counts(rng, spec, s)
    session_rate = spec.arrival_rate_per_s * s / n
    session_starts = np.cumsum(
        rng.exponential(scale=1.0 / session_rate, size=s)
    )
    if spec.system_prompt_pool > 0 and spec.system_prompt_tokens > 0:
        sys_ids = rng.integers(0, spec.system_prompt_pool, size=s)
    else:
        sys_ids = np.full(s, -1)
    shared = np.where(sys_ids >= 0, spec.system_prompt_tokens, 0)
    # starts[k] = flat index of session k's first turn.
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    if spec.think_time_mean_s > 0:
        gaps = rng.exponential(scale=spec.think_time_mean_s, size=n)
    else:
        gaps = np.zeros(n)
    gaps[starts] = 0.0
    cum_gaps = np.cumsum(gaps)
    # Within-session cumulative think time: subtract each session's base.
    offsets = cum_gaps - np.repeat(cum_gaps[starts], counts)
    arrivals = np.repeat(session_starts, counts) + offsets
    users = _lengths(rng, n, spec.prompt_mean, spec.prompt_sigma, spec.prompt_max)
    gens = _lengths(rng, n, spec.gen_mean, spec.gen_sigma, spec.gen_max)
    session_tiers = _tiers(rng, spec, s)
    # Carried context: running total of earlier (user + reply) tokens,
    # rebased per session by the same repeat-of-start trick as arrivals.
    totals = users + gens
    prior = np.cumsum(totals) - totals
    context = prior - np.repeat(prior[starts], counts)
    prompts = np.repeat(shared, counts) + context + users
    turn_idx = np.arange(n) - np.repeat(starts, counts)
    final = turn_idx == np.repeat(counts - 1, counts)
    session_of = np.repeat(np.arange(s), counts)
    tiers = session_tiers[session_of]
    columns = {
        "arrival_s": arrivals,
        "prompt_tokens": prompts,
        "gen_tokens": gens,
        "priority": tiers,
        "slo_ttft_s": _tier_slos(spec, tiers),
        "session_id": session_of,
        "turn": turn_idx,
        "shared_prefix_id": sys_ids[session_of],
        "shared_prefix_tokens": shared[session_of],
        "context_tokens": context,
        "final_turn": final,
    }
    # Turns of one session are already time-ordered; a stable sort keeps
    # them in turn order even when think times are zero.
    order = np.argsort(arrivals, kind="stable")
    return Trace({
        "req_id": np.arange(n),
        **{name: array[order] for name, array in columns.items()},
    })


def _tiers(rng: np.random.Generator, spec: TraceSpec, count: int) -> np.ndarray:
    """``count`` priority tiers drawn from ``priority_weights`` (no draw
    for a single tier)."""
    if len(spec.priority_weights) == 1:
        return np.zeros(count, dtype=int)
    weights = np.asarray(spec.priority_weights, dtype=float)
    return rng.choice(len(weights), size=count, p=weights / weights.sum())


def _tier_slos(spec: TraceSpec, tiers: np.ndarray) -> np.ndarray:
    """Each request's TTFT SLO, from its tier (0 = none)."""
    if not spec.slo_ttft_s:
        return np.zeros(tiers.size)
    return np.asarray(spec.slo_ttft_s, dtype=float)[tiers]


def generate_trace(spec: TraceSpec) -> Trace:
    """Generate the seeded synthetic trace described by ``spec``.

    Draw order is arrivals, prompt lengths, generation lengths, then
    priorities — so for a fixed seed the length marginals are identical
    across scenarios with the same arrival-draw count (``steady``
    traces reproduce the pre-scenario generator draw for draw).

    The returned :class:`Trace` holds the generator's column arrays;
    its :class:`Request` objects are built only if someone reads them.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.num_requests
    if spec.scenario == "conversational":
        return _conversational_trace(rng, spec)
    arrivals = _ARRIVAL_GENERATORS[spec.scenario](rng, spec)
    prompts = _lengths(rng, n, spec.prompt_mean, spec.prompt_sigma, spec.prompt_max)
    gens = _lengths(rng, n, spec.gen_mean, spec.gen_sigma, spec.gen_max)
    tiers = _tiers(rng, spec, n)
    return Trace({
        "req_id": np.arange(n),
        "arrival_s": arrivals,
        "prompt_tokens": prompts,
        "gen_tokens": gens,
        "priority": tiers,
        "slo_ttft_s": _tier_slos(spec, tiers),
    })


def trace_rows(trace: Sequence[Request]) -> RowTable:
    """JSON/CSV-ready rows for a trace, as a
    :class:`~repro.experiments.io.RowTable` with one column per
    :class:`Request` field, in constructor order; no row dict exists
    until a row is read.

    A :class:`Trace` whose request objects were never built is read from
    its columns (``tolist()`` gives the values those objects would
    hold); otherwise the request objects are read attribute by
    attribute, so a caller's values stay as given.
    :func:`~repro.experiments.io.write_json` and ``write_csv`` take the
    table as it is; stdlib ``json`` needs ``list(rows)``.
    """
    if isinstance(trace, Trace) and trace._items is None:
        return RowTable({name: trace.columns[name].tolist()
                         for name in _REQUEST_FIELDS})
    return RowTable({name: list(map(operator.attrgetter(name), trace))
                     for name in _REQUEST_FIELDS})


def rows_to_trace(rows: Sequence[dict]) -> Trace:
    """Inverse of :func:`trace_rows`: rebuild the trace from row dicts.

    ``priority`` / ``slo_ttft_s`` and the session/prefix fields default
    when absent, so traces written before those fields existed still
    load.
    """
    return Trace.of(
        Request(
            req_id=int(row["req_id"]),
            arrival_s=float(row["arrival_s"]),
            prompt_tokens=int(row["prompt_tokens"]),
            gen_tokens=int(row["gen_tokens"]),
            priority=int(row.get("priority", 0)),
            slo_ttft_s=float(row.get("slo_ttft_s", 0.0)),
            session_id=int(row.get("session_id", -1)),
            turn=int(row.get("turn", 0)),
            shared_prefix_id=int(row.get("shared_prefix_id", -1)),
            shared_prefix_tokens=int(row.get("shared_prefix_tokens", 0)),
            context_tokens=int(row.get("context_tokens", 0)),
            final_turn=bool(row.get("final_turn", True)),
        )
        for row in rows
    )
