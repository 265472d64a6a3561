"""Deployment/scheduling configuration for one serving simulation.

:class:`ServingConfig` is the frozen knob bundle every layer above the
rank engine shares: the driver (:mod:`repro.serving.engine.driver`)
builds one cost spine and one engine per rank from it, and the cluster
layer (:mod:`repro.serving.cluster`) holds one per deployment — a
cluster is heterogeneous precisely because each deployment carries its
own ``ServingConfig``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.kernels.cost import COST_KERNELS
from repro.serving.policy import POLICIES, SchedulingPolicy, get_policy

__all__ = ["ENGINES", "ServingConfig"]

#: Decode-advance strategies accepted by :class:`ServingConfig`: the
#: default event-driven closed-form segments, or the per-token reference
#: loop.
ENGINES = ("event", "loop")


@dataclass(frozen=True)
class ServingConfig:
    """Deployment and scheduling knobs for one serving simulation.

    Attributes
    ----------
    model / scheme / kernel:
        Workload: model-config name, ``WxAy`` scheme for the weight
        projections, and the weight-GEMM kernel.
    num_ranks:
        Model replicas (one UPMEM rank each); requests shard across them.
    dpus_per_rank:
        DPUs (and MRAM banks) per replica.
    max_batch:
        Concurrent decoding requests per rank.
    policy:
        Scheduling-policy name from :data:`repro.serving.policy.POLICIES`
        (``fcfs`` / ``sjf`` / ``priority`` / ``chunked_prefill``).
    prefill_chunk_tokens:
        Per-iteration prefill token budget used by the
        ``chunked_prefill`` policy (ignored by the others).
    engine:
        Decode-advance strategy from :data:`ENGINES`: the default
        ``"event"`` (closed-form multi-token segments between scheduler
        events, with bulk paths for wide batches), or the per-token
        reference ``"loop"``.
    prefix_cache:
        Enable the per-rank KV :class:`~repro.serving.engine.cache.PrefixCache`
        (off by default; when off the simulator is bit-identical to the
        pre-cache behavior).
    """

    model: str = "gpt-350m"
    scheme: str = "W1A3"
    kernel: str = "lut_gemm"
    num_ranks: int = 4
    dpus_per_rank: int = 64
    max_batch: int = 16
    policy: str = "fcfs"
    prefill_chunk_tokens: int = 32
    engine: str = "event"
    prefix_cache: bool = False

    def __post_init__(self) -> None:
        if self.kernel not in COST_KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; expected one of {COST_KERNELS}"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown serving engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown scheduling policy {self.policy!r}; expected one of "
                f"{tuple(sorted(POLICIES))}"
            )
        for name in ("num_ranks", "dpus_per_rank", "max_batch",
                     "prefill_chunk_tokens"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def make_policy(self) -> SchedulingPolicy:
        """Instantiate this config's scheduling policy.

        ``prefill_chunk_tokens`` is forwarded to any registered policy
        whose constructor takes a ``chunk_tokens`` option.
        """
        cls = POLICIES[self.policy]
        if "chunk_tokens" in inspect.signature(cls).parameters:
            return get_policy(self.policy, chunk_tokens=self.prefill_chunk_tokens)
        return get_policy(self.policy)
