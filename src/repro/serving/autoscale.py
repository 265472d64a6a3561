"""Queue-driven autoscaling for cluster deployments.

The :class:`Autoscaler` runs at a fixed control interval inside the
cluster's arrival loop and adjusts each deployment's replica count:

* **Scale up** when the deployment's waiting-queue depth exceeds
  ``queue_high`` requests per active replica (and the replica cap is
  not reached).  The new replica is *not* free: its packed weights must
  be broadcast to the new rank first, charged through
  :meth:`repro.pim.transfer.TransferModel.broadcast_s`, so the replica
  only starts collecting work ``cold_start_s`` after the decision.
* **Scale down** when the depth falls below ``queue_low`` per replica
  and some replica is fully idle; the idle replica is retired (its
  stats remain part of the result, it just stops receiving work).

Cold starts are the cluster-level analogue of the weight-loading phase
in the single-deployment cost model: capacity is elastic, but every
elastic step pays the DRAM-PIM weight-transfer toll, which is what
makes scale-up decisions non-trivial at serving timescales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.pim.transfer import TransferModel

__all__ = ["AutoscalerConfig", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Control-loop knobs for the :class:`Autoscaler`.

    ``queue_high`` / ``queue_low`` are waiting requests *per active
    replica*; ``interval_s`` is the minimum simulated time between
    control rounds; ``min_replicas`` / ``max_replicas`` bound every
    deployment's replica count (the configured ``num_ranks`` may start
    below the max and above the min).
    """

    min_replicas: int = 1
    max_replicas: int = 8
    queue_high: float = 8.0
    queue_low: float = 1.0
    interval_s: float = 60.0

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas ({self.max_replicas}) must be >= "
                f"min_replicas ({self.min_replicas})"
            )
        if not 0.0 <= self.queue_low < self.queue_high < math.inf:
            raise ValueError(
                f"need 0 <= queue_low < queue_high < inf, got "
                f"queue_low={self.queue_low}, queue_high={self.queue_high}"
            )
        if not 0.0 < self.interval_s < math.inf:
            raise ValueError(
                f"interval_s must be finite and > 0, got {self.interval_s}"
            )


class Autoscaler:
    """Per-deployment replica controller with cold-start accounting.

    One instance per cluster run.  ``scale_events`` is the chronological
    action log (each entry: ``t_s`` / ``deployment`` / ``action`` /
    ``replicas`` after the action, plus ``cold_start_s`` and
    ``weight_bytes`` for scale-ups); ``cold_start_s`` /
    ``cold_start_bytes`` accumulate the weight-transfer charges, and the
    shared :class:`~repro.pim.transfer.TransferModel` tracks the same
    bytes in its own ``bytes_moved`` ledger.
    """

    def __init__(
        self,
        config: Optional[AutoscalerConfig] = None,
        transfer: Optional[TransferModel] = None,
    ) -> None:
        self.config = config if config is not None else AutoscalerConfig()
        self.transfer = transfer if transfer is not None else TransferModel()
        self.scale_events: List[dict] = []
        self.cold_start_s = 0.0
        self.cold_start_bytes = 0
        self._last_control = -math.inf
        self._replaced: set = set()  # dead ranks already replaced

    def cold_start_s_for(self, deployment) -> float:
        """Weight-broadcast seconds to bring up one replica of
        ``deployment`` (one rank's packed weights over the host bus)."""
        return self.transfer.broadcast_s(deployment.weight_bytes)

    def control(self, t: float, cluster) -> None:
        """One control round at simulation time ``t`` (rate-limited to
        the configured interval; at most one action per deployment).

        Per deployment, in priority order: **replace** one crashed
        replica (a fresh rank, paying the full cold-start broadcast —
        a corpse's MRAM contents are gone), else **scale up** on queue
        pressure — reusing a warm retiree for free when one exists,
        cold-starting a new rank otherwise — else **scale down** an
        idle replica under the low-water mark.  Every logged event
        carries the observed queue ``depth`` and the ``threshold`` the
        decision compared it against.
        """
        cfg = self.config
        if t - self._last_control < cfg.interval_s:
            return
        self._last_control = t
        tracer = cluster._trace
        for deployment in cluster.deployments:
            depth = deployment.queue_depth(t)
            replicas = len(deployment.active_engines())
            corpse = next(
                (e for e in deployment.dead_engines()
                 if e.rank not in self._replaced), None,
            )
            if corpse is not None and replicas < cfg.max_replicas:
                self._replaced.add(corpse.rank)
                cold = self.cold_start_s_for(deployment)
                self.cold_start_s += cold
                self.cold_start_bytes += deployment.weight_bytes
                deployment.add_replica(cluster.allocate_rank(), ready_s=t + cold)
                deployment.replacements += 1
                replicas += 1
                self.scale_events.append({
                    "t_s": t,
                    "deployment": deployment.name,
                    "action": "replace",
                    "replicas": replicas,
                    "cold_start_s": cold,
                    "weight_bytes": deployment.weight_bytes,
                    "dead_rank": corpse.rank,
                    "depth": depth,
                    "threshold": cfg.queue_high * replicas,
                })
                if tracer is not None:
                    tracer.emit(
                        "replace", t, -1, deployment=deployment.name,
                        replicas=replicas, cold_start_s=cold,
                        weight_bytes=deployment.weight_bytes,
                        dead_rank=corpse.rank,
                    )
                continue
            if replicas < cfg.max_replicas and depth > cfg.queue_high * replicas:
                threshold = cfg.queue_high * replicas
                warm = deployment.reuse_replica()
                if warm is not None:
                    cold = 0.0
                else:
                    cold = self.cold_start_s_for(deployment)
                    self.cold_start_s += cold
                    self.cold_start_bytes += deployment.weight_bytes
                    deployment.add_replica(
                        cluster.allocate_rank(), ready_s=t + cold
                    )
                deployment.scale_ups += 1
                replicas += 1
                action = "scale_up_warm" if warm is not None else "scale_up"
                weight_bytes = 0 if warm is not None else deployment.weight_bytes
                self.scale_events.append({
                    "t_s": t,
                    "deployment": deployment.name,
                    "action": action,
                    "replicas": replicas,
                    "cold_start_s": cold,
                    "weight_bytes": weight_bytes,
                    "depth": depth,
                    "threshold": threshold,
                })
                if tracer is not None:
                    tracer.emit(
                        action, t, -1, deployment=deployment.name,
                        replicas=replicas, cold_start_s=cold,
                        weight_bytes=weight_bytes, depth=depth,
                        threshold=threshold,
                    )
            elif replicas > cfg.min_replicas and depth < cfg.queue_low * replicas:
                threshold = cfg.queue_low * replicas
                victim = deployment.idle_engine()
                if victim is None:
                    continue
                deployment.retire(victim)
                deployment.scale_downs += 1
                replicas -= 1
                self.scale_events.append({
                    "t_s": t,
                    "deployment": deployment.name,
                    "action": "scale_down",
                    "replicas": replicas,
                    "depth": depth,
                    "threshold": threshold,
                })
                if tracer is not None:
                    tracer.emit(
                        "scale_down", t, -1, deployment=deployment.name,
                        replicas=replicas, depth=depth, threshold=threshold,
                    )
