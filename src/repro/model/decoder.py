"""Functional GPT-style decoder block running on the LUT-GEMM kernel.

One :class:`DecoderBlock` holds *quantized* projection weights and runs a
real forward pass: every weight GEMM (QKV, attention output, FFN up/down)
goes through :func:`repro.kernels.lut_gemm.lut_gemm`, so the numeric
output is exactly what the PIM device would produce, and the returned
:class:`~repro.pim.upmem.ExecutionStats` is the device cost of the block.
The attention score/value matmuls multiply two *dynamic* operands, which
the LUT design does not target (its tables are built per weight tensor);
they are computed in floating point on the host path and costed on the
substrate as native int8-MAC GEMMs at :data:`ATTENTION_SCHEME` precision.

Nonlinearities (LayerNorm, softmax, GELU) run in float — on the real
platform they are fused host/DPU scalar work dwarfed by the GEMMs, and
the paper's model figures account GEMM cost only.

This functional path is meant for small shapes (tests, demos); the
cost-only sweep path in :mod:`repro.model.cost` covers full-size models
and is structurally guaranteed to report the same per-GEMM stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.kernels.baselines import _check_naive_codecs, _naive_cost_stats
from repro.kernels.cost import check_gemm_dims
from repro.kernels.lut_gemm import lut_gemm
from repro.model.config import PROJECTION_NAMES, ModelConfig
from repro.model.policy import SchemePolicy
from repro.pim.upmem import ExecutionStats, UpmemConfig, UpmemSystem
from repro.quant.schemes import resolve_scheme
from repro.quant.tensor import QuantizedTensor

__all__ = [
    "ATTENTION_SCHEME",
    "KVCache",
    "BlockResult",
    "DecoderBlock",
    "attention_gemm_costs",
]

#: Precision at which the dynamic attention matmuls are costed on the
#: substrate (the DPU's native 8-bit multiplier; see module docstring).
ATTENTION_SCHEME = "W8A8"

# Resolved, and checked against the naive kernel's codec limits, once at
# import (a typo or an unsupported precision fails here).
_ATTENTION = resolve_scheme(ATTENTION_SCHEME)
_check_naive_codecs(_ATTENTION.activation_codec, _ATTENTION.weight_codec)


def attention_gemm_costs(
    num_heads: int,
    head_dim: int,
    batch: int,
    seq_q: int,
    kv_len: int,
    system: Optional[UpmemSystem] = None,
) -> Dict[str, ExecutionStats]:
    """Substrate cost of the two dynamic attention matmuls.

    Scores is ``Q @ K^T`` (``[batch*heads*seq_q, head_dim] x [head_dim,
    kv_len]``) and values is ``P @ V`` (``[batch*heads*seq_q, kv_len] x
    [kv_len, head_dim]``), both flattened into one equivalent GEMM and
    costed on the native int8-MAC path at :data:`ATTENTION_SCHEME`
    precision.  This is the single source of truth for those shapes:
    the functional block and the cost-only sweep both call it, so they
    cannot drift apart.  Each call evaluates the naive kernel's
    arithmetic cost tail directly: the result equals
    ``gemm_cost(ATTENTION_SCHEME, ..., kernel="naive_pim_gemm")`` without
    its per-call scheme resolution, memo lookup and copy, and one-off
    attention shapes do not fill the ``gemm_cost`` memo.
    """
    m = batch * num_heads * seq_q
    config = system.config if system is not None else UpmemConfig()
    bits = _ATTENTION.activation_bits
    check_gemm_dims(m, head_dim, kv_len)
    scores = _naive_cost_stats(config, bits, m, head_dim, kv_len)
    check_gemm_dims(m, kv_len, head_dim)
    return {
        "attn_scores": scores,
        "attn_values": _naive_cost_stats(config, bits, m, kv_len, head_dim),
    }


@dataclass
class KVCache:
    """Per-block key/value cache for incremental decoding.

    Attributes
    ----------
    keys, values:
        ``[batch, heads, tokens, head_dim]`` float arrays; host-side
        mirrors of what the device keeps at
        ``bytes_per_value``-byte precision.
    bytes_per_value:
        Device storage per cached element (2 for an FP16 cache).
    """

    keys: np.ndarray
    values: np.ndarray
    bytes_per_value: int = 2

    @property
    def tokens(self) -> int:
        """Number of cached positions."""
        return self.keys.shape[2]

    @property
    def footprint_bytes(self) -> int:
        """Device bytes held by this block's cache."""
        return (self.keys.size + self.values.size) * self.bytes_per_value

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Extend the cache along the token axis."""
        self.keys = np.concatenate([self.keys, keys], axis=2)
        self.values = np.concatenate([self.values, values], axis=2)


@dataclass
class BlockResult:
    """Output of one decoder-block forward pass.

    Attributes
    ----------
    output:
        ``[batch, seq, hidden]`` float activations (residual stream).
    stats:
        Summed :class:`ExecutionStats` over the block's six GEMMs.
    per_gemm:
        Individual stats keyed by GEMM name (the four projections plus
        ``attn_scores`` / ``attn_values``).
    cache:
        The (possibly newly created) :class:`KVCache` after this pass.
    """

    output: np.ndarray
    stats: ExecutionStats
    per_gemm: Dict[str, ExecutionStats] = field(default_factory=dict)
    cache: Optional[KVCache] = None


def _layernorm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Zero-mean unit-variance normalisation over the hidden axis."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def _gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU (the GPT-2 convention)."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def _softmax(x: np.ndarray) -> np.ndarray:
    """Numerically-stable softmax over the last axis."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class DecoderBlock:
    """One decoder block with quantized weights resident on the substrate.

    Parameters
    ----------
    config:
        Model shape (only ``hidden_size`` / ``num_heads`` / ``ffn_size``
        are consulted — small test-sized configs work fine).
    policy:
        Scheme selection; resolved per projection for ``layer_index``.
    layer_index:
        This block's position in the stack (drives per-layer overrides).
    system:
        UPMEM deployment to run/cost against; defaults to one rank.
    seed:
        Seed for the random reference weights.
    """

    def __init__(
        self,
        config: ModelConfig,
        policy: SchemePolicy,
        layer_index: int = 0,
        system: Optional[UpmemSystem] = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.policy = policy
        self.layer_index = layer_index
        self.system = system if system is not None else UpmemSystem()
        rng = np.random.default_rng(seed)
        shapes = config.projection_shapes()
        self.weights: Dict[str, QuantizedTensor] = {}
        self.schemes = {
            name: policy.scheme_for(layer_index, name) for name in PROJECTION_NAMES
        }
        for name in PROJECTION_NAMES:
            k, n = shapes[name]
            w = rng.normal(scale=0.02, size=(k, n))
            self.weights[name] = self.schemes[name].weight_codec.quantize(w)

    def _project(self, name: str, x_flat: np.ndarray):
        """Quantize activations and run projection ``name`` on the kernel."""
        a_q = self.schemes[name].activation_codec.quantize(x_flat)
        return lut_gemm(a_q, self.weights[name], system=self.system)

    def forward(self, x: np.ndarray, cache: Optional[KVCache] = None) -> BlockResult:
        """Run the block on ``[batch, seq, hidden]`` activations.

        Without a ``cache`` this is a prefill pass with a causal mask;
        with one it is an incremental decode step — the new keys/values
        are appended and the queries attend to the full cached history.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[-1] != self.config.hidden_size:
            raise ValueError(
                f"expected [batch, seq, {self.config.hidden_size}] input, got {x.shape}"
            )
        batch, seq, d = x.shape
        heads, head_dim = self.config.num_heads, self.config.head_dim
        per_gemm: Dict[str, ExecutionStats] = {}

        # --- attention ---------------------------------------------------
        h = _layernorm(x).reshape(batch * seq, d)
        qkv = self._project("qkv", h)
        per_gemm["qkv"] = qkv.stats
        q, k, v = np.split(qkv.output.reshape(batch, seq, 3 * d), 3, axis=-1)

        def split_heads(t: np.ndarray) -> np.ndarray:
            return t.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)

        q, k, v = split_heads(q), split_heads(k), split_heads(v)
        past = cache.tokens if cache is not None else 0
        if cache is None:
            cache = KVCache(keys=k, values=v, bytes_per_value=self.config.kv_bytes_per_value)
        else:
            cache.append(k, v)
        total = cache.tokens

        scores = (q @ cache.keys.transpose(0, 1, 3, 2)) / np.sqrt(head_dim)
        # Causal mask: query position (past + i) sees keys [0, past + i].
        key_pos = np.arange(total)[None, :]
        query_pos = (past + np.arange(seq))[:, None]
        scores = np.where(key_pos <= query_pos, scores, -np.inf)
        context = _softmax(scores) @ cache.values
        per_gemm.update(
            attention_gemm_costs(heads, head_dim, batch, seq, total, self.system)
        )

        context = context.transpose(0, 2, 1, 3).reshape(batch * seq, d)
        attn_out = self._project("attn_out", context)
        per_gemm["attn_out"] = attn_out.stats
        x = x + attn_out.output.reshape(batch, seq, d)

        # --- feed-forward ------------------------------------------------
        h = _layernorm(x).reshape(batch * seq, d)
        up = self._project("ffn_up", h)
        per_gemm["ffn_up"] = up.stats
        activated = _gelu(up.output)
        down = self._project("ffn_down", activated)
        per_gemm["ffn_down"] = down.stats
        x = x + down.output.reshape(batch, seq, d)

        stats = ExecutionStats(kernel="decoder_block")
        for s in per_gemm.values():
            stats = stats + s
        return BlockResult(output=x, stats=stats, per_gemm=per_gemm, cache=cache)
