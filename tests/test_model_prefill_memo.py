"""Prefill chunks reuse one weight pass per chunk length.

:func:`repro.model.cost.prefill_chunk_stats` takes each layer's weight
GEMMs from a memo keyed by value and adds the two attention matmuls per
call.  It must stay field-for-field equal to the per-layer
:func:`block_gemm_cost` composition it replaced, for every scheme
policy shape, and the model-level cost functions must reject a batch
below one by name.
"""

import pytest

import repro.kernels.cost as cost_module
import repro.model.cost as model_cost
from repro.kernels.cost import COST_KERNELS
from repro.model.config import get_model_config
from repro.model.cost import (
    block_gemm_cost,
    decode_phase_stats,
    decode_step_weight_stats,
    model_inference_cost,
    prefill_chunk_stats,
)
from repro.model.decoder import ATTENTION_SCHEME, attention_gemm_costs
from repro.model.policy import SchemePolicy
from repro.pim.buffer import BufferOverflowError
from repro.pim.upmem import ExecutionStats, UpmemConfig, UpmemSystem

POLICIES = {
    "default": SchemePolicy("W4A4"),
    "projection": SchemePolicy(
        "W1A3", projection_overrides={"ffn_down": "W4A4", "qkv": "W2A2"}
    ),
    "layer": SchemePolicy("W2A2", layer_overrides={0: "W4A4", 5: "W1A3"}),
}


def _composed(config, policy, batch, done, chunk, system, kernel):
    """The per-layer ``block_gemm_cost`` sum ``prefill_chunk_stats`` replaced."""
    total = ExecutionStats(kernel="prefill_chunk")
    kv_len = done + chunk
    if not policy.layer_overrides:
        block, _ = block_gemm_cost(config, policy, 0, batch, chunk, kv_len,
                                   system=system, kernel=kernel)
        return total + block.scaled(config.num_layers)
    for layer in range(config.num_layers):
        block, _ = block_gemm_cost(config, policy, layer, batch, chunk, kv_len,
                                   system=system, kernel=kernel)
        total = total + block
    return total


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("kernel", COST_KERNELS)
def test_prefill_chunk_equals_block_composition_by_fields(policy_name, kernel):
    config = get_model_config("gpt-125m")
    policy = POLICIES[policy_name]
    system = UpmemSystem(UpmemConfig(num_ranks=2))
    model_cost._block_weight_stats.cache_clear()
    for batch in (1, 3):
        for done in (0, 1, 7, 64, 200):
            for chunk in (1, 2, 16, 33, 128):
                got = prefill_chunk_stats(config, policy, batch, done, chunk,
                                          system=system, kernel=kernel)
                expected = _composed(config, policy, batch, done, chunk, system, kernel)
                assert vars(got) == vars(expected), (batch, done, chunk)


def test_new_done_offset_reuses_the_weight_pass():
    config = get_model_config("gpt-350m")
    policy = POLICIES["layer"]
    model_cost._block_weight_stats.cache_clear()
    prefill_chunk_stats(config, policy, 1, 0, 48)
    cold = model_cost._block_weight_stats.cache_info()
    # Three distinct layer scheme sets: default, layer 0, layer 5.
    assert (cold.misses, cold.currsize) == (3, 3)
    before = cost_module._cached_cost.cache_info()
    for done in range(1, 40):
        prefill_chunk_stats(config, policy, 1, done, 48)
    warm = model_cost._block_weight_stats.cache_info()
    assert warm.misses == cold.misses and warm.currsize == 3
    # Neither the attention matmuls nor the weight GEMMs fill the
    # per-shape gemm_cost memo.
    assert cost_module._cached_cost.cache_info().currsize == before.currsize


def test_memoised_weight_pass_is_not_mutated_by_callers():
    config = get_model_config("gpt-125m")
    policy = POLICIES["default"]
    first = prefill_chunk_stats(config, policy, 1, 0, 10)
    first.compute_s = -1.0
    first.n_lookups = -1
    again = prefill_chunk_stats(config, policy, 1, 0, 10)
    assert vars(again) == vars(_composed(config, policy, 1, 0, 10, None, "lut_gemm"))


def test_attention_costs_equal_gemm_cost_without_filling_its_memo():
    system = UpmemSystem(UpmemConfig(num_ranks=3))
    before = cost_module._cached_cost.cache_info().currsize
    got = attention_gemm_costs(12, 64, 2, 37, 91, system)
    assert cost_module._cached_cost.cache_info().currsize == before
    m = 2 * 12 * 37
    assert got["attn_scores"] == cost_module.gemm_cost(
        ATTENTION_SCHEME, m, 64, 91, system=system, kernel="naive_pim_gemm")
    assert got["attn_values"] == cost_module.gemm_cost(
        ATTENTION_SCHEME, m, 91, 64, system=system, kernel="naive_pim_gemm")
    with pytest.raises(ValueError, match=r"non-negative, got \(-12, 64, 5\)"):
        attention_gemm_costs(12, 64, -1, 1, 5)


def test_prefill_errors_keep_their_order():
    config = get_model_config("gpt-125m")
    # A LUT scheme that cannot stage its tables fails in the weight pass,
    # and is never memoised.
    with pytest.raises(BufferOverflowError):
        prefill_chunk_stats(config, SchemePolicy("W8A8"), 1, 0, 4)
    with pytest.raises(BufferOverflowError):
        prefill_chunk_stats(config, SchemePolicy("W8A8"), 1, 0, 4)
    with pytest.raises(ValueError, match="unknown kernel"):
        prefill_chunk_stats(config, POLICIES["default"], 1, 0, 4, kernel="mac")
    # An attention operand beyond one bank is the same capacity error
    # the per-GEMM path raised.
    with pytest.raises(ValueError, match="exceeds bank capacity"):
        prefill_chunk_stats(config, POLICIES["default"], 1, 0, 2500)


@pytest.mark.parametrize("batch", [0, -1])
def test_model_cost_functions_reject_a_batch_below_one(batch):
    config = get_model_config("gpt-125m")
    policy = POLICIES["default"]
    calls = {
        "block_gemm_cost": lambda: block_gemm_cost(config, policy, 0, batch, 4, 4),
        "prefill_chunk_stats": lambda: prefill_chunk_stats(config, policy, batch, 0, 4),
        "decode_step_weight_stats": lambda: decode_step_weight_stats(config, policy, batch),
        "decode_phase_stats": lambda: decode_phase_stats(config, policy, batch, 4, 2),
        "model_inference_cost": lambda: model_inference_cost(config, policy, batch),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=rf"batch must be >= 1, got {batch}"):
            call()
