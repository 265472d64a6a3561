"""Tests for repro.quant.floating: minifloat codecs."""

import numpy as np
import pytest

from repro.quant.floating import FP4, FP8_E4M3, FP16, MinifloatCodec


class TestCodecShape:
    @pytest.mark.parametrize(
        "codec,bits", [(FP4, 4), (FP8_E4M3, 8), (FP16, 16)]
    )
    def test_bit_widths(self, codec, bits):
        assert codec.bits == bits
        assert codec.num_levels == 2**bits

    def test_table_has_one_value_per_code(self):
        for codec in (FP4, FP8_E4M3):
            assert len(codec.code_values()) == codec.num_levels

    def test_table_is_sign_symmetric(self):
        table = FP8_E4M3.code_values()
        half = len(table) // 2
        assert np.allclose(table[half:], -table[:half])

    def test_fp16_matches_ieee_half(self):
        # Spot-check against numpy's float16 for normal values.
        for value in (1.0, 1.5, -2.75, 0.125, 65504.0):
            table = FP16.code_values()
            nearest = table[np.argmin(np.abs(table - value))]
            assert nearest == np.float64(np.float16(value))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MinifloatCodec(exponent_bits=0, mantissa_bits=2)
        with pytest.raises(ValueError):
            MinifloatCodec(exponent_bits=2, mantissa_bits=-1)


class TestQuantize:
    def test_representable_values_round_trip_exactly(self):
        table = FP4.code_values()
        # Pick the positive normals; quantizing them with scale 1 must be exact.
        exact = np.array([v for v in table if v > 0])
        qt = FP4.quantize(exact)
        recon = qt.dequantize()
        assert np.allclose(recon, exact)

    def test_nearest_rounding(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=128)
        qt = FP8_E4M3.quantize(values)
        table = qt.values_per_index() * qt.scale
        # Each reconstructed value must be the closest representable one.
        recon = qt.dequantize()
        for v, r in zip(values, recon):
            assert abs(v - r) <= np.min(np.abs(table - v)) + 1e-15

    @pytest.mark.parametrize("codec", [FP4, FP8_E4M3], ids=lambda c: c.name)
    def test_ties_round_half_to_even(self, codec):
        table = codec.code_values()
        levels = np.unique(table)
        midpoints = (levels[:-1] + levels[1:]) / 2
        # The largest magnitude pins the scale at 1.
        qt = codec.quantize(np.append(midpoints, levels[-1]))
        assert qt.scale == 1.0
        codes = qt.codes[:-1]
        assert np.all(codes % 2 == 0)
        got = table[codes]
        assert np.all((got == levels[:-1]) | (got == levels[1:]))

    def test_e4m3_tie_goes_to_even_mantissa(self):
        top = FP8_E4M3.code_values().max()
        qt = FP8_E4M3.quantize(np.array([1.1875, -1.1875, top]))
        # 1.1875 sits halfway between 1.125 (mantissa 1) and 1.25 (2).
        assert qt.codes[0] == 58
        assert list(qt.dequantize()[:2]) == [1.25, -1.25]

    def test_empty_tensor(self):
        qt = FP4.quantize(np.array([]))
        assert qt.codes.shape == (0,) and qt.scale == 1.0

    def test_indices_are_identity_for_minifloats(self):
        codes = np.array([0, 3, 7, 15])
        assert np.array_equal(FP4.to_indices(codes), codes)
        assert np.array_equal(FP4.from_indices(codes), codes)
