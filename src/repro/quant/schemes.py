"""Quantization scheme registry (the paper's ``WxAy`` notation).

The evaluation uses a handful of weight/activation bit-width pairs:
W1A3 and W1A4 (BinaryBERT-style), W2A2 and W4A4 (KDLSQ-BERT / Q-ViT /
OmniQuant), plus floating-point variants W1A4/W1A8/W1A16 (FP) and W4A4 (FP)
for Section VI-K.  :func:`get_scheme` resolves those names to a pair of
codecs so kernels and workloads never hard-code bit widths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Union

from repro.quant.floating import FP4, FP8_E4M3, FP16, MinifloatCodec
from repro.quant.integer import IntegerCodec

__all__ = [
    "QuantScheme",
    "get_scheme",
    "list_schemes",
    "register_scheme",
    "resolve_scheme",
]

Codec = Union[IntegerCodec, MinifloatCodec]


@dataclass(frozen=True)
class QuantScheme:
    """A named pair of weight and activation codecs.

    Attributes
    ----------
    name:
        The paper's name for the configuration, e.g. ``"W1A3"``.
    weight_codec / activation_codec:
        Codecs used to quantize the weight and activation tensors.
    """

    name: str
    weight_codec: Codec
    activation_codec: Codec

    @property
    def weight_bits(self) -> int:
        """Bit width of the weight codec."""
        return self.weight_codec.bits

    @property
    def activation_bits(self) -> int:
        """Bit width of the activation codec."""
        return self.activation_codec.bits

    @property
    def is_floating(self) -> bool:
        """True when either operand uses a floating-point format."""
        return bool(
            getattr(self.weight_codec, "is_floating", False)
            or getattr(self.activation_codec, "is_floating", False)
        )

    def __str__(self) -> str:
        return self.name


_REGISTRY: Dict[str, QuantScheme] = {}


def register_scheme(scheme: QuantScheme) -> QuantScheme:
    """Register a scheme under its (upper-cased) name."""
    _REGISTRY[scheme.name.upper()] = scheme
    return scheme


def list_schemes() -> list:
    """Names of every registered scheme, sorted."""
    return sorted(_REGISTRY)


def get_scheme(name: str) -> QuantScheme:
    """Resolve a scheme name such as ``"W1A3"`` or ``"W4A4-FP"``.

    Unregistered integer ``WxAy`` names are synthesised on the fly so that
    sweeps over arbitrary bit widths (e.g. the capacity study in Fig. 6)
    do not require pre-registration.  Synthesised schemes are *not* added
    to the registry: :func:`list_schemes` stays the curated set of paper
    configurations no matter what a sweep resolves.
    """
    key = name.upper()
    if key in _REGISTRY:
        return _REGISTRY[key]
    match = re.fullmatch(r"W(\d+)A(\d+)", key)
    if match:
        bw, ba = int(match.group(1)), int(match.group(2))
        if bw < 1 or ba < 1:
            raise KeyError(f"Unknown quantization scheme: {name!r} (bit widths must be >= 1)")
        return QuantScheme(
            name=key,
            weight_codec=IntegerCodec(bits=bw, symmetric=True),
            activation_codec=IntegerCodec(bits=ba, symmetric=False),
        )
    raise KeyError(f"Unknown quantization scheme: {name!r}")


def resolve_scheme(scheme) -> QuantScheme:
    """Accept a :class:`QuantScheme` or a scheme name and return the scheme.

    Model-layer configuration (per-layer overrides, sweep specs, CLI
    arguments) routinely mixes ready-made scheme objects with ``"WxAy"``
    strings; this normalises either form via :func:`get_scheme`.
    """
    if isinstance(scheme, QuantScheme):
        return scheme
    if isinstance(scheme, str):
        return get_scheme(scheme)
    raise TypeError(f"expected QuantScheme or scheme name, got {type(scheme).__name__}")


def _fp_codec(bits: int) -> MinifloatCodec:
    if bits == 4:
        return FP4
    if bits == 8:
        return FP8_E4M3
    if bits == 16:
        return FP16
    raise ValueError(f"No minifloat codec registered for {bits} bits")


# Integer configurations used throughout the evaluation (Figs. 9-19).
for _bw, _ba in [(1, 3), (1, 4), (2, 2), (4, 4), (8, 8)]:
    register_scheme(
        QuantScheme(
            name=f"W{_bw}A{_ba}",
            weight_codec=IntegerCodec(bits=_bw, symmetric=True),
            activation_codec=IntegerCodec(bits=_ba, symmetric=False),
        )
    )

# Floating-point configurations for Section VI-K (Fig. 21): 1-bit weights
# with FP4/FP8/FP16 activations, and FP4 weights with FP4 activations.
register_scheme(
    QuantScheme("W1A4-FP", IntegerCodec(bits=1, symmetric=True), _fp_codec(4))
)
register_scheme(
    QuantScheme("W1A8-FP", IntegerCodec(bits=1, symmetric=True), _fp_codec(8))
)
register_scheme(
    QuantScheme("W1A16-FP", IntegerCodec(bits=1, symmetric=True), _fp_codec(16))
)
register_scheme(QuantScheme("W4A4-FP", _fp_codec(4), _fp_codec(4)))
