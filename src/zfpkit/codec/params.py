"""Codec configuration and shared codec exceptions."""

from __future__ import annotations

from dataclasses import dataclass

from .. import bounds


class ParamError(ValueError):
    """Invalid codec configuration."""


class TransformOverflowError(RuntimeError):
    """A block integer given to the forward transform lies beyond 2**q.

    Within that bound every lifting intermediate keeps to the one guard bit.
    This is an internal invariant violation: legal pipeline inputs can never
    trigger it (tested), so seeing it means the caller bypassed the
    block-floating-point stage or corrupted state.
    """


class NegabinaryRangeError(ValueError):
    """Integer too wide for the q+2-digit negabinary representation."""


MIN_DIM = 1
MAX_DIM = 3
LARGEST_Q = 1024  # block floating point scales values below 2**q in float64: 2**1024 overflows


@dataclass(frozen=True)
class CodecParams:
    """Lossy-pipeline configuration.

    d     -- grid dimensionality; blocks hold 4**d values.
    k     -- significand width of the source values, counting the leading
             one bit (24 for float32, 53 for float64; toy values allowed).
    q     -- integer precision of the shared-exponent block representation
             (30/62 for the float32/float64 pairings; toy values allowed),
             at most 1024, the widest a float64 block can be scaled to.
    beta  -- number of most-significant coefficient bit planes kept,
             0 <= beta <= q + 2.
    allow_wide_beta -- permit beta in (q - 2d + 2, q + 2]; with fewer than
             2d planes dropped the inverse transform can round, and a looser
             error constant applies.  Off by default.
    """

    d: int
    k: int
    q: int
    beta: int
    allow_wide_beta: bool = False

    def __post_init__(self):
        if not MIN_DIM <= self.d <= MAX_DIM:
            raise ParamError(f"d must be in [{MIN_DIM}, {MAX_DIM}], got {self.d}")
        if not 2 <= self.k <= 53:
            # decompressed values carry k significand bits; exact float64
            # emission needs k <= 53
            raise ParamError(f"k must be in [2, 53], got {self.k}")
        if not 2 <= self.q <= LARGEST_Q:
            raise ParamError(f"q must be in [2, {LARGEST_Q}], got {self.q}")
        if not 0 <= self.beta <= self.q + 2:
            raise ParamError(f"beta must be in [0, q+2] = [0, {self.q + 2}], got {self.beta}")
        if self.beta > self.beta_default_max and not self.allow_wide_beta:
            raise ParamError(
                f"beta={self.beta} exceeds q - 2d + 2 = {self.beta_default_max}; "
                "pass allow_wide_beta (CLI: --allow-appendix-b) to accept the "
                "looser decompression error bound"
            )

    @property
    def n(self) -> int:
        """Values per block."""
        return 4 ** self.d

    @property
    def beta_default_max(self) -> int:
        """Largest beta for which the inverse transform never rounds."""
        return bounds.beta_default_max(self.d, self.q)
