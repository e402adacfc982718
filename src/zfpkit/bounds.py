"""Closed-form error bounds and mode-selection formulas for the codec.

Every quantity is evaluated in exact rational arithmetic (``Fraction``);
the ``*_exact`` functions expose those rationals and their float wrappers
round exactly once on the way out.  The central constant is the worst-case
relative round-trip error

    K_beta = (15/4)**d * ((1+eps_k) * (8/3*eps_beta
             + eps_q*(1 + 8/3*eps_beta)*(k_l*(1+eps_q) + 1)) + eps_k)

valid when at least 2d bit planes are dropped (beta <= q - 2d + 2); the
wide-beta regime adds an inverse-transform term and is covered by B_beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class BoundDomainError(ValueError):
    """Bound requested outside the regime in which it is proved."""


class InfeasibleAccuracyError(ValueError):
    """No number of kept bit planes can reach the requested accuracy."""


@dataclass(frozen=True)
class BoundInputs:
    """Parameters feeding the bound formulas.

    e_max / e_min are block exponents (needed by the componentwise bound
    and the accuracy-target solver), b an accuracy target in bits, b_e the
    exponent field width of the container.
    """

    d: int
    k: int
    q: int
    beta: int
    e_max: int | None = None
    e_min: int | None = None
    b: int | None = None
    b_e: int = 11

    def __post_init__(self):
        if self.d < 1:
            raise BoundDomainError(f"d must be >= 1, got {self.d}")
        if self.k < 2 or self.q < 2:
            raise BoundDomainError(f"k and q must be >= 2, got k={self.k}, q={self.q}")
        if self.beta < 0:
            raise BoundDomainError(f"beta must be >= 0, got {self.beta}")


def epsilon(m: int) -> Fraction:
    """Unit round-off at precision m: exactly 2**(1-m)."""
    if m >= 1:
        return Fraction(1, 1 << (m - 1))
    return Fraction(1 << (1 - m))


def k_l(d: int) -> Fraction:
    """Forward-transform error constant, 7/4 per axis compounding to d axes."""
    return Fraction(7, 4) * ((1 << d) - 1)


def k_l_inv(d: int) -> Fraction:
    """Inverse-transform error constant for the wide-beta regime."""
    return Fraction(5, 2) * ((1 << d) - 1)


def _compression_bracket(inp: BoundInputs) -> Fraction:
    """Shared inner term: plane-truncation plus transform round-off."""
    e_b = epsilon(inp.beta)
    e_q = epsilon(inp.q)
    return (Fraction(8, 3) * e_b
            + e_q * (1 + Fraction(8, 3) * e_b) * (k_l(inp.d) * (1 + e_q) + 1))


def beta_default_max(d: int, q: int) -> int:
    """Largest beta of the default regime, q - 2d + 2: the inverse transform never rounds."""
    return q - 2 * d + 2


def k_beta_exact(inp: BoundInputs, allow_out_of_regime: bool = False) -> Fraction:
    """Worst-case relative round-trip error constant (exact rational).

    Proved for beta <= q - 2d + 2.  Out-of-regime evaluation (used by the
    surface sweep) must be requested explicitly.
    """
    tight_max = beta_default_max(inp.d, inp.q)
    if inp.beta > tight_max and not allow_out_of_regime:
        raise BoundDomainError(
            f"K_beta requires beta <= q - 2d + 2 = {tight_max}, "
            f"got beta = {inp.beta}")
    e_k = epsilon(inp.k)
    return Fraction(15, 4) ** inp.d * ((1 + e_k) * _compression_bracket(inp) + e_k)


def k_beta(inp: BoundInputs, allow_out_of_regime: bool = False) -> float:
    return float(k_beta_exact(inp, allow_out_of_regime))


def k_beta_applies(d: int, q: int, beta: int) -> bool:
    """True when the tight constant K_beta bounds the round trip, else B_beta.

    K_beta applies in the default regime beta <= q - 2d + 2 and again at
    beta = q + 2, where the inverse transform exactly undoes the forward
    junction and so adds nothing; strictly between, the inverse transform
    may round and the looser B_beta is charged.
    """
    return not beta_default_max(d, q) < beta < q + 2


def b_beta_exact(inp: BoundInputs) -> Fraction:
    """Round-trip error constant when fewer than 2d planes are dropped.

    Always at least K_beta; the extra term charges the inverse-transform
    round-off that the default regime avoids.
    """
    e_k = epsilon(inp.k)
    e_q = epsilon(inp.q)
    extra = k_l_inv(inp.d) * e_q * (1 + e_k) * _compression_bracket(inp)
    return extra + k_beta_exact(inp, allow_out_of_regime=True)


def b_beta(inp: BoundInputs) -> float:
    return float(b_beta_exact(inp))


def componentwise_bound_exact(inp: BoundInputs, allow_out_of_regime: bool = False) -> Fraction:
    """K_beta inflated by the block exponent spread 2**(e_max - e_min)."""
    if inp.e_max is None or inp.e_min is None:
        raise BoundDomainError("componentwise bound needs both e_max and e_min")
    rho = inp.e_max - inp.e_min
    if rho < 0:
        raise BoundDomainError(f"e_max < e_min ({inp.e_max} < {inp.e_min})")
    return k_beta_exact(inp, allow_out_of_regime) * (Fraction(1 << rho))


def componentwise_bound(inp: BoundInputs, allow_out_of_regime: bool = False) -> float:
    return float(componentwise_bound_exact(inp, allow_out_of_regime))


def beta_for_accuracy(inp: BoundInputs) -> int:
    """Smallest beta guaranteeing absolute error at most 2**-b.

    Solves K_beta <= 2**(-b - e_max) exactly: the chain of inequalities is
    an equivalence, so the returned beta is minimal.  When the precision
    terms already exceed the target, or the solved beta exceeds the q + 2
    planes of a block, no beta works and the limiting parameter (k or q) is
    reported.
    """
    if inp.b is None or inp.e_max is None:
        raise BoundDomainError("beta_for_accuracy needs b and e_max")
    e_k = epsilon(inp.k)
    e_q = epsilon(inp.q)
    c = e_q * (k_l(inp.d) * (1 + e_q) + 1)
    target = Fraction(4, 15) ** inp.d * _pow2(-inp.b - inp.e_max)
    if target <= e_k:
        raise InfeasibleAccuracyError(
            f"target 2**-{inp.b} at e_max={inp.e_max} is below the source "
            f"significand resolution (k = {inp.k})")
    denom = (target - e_k) / (1 + e_k) - c
    if denom <= 0:
        raise InfeasibleAccuracyError(
            f"target 2**-{inp.b} at e_max={inp.e_max} is below the block "
            f"integer resolution (q = {inp.q})")
    arg = Fraction(16, 3) * (1 + c) / denom
    # smallest integer beta with 2**beta >= arg, found by exact comparison
    beta = max(arg.numerator.bit_length() - arg.denominator.bit_length() - 1, 0)
    while _pow2(beta) < arg:
        beta += 1
    if beta > inp.q + 2:
        raise InfeasibleAccuracyError(
            f"target 2**-{inp.b} at e_max={inp.e_max} needs beta = {beta}, more than "
            f"the q + 2 = {inp.q + 2} planes a block has (q = {inp.q})")
    return beta


def rate_lower_bound(beta: int, d: int, b_e: int) -> Fraction:
    """Bits per value needed to hold beta planes plus per-block overhead."""
    if beta < 0 or d < 1 or b_e < 0:
        raise BoundDomainError("rate bound needs beta >= 0, d >= 1, b_e >= 0")
    n = 4 ** d
    return Fraction(n * beta + b_e, n) + 1


def _pow2(e: int) -> Fraction:
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


def kbeta_surface(d_range: Iterable[int], beta_range: Iterable[int],
                  k: int, q: int) -> list[tuple[int, int, float]]:
    """Grid of (d, beta, log10 K_beta) rows for contour plotting."""
    rows = []
    for d in d_range:
        for beta in beta_range:
            val = k_beta_exact(BoundInputs(d=d, k=k, q=q, beta=beta),
                               allow_out_of_regime=True)
            rows.append((d, beta, _log10(val)))
    if not rows:
        raise BoundDomainError("empty surface ranges")
    return rows


def _log10(x: Fraction) -> float:
    # stays finite even when float(x) would under/overflow
    return (math.log10(x.numerator) - math.log10(x.denominator)) if x > 0 else math.nan


def write_surface_csv(rows: Sequence[tuple[int, int, float]], fh) -> None:
    fh.write("d,beta,log10_Kbeta\n")
    for d, beta, log10_kb in rows:
        fh.write(f"{d},{beta},{log10_kb:.10g}\n")
