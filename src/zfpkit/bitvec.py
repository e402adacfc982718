"""Exact bit-level number model used as the codec's reference oracle.

Everything here is pure and exact: values are dyadic rationals kept as
(numerator, power-of-two exponent) pairs, and digit strings are explicit
sets of active bit positions.  No native floating-point arithmetic is
performed anywhere in this module, so it can be used to cross-check the
fast integer codec bit for bit.

Representations:

* ``BitString``   -- a finite set of integer positions holding 1-digits.
* ``SignedBinary``-- sign bit plus magnitude BitString, value
  ``(-1)**sign * sum(2**i)`` over active positions.
* ``Negabinary``  -- digit BitString in base -2, value ``sum((-2)**i)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union


class NonDyadicError(ValueError):
    """Raised when a value has no finite binary expansion."""


class NonIntegerError(ValueError):
    """Raised when an operation requires an integer-valued input."""


class ZeroBlockError(ValueError):
    """Raised when a block exponent is requested for an all-zero block."""


class Dyadic:
    """Exact value ``num * 2**exp`` with ``num`` odd (or zero, with exp 0).

    This is the value type returned by :func:`fb_decode`; keeping the
    denominator an explicit power of two makes every decode exact and every
    comparison an integer comparison.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if num == 0:
            exp = 0
        else:
            # normalize: pull factors of two out of the numerator
            tz = (num & -num).bit_length() - 1
            num >>= tz
            exp += tz
        _set_num(self, num)
        _set_exp(self, exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def from_float(cls, x: float) -> "Dyadic":
        """Exact conversion; every finite float is a dyadic rational."""
        n, d = float(x).as_integer_ratio()
        return cls(n, -(d.bit_length() - 1))

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Dyadic":
        d = f.denominator
        if d & (d - 1):
            raise NonDyadicError(f"{f} has no finite binary expansion")
        return cls(f.numerator, -(d.bit_length() - 1))

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.num << self.exp)
        return Fraction(self.num, 1 << -self.exp)

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    @property
    def is_integer(self) -> bool:
        return self.num == 0 or self.exp >= 0

    def __int__(self) -> int:
        if not self.is_integer:
            raise NonIntegerError(f"{self!r} is not an integer")
        return self.num << self.exp if self.num else 0

    def __float__(self) -> float:
        # one correctly rounded conversion, as float(self.as_fraction()) does
        if self.exp >= 0:
            return float(self.num << self.exp)
        return self.num / (1 << -self.exp)

    def scale2(self, l: int) -> "Dyadic":
        """Return self * 2**l (exact)."""
        if self.num == 0:
            return self
        return Dyadic(self.num, self.exp + l)

    @staticmethod
    def _coerce(other) -> "Dyadic":
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        raise TypeError(f"cannot combine Dyadic with {type(other).__name__}")

    def _pair(self, other: "Dyadic") -> tuple[int, int, int]:
        # align both operands on a common exponent, return integer numerators
        e = min(self.exp, other.exp)
        return self.num << (self.exp - e), other.num << (other.exp - e), e

    def __add__(self, other):
        if not isinstance(other, (Dyadic, int)):
            return NotImplemented
        a, b, e = self._pair(self._coerce(other))
        return Dyadic(a + b, e)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (Dyadic, int)):
            return NotImplemented
        o = self._coerce(other)
        a, b, e = self._pair(o)
        return Dyadic(a - b, e)

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __abs__(self):
        return Dyadic(abs(self.num), self.exp)

    def __eq__(self, other):
        if not isinstance(other, (Dyadic, int)):
            return NotImplemented
        a, b, _ = self._pair(self._coerce(other))
        return a == b

    def __lt__(self, other):
        a, b, _ = self._pair(self._coerce(other))
        return a < b

    def __le__(self, other):
        a, b, _ = self._pair(self._coerce(other))
        return a <= b

    def __gt__(self, other):
        a, b, _ = self._pair(self._coerce(other))
        return a > b

    def __ge__(self, other):
        a, b, _ = self._pair(self._coerce(other))
        return a >= b

    def __hash__(self):
        return hash(self.as_fraction())

    def __repr__(self):
        return f"Dyadic({self.num}, 2**{self.exp})"


# slot setters that bypass the immutability guards in constructors
_new = object.__new__
_set_num = Dyadic.__dict__["num"].__set__
_set_exp = Dyadic.__dict__["exp"].__set__


class BitString:
    """Finite set of integer positions carrying 1-digits.

    Conceptually a doubly-infinite 0/1 sequence with finitely many ones;
    stored compactly as an integer bit mask anchored at the lowest active
    position.  Iteration yields positions in strictly increasing order.
    """

    __slots__ = ("_mask", "_base")

    def __init__(self, positions: Iterable[int] = ()):
        mask = 0
        base = 0
        pos = sorted(set(positions))
        if pos:
            base = pos[0]
            for p in pos:
                mask |= 1 << (p - base)
        _set_mask(self, mask)
        _set_base(self, base)

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    @classmethod
    def from_uint(cls, value: int) -> "BitString":
        """Bit string whose positions are the set bits of a nonnegative int."""
        if value < 0:
            raise ValueError("from_uint requires a nonnegative integer")
        return _bs_raw(value, 0)

    @property
    def is_empty(self) -> bool:
        return self._mask == 0

    def __bool__(self) -> bool:
        return self._mask != 0

    def __iter__(self) -> Iterator[int]:
        mask, base = self._mask, self._base
        while mask:
            low = mask & -mask
            yield base + low.bit_length() - 1
            mask ^= low

    def positions(self) -> tuple[int, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __contains__(self, i: int) -> bool:
        off = i - self._base
        return off >= 0 and (self._mask >> off) & 1 == 1

    def lowest(self) -> int:
        if not self._mask:
            raise ValueError("empty bit string has no lowest position")
        return self._base

    def highest(self) -> int:
        if not self._mask:
            raise ValueError("empty bit string has no highest position")
        return self._base + self._mask.bit_length() - 1

    def uint_at(self, base: int) -> int:
        """Mask of this bit string re-anchored at ``base``.

        All positions must lie at or above ``base``.
        """
        if not self._mask:
            return 0
        if self._base < base:
            raise ValueError("positions below requested anchor")
        return self._mask << (self._base - base)

    def __eq__(self, other):
        if not isinstance(other, BitString):
            return NotImplemented
        return self._mask == other._mask and self._base == other._base

    def __hash__(self):
        return hash((self._mask, self._base))

    def __repr__(self):
        return f"BitString({{{', '.join(map(str, self))}}})"


_set_mask = BitString.__dict__["_mask"].__set__
_set_base = BitString.__dict__["_base"].__set__


def _bs_raw(mask: int, base: int) -> BitString:
    """Internal constructor from an anchored mask (mask >= 0)."""
    self = _new(BitString)
    if mask == 0:
        base = 0
    else:
        tz = (mask & -mask).bit_length() - 1
        mask >>= tz
        base += tz
    _set_mask(self, mask)
    _set_base(self, base)
    return self


BitString.EMPTY = BitString()


def truncate(v: BitString, cutoff: int) -> BitString:
    """Zero every digit at positions <= cutoff, keeping positions > cutoff.

    This is the only truncation shape the codec needs (a half-line of kept
    high positions); it is idempotent.
    """
    if v._mask == 0:
        return v
    drop = cutoff + 1 - v._base
    if drop <= 0:
        return v
    return _bs_raw((v._mask >> drop) << drop, v._base)


def shift(v: BitString, l: int) -> BitString:
    """Move every position i to i - l; the represented value scales by 2**-l."""
    if v._mask == 0 or l == 0:
        return v
    out = _new(BitString)
    _set_mask(out, v._mask)  # already anchored at its lowest one
    _set_base(out, v._base - l)
    return out


class SignedBinary:
    """Sign-magnitude binary number: value = (-1)**sign * magnitude.

    The pair (sign=1, empty magnitude) is excluded so zero is unique.
    """

    __slots__ = ("sign", "magnitude")

    def __init__(self, sign: int, magnitude: BitString):
        if sign not in (0, 1):
            raise ValueError("sign must be 0 or 1")
        if sign == 1 and magnitude._mask == 0:
            raise ValueError("negative zero is not representable")
        _set_sign(self, sign)
        _set_magnitude(self, magnitude)

    def __setattr__(self, name, value):
        raise AttributeError("SignedBinary is immutable")

    @classmethod
    def from_int(cls, v: int) -> "SignedBinary":
        return _sb_from_int(v)

    @property
    def is_zero(self) -> bool:
        return self.magnitude._mask == 0

    def __eq__(self, other):
        if not isinstance(other, SignedBinary):
            return NotImplemented
        return self.sign == other.sign and self.magnitude == other.magnitude

    def __hash__(self):
        return hash((self.sign, self.magnitude))

    def __repr__(self):
        s = "-" if self.sign else "+"
        return f"SignedBinary({s}{{{', '.join(map(str, self.magnitude))}}})"


class Negabinary:
    """Base -2 digit string; value = sum over active positions of (-2)**i.

    Only nonnegative digit positions are allowed: the codec converts block
    integers only, and truncation never introduces fractional positions.
    """

    __slots__ = ("digits",)

    def __init__(self, digits: BitString):
        if digits._mask and digits._base < 0:
            raise ValueError("negabinary digits must sit at nonnegative positions")
        _set_digits(self, digits)

    def __setattr__(self, name, value):
        raise AttributeError("Negabinary is immutable")

    @property
    def is_zero(self) -> bool:
        return self.digits._mask == 0

    def __eq__(self, other):
        if not isinstance(other, Negabinary):
            return NotImplemented
        return self.digits == other.digits

    def __hash__(self):
        return hash(("N", self.digits))

    def __repr__(self):
        return f"Negabinary({{{', '.join(map(str, self.digits))}}})"


_set_sign = SignedBinary.__dict__["sign"].__set__
_set_magnitude = SignedBinary.__dict__["magnitude"].__set__
_set_digits = Negabinary.__dict__["digits"].__set__


def _sb_raw(sign: int, magnitude: BitString) -> SignedBinary:
    """Unchecked constructor for internal callers that uphold the invariants."""
    self = _new(SignedBinary)
    _set_sign(self, 0 if magnitude._mask == 0 else sign)
    _set_magnitude(self, magnitude)
    return self


def _sb_from_int(v: int) -> SignedBinary:
    """Signed binary digits of an integer (the body of ``SignedBinary.from_int``).

    The magnitude is anchored at its lowest one, as ``_bs_raw(|v|, 0)``
    anchors it, without that call.
    """
    sign = 0
    if v < 0:
        sign = 1
        v = -v
    elif v == 0:
        return _SB_ZERO
    tz = (v & -v).bit_length() - 1
    mag = _new(BitString)
    _set_mask(mag, v >> tz)
    _set_base(mag, tz)
    self = _new(SignedBinary)
    _set_sign(self, sign)
    _set_magnitude(self, mag)
    return self


_SB_ZERO = _sb_raw(0, BitString.EMPTY)


Element = Union[SignedBinary, Negabinary]


class BitVectorBlock:
    """Fixed-length block of elements sharing one representation kind."""

    __slots__ = ("elems",)

    def __init__(self, elems: Sequence[Element]):
        elems = tuple(elems)
        if not elems:
            raise ValueError("block must not be empty")
        kind = type(elems[0])
        if kind not in (SignedBinary, Negabinary):
            raise TypeError("elements must be SignedBinary or Negabinary")
        if any(type(e) is not kind for e in elems):
            raise TypeError("mixed representation kinds in one block")
        object.__setattr__(self, "elems", elems)

    def __setattr__(self, name, value):
        raise AttributeError("BitVectorBlock is immutable")

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, i):
        return self.elems[i]


# ---------------------------------------------------------------------------
# decode / encode maps


def fb_decode(v: SignedBinary) -> Dyadic:
    """Exact dyadic value of a signed-binary number."""
    m = v.magnitude
    if m.is_empty:
        return Dyadic(0)
    num = m._mask
    return Dyadic(-num if v.sign else num, m._base)


def fb_encode(x: Union[int, Dyadic, Fraction, float]) -> SignedBinary:
    """Inverse of :func:`fb_decode`.

    Accepts ints, Dyadic values, dyadic Fractions, and floats (floats are
    exact dyadics by construction).  Non-dyadic rationals are rejected.
    """
    if isinstance(x, int):
        d = Dyadic(x)
    elif isinstance(x, Dyadic):
        d = x
    elif isinstance(x, Fraction):
        d = Dyadic.from_fraction(x)
    elif isinstance(x, float):
        d = Dyadic.from_float(x)
    else:
        raise TypeError(f"cannot encode {type(x).__name__}")
    if d.is_zero:
        return SignedBinary(0, BitString.EMPTY)
    mag = _bs_raw(abs(d.num), d.exp)
    return SignedBinary(1 if d.num < 0 else 0, mag)


def fn_decode(v: Negabinary) -> int:
    """Integer value of a negabinary digit string."""
    mask = v.digits.uint_at(0)
    return _nega_mask_to_int(mask)


def _nega8_table() -> tuple[tuple[int, int], ...]:
    # every 8-digit negabinary string, keyed by its value mod 256: the 256
    # values sum((-2)**i) over a mask's digits fill [-170, 85], one per residue
    table = [None] * 256
    for mask in range(256):
        r = sum((-2) ** i for i in range(8) if mask >> i & 1)
        table[r & 255] = (r, mask)
    return tuple(table)


_NEGA8 = _nega8_table()


def fn_encode(x: int) -> Negabinary:
    """Negabinary digits of an integer, eight positions per step.

    Each step takes the 8-digit string whose value r in [-170, 85] is
    congruent to x mod 256 (``_NEGA8``, indexed by ``x & 255``); those are
    the digits at the next eight positions.  The quotient (x - r) / 256 is
    exact, since x - r is a multiple of 256, so no negative value is
    right-shifted.  This is eight steps of division by -2 with remainder in
    {0, 1}, as (-2)**8 = 256.
    """
    if not isinstance(x, int):
        raise TypeError("fn_encode takes an integer")
    table = _NEGA8
    mask = 0
    at = 0
    while x:
        r, digits = table[x & 255]
        mask |= digits << at
        x = (x - r) // 256
        at += 8
    return Negabinary(_bs_raw(mask, 0))


def _nega_mask_to_int(mask: int) -> int:
    # digits at even positions contribute +2**i, odd positions -2**i
    even = mask & _EVEN_MASK_CACHE(mask.bit_length())
    odd = mask ^ even
    return even - odd


def _EVEN_MASK_CACHE(nbits: int, _cache={}) -> int:
    # 0b...0101 pattern wide enough for nbits
    words = (nbits + 15) // 16
    m = _cache.get(words)
    if m is None:
        m = int("5555" * max(words, 1), 16)
        _cache[words] = m
    return m


# ---------------------------------------------------------------------------
# arithmetic needed by the reference transform (integer-valued only)


def sb_value(v: SignedBinary) -> int:
    """Integer value of an integer-valued SignedBinary."""
    m = v.magnitude
    if m._mask == 0:
        return 0
    if m._base < 0:
        raise NonIntegerError("signed binary value is not an integer")
    val = m._mask << m._base
    return -val if v.sign else val


def sb_add(a: SignedBinary, b: SignedBinary) -> SignedBinary:
    """Field addition restricted to integer-valued operands."""
    return _sb_from_int(sb_value(a) + sb_value(b))


def sb_sub(a: SignedBinary, b: SignedBinary) -> SignedBinary:
    return _sb_from_int(sb_value(a) - sb_value(b))


def round_half(v: SignedBinary) -> SignedBinary:
    """Halve an integer-valued number, rounding toward negative infinity.

    Built from the truncation/shift primitives: nonnegative values shift
    right one position and drop the fractional bit; negative values do the
    same after subtracting one, which lands on floor(value / 2) exactly.
    Mirrors a two's-complement arithmetic right shift.
    """
    mag = v.magnitude
    if mag._mask and mag._base < 0:
        raise NonIntegerError("round_half requires an integer value")
    if v.sign == 0:
        half = truncate(shift(mag, 1), -1)
        return _sb_raw(0, half)
    # value < 0: magnitude of (value - 1) is |value| + 1
    bumped = _bs_raw((mag._mask << mag._base) + 1, 0)
    half = truncate(shift(bumped, 1), -1)
    return _sb_raw(1, half)


# ---------------------------------------------------------------------------
# block-level queries


def norm_inf(b: BitVectorBlock) -> Dyadic:
    """Largest absolute element value (exact)."""
    best = Dyadic(0)
    for e in b:
        val = abs(fb_decode(e)) if isinstance(e, SignedBinary) else Dyadic(abs(fn_decode(e)))
        if val > best:
            best = val
    return best


def _element_bits(e: Element) -> BitString:
    return e.magnitude if isinstance(e, SignedBinary) else e.digits


def exponent_range(b: BitVectorBlock) -> tuple[int, int]:
    """(lowest, highest) active bit position over all block elements.

    An all-zero block has no exponent; that case raises ZeroBlockError so
    callers are forced to handle it explicitly (the codec maps it to the
    dedicated zero-block flag).
    """
    e_min = None
    e_max = None
    for e in b:
        bits = _element_bits(e)
        if bits.is_empty:
            continue
        lo, hi = bits.lowest(), bits.highest()
        e_min = lo if e_min is None else min(e_min, lo)
        e_max = hi if e_max is None else max(e_max, hi)
    if e_max is None:
        raise ZeroBlockError("all-zero block has no exponent")
    return e_min, e_max
