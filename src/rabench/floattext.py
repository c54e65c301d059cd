"""``float.__repr__`` of a whole float64 matrix at once.

``repr_rows(matrix, sep)`` gives, for each row, the ASCII bytes of
``sep.join(map(float.__repr__, row))``. It writes the ``pre --out``
posterior rows, which are almost all of that file on a transit design.

Values in [2**-1022, 1), where posteriors lie, get their shortest
round-trip digits from the e2 < 0 branch of Ryū (Adams 2018, "Ryū: fast
float-to-string conversion", PLDI) run over numpy arrays: the digits and
the round-half-even choice among them are those of ``float.__repr__``.
Any other value (0.0, a subnormal, one >= 1, a negative or non-finite
one) is written by ``float.__repr__`` itself.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

#: Values laid out at a time: a chunk's byte matrix and uint64 temporaries
#: stay under about 1 MB each.
CHUNK = 1 << 14

#: Bit patterns of the smallest normal double and of 1.0: the kernel's
#: domain is the patterns in [_LOW_BITS, _ONE_BITS).
_LOW_BITS = 0x0010000000000000
_ONE_BITS = 0x3FF0000000000000

#: Bytes of a value's text: 8 aligned 32-bit words, then the separator and
#: NUL padding to a whole word. Bytes 0-4 hold '0.' and up to 3 zeros (a
#: fixed-point text), 5 the first digit, 6 the '.' of a scientific text,
#: 8-23 the other 16 digit columns, 24-25 'e-' and 29-31 the exponent's
#: digits. Every byte a text does not use is NUL.
_TEXT_BYTES = 32

_M32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


@functools.cache
def _ryu_tables() -> tuple[np.ndarray, ...]:
    """Per biased exponent of a double in the domain: the 32-bit limbs of
    Ryū's 5^i multiplier, the shift past bit 96 of the product, the
    decimal exponent e10, and the mask of the low q bits whose zeros make
    the truncated digits exact; then the powers of ten below 2**64. Built
    from Python ints on first use."""
    neg_e2 = 1077 - np.arange(1024)  # the value is mv * 2**e2, mv = 4 * mantissa
    q = ((neg_e2 * 732923) >> 20) - 1  # floor(log10(5**-e2)) - 1
    i = neg_e2 - q
    # 5**n cut (or padded) to 125 bits, n = 0..max(i): 5**n's bit length - 125
    cut = ((np.arange(i.max() + 1) * 1217359) >> 19) + 1 - 125
    pow5 = [5**n >> c if c >= 0 else 5**n << -c for n, c in enumerate(cut.tolist())]
    limbs = np.array([[(p >> (32 * y)) & 0xFFFFFFFF for p in pow5] for y in range(4)],
                     dtype=np.uint64)
    exact = np.array([(1 << min(bits, 64)) - 1 for bits in q.tolist()], dtype=np.uint64)
    return (limbs[:, i], (q - cut[i] - 96).astype(np.uint64),  # j - 96, in [22, 25]
            q - neg_e2, exact, 10 ** np.arange(20, dtype=np.uint64))


@functools.cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """The text of 0..9999 as 4 ASCII digits in a 32-bit word, and per
    text class (kind * 17 + digit count - 1)
    the mask of the bytes it keeps, its constant bytes, both as 8 words,
    and its length. Kinds 0-3 are fixed-point texts with that many
    leading zeros, kinds 4 and 5 scientific texts with a 2- and 3-digit
    exponent."""
    n = np.arange(10000)
    ascii4 = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    ascii4 = (ascii4 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    keeps, consts = bytearray(), bytearray()
    for kind in range(6):
        for n_digits in range(1, 18):
            keep, const = bytearray(_TEXT_BYTES), bytearray(_TEXT_BYTES)
            keep[5] = 0xFF
            keep[8:7 + n_digits] = b"\xff" * (n_digits - 1)
            if kind < 4:
                const[0:2 + kind] = b"0." + b"0" * kind
            else:
                const[6] = ord(".") if n_digits > 1 else 0
                const[24:26] = b"e-"
                keep[34 - kind:32] = b"\xff" * (kind - 2)
            keeps += keep
            consts += const
    keep = np.frombuffer(keeps, dtype=np.uint8).reshape(102, _TEXT_BYTES)
    const = np.frombuffer(consts, dtype=np.uint8).reshape(102, _TEXT_BYTES)
    length = (keep != 0).sum(axis=1) + (const != 0).sum(axis=1)
    return ascii4, keep.view(np.uint32), const.view(np.uint32), length


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip digits (as an integer) and decimal exponent of
    each double whose bit pattern lies in the domain."""
    limbs, shift, e10, exact, pow10 = _ryu_tables()
    biased = (bits >> np.uint64(52)).astype(np.intp)
    fraction = bits & np.uint64((1 << 52) - 1)
    mv = (fraction | np.uint64(1 << 52)) << np.uint64(2)
    # the lower neighbour is half as far below a power of two
    gap = 1 + ((fraction != 0) | (biased <= 1)).astype(np.uint64)
    mm = mv - gap
    # mm * 5^i on 32-bit limbs: column y carries weight 2**(32 y); the
    # products with mm's top limb (< 2**23) go in whole
    low, high = mm & _M32, mm >> _U32
    b = [row.take(biased) for row in limbs]
    p = [low * by for by in b]
    columns = [p[0] & _M32,
               (p[0] >> _U32) + (p[1] & _M32) + high * b[0],
               (p[1] >> _U32) + (p[2] & _M32) + high * b[1],
               (p[2] >> _U32) + (p[3] & _M32) + high * b[2]]
    top = (p[3] >> _U32) + high * b[3]
    r = shift.take(biased)
    r_up = _U32 - r

    def shifted(c0, c1, c2, c3):
        """floor(column sum / 2**j): carry columns 0-3 up, then shift by
        j = 96 + r; the result fits in 64 bits."""
        c2 = c2 + ((c1 + (c0 >> _U32)) >> _U32)
        return ((c3 + (c2 >> _U32)) >> r) + (top << r_up)

    vm = shifted(*columns)
    vr = shifted(*(c + gap * by for c, by in zip(columns, b)))
    vp = shifted(*(c + (gap + np.uint64(2)) * by for c, by in zip(columns, b)))
    # drop digits while a shorter number lies in (vm, vp]: one for each
    # power of ten that leaves vp and vm apart, at most 19 below 2**64
    removed = np.zeros(len(bits), dtype=np.intp)
    for power in pow10[1:].tolist():
        apart = vp // power > vm // power
        if not apart.any():
            break
        removed += apart
    scale = pow10.take(removed)
    kept = vr // scale
    dropped = vr - kept * scale
    tenth = pow10.take(np.maximum(removed - 1, 0))
    last = dropped // tenth  # the first dropped digit
    # round up past vm's own digits, which lie outside the interval, and
    # on a dropped digit >= 5, except for a tie (vr exact and every later
    # dropped digit 0), which goes to even
    tie = ((mv & exact.take(biased)) == 0) & (dropped == last * tenth) & (last == 5)
    round_up = (kept == vm // scale) | ((last >= 5) & ~(tie & ((kept & np.uint64(1)) == 0)))
    return kept + round_up, e10.take(biased) + removed


def _repr_text(value: float) -> bytes:
    """The text of a value outside the kernel's domain."""
    return float.__repr__(value).encode("ascii")


def _lay_out(values: np.ndarray, text: np.ndarray) -> np.ndarray:
    """Write each value's ``float.__repr__`` text, NUL-padded, in the
    first ``_TEXT_BYTES`` bytes of its row of ``text``; return the texts'
    lengths."""
    ascii4, keep, const, length = _text_tables()
    pow10 = _ryu_tables()[-1]
    bits = values.view(np.uint64)
    inside = (bits >= np.uint64(_LOW_BITS)) & (bits < np.uint64(_ONE_BITS))
    # a value outside gets 0.5's digits, then its own text over them
    digits, exp = _shortest(np.where(inside, bits, np.uint64(0x3FE0000000000000)))
    # digit count; the float log10 can leave it one off either way
    n = np.log10(digits.astype(np.float64)).astype(np.intp) + 1
    n += digits >= pow10.take(n)
    n -= digits < pow10.take(n - 1)
    point = n + exp  # the value is 0.<digits> * 10**point, point <= 0
    sci = point < -3
    magnitude = 1 - point  # of a scientific text's exponent
    kind = np.where(sci, 4 + (magnitude >= 100), -point)
    text_class = kind * 17 + n - 1
    left = digits * pow10.take(17 - n)  # 17 digits, the first nonzero
    first = left // 10**16
    text[:, 5] = first + ord("0")
    words = text.view(np.uint32)
    rest = left - first * 10**16
    for word in (5, 4, 3, 2):  # the other 16 digits, 4 a word from the right
        above = rest // 10**4
        words[:, word] = ascii4.take(rest - above * 10**4)
        rest = above
    words[:, 7] = ascii4.take(magnitude)
    words[:, :8] &= keep.take(text_class, axis=0)
    words[:, :8] |= const.take(text_class, axis=0)
    lengths = length.take(text_class)
    outside = np.flatnonzero(~inside)
    if outside.size:
        patterns, which = np.unique(bits[outside], return_inverse=True)
        own = np.zeros((len(patterns), _TEXT_BYTES), dtype=np.uint8)
        own_lengths = np.zeros(len(patterns), dtype=lengths.dtype)
        for k, value in enumerate(patterns.view(np.float64).tolist()):
            own_text = _repr_text(value)
            own[k, :len(own_text)] = np.frombuffer(own_text, dtype=np.uint8)
            own_lengths[k] = len(own_text)
        text[outside, :_TEXT_BYTES] = own[which]
        lengths[outside] = own_lengths[which]
    return lengths


def repr_rows(matrix: np.ndarray, sep: bytes) -> Iterator[memoryview]:
    """Yield ``sep.join(map(float.__repr__, row)).encode()`` for each row of
    a 2-D float64 matrix, laid out a chunk of whole rows at a time (one
    row when a row alone is longer than ``CHUNK``). ``sep`` holds no NUL."""
    n_rows, width = matrix.shape
    if not width:  # each row is sep.join([])
        for _ in range(n_rows):
            yield memoryview(b"")
        return
    step = max(1, CHUNK // width)
    text = np.zeros((min(step, n_rows) * width, _TEXT_BYTES + -(-len(sep) // 4) * 4),
                    dtype=np.uint8)
    text[:, _TEXT_BYTES:_TEXT_BYTES + len(sep)] = np.frombuffer(sep, dtype=np.uint8)
    for start in range(0, n_rows, step):
        block = np.ascontiguousarray(matrix[start:start + step], dtype=np.float64)
        laid = text[:block.size]
        lengths = _lay_out(block.ravel(), laid)
        blob = memoryview(laid[laid != 0])
        ends = np.cumsum(lengths.reshape(len(block), width).sum(axis=1) + width * len(sep))
        begin = 0
        for end in ends.tolist():
            yield blob[begin:end - len(sep)]
            begin = end
