"""Text lines of field tables: `"%.17g" % v` for whole arrays at once.

`RowText(shape, rows).write(fh, k, values)` writes the lines of row k of
a table whose rows have shape `shape`: one line `k,i,...,` + FMT % v +
`\\n` per entry in C order, the bytes that `%` gives, with no Python
call per value.

Digits. A finite float64 of magnitude 1e-11 <= |v| < 1e17 is m 2^q with
a 53-bit m. With E = floor(log10 |v|) and s = 16 - E in 0..27, its 17
significant digits are d = m 5^s 2^(q+s) rounded half to even, and 5^s
< 2^64 is exact. Shifting m left by a <= 11 bits puts the binary point
of the 128-bit product (m << a) (5^s << (64 - bitlen 5^s)) at bit 64,
the exact digit generation of Steele & White (PLDI 1990) and Adams
(PLDI 2018): d is its high word, and the low word is the remainder that
decides the rounding. The product is formed from 32-bit partial
products, every operand an explicit uint64, so that numpy never
promotes uint64 with int64 to float64.

Text. The digits become characters through a table of the 10^4 groups of
four. Each line of a block is a fixed-width template: the indices, each
right-aligned in its own columns, then the number field "0000" + "000"
+ 17 digits + a tail of "\\n" or "e-XX\\n". In place, the digits before
the point move one column left, and a `.` and a `-` are written where
the line needs them, so that the number is one run of bytes. Which bytes
a line keeps is one row of a small table indexed by (sign, E, count of
significant digits), by the rules of `%g`: fixed notation for -4 <= E <
17 and exponent notation below, trailing zeros and a bare `.` dropped.
One boolean index compacts the block.

Everything else goes through FMT % v one value at a time, spliced in
place: zeros, subnormals, nan and inf, magnitudes outside the range, and
an E that log10 misjudges next to a power of ten, which d gives away.
"""

from __future__ import annotations

import functools

import numpy as np

FMT = "%.17g"
BLOCK_BYTES = 2**20  # buffer budget of one block of lines

_U = np.uint64
_M32, _32, _HALF = _U(2**32 - 1), _U(32), _U(2**63)
_E_MIN, _E_MAX = -11, 16  # the decimal exponents of the exact range
_CLASSES = _E_MAX - _E_MIN + 1
_NUM = 32  # columns of the number field; digit j = 1..17 is in column 6 + j
_TEMP = 160  # bytes of the kernel's temporaries per line, beside its template and mask


@functools.cache
def _tables():
    """Tables of the kernel, built on first use, by E - _E_MIN unless said
    otherwise: 5^(16-E) normalized to bit 63 in 32-bit halves, and what
    shifts m to put its product's point at bit 64; the characters of the
    groups 0..9999 and then of each E's two-word tail, as uint32;
    trailing zeros by group; the digits before the point and the columns
    of `.` and `-`; and the keep mask by (sign, E, digit count)."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    pow5 = [5 ** int(16 - k) for k in e]
    bits = np.array([p.bit_length() for p in pow5])
    norm = np.array([p << (64 - b) for p, b in zip(pow5, bits)], dtype=np.uint64)
    shift = 16 - e + bits - 1075  # plus the biased binary exponent

    digit = np.arange(48, 58, dtype=np.uint8)  # the characters 0..9
    chars = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    tails = np.zeros((_CLASSES, 8), dtype=np.uint8)
    tails[:, 0] = ord("\n")
    expo = e < -4  # exponent notation
    tails[expo, :5] = np.frombuffer(b"e-00\n", dtype=np.uint8)
    tails[expo, 2:4] += (-e[expo, None] // np.array([10, 1]) % 10).astype(np.uint8)
    lut = np.concatenate([chars.reshape(-1), tails.reshape(-1)]).view(np.uint32)
    zeros = np.cumprod(chars.reshape(-1, 4)[:, ::-1] == 48, axis=1, dtype=np.uint8).sum(
        axis=1, dtype=np.int64)

    p = np.where(expo, 1, e + 1)[:, None, None]  # digits before the point; -3..0 is 0.000ddd
    dot, start = 6 + p, np.where(p > 0, 6, 5 + p)  # columns of `.` and of the first kept byte
    n = np.arange(1, 18)[:, None]
    col = np.arange(_NUM)
    body = (((col >= start) & (col < dot))  # the integer part, or the 0 of 0.000ddd
            | ((col == dot) & (n > p))  # the point, when a digit follows it
            | ((col > dot) & (col <= 6 + n))  # zeros of 0.000ddd and digits up to the last nonzero
            | ((col >= 24) & (col < 25 + 4 * expo[:, None, None])))  # the tail
    keep = np.stack([body, body | (col == start - 1)])  # positive, negative
    tables = (norm >> _32, norm & _M32, shift, lut, zeros, p.ravel(), dot.ravel(),
              start.ravel() - 1, keep.reshape(-1, _NUM))
    for table in tables:  # shared by every caller
        table.setflags(write=False)
    return tables


def _digits(v: np.ndarray):
    """(ok, neg, e, d) of float64 values v: whether a value is in the
    exact range, whether it is negative, E - _E_MIN and its 17
    significant digits d, 10^16 <= d < 10^17. Where ok is False, e and d
    mean nothing. Temporaries are reused to keep the peak low."""
    f1, f0, shift = _tables()[:3]
    bits = v.view(np.uint64)
    biased = (bits >> _U(52)) & _U(0x7FF)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero, nan and inf fall back
        e = np.abs(v)
        np.log10(e, out=e)
        np.floor(e, out=e)
        e = e.astype(np.int64)
    e -= _E_MIN
    ok = e.view(np.uint64) < _U(_CLASSES)  # a negative e wraps around
    ok &= biased - _U(1) < _U(0x7FE)  # neither zero, subnormal, nan nor inf
    np.clip(e, 0, _CLASSES - 1, out=e)
    a = shift[e]
    a += biased.view(np.int64)
    ok &= a.view(np.uint64) <= _U(11)
    np.clip(a, 0, 11, out=a)
    x = bits & _U(2**52 - 1)
    x |= _U(2**52)
    x <<= a.view(np.uint64)
    del a, biased
    x1 = x >> _32
    x &= _M32
    y1, y0 = f1[e], f0[e]
    low = x * y0  # the partial products in 32-bit halves, then the low word
    np.multiply(x, y1, out=x)
    np.multiply(x1, y0, out=y0)
    np.multiply(x1, y1, out=y1)
    del x1
    mid = low >> _32
    mid += x & _M32
    mid += y0 & _M32
    low &= _M32
    low |= mid << _32
    d = y1
    d += x >> _32
    d += y0 >> _32
    d += mid >> _32
    del x, y0, mid
    ok &= d >= _U(10**16)  # before rounding: E is not one too high
    d += (low > _HALF) | ((low == _HALF) & ((d & _U(1)) == _U(1)))
    ok &= d < _U(10**17)
    return ok, v < 0, e, d


def _indices(n: int):
    """Texts "i," of the indices i < n right-aligned in one width, as
    (n, width) characters, and the mask of the columns that they fill."""
    powers = 10 ** np.arange(len(str(n - 1)) - 1, -1, -1)
    i = np.arange(n)[:, None]
    text = np.concatenate([i // powers % 10 + 48, np.full((n, 1), ord(","))], axis=1)
    keep = np.concatenate([(i >= powers) | (powers == 1), np.ones((n, 1), dtype=bool)], axis=1)
    return text.astype(np.uint8), keep


class RowText:
    """Writer of the lines of the rows of one table, each row an array of
    shape `shape` and its lines led by the row's index k < rows.

    A line's template has the row index and each trailing index
    right-aligned in a column of its own, after as many unused columns
    as put the number field on a multiple of four bytes, so that the
    digit groups are taken straight into it as uint32."""

    def __init__(self, shape: tuple[int, ...], rows: int):
        self.shape = shape
        self.fields = [_indices(n) for n in (rows, *shape)]
        used = sum(text.shape[1] for text, _ in self.fields)
        self.num = used + -used % 4  # first column of the number field
        self.lead = self.num - used  # first column of the row index
        self.width = self.num + _NUM
        self.block = max(1, BLOCK_BYTES // (2 * self.width + _TEMP))
        self.span = None  # the entries [lo, hi) whose lines the buffers hold

    def _buffers(self, lo: int, hi: int):
        """Template and mask of the lines of entries [lo, hi) of a row, with
        their trailing indices: the leading rows of the arrays of the first
        block, which is the longest."""
        if self.span is None:
            self.template = np.zeros((hi - lo, self.width), dtype=np.uint8)
            self.mask = np.zeros((hi - lo, self.width), dtype=bool)
        t, m = self.template[:hi - lo], self.mask[:hi - lo]
        if self.span != (lo, hi):
            col = self.num
            indices = np.unravel_index(np.arange(lo, hi), self.shape) if self.shape else ()
            for index, (text, keep) in zip(indices[::-1], self.fields[:0:-1]):
                col -= text.shape[1]
                np.take(text, index, axis=0, out=t[:, col:col + text.shape[1]], mode="clip")
                np.take(keep, index, axis=0, out=m[:, col:col + text.shape[1]], mode="clip")
            self.span = (lo, hi)
        return t, m

    def write(self, fh, k: int, values: np.ndarray) -> None:
        """Write the lines of row k, whose values are `values`, to the
        binary file fh."""
        v = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        text, keep = self.fields[0]
        lead = slice(self.lead, self.lead + text.shape[1])
        for lo in range(0, len(v), self.block):
            hi = min(lo + self.block, len(v))
            t, m = self._buffers(lo, hi)
            t[:, lead], m[:, lead] = text[k], keep[k]
            fh.write(self._block(t, m, v[lo:hi]))

    def _block(self, t: np.ndarray, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The bytes of the lines of values v, from their template t and
        mask m."""
        lut, zeros, before, dot, sign, keep = _tables()[3:]
        num = self.num
        ok, neg, e, d = _digits(v)
        words = t.view(np.uint32)[:, num // 4:]  # "0000", 5 digit groups, 2 tail words
        words[:, 0] = lut[0]
        top = d // _U(10**8)  # the first 9 digits; d keeps the last 8
        d -= top * _U(10**8)
        g0 = top // _U(10**8)
        top -= g0 * _U(10**8)
        g1, g3 = top // _U(10**4), d // _U(10**4)
        groups = [g0, g1, top - g1 * _U(10**4), g3, d - g3 * _U(10**4)]
        del g0, g1, g3, top, d
        for c, g in enumerate(groups, 1):
            np.take(lut, g.view(np.int64), out=words[:, c], mode="clip")
        np.take(lut, 2 * e + 10**4, out=words[:, 6], mode="clip")
        np.take(lut, 2 * e + (10**4 + 1), out=words[:, 7], mode="clip")
        p = before[e]  # the digits before the point move one column left
        if p.max() > 0:
            cols = np.arange(p.max())
            np.copyto(t[:, num + 6:num + 6 + len(cols)], t[:, num + 7:num + 7 + len(cols)],
                      where=p[:, None] > cols)
        flat = t.reshape(-1)
        base = np.arange(len(v)) * self.width + num  # of each number field
        flat[base + dot[e]] = ord(".")
        flat[base + sign[e]] = ord("-")
        tz = zeros[groups[4].view(np.int64)]
        for g in (3, 2, 1):  # a group's zeros count when the groups after it are zero
            rest = np.flatnonzero(tz == 4 * (4 - g))
            tz[rest] += zeros[groups[g][rest].view(np.int64)]
        del groups
        np.take(keep, (neg * _CLASSES + e) * 17 + 16 - tz, axis=0, out=m[:, num:], mode="clip")
        bad = np.flatnonzero(~ok)
        if len(bad):  # no text of % holds a NUL byte, so the padding marks its end
            text = np.array([FMT % x + "\n" for x in v[bad].tolist()], dtype=f"S{_NUM}")
            t[bad, num:] = text = text.view(np.uint8).reshape(-1, _NUM)
            m[bad, num:] = text != 0
        return t[m]
