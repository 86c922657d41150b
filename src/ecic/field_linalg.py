"""Finite-field scalar, vector, and matrix arithmetic.

Elements of GF(q), q = p^e, are integers in [0, q).  Prime fields use
integers mod p.  Extension-field elements encode polynomial coefficients in
base p: the integer sum(c_i * p**i) stands for the residue class of
sum(c_i * x**i).  Reduction is modulo a fixed monic irreducible polynomial
per (p, e) -- the one whose own base-p integer encoding (leading term
included) is smallest -- so that integer encodings are portable across
runs and machines.

Vectors and matrices are immutable; all operations are pure functions.

`PackedRows.lightest` is the one minimum-weight kernel, for every q: the
lightest target - sum_j c_j * rows_j, found by an odometer over
coefficient tuples in lexicographic order.  Rows are packed once, with
all their multiples, as base-p digit lanes in one integer, so each step
is one integer add of a precomputed change with every lane reduced mod p
at once (one XOR in characteristic 2), and a weight is one `bit_count`.
Receiver margins pack a code's rows once, `code_min_distance` its basis
and the cover search's hit table its targets (a hit row is a lane sum's
`support`, the nonzero flags a weight counts).  The test suite checks the
kernel against brute force and, on GF(2), against an XOR walk over suffix
sums.  Every elimination (rank, row basis, parity check, linear solve) is
one reduced row echelon form, `_rref`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceeded,
    CapExceeded,
    LengthMismatch,
    MalformedDocument,
    NoSolution,
    NotPrimePower,
    WeightCapExceeded,
)

DEFAULT_FIELD_CAP = 256
DEFAULT_ENUM_BUDGET = 1 << 26


# ---------------------------------------------------------------------------
# field construction


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q = p**e and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1)  # q itself is prime
        if q % p:
            continue
        e = 0
        rest = q
        while rest % p == 0:
            rest //= p
            e += 1
        return (p, e) if rest == 1 else None
    return None


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a: list[int], mod: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial mod, coefficients low-first."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return a[:dm]


def _poly_is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            rem = _poly_mod(list(poly), div, p)
            if not any(rem):
                return False
    return True


def _lowest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e over GF(p) with smallest integer encoding."""
    for tail in itertools.product(range(p), repeat=e):
        # tail ordered so that sum(tail[i] * p**i) ascends with high powers
        # most significant: iterate coefficients high-to-low outermost.
        coeffs = tuple(reversed(tail)) + (1,)
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError(f"no irreducible polynomial of degree {e} over GF({p})")


class Field:
    """Arithmetic tables for GF(q), q = p^e <= DEFAULT_FIELD_CAP.

    Elements are integers 0..q-1.  For e > 1, the integer is the base-p
    encoding of the polynomial coefficients; `modulus` holds the reduction
    polynomial's coefficients (low-first, monic).
    """

    __slots__ = ("q", "p", "e", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, q: int):
        if q > DEFAULT_FIELD_CAP:
            raise CapExceeded(f"field order {q} exceeds cap {DEFAULT_FIELD_CAP}")
        pe = _prime_power(q)
        if pe is None:
            raise NotPrimePower(f"{q} is not a prime power")
        p, e = pe
        self.q, self.p, self.e = q, p, e
        self.modulus = (0,) * 0 if e == 1 else _lowest_irreducible(p, e)

        if e == 1:
            self._add = tuple(tuple((a + b) % p for b in range(q)) for a in range(q))
            self._mul = tuple(tuple((a * b) % p for b in range(q)) for a in range(q))
        else:
            digits = [self._digits(a) for a in range(q)]
            self._add = tuple(
                tuple(self._undigits([(x + y) % p for x, y in zip(digits[a], digits[b])])
                      for b in range(q))
                for a in range(q)
            )
            mul_rows = []
            for a in range(q):
                row = []
                for b in range(q):
                    prod = _poly_mod(_poly_mul(digits[a], digits[b], p), self.modulus, p)
                    row.append(self._undigits(prod))
                mul_rows.append(tuple(row))
            self._mul = tuple(mul_rows)

        neg = [0] * q
        for a in range(q):
            for b in range(q):
                if self._add[a][b] == 0:
                    neg[a] = b
                    break
        self._neg = tuple(neg)

        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    inv[a] = b
                    break
            else:
                raise RuntimeError(f"element {a} of GF({q}) has no inverse; bad modulus")
        self._inv = tuple(inv)

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, digits: Iterable[int]) -> int:
        out = 0
        for c in reversed(list(digits)):
            out = out * self.p + c
        return out

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

    def pow(self, a: int, k: int) -> int:
        out = 1
        for _ in range(k):
            out = self._mul[out][a]
        return out

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and self.q == other.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"Field(q={self.q})"
        return f"Field(q={self.q}, p={self.p}, e={self.e}, modulus={self.modulus})"


@functools.lru_cache(maxsize=None)
def make_field(q: int) -> Field:
    """Build (and cache) the GF(q) arithmetic tables.

    Raises NotPrimePower if q is not a prime power, CapExceeded if q >
    DEFAULT_FIELD_CAP.  Table construction verifies that every nonzero
    element has an inverse.
    """
    return Field(q)


# ---------------------------------------------------------------------------
# vectors and matrices


@dataclass(frozen=True)
class FVector:
    """Immutable vector over a Field; entries are integers in [0, q)."""

    field: Field
    entries: tuple[int, ...]

    def __post_init__(self):
        q = self.field.q
        if any(not (0 <= x < q) for x in self.entries):
            raise ValueError("vector entry outside field range")

    def __len__(self) -> int:
        return len(self.entries)

    def weight(self) -> int:
        return sum(1 for x in self.entries if x)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def add(self, other: FVector) -> FVector:
        self._check(other)
        add = self.field._add
        return FVector(self.field, tuple(add[a][b] for a, b in zip(self.entries, other.entries)))

    def sub(self, other: FVector) -> FVector:
        self._check(other)
        f = self.field
        return FVector(f, tuple(f.sub(a, b) for a, b in zip(self.entries, other.entries)))

    def dot(self, other: FVector) -> int:
        self._check(other)
        f = self.field
        acc = 0
        for a, b in zip(self.entries, other.entries):
            acc = f._add[acc][f._mul[a][b]]
        return acc

    def _check(self, other: FVector) -> None:
        if self.field != other.field or len(self) != len(other):
            raise LengthMismatch("vector field/length mismatch")

    @classmethod
    def _unchecked(cls, field: Field, entries: tuple[int, ...]) -> FVector:
        """Wrap entries already known to be in range, without checking them
        again."""
        v = object.__new__(cls)
        object.__setattr__(v, "field", field)
        object.__setattr__(v, "entries", entries)
        return v


@dataclass(frozen=True)
class FMatrix:
    """Immutable row-major matrix over a Field."""

    field: Field
    rows: tuple[tuple[int, ...], ...]
    ncols: int

    def __post_init__(self):
        q = self.field.q
        for r in self.rows:
            if len(r) != self.ncols:
                raise LengthMismatch("ragged matrix rows")
            if any(not (0 <= x < q) for x in r):
                raise ValueError("matrix entry outside field range")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> FVector:
        return FVector(self.field, self.rows[i])

    def rows_at(self, indices: Sequence[int]) -> FMatrix:
        return FMatrix._unchecked(self.field, tuple(self.rows[i] for i in indices), self.ncols)

    def transpose(self) -> FMatrix:
        return FMatrix(
            self.field,
            tuple(tuple(r[j] for r in self.rows) for j in range(self.ncols)),
            self.nrows,
        )

    def left_mul(self, x: FVector) -> FVector:
        """Row vector times matrix: x @ self."""
        if len(x) != self.nrows or x.field != self.field:
            raise LengthMismatch(f"expected row vector of length {self.nrows}")
        f = self.field
        add, mul = f._add, f._mul
        acc = [0] * self.ncols
        for coef, row in zip(x.entries, self.rows):
            if coef:
                for j, v in enumerate(row):
                    if v:
                        acc[j] = add[acc[j]][mul[coef][v]]
        return FVector(f, tuple(acc))

    def matmul(self, other: FMatrix) -> FMatrix:
        """Matrix product self @ other: one `left_mul` per row of self."""
        if other.nrows != self.ncols or other.field != self.field:
            raise LengthMismatch("matrix product dimension mismatch")
        rows = tuple(other.left_mul(FVector(self.field, row)).entries for row in self.rows)
        return FMatrix(self.field, rows, other.ncols)

    def mul_col(self, v: FVector) -> FVector:
        """Matrix times column vector: self @ v^T, returned as a vector."""
        if len(v) != self.ncols or v.field != self.field:
            raise LengthMismatch(f"expected column vector of length {self.ncols}")
        f = self.field
        add, support = f._add, [(j, f._mul[b]) for j, b in enumerate(v.entries) if b]
        out = []
        for row in self.rows:
            acc = 0
            for j, m in support:  # v's nonzero entries only
                acc = add[acc][m[row[j]]]
            out.append(acc)
        return FVector(f, tuple(out))

    @classmethod
    def _unchecked(cls, field: Field, rows: tuple[tuple[int, ...], ...], ncols: int) -> FMatrix:
        """Wrap rows already known to have ncols entries in range, without
        checking them again."""
        M = object.__new__(cls)
        object.__setattr__(M, "field", field)
        object.__setattr__(M, "rows", rows)
        object.__setattr__(M, "ncols", ncols)
        return M

    @staticmethod
    def identity(field: Field, n: int) -> FMatrix:
        return FMatrix(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zero(field: Field, nrows: int, ncols: int) -> FMatrix:
        return FMatrix(field, tuple((0,) * ncols for _ in range(nrows)), ncols)


# ---------------------------------------------------------------------------
# elimination kernels


def _rref(rows: Sequence[Sequence[int]], ncols: int, field: Field) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Pivot rule: scan columns left to right, pick the first unused row with a
    nonzero entry.  Output is deterministic for a given input.
    """
    work = [list(r) for r in rows]
    add, mul, neg = field._add, field._mul, field._neg
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(work)):
            if work[r][col]:
                sel = r
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        inv = field._inv[work[rank][col]]
        if inv != 1:
            work[rank] = [mul[inv][x] for x in work[rank]]
        prow = work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                c = neg[work[r][col]]
                row = work[r]
                for j in range(col, ncols):
                    if prow[j]:
                        row[j] = add[row[j]][mul[c][prow[j]]]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return work[:rank], pivots


def _kernel_rows(
    reduced: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int, field: Field
) -> list[tuple[int, ...]]:
    """The standard kernel basis of a reduced echelon form over its first
    `ncols` columns: one row per non-pivot column j, 1 at j, minus the
    reduced rows' column-j entries at their pivots, 0 elsewhere."""
    pivot_set = set(pivots)
    neg = field._neg
    rows = []
    for j in range(ncols):
        if j not in pivot_set:
            h = [0] * ncols
            h[j] = 1
            for r, p in enumerate(pivots):
                h[p] = neg[reduced[r][j]]
            rows.append(tuple(h))
    return rows


def mat_rank(M: FMatrix) -> int:
    """Rank of M over its field."""
    return len(_rref(M.rows, M.ncols, M.field)[0])


def row_basis(M: FMatrix) -> FMatrix:
    """Reduced-echelon basis of the row space (deterministic)."""
    rows, _ = _rref(M.rows, M.ncols, M.field)
    return FMatrix(M.field, tuple(tuple(r) for r in rows), M.ncols)


def parity_check_matrix(G: FMatrix) -> FMatrix:
    """A full-rank matrix H with G @ H^T = 0 spanning the dual of G's row space.

    With k = rank(G) and N columns, H is (N-k) x N; its rows are the standard
    kernel basis read off the reduced echelon form of G (one row per
    non-pivot column, unit entry on that column), so the output is
    deterministic.  k = N yields a 0 x N matrix; a 0 x N input yields the
    identity.
    """
    reduced, pivots = _rref(G.rows, G.ncols, G.field)
    rows = _kernel_rows(reduced, pivots, G.ncols, G.field)
    return FMatrix._unchecked(G.field, tuple(rows), G.ncols)


def solve_linear(A: FMatrix, b: FVector) -> tuple[FVector, list[FVector]] | None:
    """Solve A x = b (x a column vector of length A.ncols).

    Returns (particular solution, kernel basis) or None if inconsistent.
    The particular solution sets all free variables to zero; the kernel
    basis has one vector per free column.  Deterministic.
    """
    if len(b) != A.nrows or b.field != A.field:
        raise LengthMismatch("right-hand side length mismatch")
    field = A.field
    N = A.ncols
    aug = [list(r) + [bv] for r, bv in zip(A.rows, b.entries)]
    reduced, pivots = _rref(aug, N + 1, field)
    if N in pivots:
        return None
    x = [0] * N
    for r, p in enumerate(pivots):
        x[p] = reduced[r][N]
    kernel = [FVector(field, v) for v in _kernel_rows(reduced, pivots, N, field)]
    return FVector(field, tuple(x)), kernel


def solve_row_combination(M: FMatrix, target: FVector) -> tuple[FVector, list[FVector]] | None:
    """Solve a @ M = target for the coefficient row vector a."""
    return solve_linear(M.transpose(), target)


# ---------------------------------------------------------------------------
# coset leaders and minimum distance


def _sparse_weight_ordered(q: int, n: int, w: int) -> Iterator[tuple[tuple, tuple]]:
    """(support, nonzero values) of the vectors of length n over GF(q) with
    weight <= w, in ascending weight, then lexicographic support, then
    lexicographic values (none when w < 0).  `coset_leader`, the decoder's
    leader search and its leader table all walk this one order."""
    if w < 0:
        return
    yield (), ()
    nonzero = range(1, q)
    for weight in range(1, min(w, n) + 1):
        for supp in itertools.combinations(range(n), weight):
            for values in itertools.product(nonzero, repeat=weight):
                yield supp, values


def _dense(n: int, supp: Sequence[int], values: Sequence[int]) -> tuple[int, ...]:
    """The entry tuple of length n with values[t] at supp[t], else 0."""
    e = [0] * n
    for j, val in zip(supp, values):
        e[j] = val
    return tuple(e)


def _weight_ordered(q: int, n: int, w: int) -> Iterator[tuple[int, ...]]:
    """`_sparse_weight_ordered` as dense entry tuples."""
    return (_dense(n, supp, values) for supp, values in _sparse_weight_ordered(q, n, w))


def coset_leader(H: FMatrix, s: FVector, weight_cap: int) -> FVector:
    """Minimum-weight e with H e^T = s, searching weights 0, 1, 2, ...

    Candidates of equal weight are ordered by lexicographic support and then
    lexicographic nonzero values, so the result is reproducible.  Raises
    NoSolution if H e^T = s has no solution at any weight, WeightCapExceeded
    if every solution needs weight > weight_cap.  Consistency costs an
    elimination, so it is decided only when the search finds nothing.
    """
    if len(s) != H.nrows or s.field != H.field:
        raise LengthMismatch("syndrome length must equal the parity row count")
    field = H.field
    add, mul = field._add, field._mul
    cols = [[(r, v) for r, v in enumerate(col) if v] for col in zip(*H.rows)]
    target = s.entries
    for supp, values in _sparse_weight_ordered(field.q, H.ncols, weight_cap):
        acc = [0] * H.nrows
        for j, val in zip(supp, values):
            m = mul[val]
            for r, cv in cols[j]:
                acc[r] = add[acc[r]][m[cv]]
        if tuple(acc) == target:
            return FVector._unchecked(field, _dense(H.ncols, supp, values))
    if solve_linear(H, s) is None:
        raise NoSolution("inconsistent syndrome")
    raise WeightCapExceeded(f"no solution of weight <= {weight_cap}")


_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")  # a binary digit string as 0/1 bytes
_BLOCK = 1 << 12  # the fastest digits' odometer steps, precomputed as one list


def _odometer_steps(changes: Sequence[Sequence[int]]) -> list[int]:
    """The change landing on each tuple of an odometer over digits whose
    per-digit changes are `changes` (changes[0] the fastest digit), in
    step order; the first tuple gets 0, as the walk starts on it."""
    seq = [0]
    for per_digit in changes:
        run = seq[1:]
        for change in per_digit:
            seq.append(change)
            seq += run
    return seq


@functools.lru_cache(maxsize=None)
def _lane_layout(field: Field) -> tuple[int, int, tuple[int, ...], dict, tuple[int, ...], int]:
    """How `PackedRows` packs GF(q): (lane bits w, symbol bits width, the
    packed digits of each label, the label of each packed digit pattern,
    the label of c - (c+1) for each c, and how many digits the precomputed
    odometer block spans)."""
    q, p, e = field.q, field.p, field.e
    w = 1 if p == 2 else p.bit_length() + 1  # an odd-p lane holds two digits' sum
    width = e + (e > 1) if p == 2 else e * w
    digits = tuple(sum(x // p**r % p << r * w for r in range(e)) for x in range(q))
    # moving a digit from label c to c+1 adds (c - (c+1)) times its row
    step_labels = tuple(field._add[c][field._neg[c + 1]] for c in range(q - 1))
    block_digits = 0
    while q ** (block_digits + 1) <= _BLOCK:
        block_digits += 1
    return w, width, digits, {d: x for x, d in enumerate(digits)}, step_labels, block_digits


class PackedRows:
    """Rows over GF(q), q = p^e, packed for `lightest`: symbol j's e base-p
    digits sit in lanes of w bits from bit j*width.  Lanes are added and
    reduced mod p all at once (a plain XOR when p = 2, where a spare bit
    tops each symbol of an extension field), and a weight is one
    `bit_count` over the symbols' nonzero flags.  Every multiple a*row of a
    row is packed on the row's first use and kept.  The receiver decoder
    packs vectors of `ncols` symbols in the same lanes, with no rows:
    `pack_columns` and `scaled` build them, `lane_sum` adds them and
    `unpack` reads them back."""

    def __init__(self, field: Field, rows: Sequence[Sequence[int]], ncols: int):
        p = field.p
        self.field, self.rows, self.ncols = field, rows, ncols
        self._w, self._width, self._digits, self._labels, self._step_labels, self._block_digits = (
            _lane_layout(field)
        )
        self._multiples: list[list[int] | None] = [None] * len(rows)
        w, width = self._w, self._width
        symbol_ones = ((1 << ncols * width) - 1) // ((1 << width) - 1)
        lane_ones = symbol_ones * (((1 << width) - 1) // ((1 << w) - 1))
        # for odd p the walk keeps every lane biased by `_bias`, so a lane
        # sum reaches the lane's top bit (`_top`) exactly when it is >= p;
        # `_sym_bias` lifts a (biased) symbol onto its top bit when nonzero
        self._bias = 0 if p == 2 else lane_ones * ((1 << (w - 1)) - p)
        self._top = lane_ones << (w - 1)
        self._sym_bias = symbol_ones * ((1 << (width - 1)) - 1) - self._bias
        self._sym_top = symbol_ones << (width - 1)
        self._add = operator.xor if p == 2 else self._add_mod_p

    def _add_mod_p(self, a: int, b: int) -> int:
        """Lane sum of two unbiased packed vectors, p odd."""
        s = a + b + self._bias
        return s - self._bias - ((s & self._top) >> (self._w - 1)) * self.field.p

    def pack_columns(self, rows: Sequence[Sequence[int]], scale: Sequence[int]) -> list[int]:
        """Each column of a matrix (none without rows), its entries x
        replaced by scale[x], packed: row i's entry from bit i*width."""
        digits, width = self._digits, self._width
        out = [0] * len(rows[0]) if rows else []
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x:
                    out[j] |= digits[scale[x]] << i * width
        return out

    def unpack(self, packed: int, lanes: Iterable[int]) -> tuple[int, ...]:
        """The entries in the given lanes of a packed (unbiased) vector."""
        labels, width = self._labels, self._width
        mask = (1 << width) - 1
        return tuple([labels[packed >> j * width & mask] for j in lanes])

    def support(self, packed: int) -> bytes:
        """One byte per symbol of a packed (unbiased) vector: 1 where the
        symbol is nonzero, else 0."""
        width = self._width
        flags = (packed + self._bias + self._sym_bias) & self._sym_top
        # a leading 1 above the last symbol fixes the string's length
        digits = format(flags >> (width - 1) | 1 << self.ncols * width, "b")
        return digits[:0:-width].encode().translate(_FLAG_BYTES)

    def lane_sum(self, terms: Iterable[int]) -> int:
        """Sum of packed (unbiased) vectors, every lane reduced mod p."""
        p = self.field.p
        if p == 2:
            return functools.reduce(operator.xor, terms, 0)
        acc = bias = self._bias
        top, sh = self._top, self._w - 1
        for t in terms:
            s = acc + t
            acc = s - ((s & top) >> sh) * p
        return acc - bias

    def scaled(self, powers: Sequence[Sequence[int]]) -> list[list[int]]:
        """Every multiple of each of several packed vectors v_k at once:
        out[a][k] is a*v_k, given powers[b][k] = x^b * v_k.  The label p^b
        stands for x^b, and labels add digit by digit, so each label a
        strictly between p^b and p^(b+1) is the multiple at a - p^b plus
        the one at p^b: one lane add per vector."""
        p, lane_add, out = self.field.p, self._add, [[0] * len(powers[0])]
        for b, packed in enumerate(powers):
            step = p**b
            out.append(list(packed))
            for a in range(step + 1, step * p):
                out.append(list(map(lane_add, out[a - step], packed)))
        return out

    def multiples(self, j: int) -> list[int]:
        """Row j scaled by each field element a, packed, at index a."""
        out = self._multiples[j]
        if out is None:
            row, digits, width = self.rows[j], self._digits, self._width
            out = self._multiples[j] = []
            for m in self.field._mul:
                packed = 0
                for x in reversed(row):
                    packed = packed << width | digits[m[x]]
                out.append(packed)
        return out

    def lightest(self, target: int, rows: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """Least weight of row `target` - sum_j c_j * (row rows[j]), with the
        coefficient tuple c that first attains it.

        Coefficient tuples are walked in lexicographic order (the last one
        varies fastest).  Moving digit t from label c to c+1 adds
        (c - (c+1)) * row, which on an extension field depends on c, and
        wraps the faster digits from q-1 to 0, adding (q-1) times each of
        their rows; `changes[t][c]` holds that whole step as one packed
        int.  A tuple replaces the best only when strictly lighter, and the
        walk stops at weight 0.  Visits up to q^len(rows) tuples; the
        caller bounds that."""
        q, k, lane_add = self.field.q, len(rows), self._add
        changes, wrap = [], 0
        for j in reversed(rows):
            m = self.multiples(j)
            changes.append([lane_add(wrap, m[a]) for a in self._step_labels])
            wrap = lane_add(wrap, m[q - 1])
        # block o covers tuples o*q^b .. (o+1)*q^b - 1 and is entered by
        # leads[o], one step of the slower digits; block 0 opens with
        # change 0, which weighs the target itself
        b = min(k, self._block_digits)
        block, leads = _odometer_steps(changes[:b]), _odometer_steps(changes[b:])
        acc, best = self.multiples(target)[1] + self._bias, (self.ncols + 1, 0)
        for o, lead in enumerate(leads):
            block[0] = lead
            acc, best = self._scan(acc, block, o * len(block), best)
            if not best[0]:
                break
        w, index = best
        return w, tuple(index // q ** (k - 1 - j) % q for j in range(k))

    def _scan(
        self, acc: int, steps: Sequence[int], start: int, best: tuple[int, int]
    ) -> tuple[int, tuple[int, int]]:
        """Apply `steps` to the biased acc in turn, the first landing on
        tuple `start`, and keep the first strictly lightest tuple."""
        best_w, best_i = best
        sym_bias, sym_top = self._sym_bias, self._sym_top
        if self.field.q == 2:  # every bit is a symbol
            for i, change in enumerate(steps, start):
                acc ^= change
                w = acc.bit_count()
                if w < best_w:
                    best_w, best_i = w, i
                    if not w:
                        break
        elif self.field.p == 2:
            for i, change in enumerate(steps, start):
                acc ^= change
                w = ((acc + sym_bias) & sym_top).bit_count()
                if w < best_w:
                    best_w, best_i = w, i
                    if not w:
                        break
        else:
            p, top, sh = self.field.p, self._top, self._w - 1
            for i, change in enumerate(steps, start):
                s = acc + change
                acc = s - ((s & top) >> sh) * p
                w = ((acc + sym_bias) & sym_top).bit_count()
                if w < best_w:
                    best_w, best_i = w, i
                    if not w:
                        break
        return acc, (best_w, best_i)


def code_min_distance(G: FMatrix, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Minimum weight of a nonzero codeword in the row space of G.

    Every nonzero codeword is a nonzero multiple of one whose first nonzero
    coefficient over the reduced basis is 1, and scaling keeps the weight,
    so it suffices to take the lightest basis_j + span(basis_{j+1:}) over
    j: (q^k - 1)/(q - 1) words for k = rank(G).  Requires rank >= 1 and
    raises BudgetExceeded when q^k exceeds `budget`.
    """
    field = G.field
    basis = row_basis(G).rows
    k = len(basis)
    if k == 0:
        raise ValueError("zero code has no minimum distance")
    if field.q ** k > budget:
        raise BudgetExceeded(f"{field.q}^{k} codewords exceed enumeration budget {budget}")
    packed = PackedRows(field, basis, G.ncols)
    best = G.ncols
    for j in range(k):
        best = min(best, packed.lightest(j, range(j + 1, k))[0])
        if best == 1:
            break
    return best


# ---------------------------------------------------------------------------
# matrix text format: first line "q n N", then n rows of N integers


def format_matrix(M: FMatrix) -> str:
    lines = [f"{M.field.q} {M.nrows} {M.ncols}"]
    for r in M.rows:
        lines.append(" ".join(str(x) for x in r))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> FMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedDocument("empty matrix document")
    head = lines[0].split()
    if len(head) != 3:
        raise MalformedDocument("matrix header must be 'q n N'")
    try:
        q, n, N = (int(t) for t in head)
    except ValueError as exc:
        raise MalformedDocument("matrix header must contain integers") from exc
    if n < 0 or N < 0:
        raise MalformedDocument("matrix dimensions must be nonnegative")
    if len(lines) - 1 != n:
        raise MalformedDocument(f"expected {n} matrix rows, found {len(lines) - 1}")
    field = make_field(q)
    rows = []
    for ln in lines[1:]:
        try:
            row = tuple(int(t) for t in ln.split())
        except ValueError as exc:
            raise MalformedDocument("matrix entries must be integers") from exc
        if len(row) != N:
            raise MalformedDocument(f"expected {N} entries per row")
        if any(not (0 <= x < q) for x in row):
            raise MalformedDocument("matrix entry outside field range")
        rows.append(row)
    return FMatrix(field, tuple(rows), N)


def all_vectors(field: Field, n: int) -> Iterator[FVector]:
    """Every vector of F_q^n in lexicographic entry order."""
    for entries in itertools.product(field.elements(), repeat=n):
        yield FVector(field, entries)
