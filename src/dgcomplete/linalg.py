"""Exact sparse linear algebra over the rationals or a prime field.

Everything downstream (cohomology ranks, kernel bases, solving for chain
homotopies and strict endomorphisms) reduces to the three operations in this
module: rank, kernel_basis, solve.  All arithmetic is exact; no floats ever
enter the pipeline.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Scalar = object  # Fraction in characteristic 0, int in characteristic p


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """Coefficient field: Fraction arithmetic (char 0) or ints mod a prime."""

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char != 0 and not _is_prime(char):
            raise ValueError(f"characteristic must be 0 or a prime, got {char}")
        self.char = char

    def of(self, x) -> Scalar:
        """Coerce an int, Fraction, or 'n/d' string into the field."""
        if self.char == 0:
            if isinstance(x, Fraction):
                return x
            return Fraction(x)
        if isinstance(x, str):
            if "/" in x:
                num, den = x.split("/", 1)
                return (int(num) * self.inv(int(den) % self.char)) % self.char
            return int(x) % self.char
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.char}")
            return (x.numerator * self.inv(x.denominator % self.char)) % self.char
        return int(x) % self.char

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.char == 0 else 1

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if self.char == 0:
            return Fraction(1) / a
        a = a % self.char
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.char - 2, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0 if self.char == 0 else a % self.char == 0

    def show(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


RATIONALS = Field(0)


class SparseMatrix:
    """Sparse matrix over an exact field, entries keyed by (row, col).

    Zero entries are never stored.  Elimination is deterministic: rows are
    inserted in index order and each new pivot is the lowest remaining column,
    so repeated runs produce identical pivots, kernels, and solutions.
    """

    __slots__ = ("rows", "cols", "field", "entries", "_rank")

    def __init__(self, rows: int, cols: int, field: Field,
                 entries: Optional[Dict[Tuple[int, int], Scalar]] = None):
        self.rows = rows
        self.cols = cols
        self.field = field
        self.entries: Dict[Tuple[int, int], Scalar] = {}
        self._rank: Optional[int] = None
        if entries:
            for (r, c), v in entries.items():
                self[r, c] = field.of(v)

    @classmethod
    def from_dense(cls, data: Sequence[Sequence], field: Field) -> "SparseMatrix":
        m = cls(len(data), len(data[0]) if data else 0, field)
        for r, row in enumerate(data):
            for c, v in enumerate(row):
                m[r, c] = field.of(v)
        return m

    def __setitem__(self, key: Tuple[int, int], value):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry {key} outside {self.rows}x{self.cols}")
        self._rank = None
        if self.field.is_zero(value):
            self.entries.pop(key, None)
        else:
            self.entries[key] = value

    def __getitem__(self, key: Tuple[int, int]) -> Scalar:
        return self.entries.get(key, self.field.zero)

    def add_to(self, r: int, c: int, value):
        self[r, c] = self.field.add(self[r, c], value)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.field == other.field
                and self.entries == other.entries)

    def transpose(self) -> "SparseMatrix":
        t = SparseMatrix(self.cols, self.rows, self.field)
        for (r, c), v in self.entries.items():
            t.entries[(c, r)] = v
        return t

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        other_rows: Dict[int, List[Tuple[int, Scalar]]] = {}
        for (r, c), v in other.entries.items():
            other_rows.setdefault(r, []).append((c, v))
        out = SparseMatrix(self.rows, other.cols, f)
        for (r, c1), v1 in self.entries.items():
            for c2, v2 in other_rows.get(c1, ()):
                key = (r, c2)
                s = f.add(out.entries.get(key, f.zero), f.mul(v1, v2))
                if f.is_zero(s):
                    out.entries.pop(key, None)
                else:
                    out.entries[key] = s
        return out

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        f = self.field
        out = SparseMatrix(self.rows, self.cols, f, dict(self.entries))
        for key, v in other.entries.items():
            out[key] = f.add(out[key], v)
        return out

    def scale(self, s) -> "SparseMatrix":
        f = self.field
        s = f.of(s)
        out = SparseMatrix(self.rows, self.cols, f)
        if f.is_zero(s):
            return out
        for key, v in self.entries.items():
            out.entries[key] = f.mul(s, v)
        return out

    def neg(self) -> "SparseMatrix":
        return self.scale(-1)

    def apply(self, vec: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """Matrix times sparse column vector {index: scalar}."""
        f = self.field
        out: Dict[int, Scalar] = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x is None:
                continue
            s = f.add(out.get(r, f.zero), f.mul(v, x))
            if f.is_zero(s):
                out.pop(r, None)
            else:
                out[r] = s
        return out

    def _row_dicts(self) -> List[Dict[int, Scalar]]:
        rows: List[Dict[int, Scalar]] = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def _echelon(self, extra_col: Optional[Dict[int, Scalar]] = None):
        """Row-reduce, optionally with an augmented column (index = self.cols).

        Returns a dict pivot_col -> row dict (pivot coefficient normalized to 1
        and removed), fully back-substituted so non-pivot entries involve only
        free columns and the augmented column.
        """
        f = self.field
        rows = self._row_dicts()
        pivots: Dict[int, Dict[int, Scalar]] = {}
        work = rows
        if extra_col is not None:
            work = []
            for r, row in enumerate(rows):
                row = dict(row)
                b = extra_col.get(r)
                if b is not None and not f.is_zero(b):
                    row[self.cols] = b
                work.append(row)
        for row in work:
            r = dict(row)
            # pivot rows only involve free columns, so one pass suffices
            for pc in sorted(pivots):
                coeff = r.pop(pc, None)
                if coeff is None or f.is_zero(coeff):
                    continue
                for c, pv in pivots[pc].items():
                    s = f.sub(r.get(c, f.zero), f.mul(coeff, pv))
                    if f.is_zero(s):
                        r.pop(c, None)
                    else:
                        r[c] = s
            if not r:
                continue
            pc = min(r)
            pv = r.pop(pc)
            inv = f.inv(pv)
            r = {c: f.mul(inv, v) for c, v in r.items()}
            # back-substitute the new pivot into older rows
            for opc, orow in pivots.items():
                coeff = orow.pop(pc, None)
                if coeff is None:
                    continue
                for c, v in r.items():
                    s = f.sub(orow.get(c, f.zero), f.mul(coeff, v))
                    if f.is_zero(s):
                        orow.pop(c, None)
                    else:
                        orow[c] = s
            pivots[pc] = r
        return pivots

    def rank(self) -> int:
        if self._rank is None:
            self._rank = len(self._echelon())
        return self._rank

    def kernel_basis(self) -> List[Dict[int, Scalar]]:
        """Basis of the right kernel as sparse vectors {col: scalar}.

        Each vector is normalized so its lowest-index nonzero coordinate is 1;
        vectors are ordered by their free column.
        """
        f = self.field
        pivots = self._echelon()
        free = [c for c in range(self.cols) if c not in pivots]
        basis: List[Dict[int, Scalar]] = []
        for fc in free:
            v: Dict[int, Scalar] = {fc: f.one}
            for pc, row in pivots.items():
                coeff = row.get(fc)
                if coeff is not None and not f.is_zero(coeff):
                    v[pc] = f.neg(coeff)
            lead = min(v)
            inv = f.inv(v[lead])
            basis.append({c: f.mul(inv, x) for c, x in sorted(v.items())})
        return basis

    def solve(self, b: Dict[int, Scalar]) -> Optional[Dict[int, Scalar]]:
        """One solution x of self @ x = b with free coordinates 0, or None."""
        f = self.field
        b = {r: f.of(v) for r, v in b.items() if not f.is_zero(f.of(v))}
        pivots = self._echelon(extra_col=b)
        if self.cols in pivots:
            return None  # pivot in the augmented column: inconsistent
        x: Dict[int, Scalar] = {}
        for pc, row in pivots.items():
            v = row.get(self.cols)
            if v is not None and not f.is_zero(v):
                x[pc] = v
        return x

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols} over {self.field!r}, {len(self.entries)} nonzero)"


class Echelon:
    """Incremental row echelon: feed sparse rows, track the growing rank."""

    def __init__(self, field: Field):
        self.field = field
        self.pivots: Dict[int, Dict[int, Scalar]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, row: Dict[int, Scalar]) -> bool:
        """Reduce row against the current span; returns True if rank grew."""
        f = self.field
        r = {c: v for c, v in row.items() if not f.is_zero(v)}
        for pc in sorted(self.pivots):
            coeff = r.pop(pc, None)
            if coeff is None or f.is_zero(coeff):
                continue
            for c, pv in self.pivots[pc].items():
                s = f.sub(r.get(c, f.zero), f.mul(coeff, pv))
                if f.is_zero(s):
                    r.pop(c, None)
                else:
                    r[c] = s
        if not r:
            return False
        pc = min(r)
        inv = f.inv(r.pop(pc))
        self.pivots[pc] = {c: f.mul(inv, v) for c, v in r.items()}
        return True


def identity_matrix(n: int, field: Field) -> SparseMatrix:
    m = SparseMatrix(n, n, field)
    for i in range(n):
        m.entries[(i, i)] = field.one
    return m
