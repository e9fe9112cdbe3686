"""Exact dense linear algebra over the rationals and prime fields.

An ExactMatrix holds its entries in one numpy array. Over F_p they are
reduced to [0, p), in an int64 array when p < 2^31, so that (p-1)^2
fits, and as Python ints in an object array otherwise; over Q the array
is object and holds ints and Fractions. Submatrices are one fancy
index, and floats appear only in `to_float`. One numpy elimination loop
mod p, `_eliminate`, runs on those arrays: k Gaussian steps that pivot
only among the leading k rows, each step a single rank-1 update of the
rows below that have a nonzero in the pivot column. It serves `det`
(n steps), `schur_complement` (k steps) and `solve` (the Schur
complement of [[A, B], [-I, 0]] at split n) over both fields. Over Q
one CRT driver, `_multimodular`, clears denominators row by row and
runs the loop modulo descending primes below 2^31 until their product
exceeds twice a Hadamard bound; CRT plus the symmetric residue give
d = det M11 and the integer matrix d * S (Sylvester's identity), so the
Schur complement S needs no rational reconstruction. `rank` and
`nullspace` share the Gauss-Jordan `_rref`, on lists of rows.

The field tag of an ExactMatrix is None for the rationals or the prime
p itself. A composite tag is rejected with ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import lcm, prod

import numpy as np


class SingularMatrixError(ArithmeticError):
    """Raised where an exact solve meets a singular matrix.

    Deliberately a distinct type: the eigenvalue solver treats it as a
    retry signal (pick a new random coordinate change), not a bug.
    """


# the mod-p loop runs on int64 below this modulus: (p - 1)^2 < 2^62
_INT64_PRIME_LIMIT = 2 ** 31

# Miller-Rabin with these bases is exact below 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    """p itself; ValueError when it is not a prime, so not a field modulus."""
    if not _is_prime(p):
        raise ValueError(f"field modulus {p} is not a prime")
    return p


def _fp_dtype(p: int):
    """Storage of entries mod p: int64 while (p - 1)^2 fits, else Python ints."""
    return np.int64 if p < _INT64_PRIME_LIMIT else object


class ExactMatrix:
    """Dense exact matrix: entries over Q (field None) or F_p (field p),
    held in one numpy array, `array`.

    Over F_p the entries are reduced to [0, p) and the array is int64
    when p < 2^31, the dtype `_eliminate` runs on, and object (Python
    ints) otherwise; over Q it is object, with ints and Fractions as
    given. An int64 array is reduced with one vectorized % p; any other
    input is a list of rows (or an array) reduced entry by entry.
    """

    def __init__(self, rows, field: int | None = None):
        if not isinstance(rows, np.ndarray) and rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("ragged matrix")
        shape = (len(rows), len(rows[0]) if len(rows) else 0)
        if field is None:
            array = np.array(rows, dtype=object).reshape(shape)
        else:
            p = require_prime(field)
            if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
                array = rows.astype(_fp_dtype(p), copy=False) % p
            else:
                array = np.array([[e % p if isinstance(e, int) else fraction_mod_p(e, p)
                                   for e in row] for row in rows], dtype=_fp_dtype(p)).reshape(shape)
        self.array = array
        self.field = field

    @classmethod
    def _of(cls, array, field: int | None) -> "ExactMatrix":
        """Wrap an array that already holds valid entries for the field."""
        m = cls.__new__(cls)
        m.array, m.field = array, field
        return m

    @property
    def rows(self) -> list:
        """The entries as a new list of rows of Python ints or Fractions."""
        return self.array.tolist()

    @property
    def nrows(self) -> int:
        return self.array.shape[0]

    @property
    def ncols(self) -> int:
        return self.array.shape[1]

    def __getitem__(self, ij):
        value = self.array[ij]
        return int(value) if isinstance(value, np.integer) else value

    def submatrix(self, row_idx, col_idx) -> "ExactMatrix":
        return ExactMatrix._of(self.array[np.ix_(row_idx, col_idx)], self.field)


def zeros(shape, field: int | None = None) -> ExactMatrix:
    """The zero matrix: Fraction(0) entries over Q, 0 over F_p."""
    if field is None:
        return ExactMatrix._of(np.full(shape, Fraction(0), dtype=object), None)
    return ExactMatrix._of(np.zeros(shape, dtype=_fp_dtype(require_prime(field))), field)


def identity(n: int, field: int | None = None) -> ExactMatrix:
    return ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], field)


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    bt = list(zip(*b.rows)) if b.rows else []
    out = [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.rows]
    return ExactMatrix(out, a.field)


def matvec(a: ExactMatrix, v) -> list:
    if a.ncols != len(v):
        raise ValueError("shape mismatch")
    out = [sum(x * y for x, y in zip(row, v)) for row in a.rows]
    if a.field is not None:
        out = [e % a.field for e in out]
    return out


def _int_rows(m: ExactMatrix):
    """Clear denominators row by row; returns (integer rows, row scales)."""
    rows = []
    scales = []
    for row in m.rows:
        denom = lcm(1, *(e.denominator for e in row if isinstance(e, Fraction)))
        scales.append(denom)
        rows.append([e.numerator * (denom // e.denominator) if isinstance(e, Fraction)
                     else int(e) * denom for e in row])
    return rows, scales


def _eliminate(a, k: int, p: int) -> int:
    """k Gaussian elimination steps mod p on the array a (clobbered),
    pivoting on the first nonzero entry among the leading k rows.

    Entries are in [0, p): a is int64 when p < 2^31, so that (p-1)^2
    fits, and object (Python ints) otherwise; the code is the same.
    Each step is one rank-1 update of the rows whose entry in the pivot
    column is nonzero. Returns the determinant of the leading k x k
    block, 0 when it is singular. Afterwards the block below and right
    of it is the Schur complement itself.
    """
    det = 1
    for s in range(k):
        lead = np.flatnonzero(a[s:k, s])
        if lead.size == 0:
            return 0
        if lead[0]:
            a[[s, s + lead[0]]] = a[[s + lead[0], s]]
            det = -det
        ps = int(a[s, s])
        det = det * ps % p
        rows = s + 1 + np.flatnonzero(a[s + 1:, s])
        if rows.size:
            f = a[rows, s] * pow(ps, -1, p) % p
            a[rows, s:] = (a[rows, s:] - f[:, None] * a[s, s:]) % p
    return det % p


def _schur(m: ExactMatrix, k: int) -> ExactMatrix:
    """Trailing block M22 - M21 M11^{-1} M12 of a (possibly rectangular)
    matrix, after k elimination steps that pivot inside M11; raises
    SingularMatrixError when M11 is singular."""
    if m.field is not None:
        a = m.array.copy()
        if _eliminate(a, k, m.field) == 0:
            raise SingularMatrixError("singular matrix over F_p")
        return ExactMatrix._of(a[k:, k:].copy(), m.field)  # not a view that keeps all of a
    rows, scales = _int_rows(m)
    d, big_d = _multimodular(rows, k)
    # the scale of a leading row cancels in M11^{-1} M12; that of a
    # trailing row scales its row of the complement
    return ExactMatrix([[Fraction(e, d * scale) for e in row]
                        for row, scale in zip(big_d.tolist(), scales[k:])])


def det(m: ExactMatrix):
    """Exact determinant: n elimination steps mod p; over Q, the same
    steps modulo enough word-size primes to recover it by CRT."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1 if m.field is None else 1 % m.field
    if m.field is not None:
        return _eliminate(m.array.copy(), n, m.field)
    rows, scales = _int_rows(m)
    value = Fraction(_multimodular(rows, n)[0], prod(scales))
    return int(value) if value.denominator == 1 else value


def _multimodular(rows, k: int):
    """(d, D) for integer rows: d the determinant of the leading k x k
    block M11 and D = d * (its Schur complement), an integer matrix by
    Sylvester's identity. Both come from k elimination steps modulo
    descending primes below 2^31, recombined by CRT until the product of
    the primes exceeds twice the Hadamard bound on every (k+1)-minor,
    which bounds |d| and every entry of D.

    With a trailing block, a prime for which M11 is singular is skipped,
    and once the skipped primes exceed the Hadamard bound on |d|, M11 is
    singular over Q: SingularMatrixError. Without one, a residue 0 is
    just a residue.
    """
    schur = k < len(rows)
    cols = list(zip(*rows))

    def norms2(lines, width=None):
        return [sum(e * e for e in line[:width]) for line in lines]

    # squared Hadamard bounds, each the smaller of the row and column
    # versions: on |d| from M11 alone, and on the minors from the k
    # leading lines times the longest trailing one
    bound2 = min(prod(lines[:k]) * max([1, *lines[k:]])
                 for lines in (norms2(rows), norms2(cols)))
    d_bound2 = min(prod(norms2(rows[:k], k)), prod(norms2(cols[:k], k))) if schur else bound2
    big = max(abs(e) for row in rows for e in row) >= 2 ** 63
    ints = np.array(rows, dtype=object if big else np.int64)
    d, big_d = 0, np.zeros((len(rows) - k, len(cols) - k), dtype=object)
    modulus = skipped = 1
    for q in map(_word_prime, count()):
        if schur and skipped * skipped > d_bound2:
            raise SingularMatrixError("singular matrix over Q")
        if modulus * modulus > 4 * bound2:
            break
        a = (ints % q).astype(np.int64, copy=False)
        residue = _eliminate(a, k, q)
        if schur and residue == 0:
            skipped *= q
            continue
        # Garner's step: d and D stay their residues modulo the product
        # so far; the trailing block of a holds S, so D is d * S mod q
        inv = pow(modulus, -1, q)
        d += modulus * ((residue - d) * inv % q)
        step = (residue * a[k:, k:] % q - (big_d % q).astype(np.int64)) * inv % q
        big_d += modulus * step.astype(object)
        modulus *= q
    if 2 * d > modulus:
        d -= modulus
    return d, np.where(2 * big_d > modulus, big_d - modulus, big_d)


@lru_cache(maxsize=None)
def _word_prime(i: int) -> int:
    """The i-th largest prime below 2^31 (i = 0, 1, ... in turn)."""
    q = 2 ** 31 - 1 if i == 0 else _word_prime(i - 1) - 2
    while not _is_prime.__wrapped__(q):  # uncached: most candidates are composite
        q -= 2
    return q


def solve(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact X with A X = B; raises SingularMatrixError when A is singular.

    X is the Schur complement of the bordered matrix [[A, B], [-I, 0]].
    """
    if a.nrows != a.ncols:
        raise ValueError("solve needs a square matrix")
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch")
    n = a.nrows
    if n == 0:
        return ExactMatrix([], a.field)
    bordered = [list(ra) + list(rb) for ra, rb in zip(a.rows, b.rows)]
    bordered += [[-1 if j == i else 0 for j in range(n)] + [0] * b.ncols for i in range(n)]
    return _schur(ExactMatrix(bordered, a.field), n)


def schur_complement(m: ExactMatrix, k: int) -> ExactMatrix:
    """M22 - M21 M11^{-1} M12 for the leading k x k block M11."""
    if m.nrows != m.ncols:
        raise ValueError("Schur complement needs a square matrix")
    if not 0 <= k <= m.nrows:
        raise ValueError("invalid split position")
    if k == 0 or k == m.nrows:
        trail = range(k, m.nrows)
        return m.submatrix(trail, trail)
    return _schur(m, k)


def _rref(m: ExactMatrix):
    """Reduced row echelon form by Gauss-Jordan elimination over Q
    (Fraction entries) or F_p; returns (rows, pivot columns)."""
    p = m.field
    rows = [[Fraction(e) for e in row] for row in m.rows] if p is None else m.rows
    nr = len(rows)
    pivots = []
    for col in range(m.ncols):
        r = len(pivots)
        if r == nr:
            break
        pivot_row = next((i for i in range(r, nr) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if p is None:
            pk = rows[r][col]
            rows[r] = [e / pk for e in rows[r]]
        else:
            inv = pow(rows[r][col], p - 2, p)
            rows[r] = [e * inv % p for e in rows[r]]
        for i in range(nr):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                if p is None:
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
                else:
                    rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots


def rank(m: ExactMatrix) -> int:
    """Rank by exact elimination."""
    return len(_rref(m)[1])


def nullspace(m: ExactMatrix) -> list[list]:
    """Basis of the right kernel, from the reduced row echelon form."""
    p = m.field
    rows, pivots = _rref(m)
    basis = []
    for col in range(m.ncols):
        if col in pivots:
            continue
        vec = [Fraction(0) if p is None else 0] * m.ncols
        vec[col] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][col] if p is None else -rows[i][col] % p
        basis.append(vec)
    return basis


def to_float(m: ExactMatrix):
    """float64 numpy copy (rationals only)."""
    if m.field is not None:
        raise ValueError("to_float is for rational matrices")
    return m.array.astype(float)


def fraction_mod_p(value, p: int) -> int:
    """Image of an exact rational in F_p; denominator must be a unit."""
    value = Fraction(value)
    if value.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {value} vanishes mod {p}")
    return value.numerator * pow(value.denominator, p - 2, p) % p
