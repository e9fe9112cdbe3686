"""Exact dense linear algebra over the rationals and prime fields.

An ExactMatrix holds its entries in one numpy array. Over F_p they are
reduced to [0, p), in an int64 array when p < 2^31, so that (p-1)^2
fits, and as Python ints in an object array otherwise; over Q the array
is object and holds ints and Fractions. Submatrices are one fancy
index. One numpy elimination loop mod p, `_eliminate`, runs on those
arrays: k Gaussian steps that pivot only among the leading k rows, each
step a single rank-1 update of the rows below that have a nonzero in
the pivot column. Over F_p it serves `det` (n steps),
`schur_complement` (k steps) and `solve` (the Schur complement of
[[A, B], [-I, 0]] at split n).

Over Q both paths first clear denominators row by row. `det` is CRT
(`_multimodular`): the loop runs modulo descending primes below 2^31
until their product exceeds twice a Hadamard bound, and Garner's
recombination plus the symmetric residue give the determinant. The
Schur complement, and so `solve`, is Dixon's p-adic lifting
(`_lift_schur`): one inverse of M11 modulo a lifting prime q, taken
from the F_q `solve`, then one k x k by k x (n-k) product per step,
until q^L exceeds twice the product of the Hadamard bounds on the
(k+1)-minors and on det M11; rational reconstruction with one running
common denominator recovers S. When M11 is singular modulo the first
lifting prime, one CRT det tells a singular M11 over Q
(SingularMatrixError) from an unlucky prime, which is skipped.

Floats enter the exact paths only inside that lifting, where every
value is an integer below 2^53 and so exact in float64: q is the
largest prime with k (q-1)^2 < 2^53, which bounds each dot product of
residues, and the products with M11 and M21 run in float64 only while
k * max|entry| * q < 2^53 (`_lift_dtype`), else on Python ints.
`to_float` is the one lossy conversion. `rank` and `nullspace` share
the Gauss-Jordan `_rref`, on lists of rows.

The field tag of an ExactMatrix is None for the rationals or the prime
p itself. A composite tag is rejected with ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import isqrt, lcm, prod

import numpy as np


class SingularMatrixError(ArithmeticError):
    """Raised where an exact solve meets a singular matrix.

    Deliberately a distinct type: the eigenvalue solver treats it as a
    retry signal (pick a new random coordinate change), not a bug.
    """


# the mod-p loop runs on int64 below this modulus: (p - 1)^2 < 2^62
_INT64_PRIME_LIMIT = 2 ** 31

# float64 holds every integer of smaller absolute value exactly
_FLOAT_EXACT_LIMIT = 2 ** 53

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


def matvec(a: ExactMatrix, v) -> list:
    if a.ncols != len(v):
        raise ValueError("shape mismatch")
    out = [sum(x * y for x, y in zip(row, v)) for row in a.rows]
    if a.field is not None:
        out = [e % a.field for e in out]
    return out


def _int_rows(array):
    """Clear denominators row by row; returns (integer rows, row scales)."""
    rows = []
    scales = []
    for row in array.tolist():
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


def _schur(a, field: int | None, k: int) -> ExactMatrix:
    """Trailing block M22 - M21 M11^{-1} M12 of the (possibly rectangular)
    array a of entries valid for the field: over F_p after k elimination
    steps that pivot inside M11, which clobber a, over Q by p-adic
    lifting, which only reads a; raises SingularMatrixError when M11 is
    singular."""
    if field is None:
        return _lift_schur(a, k)
    if _eliminate(a, k, field) == 0:
        raise SingularMatrixError("singular matrix over F_p")
    return ExactMatrix._of(a[k:, k:].copy(), field)  # not a view that keeps all of a


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
    rows, scales = _int_rows(m.array)
    value = Fraction(_multimodular(rows), prod(scales))
    return int(value) if value.denominator == 1 else value


def _hadamard2(rows, k: int):
    """Squared Hadamard bounds for integer rows, each the smaller of the
    row and column versions: on every (k+1)-minor that contains the
    leading k x k block M11 (its k leading lines times the longest
    trailing one), and on |det M11|."""
    cols = list(zip(*rows))

    def norms2(lines, width=None):
        return [sum(e * e for e in line[:width]) for line in lines]

    minors2 = min(prod(lines[:k]) * max([1, *lines[k:]])
                  for lines in (norms2(rows), norms2(cols)))
    return minors2, min(prod(norms2(rows[:k], k)), prod(norms2(cols[:k], k)))


def _multimodular(rows) -> int:
    """The determinant of square integer rows: n elimination steps modulo
    descending primes below 2^31, recombined by CRT (Garner) until the
    product of the primes exceeds twice the Hadamard bound; the
    symmetric residue. A residue 0 is just a residue."""
    n = len(rows)
    bound2 = _hadamard2(rows, n)[1]
    big = max(abs(e) for row in rows for e in row) >= 2 ** 63
    ints = np.array(rows, dtype=object if big else np.int64)
    d = 0
    modulus = 1
    for q in map(_word_prime, count()):
        if modulus * modulus > 4 * bound2:
            break
        residue = _eliminate((ints % q).astype(np.int64, copy=False), n, q)
        d += modulus * ((residue - d) * pow(modulus, -1, q) % q)
        modulus *= q
    return d - modulus if 2 * d > modulus else d


@lru_cache(maxsize=None)
def _prime_below(limit: int, i: int) -> int:
    """The i-th largest prime below limit (i = 0, 1, ... in turn)."""
    q = (limit if i == 0 else _prime_below(limit, i - 1)) - 1
    while not _is_prime.__wrapped__(q):  # uncached: most candidates are composite
        q -= 1
    return q


def _word_prime(i: int) -> int:
    """The i-th largest prime below 2^31, the CRT primes of det over Q."""
    return _prime_below(_INT64_PRIME_LIMIT, i)


def _lifting_prime(k: int, i: int) -> int:
    """The i-th largest prime q with k (q - 1)^2 < 2^53: a length-k dot
    product of residues mod q is then exact in float64."""
    return _prime_below(isqrt((_FLOAT_EXACT_LIMIT - 1) // k) + 2, i)


def _lift_dtype(k: int, top: int, q: int):
    """Storage of the lifting for entries |M| <= top: float64 while every
    integer it forms (M11 X and M21 X for X in [0, q), and R - M11 X),
    at most k * top * q in absolute value, stays below 2^53 and so is
    exact; else Python ints in an object array, where entries of 2^63 or
    more always land."""
    return np.float64 if k * top * q < _FLOAT_EXACT_LIMIT else object


def _lifting_inverse(m11):
    """(q, M11^{-1} mod q in float64) for the largest lifting prime q for
    which M11 is invertible, from the F_q `solve`. When M11 is singular
    modulo the first prime, one CRT det of M11 over Q decides: 0 raises
    SingularMatrixError; otherwise the loop skips primes that divide it,
    of which there are finitely many."""
    k = len(m11)
    for i in count():
        q = _lifting_prime(k, i)
        try:
            inv = solve(ExactMatrix._of((m11 % q).astype(np.int64), q),
                        ExactMatrix._of(np.eye(k, dtype=np.int64), q))
        except SingularMatrixError:
            if i == 0 and _multimodular([[int(e) for e in row] for row in m11.tolist()]) == 0:
                raise SingularMatrixError("singular matrix over Q") from None
            continue
        return q, inv.array.astype(float)


def _lift_schur(entries, k: int) -> ExactMatrix:
    """The Schur complement S = M22 - M21 M11^{-1} M12 of an array of
    rationals, by Dixon's p-adic lifting on its denominator-cleared
    integer rows.

    With C = M11^{-1} mod q, each of L steps takes, from R = M12,
    X_i = C (R mod q) mod q, T_i = M21 X_i and R <- (R - M11 X_i) / q, so
    that X = sum q^i X_i solves M11 X = M12 modulo q^L and S is
    M22 - sum q^i T_i modulo q^L. By Sylvester's identity d S, with
    d = det M11, is a matrix of (k+1)-minors, at most H in absolute value,
    and |d| <= H_d; L is the smallest with q^L > 2 H H_d, so rational
    reconstruction recovers S.
    """
    rows, scales = _int_rows(entries)
    minors2, lead2 = _hadamard2(rows, k)
    top = max(abs(e) for row in rows for e in row)
    m22 = [e for row in rows[k:] for e in row[k:]]
    a = np.array(rows, dtype=_lift_dtype(k, top, _lifting_prime(k, 0)))
    del rows  # freed before the 2k x 2k bordered matrix of the inverse
    m11, m21, r = a[:k, :k], a[k:, :k], a[:k, k:]
    q, inv = _lifting_inverse(m11)
    digits = []
    modulus = 1
    while modulus * modulus <= 4 * minors2 * lead2:
        x = (inv @ (r % q).astype(float) % q).astype(np.int64)  # exact: k (q - 1)^2 < 2^53
        r = (r - m11 @ x) // q
        digits.append(m21 @ x)
        modulus *= q
    image = [(e - t) % modulus for e, t in zip(m22, _pairwise_sum(digits, q))]
    values = iter(_reconstruct(image, modulus, minors2, lead2))
    # the scale of a leading row cancels in M11^{-1} M12; that of a
    # trailing row scales its row of the complement
    return ExactMatrix([[Fraction(num, den * scale) for num, den in islice(values, r.shape[1])]
                        for scale in scales[k:]])


def _pairwise_sum(digits, q: int) -> list:
    """sum_i q^i digits[i] of integer arrays, entry by entry in Python
    ints, adding neighbours pairwise: (t0 + q t1) + q^2 (t2 + q t3) + ..."""
    digits = [t.ravel() for t in digits]
    step = q
    while len(digits) > 1:
        pairs = [digits[i:i + 2] for i in range(0, len(digits), 2)]
        digits = [[int(lo) + step * int(hi) for lo, hi in zip(*pair)] if len(pair) == 2
                  else pair[0] for pair in pairs]
        step *= step
    return [int(e) for e in digits[0]]


def _reconstruct(residues, modulus: int, num2: int, den2: int) -> list:
    """(numerator, denominator) of each rational value from its residue
    mod `modulus`, for values N / d with |N| <= H = sqrt(num2) and one
    common d, 0 < |d| <= sqrt(den2), where modulus > 2 H sqrt(den2)
    makes each unique.

    One running common denominator D, a divisor of d, serves all of
    them, so D times a value has a numerator of at most H: when its
    symmetric residue is at most H it is that residue, an integer;
    otherwise the half-extended Euclidean algorithm on (modulus, that
    residue), run to its first remainder at most H, gives its remaining
    denominator (Wang), which joins D.
    """
    den = 1
    out = []
    for u in residues:
        y = u * den % modulus
        if 2 * y > modulus:
            y -= modulus
        if y * y > num2:
            r0, r1, t0, t1 = modulus, y % modulus, 0, 1  # r_i = t_i y mod modulus
            while r1 * r1 > num2:
                quo = r0 // r1
                r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
            if t1 * t1 > den2:
                raise ArithmeticError("rational reconstruction failed")
            y, den = (r1, den * t1) if t1 > 0 else (-r1, -den * t1)
        out.append((y, den))
    return out


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
    bordered = np.zeros((2 * n, n + b.ncols), dtype=a.array.dtype)
    bordered[:n, :n] = a.array
    bordered[:n, n:] = b.array
    bordered[range(n, 2 * n), range(n)] = -1 if a.field is None else a.field - 1
    return _schur(bordered, a.field, n)


def schur_complement(m: ExactMatrix, k: int) -> ExactMatrix:
    """M22 - M21 M11^{-1} M12 for the leading k x k block M11."""
    if m.nrows != m.ncols:
        raise ValueError("Schur complement needs a square matrix")
    if not 0 <= k <= m.nrows:
        raise ValueError("invalid split position")
    if k == 0 or k == m.nrows:
        trail = range(k, m.nrows)
        return m.submatrix(trail, trail)
    return _schur(m.array if m.field is None else m.array.copy(), m.field, k)


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
