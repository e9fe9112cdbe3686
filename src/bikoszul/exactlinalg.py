"""Exact dense linear algebra over the rationals and prime fields.

An ExactMatrix holds its entries in one numpy array. Over F_p they are
reduced to [0, p), in an int64 array when p < 2^31, so that (p-1)^2
fits, and as Python ints in an object array otherwise. Over Q it is
int64 when every entry is an integer of absolute value below 2^63, and
an object array of ints and Fractions otherwise (`storage_dtype`); an
int64 array over Q has no denominators to clear. A sparse matrix, such
as a specialized Koszul matrix, may be held in compressed-column form
instead, rows, columns and values by column with column starts, and a
row and a column selection, until the array is first read, which builds
it once, by one scatter.
There a scalar read scans one column's cells and a submatrix composes
the selections; otherwise a submatrix is one fancy index. One blocked
elimination mod p, `_eliminate`, runs on those arrays: k Gaussian steps
that pivot on the first nonzero among the leading k rows, in panels of
b columns. A panel's own steps run on an int64 copy of its live rows
(those with a nonzero in its columns), with delayed reduction; its
update of the rows below is one float64 BLAS matmul. After k steps the
entries below the diagonal hold L, those on and above it U, the packed
LU of the rows in pivot order, and the block below and right of the
leading one is the Schur complement. Over F_p it serves `det` (n
steps) and `schur_complement` (k steps), and so `solve`, the Schur
complement of the bordered [[A, B], [-I, 0]] at split n, as over Q. The
zero test below inverts from the LU it leaves (`_lu_inverse`: forward
with L and back with U, in the same panels, from the identity, so the
forward pass skips the zero upper half of L^{-1}). On a 0 return (a
singular leading block) the LU of the columns before the first one
without a pivot, the first zero on the diagonal, and the row order are
defined.

A matrix in compressed-column form may carry Kronecker classes, index
pairs (R, C) of blocks that are K (x) I up to order (a specialized
Koszul matrix carries two, `koszul._kronecker_classes`). Every modular
det on float64, over F_p and each prime of det over Q, folds each away
before its steps (`_fold_eliminate`, `_fold`): Gauss-Jordan on the one
small block K picks r pivot columns, every copy's rows are eliminated
against them by a few products with K_piv^{-1}, and det M is
+-det(K_piv)^copies times the det of the Schur complement left, which
the elimination takes; at mu = 630 that is 315 of 630 rows.

Over Q both paths first clear denominators row by row, once. Every
modular step over Q on a block of order k runs modulo one family of
primes, `_prime(k, i)`: the i-th largest q with k (q-1)^2 < 2^53, so
that a length-k dot product of residues is exact in float64. A zero
test (`_zero_test`) decides whether a square block is singular with a
certificate instead of a prime budget: modulo _prime(n, i) it folds the
block's classes away, and the loop on the rest stops at the first
column s without a pivot; the Schur complement over Q of the folds'
pivot columns and the rest's first s + 1 columns, pivot rows first, is
0 exactly when the last of them is a Q-combination of the ones before
it. Otherwise the test ends at the first nonzero residue, whose prime
certifies the block nonsingular modulo it; the caller's lift runs
modulo that prime, with the block's inverse there from the LU of the
rest, unfolded class by class (`_unfold`), the same block elimination
run backwards. The inverse comes with its row and column order, the
folds' rows and pivot columns first, then the rest's rows in pivot
order and its columns: it inverts the block in those orders, and the
lift gathers the block in them, so nothing is scattered back.
`det` (`_multimodular`) is the method of Abbott, Bronstein and Mulders
without early termination: the zero test, then the denominator D of
-c A^{-1} b for fixed small integer vectors b and c, a divisor of det A
from one p-adic lift (`_divisor`), then CRT on det / D over the same
primes until their product exceeds 2 B / |D|, B the smaller of the
Hadamard bound H and a bound verified in floating point
(`_verified_bound2`), which lands within a bit of |det| where H may
overshoot it by hundreds of bits. Below a small budget
(`_CRT_MAX_PRIMES`) it is plain CRT with D = 1 and B = H.
The Schur complement over Q, and so `solve`, is Dixon's p-adic lifting
(`_lift_schur`) once the zero test has found M11 nonsingular
(SingularMatrixError otherwise): with the zero test's inverse of M11
modulo the prime q it certified, M11's rows and columns in the test's
order, one product with it, one with M11 and one with M21 per step.
The lift stops once its output certifies itself: with H and H_d the
Hadamard bounds on the (k+1)-minors and on det M11, a candidate c / e
of an entry, e u = c mod q^L, is the entry when q^L > H_d |c| + H e.
A probe w^T S v, lifted alongside and reconstructed digit by digit
(`_reduced_basis`), tells when to try; a failed try, or no try, runs
the same loop on to the a priori length, the least L with q^L > 2 H
H_d, where every candidate passes.
The steps write their digits into one array; one carry step over it
lets them pair into base q^2 in int64 before the Python ints take
over (`_recombine`); rational reconstruction with one running common
denominator (`_reconstruct`) recovers S.

Floats enter the exact paths only where every value is an integer
below 2^53 and so exact in float64. In the elimination mod p the panel
width b is the largest up to 32 with b (p-1)^2 + p <= 2^53
(`_panel_width`), which bounds each dot product of residues, and the
reduction x - floor(x / p) p by a true division is exact there. Inside
the panel's int64 copy, the rank-1 updates of its steps go unreduced:
b - 1 products below (p - 1)^2 keep every entry above -2^54, and each
entry is reduced once, when its column or row is the pivot's. Every
`_prime(k, i)` with k >= 2 leaves b >= 2. When no b >= 2 fits (p >
2^26: user primes, and the primes of a 1 x 1 block), the same loop runs
with b = 1 on the storage dtype, one rank-1 update per step. In the
lifting the products with M11 and M21 run in float64 only while
k * max|entry| * q < 2^53 (`_lift_dtype`), else on Python ints.
The verified bound on |det| is the one inexact float computation, and
it is rigorous: under the error model of a conventional (not Strassen)
float64 matrix product with IEEE round-to-nearest and no underflow,
which OpenBLAS, MKL and numpy's own loops meet and the 2^-500 floor of
`_verified_bound2` keeps, it is never below |det|. An object array, an
entry of 2^53 or more, or a value that is not finite leaves H alone, so
every det stays certified. `to_float` is the one lossy conversion.

The field tag of an ExactMatrix is None for the rationals or the prime
p itself. A composite tag is rejected with ValueError.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import isqrt, lcm, prod
from typing import NamedTuple

import numpy as np


class SingularMatrixError(ArithmeticError):
    """Raised where an exact solve meets a singular matrix.

    Deliberately a distinct type: the eigenvalue solver treats it as a
    retry signal (pick a new random coordinate change), not a bug.
    """


# the mod-p loop runs on int64 below this modulus: (p - 1)^2 < 2^62
_INT64_PRIME_LIMIT = 2 ** 31

# int64 holds |integers| below this over Q, not -2^63: np.abs wraps it
_INT64_LIMIT = 2 ** 63

# float64 holds every integer of smaller absolute value exactly
_FLOAT_EXACT_LIMIT = 2 ** 53

# the widest panel of `_eliminate` (measured best on the Koszul ladder)
_PANEL_MAX = 32

# rows per product of `_eliminate`'s trailing update: the temporaries
# stay small (they would reach twice the trailing block) and in cache
_UPDATE_ROWS = 128

# entries per step of `_reduce`, at least `_UPDATE_ROWS` rows: a narrow
# array (a lift's k x 1 residues) takes one pass, a wide one 128 rows
_REDUCE_ENTRIES = 2 ** 16

# Miller-Rabin with these bases is exact below _MR_LIMIT, the least
# strong pseudoprime to all of them, 1287836182261 * 2575672364521
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


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
    """p itself; ValueError when it is not a prime, so not a field modulus,
    or when it is not below `_MR_LIMIT`, where the test is not proven."""
    if p >= _MR_LIMIT:
        raise ValueError(f"field modulus {p} is not below {_MR_LIMIT}, the limit "
                         f"of the primality test")
    if not _is_prime(p):
        raise ValueError(f"field modulus {p} is not a prime")
    return p


def storage_dtype(values, field: int | None):
    """The dtype of an array of 0 and these values, valid for the field;
    the one storage rule of every exact array, a matrix here and a
    coefficient tensor or a cleared coordinate change in `core`. Over
    F_p int64 while p < 2^31, so that (p - 1)^2 fits, else object
    (Python ints); over Q int64 when every value is an integer of
    absolute value below 2^63, else object. numpy truncates a Fraction
    stored into int64, so every writer into an array over Q must keep
    to this."""
    if field is not None:
        return np.int64 if require_prime(field) < _INT64_PRIME_LIMIT else object
    return np.int64 if all(v.denominator == 1 and -_INT64_LIMIT < v.numerator < _INT64_LIMIT
                           for v in values) else object


class ExactMatrix:
    """Exact matrix: entries over Q (field None) or F_p (field p), held
    in one numpy array, `array`, or, until that is first read, in
    compressed-column form.

    An entry is an int (bool and numpy integers too) or a Fraction, over
    every field; any other, a float or a string, is a TypeError. Over F_p
    the entries are reduced to [0, p); over Q they are Python ints and
    Fractions as given. The dtype, int64 or object, is `storage_dtype`'s.
    An int64 array over F_p is reduced with one vectorized % p; any other
    input is a list of rows (or an array) taken entry by entry.

    A matrix in compressed-column form (`from_csc`) holds the cells of a
    source matrix, column by column with the start of each column, and
    selects its rows and columns: row i is source row select[0][i], column
    j source column select[1][j]. Every other cell is 0, Fraction(0) in an
    object array over Q. `submatrix` composes the selections, in O(its
    index lists), and shares the cells; a scalar read `m[i, j]` scans the
    cells of one source column (`cell_position`). `array` builds the dense
    array on first read, one scatter through the inverse selections that
    drops a cell only where they drop its row or column, and keeps it.

    A matrix from `from_csc` may also carry Kronecker classes, which `det`
    folds away before each elimination mod p (`_fold_eliminate`); every
    other matrix, a `submatrix` too, has none.
    """

    def __init__(self, rows, field: int | None = None):
        if isinstance(rows, np.ndarray):
            shape = rows.shape
        else:
            shape = (len(rows), len(rows[0]) if len(rows) else 0)
            if any(len(row) != shape[1] for row in rows):
                raise ValueError("ragged matrix")
        if field is not None and isinstance(rows, np.ndarray) and rows.dtype == np.int64:
            array = rows.astype(storage_dtype((), field), copy=False) % field
        else:
            entries = [_exact(e) for e in np.array(rows, dtype=object).flat]
            dtype = storage_dtype(entries, field)  # over F_p, first of all, checks p
            if field is not None:
                entries = [fraction_mod_p(e, field) for e in entries]
            array = np.array(entries, dtype=dtype).reshape(shape)
        self._wrap(array, None, field)

    def _wrap(self, array, cells, field, select=None, classes=()) -> None:
        self._array, self._cells, self.field, self._select = array, cells, field, select
        self._classes = classes
        self._shape = array.shape if select is None else tuple(map(len, select))
        # zero-strided, of the shape: numpy's own index checks for a scalar read
        self._probe = None if select is None else np.broadcast_to(False, self._shape)

    @classmethod
    def _of(cls, array, field: int | None) -> "ExactMatrix":
        """Wrap an array that already holds valid entries for the field."""
        m = cls.__new__(cls)
        m._wrap(array, None, field)
        return m

    @classmethod
    def from_csc(cls, shape, row_idx, col_idx, col_start, values, field: int | None,
                 classes=()) -> "ExactMatrix":
        """The matrix of shape `shape` with values[k] at (row_idx[k],
        col_idx[k]), column j's cells at col_start[j]:col_start[j + 1], no
        row twice in a column, and 0 elsewhere, the arrays kept; values of
        the field's storage dtype.

        `classes` are Kronecker classes of the matrix: pairs (R, C) of int
        arrays, copies x r and copies x w, whose row copy R[j] meets column
        copy C[j'] only for j = j', in the same r x w block K = M[R[j],
        C[j]] for every j, so that M[R, C] is K (x) I up to the order of
        its rows and columns. `det` folds them away (`_fold_eliminate`);
        `submatrix` drops them."""
        m, shape = cls.__new__(cls), tuple(shape)
        m._wrap(None, (shape, row_idx, col_idx, col_start, values), field,
                tuple(map(range, shape)), tuple(classes))
        return m

    @property
    def array(self) -> np.ndarray:
        """The dense array, built on first read from the cells."""
        if self._array is None:
            self._array = self._dense(self._cells[4].dtype)
            self._cells = self._select = None
        return self._array

    def _dense(self, dtype) -> np.ndarray:
        """A new C-contiguous dense array of the entries in dtype, which
        holds them exactly: a copy of `array` once that is built, else one
        scatter of the cells, which are left as they are."""
        if self._array is not None:
            return self._array.astype(dtype, order="C")
        shape, rows, cols, _, values = self._cells
        if self.field is None and dtype == object:
            array = np.full(self._shape, Fraction(0), dtype=object)
        else:
            array = np.zeros(self._shape, dtype=dtype)  # lazily zeroed pages
        index = [rows, cols]
        for axis, (select, n) in enumerate(zip(self._select, shape)):
            if not isinstance(select, range):  # a range selects all, in order
                inverse = np.full(n, -1, dtype=np.intp)  # source -> selected, or -1
                inverse[select] = np.arange(len(select))
                index[axis] = inverse[index[axis]]
        if self._shape != shape:  # the selections drop rows or columns
            kept = (index[0] >= 0) & (index[1] >= 0)
            index, values = [cells[kept] for cells in index], values[kept]
        array[tuple(index)] = values
        return array

    @property
    def dtype(self) -> np.dtype:
        """The storage dtype of the entries (`storage_dtype`), read without
        building `array`."""
        return (self._cells[4] if self._array is None else self._array).dtype

    @property
    def rows(self) -> list:
        """The entries as a new list of rows of Python ints or Fractions."""
        return self.array.tolist()

    @property
    def nrows(self) -> int:
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

    def __getitem__(self, ij):
        scalar = self._cells is not None and not self._probe[ij].ndim and len(ij) == 2
        value = self._entry(*ij) if scalar else self.array[ij]
        return int(value) if isinstance(value, np.integer) else value

    def _entry(self, i: int, j: int):
        """The value at cell (i, j) of a matrix in compressed-column form,
        each index in range and counted from the end when negative, found
        among its source column's cells."""
        _, rows, _, starts, values = self._cells
        k = cell_position(rows, starts, self._select[0][i], self._select[1][j])
        if k is not None:
            return values[k]
        return Fraction(0) if self.field is None and values.dtype == object else 0

    def submatrix(self, row_idx, col_idx) -> "ExactMatrix":
        """The rows row_idx and columns col_idx, in that order, as by
        `np.ix_`, without Kronecker classes. In compressed-column form a
        view of the cells that composes the selections, in O(len(row_idx) +
        len(col_idx)), unless an index list repeats an entry, which takes
        the dense array."""
        if self._cells is not None:
            picks = [_selection(idx, n) for idx, n in zip((row_idx, col_idx), self._shape)]
            if all(pick is not None for pick in picks):
                m = ExactMatrix.__new__(ExactMatrix)
                m._wrap(None, self._cells, self.field,
                        tuple(pick if isinstance(select, range) else select[pick]
                              for select, pick in zip(self._select, picks)))
                return m
        return ExactMatrix._of(self.array[np.ix_(row_idx, col_idx)], self.field)


def _exact(entry):
    """A matrix entry as a Python int or a Fraction; TypeError, naming it,
    for anything but an int (bool and numpy integers too) or a Fraction."""
    if isinstance(entry, (int, np.integer)):
        return int(entry)
    if isinstance(entry, Fraction):
        return entry
    raise TypeError(f"matrix entries must be exact (int or Fraction), got {entry!r}")


def cell_position(row_idx, starts, i: int, j: int) -> int | None:
    """The position of cell (i, j) among cells by column, column j holding
    those at starts[j]:starts[j + 1], or None when it is absent."""
    column = row_idx[starts[j]:starts[j + 1]].tolist()  # a list scan beats numpy on ~40 cells
    return int(starts[j]) + column.index(i) if i in column else None


def _selection(idx, n: int):
    """idx as an intp array of indices in [0, n), negative ones counted
    from the end, or None when idx is not a list of distinct in-range
    integers, which the dense path then handles."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and (idx.dtype.kind not in "iu"
                                       or idx.min() < -n or idx.max() >= n)):
        return None
    idx = idx.astype(np.intp) % max(n, 1)
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    return idx if np.count_nonzero(seen) == len(idx) else None


def _int_rows(array):
    """Clear denominators row by row: (integer array, row scales), the
    array in the storage over Q (`storage_dtype`). An int64 array is
    returned as it is, with unit scales."""
    if array.dtype == np.int64:
        return array, [1] * len(array)
    rows = []
    scales = []
    for row in array.tolist():
        denom = lcm(*[e.denominator for e in row])  # 1 for an int
        scales.append(denom)
        rows.append([e.numerator for e in row] if denom == 1 else
                    [e.numerator * (denom // e.denominator) for e in row])
    return ExactMatrix(rows).array.reshape(array.shape), scales


def _depth(p: int) -> int:
    """The most products of residues mod p that a float64 sum holds
    exactly, and reduced exactly (`_reduce`): the largest b with b (p -
    1)^2 + p <= 2^53."""
    return (_FLOAT_EXACT_LIMIT - p) // (p - 1) ** 2


def _panel_width(p: int) -> int:
    """Columns per panel of `_eliminate` on a float64 array mod p: the
    largest b <= `_PANEL_MAX` with b (p - 1)^2 + p <= 2^53 (`_depth`), so
    that one panel's update of reduced entries stays exact (`_eliminate`);
    1 when no b >= 2 fits, and then the array keeps its storage dtype."""
    return max(1, min(_PANEL_MAX, _depth(p)))


def _working_dtype(p: int):
    """The dtype `_eliminate` runs fastest on mod p: float64 when a panel
    of width 2 or more is exact (`_panel_width`), else the storage dtype.
    Callers convert into it instead of copying, so one array is alive."""
    return np.float64 if _panel_width(p) > 1 else storage_dtype((), p)


def _reduce(x, p: int):
    """x mod p in [0, p), in place. A float64 array of integers with |x| +
    p <= 2^53 is overwritten with x - floor(x / p) p, exact without a
    correction: the rounding error of the true division x / p is below
    |x| 2^-53 / p < 1 / p, the least distance from x / p up to the next
    integer, and floor(x / p) p, below |x| + p, is an exact float64.
    (np.fmod, whose cost grows with x, is avoided.) It runs about
    `_REDUCE_ENTRIES` entries, and at least `_UPDATE_ROWS` rows, at a
    time, so its temporary stays small. Any other dtype (int64, object)
    takes %."""
    if x.dtype != np.float64:
        return np.remainder(x, p, out=x)
    step = max(_UPDATE_ROWS, _REDUCE_ENTRIES * len(x) // max(x.size, 1))
    for i in range(0, len(x), step):
        rows = x[i:i + step]
        quotient = rows / p
        np.floor(quotient, out=quotient)
        quotient *= p
        rows -= quotient
    return x


def _unit_lower_inverse(lower, p: int):
    """L^{-1} mod p in float64 for L = I + `lower`, strictly lower
    triangular: with M = -lower, L^{-1} = (I + M)(I + M^2)(I + M^4)... up
    to the power that reaches the order, since M is nilpotent. Every
    product is one exact float64 matmul, and reduced exactly, while the
    order b has b (p - 1)^2 + p <= 2^53 (`_panel_width`)."""
    width = len(lower)
    eye = np.eye(width)
    power = _reduce(np.negative(lower, dtype=np.float64), p)  # not %, slow on floats
    inverse = eye + power
    for _ in range((width - 1).bit_length() - 1):
        power = _reduce(power @ power, p)
        inverse = _reduce(inverse @ (eye + power), p)
    return inverse


def _eliminate(a, k: int, p: int, order=None, inverses=None) -> int:
    """k Gaussian elimination steps mod p on the array a (clobbered),
    pivoting on the first nonzero entry among the leading k rows.

    One right-looking blocked elimination in panels of b columns, b =
    `_panel_width(p)` on a float64 array and 1 on any other. Each step of
    a panel pivots, swaps two rows of the panel (and the two entries of
    `order`, an index array of the rows, when one is given), subtracts
    the multiple of the pivot row that zeroes the pivot column from the
    rows below, over the panel's columns, and stores the multiple, an
    entry of L, in its place. The panel's swaps then move the rest of
    those rows, left of the panel too (LAPACK's dlaswp).

    b = 1 on an int64 array (p < 2^31, so (p - 1)^2 fits) or an object
    array of Python ints: the panel is every column from the pivot on, so
    a step is one rank-1 update of the rows with a nonzero in the pivot
    column, reduced at once.

    b > 1 on float64: the panel is an int64 copy of its b columns, on its
    b leading rows and the live rows below them, those with a nonzero in
    its columns; every other row is 0 there, so it has no pivot, no
    multiplier and no update. The pivot search runs on the compact rows
    before k, and the swaps and the write-back go through the map of
    compact rows to rows. A step reduces only the pivot column and the
    pivot row, turns the column below the pivot into multipliers in
    place, and subtracts their outer product with the pivot row from the
    block below and right of the pivot, unreduced (the delayed reduction
    of FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM TOMS 2008). Each
    product is below (p - 1)^2, and an entry takes at most b - 1 of them,
    so the copy stays above -low - (b - 1) (p - 1)^2 > -2^54, where
    int64 is exact. Every entry is reduced once, at the step whose pivot
    column or row holds it, so the copy is written back reduced; after a
    column without a pivot, the columns past it are reduced then.
    After the panel's steps, U12 = L11^{-1} A12 on the panel's own rows
    (L11^{-1} appended to `inverses`, a list, when one is given, for
    `_lu_inverse` to reuse), and BLAS matmuls A22 -= L21 U12,
    `_UPDATE_ROWS` rows at a time,
    update the rows below that have a multiplier. The entries of the
    float64 array stay integers in [-low, p) with low + p <= 2^53: an
    update lowers low by at most b (p - 1)^2, every partial sum is an
    integer below 2^53 and so exact, and the trailing block is reduced
    (`_reduce`, exact there) only when the next update could pass that
    bound. b (p - 1)^2 + p <= 2^53 (`_panel_width`) lets one update
    always fit.

    Returns the determinant of the leading k x k block, 0 when it is
    singular. After k steps the first k columns hold P a = L U, P a =
    a[order]: L below the diagonal (its unit diagonal not stored), U on
    and above it; the block below and right of the leading one is the
    Schur complement; all reduced to [0, p). On a 0 return only the LU
    of the first s columns, s the step whose column has no pivot, and
    `order` are defined, and a[s, s] = 0 is the first zero on the
    diagonal.
    """
    n = a.shape[1]
    b = _panel_width(p) if a.dtype == np.float64 else 1
    step = b * (p - 1) ** 2  # the most one product subtracts from an entry
    low = 0  # the entries right of the factored panels lie in [-low, p)
    det = 1
    for start in range(0, k, b):
        end = min(start + b, k)
        width = end - start
        if b == 1:  # every column from the pivot's on: a step is the whole update
            panel, live, top = a[start:, start:], None, k - start
        else:  # an int64 copy of the leading rows and the live rows below
            block = a[start:, start:end]
            live = np.concatenate((np.arange(width),
                                   width + np.flatnonzero(block[width:].any(axis=1))))
            panel = block[live].astype(np.int64)
            top = int(np.searchsorted(live, k - start))  # the compact rows before k
        moved = {}  # row of a[start:] -> the row the swaps put there
        for c in range(width):
            column = panel[c:, c]
            if b > 1:
                column %= p
            lead = column[:top - c].nonzero()[0]
            if lead.size == 0:
                det = 0
                break
            if lead[0]:
                j = c + int(lead[0])
                row = panel[c].copy()
                panel[c] = panel[j]
                panel[j] = row
                if live is not None:  # the row of a[start:] of compact row j
                    j = int(live[j])
                moved[c], moved[j] = moved.get(j, j), moved.get(c, c)
                det = -det
            ps = int(panel[c, c])
            det = det * ps % p
            if b == 1:
                rows = c + 1 + panel[c + 1:, c].nonzero()[0]
                if rows.size:
                    f = panel[rows, c] * pow(ps, -1, p) % p
                    panel[rows, c + 1:] = (panel[rows, c + 1:] - f[:, None] * panel[c, c + 1:]) % p
                    panel[rows, c] = f
            else:
                pivot_row = panel[c, c + 1:]
                pivot_row %= p
                f = column[1:]  # the multipliers, in place
                f *= pow(ps, -1, p)
                f %= p
                panel[c + 1:, c + 1:] -= f[:, None] * pivot_row
        if moved:
            to, source = start + np.array(list(moved)), start + np.array(list(moved.values()))
            if order is not None:
                order[to] = order[source]
            a[to, :start] = a[source, :start]
            if b > 1:
                a[to, end:] = a[source, end:]
        if b > 1:
            if det == 0:  # the steps reduced the columns up to this one only
                panel %= p
            block[live] = panel
        if det == 0:
            return 0
        if b > 1 and end < n:
            u12 = a[start:end, end:]
            if low:
                _reduce(u12, p)
            inverse = _unit_lower_inverse(np.tril(panel[:width], -1), p)
            if inverses is not None:
                inverses.append(inverse)
            u12[...] = _reduce(inverse @ u12, p)
            multiplied = width + np.flatnonzero(panel[width:].any(axis=1))
            if multiplied.size:
                below, l21 = start + live[multiplied], panel[multiplied].astype(np.float64)
                if low + step + p > _FLOAT_EXACT_LIMIT:
                    _reduce(a[end:, end:], p)
                    low = 0
                for i in range(0, below.size, _UPDATE_ROWS):
                    a[below[i:i + _UPDATE_ROWS], end:] -= l21[i:i + _UPDATE_ROWS] @ u12
                low += step
    if low:
        _reduce(a[k:, k:], p)
    return det % p


def _lu_inverse(lu, p: int, inverses=()):
    """(L U)^{-1} mod p, the inverse of A[order], from the packed LU of
    A[order] (`_eliminate`) in the square array lu, in lu's dtype.

    From the identity, forward with the unit lower L, then back with U,
    in panels of b = `_panel_width(p)` rows on float64 and 1 on any other
    dtype: a panel's rows, reduced, take the inverse of its diagonal
    block, then one product updates the rows after it (going back, before
    it). L^{-1} is unit lower triangular, so a forward panel's rows are 0
    past its own end, and its inverse and update reach only that far:
    about 2 k^3 / 3 multiply-adds where a full forward pass takes k^3.
    Forward, the inverse of the i-th block is inverses[i], the L11^{-1}
    that `_eliminate` formed for U12 and listed, for every panel it gave
    one (all but the last of a nonsingular A, and the panels of a leading
    block of its LU that lie wholly inside it), else
    `_unit_lower_inverse`'s. Back, U's block is D V, D its diagonal and V
    unit upper, and its inverse V^{-1} D^{-1} is formed once, as one
    matrix, so the rows take one product. An update subtracts at most b
    (p - 1)^2 from an entry, as in `_eliminate`, so those rows are
    reduced only once `every` updates could pass 2^53 - p; on int64 and
    object arrays after each one. (L U)^{-1} is A^{-1}[:, order], A's
    inverse with its columns placed at the row order."""
    k = len(lu)
    b = _panel_width(p) if lu.dtype == np.float64 else 1
    every = (_FLOAT_EXACT_LIMIT - p) // (b * (p - 1) ** 2) if b > 1 else 1
    y = np.eye(k, dtype=lu.dtype)
    starts = range(0, k, b)
    for i, start in enumerate(starts):
        end = min(start + b, k)
        rows = _reduce(y[start:end, :end], p)
        if end - start > 1:
            inverse = inverses[i] if i < len(inverses) else \
                _unit_lower_inverse(np.tril(lu[start:end, start:end], -1), p)
            rows[...] = _reduce(inverse @ rows, p)
        y[end:, :end] -= lu[end:, start:end] @ rows
        if (i + 1) % every == 0:
            _reduce(y[end:, :end], p)
    for i, start in enumerate(reversed(starts)):
        end = min(start + b, k)
        rows = _reduce(y[start:end], p)
        scale = np.array([pow(int(e), -1, p) for e in lu.diagonal()[start:end]])[:, None]
        if end - start > 1:  # V = D^{-1} U is unit upper, the transpose of a unit lower
            upper = _reduce(scale * np.triu(lu[start:end, start:end], 1), p)
            inverse = _reduce(_unit_lower_inverse(upper.T, p).T * scale.T, p)  # V^{-1} D^{-1}
            rows[...] = _reduce(inverse @ rows, p)
        else:
            rows[...] = _reduce(scale * rows, p)  # D^{-1}
        y[:start] -= lu[:start, start:end] @ rows
        if (i + 1) % every == 0:
            _reduce(y[:start], p)
    return y


def _schur(a, field: int | None, k: int) -> ExactMatrix:
    """Trailing block M22 - M21 M11^{-1} M12 of the (possibly rectangular)
    array a of entries valid for the field: over F_p after k elimination
    steps that pivot inside M11, which clobber a; over Q, once the zero
    test has found M11 nonsingular, by p-adic lifting on the
    denominator-cleared rows modulo the prime that the test certified,
    with the inverse of M11 from its LU there, which only reads a: the
    rows and columns of M11 are gathered into the test's orders, which
    leaves the complement as it is. Raises SingularMatrixError when M11
    is singular."""
    if field is not None:
        if _eliminate(a, k, field) == 0:
            raise SingularMatrixError("singular matrix over F_p")
        # a new array in the storage dtype, not a view that keeps all of a
        return ExactMatrix._of(a[k:, k:].astype(storage_dtype((), field)), field)
    ints, scales = _int_rows(a)
    residues, inverse, rows, cols = _zero_test(ints[:k, :k])
    if residues is None:
        raise SingularMatrixError("singular matrix over Q")
    ints = ints[np.ix_(np.append(rows, range(k, len(ints))), np.append(cols, range(k, a.shape[1])))]
    values = iter(_lift_schur(ints, k, _prime(k, len(residues) - 1), inverse))
    # the scale of a leading row cancels in M11^{-1} M12; that of a
    # trailing row scales its row of the complement
    return ExactMatrix([[Fraction(num, den * scale) for num, den in islice(values, a.shape[1] - k)]
                        for scale in scales[k:]])


def _minus_product(t, x, y, p: int):
    """t - x @ y mod p in [0, p), numpy's broadcasting matmul on float64
    arrays of integers below p in absolute value, t's in [0, p), exact:
    the inner dimension runs in chunks of `_depth(p)`, each subtracted
    and reduced in turn."""
    depth = _depth(p)
    for i in range(0, x.shape[-1], depth):
        t = _reduce(t - x[..., i:i + depth] @ y[..., i:i + depth, :], p)
    return t


def _gauss_jordan(k, p: int):
    """(pivot columns, det K_piv, K_piv^{-1}, K_piv^{-1} K), all mod p, of
    an r x w array K of residues with r <= w and rank r mod p, K_piv its
    r pivot columns, the first r independent ones; None when its rank mod
    p is below r. Gauss-Jordan on [K | I] in int64, with the delayed
    reduction of `_eliminate`: a step reduces the pivot column and the
    pivot row only, and subtracts their outer product unreduced, at most
    (p - 1)^2 from each entry, so the rest of the array is reduced only
    when the next step could pass 2^63."""
    r, w = k.shape
    aug = np.concatenate([k.astype(np.int64), np.eye(r, dtype=np.int64)], axis=1)
    steps = (_INT64_LIMIT - p) // (p - 1) ** 2  # the unreduced steps int64 holds
    pivots, value = [], 1
    for c in range(w):
        row = len(pivots)
        if row == r:
            break
        column = aug[:, c]
        column %= p
        lead = np.flatnonzero(column[row:])
        if not lead.size:
            continue
        if lead[0]:
            aug[[row, row + lead[0]]] = aug[[row + lead[0], row]]
            value = -value
        pivot = int(aug[row, c])
        value = value * pivot % p
        aug[row] %= p
        aug[row] *= pow(pivot, -1, p)
        aug[row] %= p
        column = column.copy()
        column[row] = 0
        aug -= np.outer(column, aug[row])
        pivots.append(c)
        if len(pivots) % steps == 0:
            aug %= p
    if len(pivots) < r:
        return None
    aug %= p
    return np.array(pivots, dtype=np.intp), value, aug[:, w:], aug[:, :w]


def _fold(a, rows, cols, outside, live, p: int):
    """Fold one Kronecker class (R, C) of the square, C-contiguous float64
    array a of residues mod p away (`ExactMatrix.from_csc`): the block
    elimination of its rows against r pivot columns of each column copy,
    in place.

    Gauss-Jordan on the copy block K = a[R[0], C[0]] (`_gauss_jordan`)
    picks the pivot columns P_j = C[j, piv] and gives K_piv^{-1}. With A =
    K_piv (x) I the block of the class rows and the pivot columns, the
    live rows O that meet a pivot column take the Schur complement update
    a[O, T] -= a[O, P] A^{-1} a[R, T] over the live columns T outside the
    pivots. In the other columns of copy j a[R_j, C_j] is K, so there the
    update is a[O, P_j] times K_piv^{-1} K's other columns, one product
    for every copy at once. Outside the class the class rows can have
    cells only in the columns `outside` (`_folding_classes`); over those
    still live where they have one, it is a[O, P] times K_piv^{-1} a[R_j,
    T] for every copy, one batched product and one more. Every entry it
    writes is reduced; the class rows and the pivot columns keep theirs.

    `live` holds the rows and columns not yet folded; the class rows and
    pivot columns leave it. Returns (det(K_piv)^copies, the pivot columns,
    copies x r, K_piv^{-1} in float64), or None, with a unchanged, when K
    is taller than wide, the copies' blocks differ (an earlier fold wrote
    into one) or K's rank mod p is below r."""
    copies, r = rows.shape
    block = a[rows[:, :, None], cols[:, None, :]]
    if r > cols.shape[1] or (block != block[0]).any():
        return None
    reduced = _gauss_jordan(block[0], p)
    if reduced is None:
        return None
    pivots, value, inverse, echelon = reduced
    inverse, echelon = inverse.astype(np.float64), echelon.astype(np.float64)
    pivot_cols = cols[:, pivots]
    live[0][rows] = False
    live[1][pivot_cols] = False
    coupling = np.take(a, pivot_cols.ravel(), axis=1)  # a[:, P], faster than that index
    touching = np.flatnonzero(live[0] & coupling.any(axis=1))
    coupling = coupling[touching]
    flat = a.reshape(-1)

    def subtract(at, columns, x, y):  # a[at[:, None], columns] -= x @ y, by flat position
        index = at[:, None] * len(a) + columns
        flat[index] = _minus_product(np.take(flat, index), x, y, p)

    others = np.ones(cols.shape[1], dtype=bool)
    others[pivots] = False
    if others.any():  # only the (row, copy) pairs that meet the copy's pivot columns
        blocks = coupling.reshape(len(touching), copies, r)
        row, copy = np.nonzero(blocks.any(axis=2))
        subtract(touching[row], cols[:, others][copy], blocks[row, copy], echelon[:, others])
    outside = outside[live[1][outside]]
    if outside.size:
        cells = a[np.ix_(rows.ravel(), outside)]
        met = cells.any(axis=0)
        if met.any():
            spread = _minus_product(0, -inverse, cells[:, met].reshape(copies, r, -1), p)
            subtract(touching, outside[met], coupling, spread.reshape(copies * r, -1))
    return pow(value, copies, p), pivot_cols, inverse


def _folding_classes(m: ExactMatrix) -> tuple:
    """The Kronecker classes of m (`ExactMatrix.from_csc`) as the triples
    (R, C, O) that `_fold` takes, O the columns outside C where the rows
    R can hold a nonzero once the classes before them have folded; found
    from the cells, in O(nnz), before any dense array, and shared by every
    prime. A fold writes only into the rows that meet a copy's pivot
    columns, over that copy's other columns and its own class's O, so a
    class whose rows meet any column of an earlier class's copy takes
    that copy's columns and that class's O into its own."""
    if not m._classes:
        return ()
    rows, cols = m._cells[1:3] if m._array is None else np.nonzero(m._array)
    folding = []
    for r, c in m._classes:
        in_class = np.zeros(m.nrows, dtype=bool)
        in_class[r] = True
        met = np.zeros(m.ncols, dtype=bool)
        met[cols[in_class[rows]]] = True
        for _, earlier, filled in folding:
            copies = met[earlier].any(axis=1)
            if copies.any():
                met[earlier[copies]] = True
                met[filled] = True
        met[c] = False
        folding.append((r, c, np.flatnonzero(met)))
    return tuple(folding)


class _Folded(NamedTuple):
    """`_fold_eliminate`'s result: det a mod p; per folded class, in fold
    order, its rows and pivot columns, flat, copy by copy, and K_piv^{-1};
    the rest's rows, in the pivot order of its elimination, and columns,
    ascending; and that elimination's packed LU, of the rest's rows in
    that order, and L11^{-1}s (`_eliminate`)."""
    det: int
    folds: list
    rest: list
    lu: np.ndarray
    inverses: list


def _fold_eliminate(a, classes, p: int) -> _Folded:
    """det a mod p for a square array a of residues in its working dtype
    (`_working_dtype`), clobbered: on float64 the classes
    (`_folding_classes`) are folded away first, each by one block
    elimination (`_fold`), and `_eliminate` runs on the Schur complement
    left, the rest, a copy (a itself when nothing folds). With L the rows
    and pivot columns the folds took, in order, and the rest ascending,
    det a = sign * prod det(K_piv)^copies * det(rest), sign that of the
    row order [L, rest] times that of the column order; the elimination
    then leaves the rest's rows in its pivot order. One driver for det
    over F_p and every modular det over Q."""
    n = len(a)
    value, folds = 1, []
    live = np.ones((2, n), dtype=bool)  # rows, columns not folded
    for rows, cols, outside in classes if a.dtype == np.float64 else ():
        folded = _fold(a, rows, cols, outside, live, p)
        if folded is not None:
            value = value * folded[0] % p
            folds.append((rows.ravel(), folded[1].ravel(), folded[2]))
    rest, lu = [np.flatnonzero(v) for v in live], a
    if folds:
        if _parity(np.concatenate([r for r, _, _ in folds] + rest[:1])) != \
                _parity(np.concatenate([c for _, c, _ in folds] + rest[1:])):
            value = p - value
        lu = np.take(a[rest[0]], rest[1], axis=1)
    inverses = []
    value = value * _eliminate(lu, len(lu), p, rest[0], inverses) % p  # rest[0] in pivot order
    return _Folded(value, folds, rest, lu, inverses)


def _unfold(a, folds, rows, cols, inverse, p: int):
    """(X, row order, column order): X = W^{-1} mod p, W the block of the
    matrix before the folds on the rows [R_1, ..., R_m, rows] and the
    columns [P_1, ..., P_m, cols], R_i and P_i the rows and pivot columns
    of the folds (`_fold_eliminate`) in fold order, given `inverse`, that
    of the block of the folded array a on rows and cols.

    The classes unfold in reverse: with W = [[A, B], [C, D]], A = K_piv
    (x) I the block of one fold's rows and pivot columns and T = D - C
    A^{-1} B the block left after it, whose inverse the later folds
    give, W^{-1} = [[A^{-1} + A^{-1} B T^{-1} C A^{-1}, -A^{-1} B
    T^{-1}], [-T^{-1} C A^{-1}, T^{-1}]]. a still holds B and C as the
    fold read them, since a fold keeps its rows and pivot columns and a
    later one writes into neither. A^{-1} is K_piv^{-1} on each copy, so
    A^{-1} B and C A^{-1} are batched products, one over the copies
    each, and every product is `_minus_product`'s, which negates for
    free."""
    row_order = np.concatenate([r for r, _, _ in folds] + [rows])
    col_order = np.concatenate([c for _, c, _ in folds] + [cols])
    if not folds:
        return inverse, row_order, col_order
    n = len(row_order)
    x = np.empty((n, n))
    end = n - len(rows)
    x[end:, end:] = inverse
    for fold_rows, fold_cols, k_inverse in reversed(folds):
        size, width = len(fold_rows), len(k_inverse)
        start, copies = end - size, size // width
        t = x[end:, end:]  # T^{-1}
        b = a[np.ix_(fold_rows, col_order[end:])].reshape(copies, width, -1)
        c = a[np.ix_(row_order[end:], fold_cols)]
        touching = np.flatnonzero(c.any(axis=1))  # C's nonzero rows
        c = c[touching].reshape(-1, copies, width).swapaxes(0, 1)
        ab = _minus_product(0, -k_inverse, b, p).reshape(size, -1)  # A^{-1} B
        ca = _minus_product(0, c, -k_inverse, p).swapaxes(0, 1).reshape(-1, size)  # C A^{-1}
        x[start:end, end:] = _minus_product(0, ab, t, p)
        x[end:, start:end] = _minus_product(0, t[:, touching], ca, p)
        x[start:end, start:end] = _minus_product(np.kron(np.eye(copies), k_inverse),
                                                 x[start:end, end:][:, touching], ca, p)
        end = start
    return x, row_order, col_order


def _parity(perm) -> int:
    """The parity, 0 or 1, of a permutation of 0..n-1 (an int array): n
    less its number of cycles, which pointer jumping counts by labelling
    every index with the least of its cycle."""
    n = len(perm)
    label, jump = np.arange(n), np.asarray(perm, dtype=np.intp)
    for _ in range((n - 1).bit_length()):
        label = np.minimum(label, label[jump])
        jump = jump[jump]
    return (n - np.count_nonzero(label == np.arange(n))) % 2


def det(m: ExactMatrix):
    """Exact determinant: over F_p n elimination steps mod p; over Q
    `_multimodular` on the denominator-cleared rows.

    Each modular det on a float64 working array (`_working_dtype`), over
    F_p and over Q alike, runs `_fold_eliminate`: the Kronecker classes
    of m, if it carries any (`ExactMatrix.from_csc`), are folded away
    first, each by one block elimination (`_fold`), and the elimination
    runs on the Schur complement that is left, the rest. The columns
    outside a class that its rows can meet are found once per det, from
    the cells (`_folding_classes`)."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1 if m.field is None else 1 % m.field
    if m.field is not None:
        p = m.field
        return _fold_eliminate(m._dense(_working_dtype(p)), _folding_classes(m), p).det
    classes = _folding_classes(m)  # from the cells, before `array` drops them
    ints, scales = _int_rows(m.array)
    value = Fraction(_multimodular(ints, classes), prod(scales))
    return int(value) if value.denominator == 1 else value


def _hadamard2(a, k: int):
    """Squared Hadamard bounds for an integer array (int64 or object),
    each the smaller of the row and column versions: on every
    (k+1)-minor that contains the leading k x k block M11 (its k leading
    lines times the longest trailing one), and on |det M11|. The squares
    are summed in int64 while max^2 times the line length fits, else as
    Python ints."""
    top = int(np.abs(a).max())
    sq = a * a if top * top * max(a.shape) < 2 ** 63 else a.astype(object) ** 2
    lead = sq[:k, :k]

    def bound(lines):
        lines = [int(e) for e in lines]
        return prod(lines[:k]) * max([1, *lines[k:]])

    return (min(bound(sq.sum(axis=1)), bound(sq.sum(axis=0))),
            min(bound(lead.sum(axis=1)), bound(lead.sum(axis=0))))


def _verified_bound2(a) -> int | None:
    """A rigorous upper bound on (det a)^2, an integer, for a square int64
    array a of entries below 2^53 in absolute value, verified in floating
    point (Rump, Acta Numerica 2010); None for any other array, or when
    an intermediate is not finite or X below is singular.

    X is R^{-1} from `_upper_inverse`, R from the QR of a, with entries
    below 2^-500 set to 0; any upper-triangular X gives a valid bound,
    X near R^{-1} a tight one, since then a X is nearly orthogonal. With
    u = 2^-53 and gamma_n = n u / (1 - n u), a conventional product of
    floats (any order of summation, no Strassen) has |fl(a X) - a X| <=
    gamma_n |a| |X| when nothing underflows, and fl(|a| |X|) >= (1 -
    gamma_n) |a| |X|; so E = 2 gamma_n fl(|a| |X|) bounds |a X - B|, B =
    fl(a X). Both products run by halves of the triangle X
    (`_upper_product`), about n^3 / 2 multiply-adds each, an order of
    summation the model allows. Nothing underflows: every value the two
    products form is an integer times 2^-552, the spacing of floats of
    at least 2^-500, so 0 or normal, and so is E; the entries of |B| + E are raised to at least
    2^-500 before they are squared. Hadamard's inequality on the rows of
    a X then gives |det a| |det X| <= prod_i || |B_i| + E_i ||_2; the
    squared norms s_i, each summed in float64, lose at most n + 2
    roundings down, so (det a)^2 <= prod_i s_i / ((1 - n (n + 2) u)
    prod_i X_ii^2), whose ceiling is taken exactly from the integer
    ratios of the floats, with one floor division.
    """
    n = len(a)
    if a.dtype != np.int64 or n * (n + 2) >= 2 ** 52 or int(np.abs(a).max()) >= _FLOAT_EXACT_LIMIT:
        return None
    a = a.astype(np.float64)
    try:
        x = _upper_inverse(np.linalg.qr(a, mode="r"))
    except np.linalg.LinAlgError:
        return None
    magnitude = np.abs(x)
    kept = magnitude >= 2.0 ** -500  # NaN is not, and stays NaN
    x *= kept
    magnitude *= kept
    diagonal = x.diagonal()
    if not (np.isfinite(x).all() and diagonal.all()):
        return None
    gamma = Fraction(n, 2 ** 53 - n)
    slack = np.nextafter(float(2 * gamma), np.inf)  # rounded up, at least 2 gamma_n
    norms2 = np.empty(n)
    for i in range(0, n, _UPDATE_ROWS):  # the temporaries stay small
        rows = a[i:i + _UPDATE_ROWS]
        error = _upper_product(np.abs(rows), magnitude)
        error *= slack
        rows = _upper_product(rows, x)
        np.abs(rows, out=rows)
        rows += error
        np.maximum(rows, 2.0 ** -500, out=rows)
        rows *= rows
        norms2[i:i + _UPDATE_ROWS] = rows.sum(axis=1)
    if not np.isfinite(norms2).all():
        return None
    num, den = _dyadic_product(norms2)
    xnum, xden = _dyadic_product(np.abs(diagonal))
    # the ceiling of num xden^2 / (den xnum^2 (1 - n (n + 2) 2^-53))
    return -(-num * xden ** 2 * 2 ** 53 // (den * xnum ** 2 * (2 ** 53 - n * (n + 2))))


# blocks of at most this order are inverted by LAPACK in `_upper_inverse`
_TRIANGLE_LEAF = 64


def _upper_inverse(r):
    """The inverse, upper triangular, of an upper-triangular float64
    array, by halves: [[A, B], [0, C]]^{-1} = [[A^{-1}, -A^{-1} B C^{-1}],
    [0, C^{-1}]], two matmuls per split, down to blocks of at most
    `_TRIANGLE_LEAF` rows; LinAlgError when such a block is singular."""
    n = len(r)
    if n <= _TRIANGLE_LEAF:
        return np.triu(np.linalg.inv(r))
    h = n // 2
    x = np.zeros_like(r)
    x[:h, :h] = _upper_inverse(r[:h, :h])
    x[h:, h:] = _upper_inverse(r[h:, h:])
    x[:h, h:] = -(x[:h, :h] @ r[:h, h:]) @ x[h:, h:]
    return x


def _upper_product(a, x):
    """a @ x for an upper-triangular float64 array x, by halves: [a1, a2]
    [[X11, X12], [0, X22]] = [a1 X11, a1 X12 + a2 X22], down to blocks
    of at most `_TRIANGLE_LEAF` columns, about half the multiply-adds of
    the full product. Each entry is the sum of the same nonzero products
    as in a @ x, in another order."""
    n = len(x)
    if n <= _TRIANGLE_LEAF:
        return a @ x
    h = n // 2
    out = np.empty((len(a), n))
    out[:, :h] = _upper_product(a[:, :h], x[:h, :h])
    out[:, h:] = _upper_product(a[:, h:], x[h:, h:])
    out[:, h:] += a[:, :h] @ x[:h, h:]
    return out


def _dyadic_product(values) -> tuple[int, int]:
    """(numerator, denominator) of the exact product of positive floats."""
    ratios = [float(v).as_integer_ratio() for v in values]
    return prod(num for num, _ in ratios), prod(den for _, den in ratios)


# a det over Q whose Hadamard budget fits in this many of its primes,
# 2 H < _prime(n, 0)^_CRT_MAX_PRIMES, runs plain CRT; beyond it the
# divisor lift pays (measured crossover, README)
_CRT_MAX_PRIMES = 3


def _multimodular(a, classes=()) -> int:
    """The determinant of a square integer array (int64 or object), by the
    method of Abbott, Bronstein and Mulders without early termination.

    When twice the Hadamard bound H passes `_CRT_MAX_PRIMES` primes
    `_prime(n, 0)`, the zero test either certifies det = 0 or ends at the
    first nonzero residue, and one p-adic lift modulo that residue's
    prime, with the test's inverse, gives a divisor D of det
    (`_divisor`), and B is the smaller of H and the bound verified in
    floating point (`_verified_bound2`, H alone where that gives none);
    otherwise D = 1 and B = H. Then det / D runs modulo the descending
    primes `_prime(n, i)`, skipping those that divide D and reusing the
    residues the zero test found, recombined by CRT (Garner) until the
    product of the primes exceeds 2 B / |D|; D times the symmetric
    residue is det, certified since |det| <= B. A residue 0 is just a
    residue. Every residue, the zero test's too, is `_fold_eliminate`'s,
    the Kronecker classes (`_folding_classes`) folded away first.
    """
    n = len(a)
    bound2 = _hadamard2(a, n)[1]
    residues, divisor = [], 1
    if 4 * bound2 >= _prime(n, 0) ** (2 * _CRT_MAX_PRIMES):
        residues, inverse, rows, cols = _zero_test(a, classes)
        if residues is None:
            return 0
        divisor = _divisor(a, _prime(n, len(residues) - 1), inverse, rows, cols)
        verified2 = _verified_bound2(a)
        if verified2 is not None:
            bound2 = min(bound2, verified2)
    d = 0
    modulus = 1
    for i in count():
        if (modulus * divisor) ** 2 > 4 * bound2:
            break
        q = _prime(n, i)
        if divisor % q == 0:
            continue
        residue = residues[i] if i < len(residues) else \
            _fold_eliminate(_mod(a, q), classes, q).det
        d += modulus * ((residue * pow(divisor, -1, q) - d) * pow(modulus, -1, q) % q)
        modulus *= q
    return divisor * (d - modulus if 2 * d > modulus else d)


def _mod(a, q: int):
    """The integer array a (int64 or object) reduced mod q, in the dtype
    `_eliminate` runs fastest on (`_working_dtype`): float64 panels for
    every `_prime(k, i)` with k >= 2."""
    return (a % q).astype(_working_dtype(q), copy=False)


def _zero_test(a, classes=()):
    """(None, None, None, None) when the square integer array a is
    singular, certified by a kernel vector; otherwise (residues, X, rows,
    cols): det a modulo the primes _prime(n, 0), ..., _prime(n, i), the
    last of them the first nonzero residue, so a modulus that the
    caller's lift may use, and X = W^{-1} modulo it for W = a[rows][:,
    cols], a with its rows and columns in the test's order.

    Modulo q = _prime(n, i), `_fold_eliminate` folds a's Kronecker
    classes (`_folding_classes`) away and eliminates the rest, which
    finds no pivot for some column s exactly when det a = 0 mod q; else
    s is the rest's order. One path serves both outcomes: the leading s
    x s block of the rest's LU is that of its s pivot rows, in pivot
    order, and its first s columns, and its inverse (`_lu_inverse`)
    unfolds (`_unfold`) to that of W, the block on the folds' rows and
    those s rows by the folds' pivot columns and those s columns, each
    in that order. When s is the whole rest, W is a, and the test
    returns W^{-1}. Otherwise the Schur complement over Q of W's columns
    and the rest's column s, with W's rows first and the split before
    column s, is lifted modulo q (`_lift_schur`): W is nonsingular
    modulo q, of order below n, which keeps q in range. When all of its
    entries are 0, that last column is the Q-combination M11^{-1} M12
    of the columns before it, so det a = 0; for an empty W the
    certificate is the column itself. Otherwise those columns are
    independent over Q, yet q divides all their maximal minors, and the
    test moves on to _prime(n, i + 1). Only finitely many primes are
    unlucky in this way, or change the pivot columns of a fold, and when
    det a = 0 every other prime stops at the first column that depends
    on the ones before it, so the test ends.
    """
    n = len(a)
    residues = []
    for i in count():
        q = _prime(n, i)
        work = _mod(a, q)
        folded = _fold_eliminate(work, classes, q)
        (rows, cols), lu = folded.rest, folded.lu
        residues.append(folded.det)
        s = len(lu) if folded.det else int(np.flatnonzero(lu.diagonal() == 0)[0])
        lead = _lu_inverse(lu[:s, :s], q, folded.inverses) if s else np.empty((0, 0))
        x, row_order, col_order = _unfold(work, folded.folds, rows[:s], cols[:s], lead, q)
        if folded.det:
            return residues, x, row_order, col_order
        head = a[np.ix_(np.append(row_order, rows[s:]), np.append(col_order, cols[s]))]
        # the last column minus its Q-combination of the columns before it
        certificate = head[:, 0] if not len(x) else \
            [num for num, _ in _lift_schur(head, len(x), q, x)]
        if not any(certificate):
            return None, None, None, None


def _divisor(a, q: int, inverse, rows, cols) -> int:
    """A divisor D of det a for a square integer array a nonsingular
    modulo the prime q = _prime(n, i), given W^{-1} mod q for W =
    a[rows][:, cols] (`_zero_test`), most often det a up to a small
    factor: the denominator of the 1 x 1 Schur complement -c a^{-1} b of
    [[a, b], [c, 0]], one p-adic lift modulo q, for fixed pseudo-random
    integer vectors b and c. a^{-1} is adj(a) / det a, so D divides det
    a. The lift runs on [[W, b[rows]], [c[cols], 0]], whose complement
    -c[cols] W^{-1} b[rows] is -c a^{-1} b, by the same digits."""
    n = len(a)
    rng = random.Random(n)
    bordered = np.zeros((n + 1, n + 1), dtype=a.dtype)
    bordered[:n, :n] = a[np.ix_(rows, cols)]
    bordered[:n, n] = np.array([rng.randint(-64, 64) for _ in range(n)])[rows]
    bordered[n, :n] = np.array([rng.randint(-64, 64) for _ in range(n)])[cols]
    (num, den), = _lift_schur(bordered, n, q, inverse)
    return Fraction(num, den).denominator


@lru_cache(maxsize=None)
def _prime(k: int, i: int) -> int:
    """The i-th largest prime q with k (q - 1)^2 < 2^53 (i = 0, 1, ... in
    turn), the moduli of every modular step over Q on a block of order
    k: a length-k dot product of residues mod q is then exact in float64."""
    q = (isqrt((_FLOAT_EXACT_LIMIT - 1) // k) + 2 if i == 0 else _prime(k, i - 1)) - 1
    while not _is_prime.__wrapped__(q):  # uncached: most candidates are composite
        q -= 1
    return q


def _lift_dtype(k: int, top: int, q: int):
    """Storage of the lifting for entries |M| <= top: float64 while every
    integer it forms (M11 X and M21 X for X in [0, q), and R - M11 X),
    at most k * top * q in absolute value, stays below 2^53 and so is
    exact; else Python ints in an object array, where entries of 2^63 or
    more always land."""
    return np.float64 if k * top * q < _FLOAT_EXACT_LIMIT else object


def _steps(q: int, bound: int) -> int:
    """The least L with q^L > bound."""
    steps, power = 0, 1
    while power <= bound:
        steps, power = steps + 1, power * q
    return steps


@lru_cache(maxsize=None)
def _probe_weights(m: int, n: int):
    """Fixed small integer vectors w and v, int64, of lengths m and n,
    for the lift's probe w^T S v of an m x n complement S: pseudo-random
    in [-64, 64], seeded by the shape, as `_divisor` seeds its border;
    w = v = (1) for a 1 x 1 complement, which is its own probe. Cached,
    and read-only."""
    if m * n == 1:
        weights = [1], [1]
    else:
        rng = random.Random(f"probe {m} x {n}")
        weights = [rng.randint(-64, 64) for _ in range(m)], [rng.randint(-64, 64) for _ in range(n)]
    w, v = (np.array(x, dtype=np.int64) for x in weights)
    w.flags.writeable = v.flags.writeable = False
    return w, v


def _reduced_basis(basis: tuple, digit: int, q: int) -> tuple:
    """One step of the lift's probe: the Lagrange-Gauss reduced basis of
    the lattice of integer pairs (c, e) with c = e u mod q M, from
    `basis`, that of the same lattice modulo M, where u, the probe's
    partial sum, grows by M times `digit`. A basis is (c1, e1, c2, e2,
    n1, m, n2, g1, g2): two vectors, their squared lengths n1 <= n2 and
    their dot product m, |m| <= n1 / 2, and g = (e u - c) / M for each,
    an integer, kept up to date instead of formed from u and M.

    The new lattice has index q in the old one: f(c, e) = g + e digit
    mod q is onto Z / q with the new lattice as its kernel, so with f(b1)
    = a and f(b2) = b, b a unit (else swap the two), it is spanned by b1
    - t b2, t = a / b mod q taken in (-q/2, q/2], and q b2; a few Gauss
    steps, which update the lengths and the dot product instead of
    forming them, reduce that. The first vector is then a shortest
    nonzero pair, the rational c / e that a balanced half-gcd of u mod
    q M gives when |c| and e are below sqrt(q M / 2); a step costs the
    reduction of one digit's bits, where a half-gcd would run over all
    of them again."""
    c1, e1, c2, e2, n1, m, n2, g1, g2 = basis
    g1 += e1 * digit
    g2 += e2 * digit
    if g2 % q == 0:  # f is onto, so f(b1) is a unit
        c1, e1, c2, e2, n1, n2, g1, g2 = c2, e2, c1, e1, n2, n1, g2, g1
    t = g1 * pow(g2, -1, q) % q
    if 2 * t > q:
        t -= q
    c1 -= t * c2
    e1 -= t * e2
    g1 = (g1 - t * g2) // q  # exact: f(b1 - t b2) = 0
    tn = t * n2
    n1 -= t * (2 * m - tn)
    m = q * (m - tn)
    c2 *= q
    e2 *= q
    n2 *= q * q  # g(q b2) modulo q M is g(b2) modulo M
    if n1 > n2:
        c1, e1, c2, e2, n1, n2, g1, g2 = c2, e2, c1, e1, n2, n1, g2, g1
    while True:
        mu = (m + (n1 >> 1)) // n1  # a nearest integer to m / n1
        if mu == 0:
            break
        c2 -= mu * c1
        e2 -= mu * e1
        g2 -= mu * g1
        reduced = m - mu * n1
        n2 -= mu * (m + reduced)
        m = reduced
        if n2 >= n1:
            break
        c1, e1, c2, e2, n1, n2, g1, g2 = c2, e2, c1, e1, n2, n1, g2, g1
    return c1, e1, c2, e2, n1, m, n2, g1, g2


def _lift_schur(ints, k: int, q: int, inverse) -> list:
    """(numerator, denominator) of each entry, row by row, of the Schur
    complement S = M22 - M21 M11^{-1} M12 of an integer array (int64 or
    object, possibly rectangular), by Dixon's p-adic lifting modulo a
    prime q with k (q - 1)^2 < 2^53 (`_prime`) that does not divide
    det M11, given C = M11^{-1} mod q (float64 or int64).

    Each step takes, from R = M12, X_i = C (R mod q) mod q, the products
    M11 X_i and T_i = M21 X_i, and R <- (R - M11 X_i) / q, an exact
    division, so that X = sum q^i X_i solves M11 X = M12 modulo q^L
    after L steps and S is M22 - sum q^i T_i modulo q^L. The steps write
    -T_i into one preallocated array of digit planes, in the lifting's
    dtype; `_recombine` turns M22 plus the first L of them into S mod q^L.

    By Sylvester's identity d S, with d = det M11, is a matrix of
    (k+1)-minors, at most H in absolute value, and |d| <= H_d, so each
    entry is a / b with |a| <= H and 0 < b <= H_d. A candidate (c, e),
    e > 0 and e u = c mod q^L for the entry's residue u, equals it
    whenever q^L > H_d |c| + H e, since then |e a - b c| < q^L and e a
    = b c mod q^L (Wang, Guy and Davenport 1982): the output certifies
    itself. Rational reconstruction (`_reconstruct`, numerator bound H)
    gives the candidates. At the a priori length, the least L with q^L
    > 2 H H_d, every candidate passes; that is where the loop ends at
    the latest, and the only place where a failed reconstruction raises.

    To stop sooner, the loop lifts a probe alongside: w^T S v for fixed
    small integer vectors (`_probe_weights`), one digit w^T (-M21) X_i v
    per step, and keeps a reduced basis of the pairs (c, e) with c = e
    u_p mod q^i, u_p the probe's residue, one step per digit
    (`_reduced_basis`). Its shortest vector is the probe's balanced
    rational reconstruction (c_p, e_p) when there is one; once the same
    one is shortest at two steps in a row, the loop stops at the least L
    with q^L > 2 (H e_p + H_d |c_p|) (at once if that has passed), as
    the entries of S share the probe's denominator and have numerators
    of about its size, recombines and reconstructs every entry, and
    checks each against the inequality above. On any failure the same
    loop runs on to the a priori length. A zero complement, the zero
    test's certificate, has the probe 0 / 1 from the first step and
    stops near q^L > 2 H, about half of the a priori length.
    """
    minors2, lead2 = _hadamard2(ints, k)
    h, hd = isqrt(minors2), isqrt(lead2)
    top = int(np.abs(ints).max())
    a = ints.astype(_lift_dtype(k, top, q))
    length = _steps(q, isqrt(4 * minors2 * lead2))  # the a priori length
    m11, r = a[:k, :k], a[:k, k:].copy()  # M11, R
    m21 = -a[k:, :k]  # so that the planes hold -T_i
    m22 = ints[k:, k:]
    inverse = inverse.astype(np.float64, copy=False)  # exact: entries below q < 2^27
    digits = np.empty((length, *m22.shape), dtype=a.dtype)
    residues = np.empty(r.shape)
    python_ints = a.dtype == object
    divide = np.floor_divide if python_ints else np.true_divide  # exact on either
    w, v = _probe_weights(*m22.shape)
    w = w.astype(object)  # Python ints: exact whatever the entries
    weights = -(w @ ints[k:, :k])  # w^T (-M21)
    if k * int(np.abs(weights).max(initial=0)) * (q - 1) * int(np.abs(v).sum()) < _INT64_LIMIT:
        weights = weights.astype(np.int64)  # every w^T (-M21) X_i v fits int64
    probe = int(w @ m22 @ v)  # w^T M22 v
    # Z^2, the lattice modulo 1: g is -1 for (1, 0) and the probe's
    # partial sum w^T M22 v for (0, 1)
    basis, seen, stop = (1, 0, 0, 1, 1, 0, 1, -1, probe), None, length
    for steps, plane in enumerate(digits, 1):
        residues[...] = r % q if python_ints else r
        x = _reduce(inverse @ _reduce(residues, q), q)  # exact: k (q - 1)^2 < 2^53
        if python_ints:
            x = x.astype(np.int64)
        r -= m11 @ x
        divide(r, q, out=r)
        np.matmul(m21, x, out=plane)
        if basis is not None:  # the probe has not set the stop yet
            xv = x.astype(np.int64) @ v  # exact: n 64 q < 2^63
            basis = _reduced_basis(basis, int(weights @ xv.astype(weights.dtype, copy=False)), q)
            c, e = basis[:2] if basis[1] >= 0 else (-basis[0], -basis[1])
            if (c, e) == seen and e:
                basis, stop = None, min(length, max(steps, _steps(q, 2 * (h * e + hd * abs(c)))))
            seen = c, e
        if steps == stop:
            image = digits[:steps].astype(np.int64 if digits.dtype == np.float64 else object)
            image[0] += m22.astype(image.dtype)  # exact: k top q < 2^53 on float64
            modulus = q ** steps
            try:
                values = _reconstruct(_recombine(image, q).ravel().tolist(), modulus,
                                      minors2, lead2)
            except ArithmeticError:
                if steps == length:
                    raise
                values = None
            # at the a priori length |y| <= H and den <= H_d pass by themselves
            if values is not None and (steps == length or all(
                    hd * abs(y) + h * den < modulus for y, den in values)):
                return values
            basis, stop = None, length


def _recombine(digits, q: int):
    """sum_i q^i digits[i] mod q^L, L = len(digits), as an object array
    of Python ints in [0, q^L), for L signed digit planes in an integer
    array (int64 with entries below 2^53 in absolute value, or object),
    clobbered.

    One carry step over the whole array splits every entry d into its
    carry floor(d / q) and its digit d mod q, and adds each plane's
    carries to the plane above; the last plane's carries are multiples
    of q^L and are dropped. For int64 planes the entries then lie within
    q + 2^53 / q of [0, q), so one int64 step pairs them into signed
    base-q^2 digits below 2^55 in absolute value, exact, and only from
    there are neighbours added pairwise, each pair as whole object
    arrays: (e0 + q^2 e1) + q^4 (e2 + q^2 e3) + ..., reduced mod q^L at
    the end. No sequential pass over the planes is needed: the digits of
    0 or of a small negative value would carry through every plane."""
    carry = digits // q
    digits -= q * carry
    digits[1:] += carry[:-1]
    pairs = digits[::2]
    pairs[:len(digits) // 2] += q * digits[1::2]
    terms = list(pairs.astype(object))
    step = q * q
    while len(terms) > 1:
        terms = [lo + step * hi for lo, hi in zip(terms[::2], terms[1::2])] + \
            terms[len(terms) // 2 * 2:]
        step *= step
    return terms[0] % q ** len(digits)


def _reconstruct(residues, modulus: int, num2: int, den2: int) -> list:
    """(numerator, denominator) of each rational value from its residue
    mod `modulus`, for values N / d with |N| <= H = sqrt(num2) and one
    common d, 0 < |d| <= sqrt(den2), where modulus > 2 H sqrt(den2)
    makes each unique.

    One running common denominator D, a divisor of d, serves all of
    them, so D times a value has a numerator of at most H: when its
    symmetric residue is at most H it is that residue, an integer;
    otherwise the half-extended Euclidean algorithm on (modulus, that
    residue), run to its first remainder at most H (`_half_gcd`), gives
    its remaining denominator (Wang), which joins D. For integers, y^2 >
    num2 exactly when |y| > isqrt(num2), so both bounds are compared as
    integer square roots, taken once.
    """
    num, den_bound = isqrt(num2), isqrt(den2)
    den = 1
    out = []
    for u in residues:
        y = u * den % modulus
        if 2 * y > modulus:
            y -= modulus
        if abs(y) > num:
            r, t = _half_gcd(modulus, y % modulus, num)
            if abs(t) > den_bound:
                raise ArithmeticError("rational reconstruction failed")
            y, den = (r, den * t) if t > 0 else (-r, -den * t)
        out.append((y, den))
    return out


def _half_gcd(r0: int, r1: int, stop: int) -> tuple[int, int]:
    """(r, t) at the first remainder r <= stop of the Euclidean algorithm
    on r0 > r1 >= 0, with t its cofactor: r = t r1 mod r0."""
    t0, t1 = 0, 1
    while r1 > stop:
        quo = r0 // r1
        r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
    return r1, t1


def solve(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact X with A X = B; raises SingularMatrixError when A is singular.

    X is the Schur complement of the bordered matrix [[A, B], [-I, 0]] at
    split n (`_schur`), over Q and over F_p alike: an exact reference,
    not a tuned path.
    """
    if a.nrows != a.ncols:
        raise ValueError("solve needs a square matrix")
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch")
    n, p = a.nrows, a.field
    if n == 0:
        return ExactMatrix(np.zeros((0, b.ncols), dtype=np.int64), p)
    # over Q an int64 A may meet an object B, whose Fractions int64 would truncate
    dtype = np.result_type(a.dtype, b.dtype) if p is None else _working_dtype(p)
    bordered = np.zeros((2 * n, n + b.ncols), dtype=dtype)
    bordered[:n, :n] = a._dense(dtype)  # no dense `array` built on a compressed view
    bordered[:n, n:] = b._dense(dtype)
    bordered[range(n, 2 * n), range(n)] = -1 if p is None else p - 1
    return _schur(bordered, p, n)


def schur_complement(m: ExactMatrix, k: int) -> ExactMatrix:
    """M22 - M21 M11^{-1} M12 for the leading k x k block M11."""
    if m.nrows != m.ncols:
        raise ValueError("Schur complement needs a square matrix")
    if not 0 <= k <= m.nrows:
        raise ValueError("invalid split position")
    if k == 0 or k == m.nrows:
        trail = range(k, m.nrows)
        return m.submatrix(trail, trail)
    return _schur(m.array if m.field is None else m._dense(_working_dtype(m.field)), m.field, k)


def to_float(m: ExactMatrix):
    """float64 numpy copy (rationals only)."""
    if m.field is not None:
        raise ValueError("to_float is for rational matrices")
    return m.array.astype(float)


def fraction_mod_p(value, p: int) -> int:
    """Image of an exact rational in F_p; denominator must be a unit. The
    value is an int (bool and numpy integers too) or a Fraction, as a
    matrix entry is; anything else, a float too, is a TypeError."""
    value = _exact(value)
    num, den = value.numerator, value.denominator
    if den == 1:
        return num % p
    if den % p == 0:
        raise ZeroDivisionError(f"denominator of {value} vanishes mod {p}")
    return num * pow(den, -1, p) % p
