"""Core arithmetic for multihomogeneous polynomials on P^nx x P^ny x P^nz.

Data model shared by every other module:

* one monomial order (graded reverse lexicographic, variable 0 ranked
  highest), fixed by `monomial_basis`; all bases, matrix labels and
  serializations downstream rely on it;
* coefficients are exact `fractions.Fraction` values, numerics enter
  only when a polynomial is evaluated at a float/complex point;
* the exponent of a monomial is a triple of per-block tuples, e.g.
  ((1,0),(0,1),(1,0)) for x0*y1*z0.

Everything here is an immutable value after construction; generators
take explicit seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _product
from math import comb, gcd

Block = tuple[int, ...]
Exponent = tuple[Block, Block, Block]

BLOCK_NAMES = ("x", "y", "z")


class DomainError(ValueError):
    """Invalid mathematical input (bad system type, singular block, ...)."""


@dataclass(frozen=True)
class SystemType:
    """Shape (nx, ny, nz; r, s) of a square 2-bilinear system.

    The first r equations live in S(1,1,0), the next s in S(1,0,1);
    squareness means r + s = nx + ny + nz, and solvability of the
    block-linear sub-systems requires ny <= r and nz <= s.
    """

    nx: int
    ny: int
    nz: int
    r: int
    s: int

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 0:
            raise DomainError("projective dimensions must be nonnegative")
        if self.r < 1 or self.s < 1:
            raise DomainError("equation counts r, s must be positive")
        if self.r + self.s != self.nx + self.ny + self.nz:
            raise DomainError("invalid 2-bilinear type: r + s != nx + ny + nz")
        if self.ny > self.r or self.nz > self.s:
            raise DomainError("invalid 2-bilinear type: needs ny <= r and nz <= s")

    @property
    def n(self) -> int:
        return self.nx + self.ny + self.nz

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def nvars(self) -> tuple[int, int, int]:
        return (self.nx + 1, self.ny + 1, self.nz + 1)

    def degree_of(self, i: int) -> tuple[int, int, int]:
        """Multidegree of equation slot i, with slot 0 the trilinear one."""
        if i == 0:
            return (1, 1, 1)
        if 1 <= i <= self.r:
            return (1, 1, 0)
        if self.r < i <= self.n:
            return (1, 0, 1)
        raise IndexError(f"no equation slot {i} in a system of {self.n} equations")


def monomial_basis(n_t: int, d: int) -> list[Block]:
    """All exponent vectors of degree-d monomials in n_t + 1 variables.

    Ordered graded reverse lexicographically with variable 0 highest,
    e.g. for two variables and d = 2: (2,0), (1,1), (0,2).
    Empty for d < 0.
    """
    if n_t < 0:
        raise DomainError("n_t must be nonnegative")
    if d < 0:
        return []
    exps = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            exps.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            fill(prefix + (e,), remaining - e, slots - 1)

    fill((), d, n_t + 1)
    # grevlex descending == ascending lexicographic order of reversed tuples
    exps.sort(key=lambda e: tuple(reversed(e)))
    return exps


def exponent_basis(nvars: tuple[int, int, int], degree: tuple[int, int, int]) -> list[Exponent]:
    """A(d): exponents of all monomials of the given multidegree, x-major."""
    bases = [monomial_basis(nv - 1, d) for nv, d in zip(nvars, degree)]
    return [exp for exp in _product(*bases)]


def mhb(t: SystemType) -> int:
    """Multihomogeneous Bezout bound C(r, ny) * C(s, nz) of the square system."""
    return comb(t.r, t.ny) * comb(t.s, t.nz)


def bezout_coefficient(degrees: list[tuple[int, int, int]], dims: tuple[int, int, int]) -> int:
    """Coefficient of Xx^nx * Xy^ny * Xz^nz in prod_j (dj_x Xx + dj_y Xy + dj_z Xz).

    Computed by exact expansion of the product, truncated to the target
    box to keep intermediate polynomials small.
    """
    nx, ny, nz = dims
    if len(degrees) != nx + ny + nz:
        raise DomainError("need exactly nx + ny + nz degree vectors")
    acc = {(0, 0, 0): 1}
    for dx, dy, dz in degrees:
        nxt = {}
        for (a, b, c), coeff in acc.items():
            for da, db, dc, w in ((1, 0, 0, dx), (0, 1, 0, dy), (0, 0, 1, dz)):
                if w == 0:
                    continue
                key = (a + da, b + db, c + dc)
                if key[0] > nx or key[1] > ny or key[2] > nz:
                    continue
                nxt[key] = nxt.get(key, 0) + coeff * w
        acc = nxt
    return acc.get((nx, ny, nz), 0)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact (int, Fraction or string), got {type(value)!r}")


class MHPoly:
    """A multihomogeneous polynomial: sparse exponent -> Fraction map.

    Invariants: every stored exponent lies in A(degree) for the given
    block sizes, and no zero coefficient is stored.
    """

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars, degree, terms):
        nvars = tuple(int(v) for v in nvars)
        degree = tuple(int(d) for d in degree)
        if len(nvars) != 3 or len(degree) != 3:
            raise DomainError("nvars and degree must have three components")
        if min(nvars) < 1:
            raise DomainError("each block needs at least one variable")
        if min(degree) < 0:
            raise DomainError("polynomial multidegrees must be nonnegative")
        clean = {}
        for exp, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            exp = tuple(tuple(int(e) for e in block) for block in exp)
            for block, nv, d in zip(exp, nvars, degree):
                if len(block) != nv or any(e < 0 for e in block) or sum(block) != d:
                    raise DomainError(f"exponent {exp} not in A({degree})")
            clean[exp] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MHPoly is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, MHPoly)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "MHPoly(0)"
        bits = []
        for exp in sorted(self.terms):
            mono = "".join(
                f"{BLOCK_NAMES[b]}{i}^{e}" if e > 1 else f"{BLOCK_NAMES[b]}{i}"
                for b, block in enumerate(exp)
                for i, e in enumerate(block)
                if e
            )
            bits.append(f"{self.terms[exp]}*{mono or '1'}")
        return "MHPoly(" + " + ".join(bits) + ")"

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.terms.get(exp, Fraction(0))


def monomial_poly(nvars, degree, exp, coeff=1) -> MHPoly:
    return MHPoly(nvars, degree, {exp: coeff})


def zero_poly(nvars, degree) -> MHPoly:
    return MHPoly(nvars, degree, {})


def add(p: MHPoly, q: MHPoly) -> MHPoly:
    if p.nvars != q.nvars or p.degree != q.degree:
        raise DomainError("can only add polynomials of identical multidegree")
    terms = dict(p.terms)
    for exp, c in q.terms.items():
        terms[exp] = terms.get(exp, Fraction(0)) + c
    return MHPoly(p.nvars, p.degree, terms)


def scale(p: MHPoly, factor) -> MHPoly:
    factor = _as_fraction(factor)
    return MHPoly(p.nvars, p.degree, {e: c * factor for e, c in p.terms.items()})


def _block_value(block_exp: Block, coords):
    value = 1
    for e, c in zip(block_exp, coords):
        if e:
            value = value * c ** e
    return value


def evaluate(p: MHPoly, point) -> object:
    """Sum of coeff * x^sx * y^sy * z^sz over the terms of p.

    Accepts a ProjectiveSolution or a triple of coordinate sequences;
    exact when the coordinates are exact, float/complex otherwise.
    """
    bx, by, bz = _point_blocks(point)
    if len(bx) != p.nvars[0] or len(by) != p.nvars[1] or len(bz) != p.nvars[2]:
        raise DomainError("point block lengths do not match the polynomial")
    numeric = any(isinstance(c, (float, complex)) for c in (*bx, *by, *bz))
    total = 0
    for (sx, sy, sz), coeff in p.terms.items():
        value = _block_value(sx, bx) * _block_value(sy, by) * _block_value(sz, bz)
        total += (complex(coeff) if numeric else coeff) * value
    return total


def partial_evaluate_xy(p: MHPoly, alpha_x, alpha_y) -> MHPoly:
    """The polynomial p(alpha_x, alpha_y) in z, i.e. p / (x0^dx y0^dy) at alpha.

    Requires alpha_x[0] != 0 and alpha_y[0] != 0 (the normalization the
    division refers to); in the solver path a generic coordinate change
    guarantees this.
    """
    alpha_x = tuple(alpha_x)
    alpha_y = tuple(alpha_y)
    if len(alpha_x) != p.nvars[0] or len(alpha_y) != p.nvars[1]:
        raise DomainError("point block lengths do not match the polynomial")
    if any(isinstance(c, (float, complex)) for c in alpha_x + alpha_y):
        raise DomainError("partial_evaluate_xy is exact-only")
    if alpha_x[0] == 0 or alpha_y[0] == 0:
        raise DomainError("partial evaluation needs nonzero first coordinates")
    dx, dy, dz = p.degree
    denom = Fraction(alpha_x[0]) ** dx * Fraction(alpha_y[0]) ** dy
    out: dict[Block, Fraction] = {}
    for (sx, sy, sz), coeff in p.terms.items():
        value = coeff * _block_value(sx, alpha_x) * _block_value(sy, alpha_y)
        out[sz] = out.get(sz, Fraction(0)) + value
    terms = {
        ((0,) * p.nvars[0], (0,) * p.nvars[1], sz): value / denom
        for sz, value in out.items()
    }
    return MHPoly(p.nvars, (0, 0, dz), terms)


@dataclass(frozen=True)
class ProjectiveSolution:
    """A point of P^nx x P^ny x P^nz as three coordinate blocks."""

    x: tuple
    y: tuple
    z: tuple

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for block in self.blocks:
            if not any(block):
                raise DomainError("each block of a projective point must be nonzero")

    @property
    def blocks(self):
        return (self.x, self.y, self.z)

    def normalized(self, tol: float = 0.0) -> "ProjectiveSolution":
        """Scale each block so its first (significantly) nonzero entry is 1."""
        out = []
        for block in self.blocks:
            threshold = tol * max(abs(c) for c in block)
            lead = next((i for i, c in enumerate(block) if abs(c) > threshold), None)
            if lead is None:
                raise DomainError("cannot normalize a zero block")
            scaled = [c / block[lead] for c in block]
            scaled[lead] = type(scaled[lead])(1)  # complex c / c is not always exactly 1
            out.append(tuple(scaled))
        return ProjectiveSolution(*out)


def _point_blocks(point):
    if isinstance(point, ProjectiveSolution):
        return point.blocks
    bx, by, bz = point
    return tuple(bx), tuple(by), tuple(bz)


@dataclass(frozen=True)
class BilinearSystem:
    """r polynomials in S(1,1,0) followed by s in S(1,0,1), plus optional f0."""

    type: SystemType
    f: tuple
    f0: MHPoly | None = None

    def __post_init__(self):
        t = self.type
        object.__setattr__(self, "f", tuple(self.f))
        if len(self.f) != t.n:
            raise DomainError(f"expected {t.n} equations, got {len(self.f)}")
        for i, poly in enumerate(self.f, start=1):
            if poly.nvars != t.nvars or poly.degree != t.degree_of(i):
                raise DomainError(f"equation {i} has multidegree {poly.degree}, "
                                  f"expected {t.degree_of(i)}")
        if self.f0 is not None:
            if self.f0.nvars != t.nvars or self.f0.degree != (1, 1, 1):
                raise DomainError("f0 must be trilinear of matching block sizes")

    def poly(self, i: int) -> MHPoly:
        """Equation slot i, with slot 0 the trilinear f0."""
        if i == 0:
            if self.f0 is None:
                raise DomainError("system has no f0")
            return self.f0
        return self.f[i - 1]

    def with_f0(self, f0: MHPoly) -> "BilinearSystem":
        return BilinearSystem(self.type, self.f, f0)


@dataclass(frozen=True)
class CoordinateChange:
    """Blockwise invertible substitution x -> Ax x, y -> Ay y, z -> Az z."""

    ax: tuple
    ay: tuple
    az: tuple

    def __post_init__(self):
        for name in ("ax", "ay", "az"):
            mat = tuple(tuple(row) for row in getattr(self, name))
            object.__setattr__(self, name, mat)
            size = len(mat)
            if any(len(row) != size for row in mat):
                raise DomainError(f"{name} is not square")
            if not _invertible(mat):
                raise DomainError(f"{name} is singular")

    @property
    def blocks(self):
        return (self.ax, self.ay, self.az)


@lru_cache(maxsize=64)
def _invertible(mat: tuple) -> bool:
    """Whether the square tuple-of-tuples block has a nonzero det. Cached, so
    CoordinateChange reuses the check random_coordinate_change just made."""
    from . import exactlinalg

    return exactlinalg.det(exactlinalg.ExactMatrix([list(row) for row in mat])) != 0


def random_coordinate_change(t: SystemType, seed, bound: int = 5) -> CoordinateChange:
    """Per-block integer matrices, entries uniform in [-bound, bound],
    resampled until every block is invertible."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    blocks = []
    for nv in t.nvars:
        while True:
            mat = tuple(tuple(Fraction(rng.randint(-bound, bound)) for _ in range(nv))
                        for _ in range(nv))
            if _invertible(mat):
                break
        blocks.append(mat)
    return CoordinateChange(*blocks)


def _substitute_block(sigma: Block, mat) -> dict[Block, Fraction]:
    """Expand prod_i (row_i . vars)^sigma_i as exponent -> coefficient."""
    nv = len(sigma)
    acc = {(0,) * nv: Fraction(1)}
    for i, power in enumerate(sigma):
        row = mat[i]
        lin = {}
        for j, a in enumerate(row):
            if a:
                unit = tuple(1 if k == j else 0 for k in range(nv))
                lin[unit] = _as_fraction(a)
        for _ in range(power):
            nxt = {}
            for e1, c1 in acc.items():
                for e2, c2 in lin.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    nxt[key] = nxt.get(key, Fraction(0)) + c1 * c2
            acc = nxt
    return acc


def compose_poly(p: MHPoly, change: CoordinateChange) -> MHPoly:
    """p composed with the substitution, same multidegree."""
    terms: dict[Exponent, Fraction] = {}
    for exp, coeff in p.terms.items():
        parts = [_substitute_block(block, mat) for block, mat in zip(exp, change.blocks)]
        for ex, cx in parts[0].items():
            for ey, cy in parts[1].items():
                cxy = cx * cy
                for ez, cz in parts[2].items():
                    key = (ex, ey, ez)
                    terms[key] = terms.get(key, Fraction(0)) + coeff * cxy * cz
    return MHPoly(p.nvars, p.degree, terms)


def apply_coordinate_change(sys: BilinearSystem, change: CoordinateChange) -> BilinearSystem:
    f = tuple(compose_poly(p, change) for p in sys.f)
    f0 = compose_poly(sys.f0, change) if sys.f0 is not None else None
    return BilinearSystem(sys.type, f, f0)


def transform_point(change: CoordinateChange, point) -> ProjectiveSolution:
    """Blockwise matrix-vector product A . alpha (maps roots of f∘A to roots of f)."""
    blocks = []
    for mat, coords in zip(change.blocks, _point_blocks(point)):
        blocks.append(tuple(sum(_mixed_mul(a, c) for a, c in zip(row, coords)) for row in mat))
    return ProjectiveSolution(*blocks)


def _mixed_mul(a, c):
    if isinstance(c, (float, complex)):
        return complex(a) * c
    return _as_fraction(a) * c


def random_system(t: SystemType, seed, coeff_bound: int = 10) -> BilinearSystem:
    """Deterministic random system, integer coefficients in [-bound, bound],
    resampling any identically zero polynomial."""
    if coeff_bound < 1:
        raise DomainError("coeff_bound must be at least 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    polys = []
    for i in range(1, t.n + 1):
        exps = exponent_basis(t.nvars, t.degree_of(i))
        while True:
            terms = {e: rng.randint(-coeff_bound, coeff_bound) for e in exps}
            if any(terms.values()):
                break
        polys.append(MHPoly(t.nvars, t.degree_of(i), terms))
    return BilinearSystem(t, tuple(polys))


def planted_poly(nvars, degree, point, rng, coeff_bound: int = 10) -> MHPoly:
    """A random polynomial of the given multidegree vanishing at the point.

    Sampled from the kernel of the evaluation functional: pick the first
    monomial with nonzero value at the point as pivot, draw the other
    coefficients and solve the single linear condition for the pivot
    (cross-multiplied so exact integer points give integer polynomials).
    """
    blocks = _point_blocks(point)
    exps = exponent_basis(nvars, degree)
    values = [
        _block_value(sx, blocks[0]) * _block_value(sy, blocks[1]) * _block_value(sz, blocks[2])
        for (sx, sy, sz) in exps
    ]
    pivot = next((j for j, v in enumerate(values) if v != 0), None)
    if pivot is None:
        raise DomainError("point annihilates every monomial of this multidegree")
    while True:
        draws = {j: rng.randint(-coeff_bound, coeff_bound) for j in range(len(exps)) if j != pivot}
        if any(draws.values()) or len(exps) == 1:
            break
    terms = {exps[j]: _as_fraction(c) * values[pivot] for j, c in draws.items()}
    terms[exps[pivot]] = -sum((_as_fraction(c) * values[j] for j, c in draws.items()), Fraction(0))
    return _primitive(MHPoly(nvars, degree, terms))


def _primitive(p: MHPoly) -> MHPoly:
    """Scale to coprime integer coefficients (root set unchanged)."""
    if not p.terms:
        return p
    denom = 1
    for c in p.terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    nums = [c.numerator * (denom // c.denominator) for c in p.terms.values()]
    g = 0
    for v in nums:
        g = gcd(g, v)
    factor = Fraction(denom, g if g else 1)
    return scale(p, factor)


def planted_root_system(t: SystemType, alpha, seed, coeff_bound: int = 10,
                        include_f0: bool = False) -> BilinearSystem:
    """Random system with every equation vanishing at alpha (oracle construction)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    polys = tuple(
        planted_poly(t.nvars, t.degree_of(i), alpha, rng, coeff_bound)
        for i in range(1, t.n + 1)
    )
    f0 = planted_poly(t.nvars, (1, 1, 1), alpha, rng, coeff_bound) if include_f0 else None
    return BilinearSystem(t, polys, f0)


# -- serialization ------------------------------------------------------

def exponent_key(exp: Exponent) -> str:
    return "|".join(",".join(str(e) for e in block) for block in exp)


def parse_exponent_key(key: str, nvars) -> Exponent:
    blocks = key.split("|")
    if len(blocks) != 3:
        raise DomainError(f"exponent key {key!r} must have three | separated blocks")
    exp = tuple(tuple(int(e) for e in block.split(",")) for block in blocks)
    for block, nv in zip(exp, nvars):
        if len(block) != nv:
            raise DomainError(f"exponent key {key!r} does not match block sizes {nvars}")
    return exp


def poly_to_obj(p: MHPoly) -> dict:
    return {
        "degree": list(p.degree),
        "terms": {exponent_key(e): str(c) for e, c in sorted(p.terms.items())},
    }


def _require(obj, key: str, what: str):
    if not isinstance(obj, dict) or key not in obj:
        raise DomainError(f"{what} needs a {key!r} key")
    return obj[key]


def poly_from_obj(obj: dict, nvars) -> MHPoly:
    degree = tuple(_require(obj, "degree", "a polynomial"))
    try:
        terms = {parse_exponent_key(k, nvars): Fraction(v)
                 for k, v in _require(obj, "terms", "a polynomial").items()}
    except ZeroDivisionError as exc:
        raise DomainError(f"a coefficient has a zero denominator ({exc})") from None
    return MHPoly(nvars, degree, terms)


def system_to_obj(sys: BilinearSystem) -> dict:
    t = sys.type
    obj = {
        "type": {"nx": t.nx, "ny": t.ny, "nz": t.nz, "r": t.r, "s": t.s},
        "polys": [poly_to_obj(p) for p in sys.f],
    }
    if sys.f0 is not None:
        obj["f0"] = poly_to_obj(sys.f0)
    return obj


def system_from_obj(obj: dict) -> BilinearSystem:
    td = _require(obj, "type", "a system")
    t = SystemType(*(_require(td, key, "a system type") for key in ("nx", "ny", "nz", "r", "s")))
    polys = tuple(poly_from_obj(p, t.nvars) for p in _require(obj, "polys", "a system"))
    f0 = poly_from_obj(obj["f0"], t.nvars) if "f0" in obj else None
    return BilinearSystem(t, polys, f0)
