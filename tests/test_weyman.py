"""Term dimensions, determinantal degree vectors, duality, size formula."""

import random

from bikoszul import weyman
from bikoszul.core import SystemType
from conftest import system_types


def test_cohomology_dim_examples():
    assert weyman.cohomology_dim(1, 0, 2) == 3
    assert weyman.cohomology_dim(1, 1, -3) == 2
    assert weyman.cohomology_dim(1, 0, -1) == 0
    assert weyman.cohomology_dim(1, 1, -2) == 1
    assert weyman.cohomology_dim(2, 2, -2) == 0  # inside the vanishing gap
    assert weyman.cohomology_dim(2, 1, -5) == 0  # middle cohomology always 0


def test_cohomology_self_duality():
    # H^q(d) and H^{n-q}(-d-1-n) are dual, so dimensions agree
    for n_t in range(4):
        for d in range(-8, 8):
            for q in (0, n_t):
                assert weyman.cohomology_dim(n_t, q, d) == \
                    weyman.cohomology_dim(n_t, n_t - q, -d - 1 - n_t)


def test_cohomology_on_a_point():
    # nx = 0: every twist of the point has one-dimensional sections
    assert all(weyman.cohomology_dim(0, 0, d) == 1 for d in range(-5, 6))


def test_term_table_paper_example():
    t = SystemType(1, 1, 1, 2, 1)
    table = weyman.term_table(t, (0, -1, 1))
    assert sorted(table.nonzero_vp()) == [(0, 2), (1, 3)]
    assert table.dim_at(1) == 10
    assert table.dim_at(0) == 10
    entry = [e for e in table.entries if (e.v, e.a, e.b, e.c) == (1, 2, 1, 0)]
    assert len(entry) == 1 and entry[0].dim == 4


def test_term_table_stores_consistent_kinds():
    # stored entries are always positive-dimensional, with kinds gated by
    # the twist sign (in particular no sections factor of negative twist)
    for t in [SystemType(2, 1, 1, 2, 2), SystemType(1, 2, 1, 3, 1),
              SystemType(1, 1, 2, 2, 2), SystemType(0, 2, 2, 2, 2)]:
        for m in weyman.four_degree_vectors(t):
            for e in weyman.term_table(t, m).entries:
                assert e.dim > 0
                twists = (m[0] - e.p, m[1] - (e.p - e.b), m[2] - (e.p - e.a))
                for n_t, kind, twist in zip(t.dims, e.kinds, twists):
                    if kind == "sections":
                        assert twist >= 0
                    else:
                        assert twist < -n_t


def test_is_determinantal_examples():
    t = SystemType(1, 1, 1, 2, 1)
    assert weyman.is_determinantal(t, (0, -1, 1)) == (True, 10, 10)
    assert weyman.is_determinantal(t, (2, 2, -1))[0] is True
    assert weyman.is_determinantal(t, (5, 5, 5))[0] is False


def test_four_degree_vectors_example():
    t = SystemType(1, 1, 1, 2, 1)
    vectors = weyman.four_degree_vectors(t)
    assert vectors[0] == (0, -1, 1)
    assert all(weyman.is_determinantal(t, m)[0] for m in vectors)


def test_vectors_one_and_three_swap_y_and_z():
    for t in [SystemType(2, 1, 2, 2, 3), SystemType(1, 2, 1, 3, 1)]:
        swapped = SystemType(t.nx, t.nz, t.ny, t.s, t.r)
        v = weyman.four_degree_vectors(t)
        w = weyman.four_degree_vectors(swapped)
        assert v[2] == (w[0][0], w[0][2], w[0][1])
        assert v[3] == (w[1][0], w[1][2], w[1][1])


def test_search_box_contains_the_four_vectors():
    t = SystemType(1, 1, 1, 2, 1)
    found = weyman.search_degree_vectors(t, ((-2, 3),) * 3)
    for m in weyman.four_degree_vectors(t):
        assert m in found
    assert found == sorted(found)
    assert weyman.search_degree_vectors(t, ((2, 1),) * 3) == []


def test_default_box_covers_the_four_vectors():
    for t in system_types(6):
        box = weyman.default_box(t)
        for m in weyman.four_degree_vectors(t):
            assert all(lo <= c <= hi for c, (lo, hi) in zip(m, box))


def test_dual_vector():
    t = SystemType(1, 1, 1, 2, 1)
    assert weyman.dual_vector(t, (0, -1, 1)) == (2, 2, -1)
    rng = random.Random(9)
    for _ in range(20):
        m = tuple(rng.randint(-5, 5) for _ in range(3))
        assert weyman.dual_vector(t, weyman.dual_vector(t, m)) == m


def test_duality_of_dimensions():
    rng = random.Random(31)
    types = system_types(6)
    for _ in range(50):
        t = rng.choice(types)
        m = tuple(rng.randint(-4, 4) for _ in range(3))
        dual = weyman.dual_vector(t, m)
        table = weyman.term_table(t, m)
        dual_table = weyman.term_table(t, dual)
        for v in range(-t.n - 1, t.n + 2):
            assert table.dim_at(v) == dual_table.dim_at(1 - v)


def test_mu_values():
    assert weyman.mu(SystemType(1, 1, 1, 2, 1)) == 10
    assert weyman.mu(SystemType(2, 6, 4, 7, 5)) == 630
    assert weyman.mu(SystemType(6, 3, 3, 6, 6)) == 7000


def test_mu_equals_term_dimensions_small_sweep():
    for t in system_types(5):
        size = weyman.mu(t)
        for m in weyman.four_degree_vectors(t):
            ok, d1, d0 = weyman.is_determinantal(t, m)
            assert ok and d1 == d0 == size
