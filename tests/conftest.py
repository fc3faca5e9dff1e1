import random

import pytest

from residua.bitset import bits, full_mask
from residua.errors import NotBelow
from residua.lattice import as_lattice, build_poset, inclusion_lattice
from residua.generators import (
    CATALOG_NAMES,
    boolean,
    chain,
    divisor,
    load_catalog_group,
    random_distributive,
    subgroup_lattice,
)


@pytest.fixture(scope="session")
def b2():
    return boolean(2)


@pytest.fixture(scope="session")
def b3():
    return boolean(3)


@pytest.fixture(scope="session")
def chain3():
    return chain(3)


@pytest.fixture(scope="session")
def div12():
    return divisor(12)


@pytest.fixture(scope="session")
def n5():
    # pentagon: 0 < a < 1 and 0 < b < c < 1
    p = build_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")],
    )
    return as_lattice(p, provenance="N5")


@pytest.fixture(scope="session")
def m3():
    # diamond with three incomparable atoms
    p = build_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )
    return as_lattice(p, provenance="M3")


def moore_family(rng, points):
    """A random intersection-closed family of subsets of ``points`` points
    that contains the full set: a lattice under inclusion, often not a
    distributive one."""
    family = {full_mask(points)} | {rng.getrandbits(points) for _ in range(rng.randint(2, 9))}
    while True:
        closed = family | {a & b for a in family for b in family}
        if closed == family:
            return family
        family = closed


@pytest.fixture(scope="session")
def lattice_corpus():
    """Differential-test corpus: the subgroup lattices of the catalog
    groups, seeded ``random:`` lattices and seeded Moore families."""
    corpus = [subgroup_lattice(load_catalog_group(name)) for name in CATALOG_NAMES]
    corpus += [random_distributive(seed, 40) for seed in range(20)]
    rng = random.Random(3)
    for k in range(600):
        points = rng.randint(3, 6)
        names = [f"p{i}" for i in range(points)]
        corpus.append(inclusion_lattice(moore_family(rng, points), names, f"moore#{k}"))
    return corpus


def co_heyting_scan(L, x, z):
    """x - z on any finite lattice by its definition: the meet of the
    y <= x with z v y = x, one verified fold.  ``co_heyting_sub`` takes
    this scan on non-distributive lattices only; it is the reference for
    the closed form it uses on distributive ones."""
    if not L.leq(z, x):
        raise NotBelow(f"{L.names[z]} is not below {L.names[x]}")
    jz = L.join[z]
    return L.meet_of_set([y for y in bits(L.down_set(x)) if jz[y] == x])


def birkhoff_rows(p, join) -> bool:
    """Birkhoff's criterion: a finite lattice is distributive iff
    ``J(x v y) = J(x) | J(y)`` for all x, y, where ``J(x)`` is the set of
    join-irreducibles (elements with exactly one lower cover) below x.
    Only the rows x in J are compared: every x is the join of J(x), so by
    induction on |J(x)| the law for each j in J and all y gives it for
    all x, y.  It reads a true join table; ``as_lattice`` decides
    distributivity from the order rows alone, and this is its oracle."""
    irreducibles = p.irreducibles
    J = [row & irreducibles for row in p.down]
    return all(
        list(map(J.__getitem__, join[j])) == list(map(J[j].__or__, J)) for j in bits(irreducibles)
    )
