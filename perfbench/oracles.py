"""Closed-form answers the benchmark checks the program against.

Nothing here imports residua: every expected value is derived from
arithmetic or from a published fact about the structure, never from
the code path being timed.
"""

from __future__ import annotations

from math import inf as INF

# Subgroup counts of the non-cyclic catalog groups.
NONCYCLIC_SUBGROUPS = {"s3": 6, "d4": 10, "q8": 6, "a4": 10, "z2xz4": 8, "z2xz2xz2": 16}

# Order of the Frattini subgroup of each non-cyclic catalog group:
# Phi(S3) = Phi(A4) = Phi(Z2^3) = 1, Phi(D4) = Phi(Q8) = Z(G) of order 2,
# Phi(Z2 x Z4) = Phi(Z2) x Phi(Z4) of order 2.
NONCYCLIC_FRATTINI_ORDER = {"s3": 1, "d4": 2, "q8": 2, "a4": 1, "z2xz4": 2, "z2xz2xz2": 1}

# Laws that hold on every finite lattice; the other 23 need distributivity
# (the coframe law) and are skipped on a non-distributive lattice.
LAWS_WITHOUT_COFRAME = frozenset({"maximals_join", "downset_upper_complete", "k_lower_semilattice"})

# Laws that need finite enumeration and are skipped on the ordinal testbed.
LAWS_FINITE_ONLY = frozenset(
    {
        "strata_ranked",
        "stratum0_characterization",
        "delta_equals_delta_plus",
        "subelement_decomp",
        "minmax_bound",
        "boundary_removal_descent",
        "core_union",
        "core_decomp",
        "t0_upper_semilattice",
        "downset_upper_complete",
    }
)

LAW_COUNT = 26


def factorize(n: int) -> dict:
    """Prime factorisation by trial division: {p: exponent}."""
    out: dict = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisor_count(n: int) -> int:
    count = 1
    for e in factorize(n).values():
        count *= e + 1
    return count


def divisor_counts(limit: int) -> list:
    """d(n) for every n <= limit, by sieve; index 0 is unused."""
    counts = [0] * (limit + 1)
    for i in range(1, limit + 1):
        for j in range(i, limit + 1, i):
            counts[j] += 1
    return counts


def radical(n: int) -> int:
    r = 1
    for p in factorize(n):
        r *= p
    return r


def catalog_subgroup_count(name: str) -> int:
    """A cyclic group Z/n has one subgroup per divisor of n."""
    if name in NONCYCLIC_SUBGROUPS:
        return NONCYCLIC_SUBGROUPS[name]
    return divisor_count(int(name[1:]))


def catalog_distributive(name: str) -> bool:
    """Ore: a finite group's subgroup lattice is distributive iff it is cyclic."""
    return name not in NONCYCLIC_SUBGROUPS


def catalog_frattini_order(name: str) -> int:
    """Phi(Z/n) is the subgroup of order n / rad(n)."""
    if name in NONCYCLIC_FRATTINI_ORDER:
        return NONCYCLIC_FRATTINI_ORDER[name]
    n = int(name[1:])
    return n // radical(n)


def spec_size(spec: str) -> int:
    """Element count of a non-random generator spec."""
    kind, _, arg = spec.partition(":")
    if kind == "chain":
        return int(arg)
    if kind == "boolean":
        return 2 ** int(arg)
    if kind in ("divisor", "zn"):
        return divisor_count(int(arg))
    if kind == "group":
        return catalog_subgroup_count(arg)
    if kind == "product":
        left, _, right = arg.partition("|")
        return spec_size(left) * spec_size(right)
    raise ValueError(f"no closed form for {spec!r}")


def spec_distributive(spec: str) -> bool:
    kind, _, arg = spec.partition(":")
    if kind == "group":
        return catalog_distributive(arg)
    if kind == "product":
        left, _, right = arg.partition("|")
        return spec_distributive(left) and spec_distributive(right)
    return True  # chains, Boolean, divisor and ideal lattices of Z/n


def all_finite(v: tuple) -> bool:
    """On the ordinal testbed a vector is isolated iff it is dually
    compact, i.e. has no infinite coordinate."""
    return INF not in v


def cb_level(v: tuple) -> int:
    """CB level of a testbed vector: its number of infinite coordinates."""
    return sum(1 for c in v if c == INF)
