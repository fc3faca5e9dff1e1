"""Executable registry of the residual-calculus laws.

Each law is a checker that quantifies over one lattice instance and
returns Pass, Fail (with a replayable witness) or Skipped (hypothesis
not met: most laws require the coframe law, which for finite lattices is
distributivity).  Every element and pair quantifier runs exhaustively
over the instance's window, and no law draws random numbers: a report
depends on the instance alone.  A ``ResiduaError`` that an instance
raises fails the law (see ``run_law``).

The registry reads an instance ``L`` through one protocol:

- ``L.box(WINDOW_BOUND)``, a finite window of elements;
- ``L.name(x)`` for witnesses and ``L.describe()`` for the report;
- the primitives ``leq``, ``meet2``, ``join2``, ``meet_of_set``,
  ``join_of_set``, ``dually_compact``, ``bottom``, ``top``, ``coframe``
  and ``distributive``;
- optional closed forms ``maximal_subelements``, ``co_heyting_sub``,
  ``outcasts`` and a default-family ``profile``, which ``residual``
  uses when present, and ``window_tables`` (see ``_Ctx.window``).

A finite lattice's window is all of it at any bound, and the ordinal
testbed's is its box.  The fast paths key on the facts they read:

- order rows, ``L.poset``, over elements that are their own positions.
  Laws that need them skip without them, and a family, a set of
  positions, raises ``ValueError`` without them.  The finite-only laws
  read their element quantifiers off the rows as masks, and
  ``coheyting_join`` folds x - z from the join-irreducibles.
- a stored ``L.join`` table over those positions.  Without one the
  run takes it from ``window_tables``, or builds it on first use from
  ``join2`` over the window, with -1 for a join outside it.
- ``L.join_fault`` and ``L.meet_fault``, the first pair whose entry
  breaks the universal property on the order rows.  The laws that fail
  only through a wrong table entry read them instead of scanning the
  tables: ``k_lower_semilattice`` passes or fails at the meet fault,
  ``downset_upper_complete`` and ``boundary_removal_descent`` fail at
  the join fault when no subset they fold fails first, and they and
  ``minmax_bound`` count by arithmetic while the tables they read have
  no fault.

The laws of one run share one ``_Ctx``, and with a family the laws of
``FAMILY_HYPOTHESES`` share a second one in that family: the instance's
description, order-rows flag, window and certification, read once;
profiles and derivatives, which the instance does not keep; the
elements below each x, filtered with ``leq`` unless ``window_tables``
gives them; and three rows by element, the maximal subelements, the
residues x - m by maximal m and the outcasts, each in the run's family.
``residual_profile`` builds each profile on the run's rows: it walks
the derivative row of x down to a fixpoint or to an iterate whose
profile the run keeps, takes everything below from that profile, and
builds the strata from the residue rows of the iterates.  The t-class
of x is the length of its row of maximal subelements.  An entry is
stored only once its fold or cross-check has passed, so a kept profile
holds what the iteration computes, only x's own steps raise, and each
law reports what it reports run alone, on every table and in a family.

Pair quantifiers go by whole rows (``_by_rows``): per row x, lists built
with ``map`` over row x of the join table and per-element lists (t
counts, mus, derivatives, core positions) are compared at once.  A row
pass reads tables only: order rows, the join table and the position
tables of ``window_tables`` (the elements below, meets, x - z, and the
mus' joins and rows below, the box's own when the mus are a window of
its shape).  Without the tables it needs, it decides nothing and the
pair loop runs.  Every call a pair loop's verdict reads
is still made, but for those tables and two theorems: on order rows
``mu_monotone`` compares lower covers only, as the order is transitive,
and with a single core c ``core_join_hom`` reads join[c][c] alone.
``checked`` is added by arithmetic.  A failing row, a table entry of -1,
or any error while the rows gather their facts sends the law back to 0
checked, and its pair loop replays every pair from the start to report
the first failing one, with the pair loop's count and errors.

``coheyting_join``, ``stratum0_characterization``, ``subelement_decomp``
and ``boundary_removal_descent`` fold ``[head, *bits(mask)]`` through
``_Ctx.join_fold``, whose memo, keyed by ``_key(mask)``, is the run's
on certified tables and the law's otherwise.  A fold whose mask minus
its highest bit is stored costs one join entry and one AND; every fold
is verified as ``join_of_set`` verifies it, raises its error, and is
stored only when it passes.

Two corollaries bound what the finite checks can see.  Every core on a
finite lattice is the bottom (mu(x) lies below each lower cover of x),
so the core laws check the tables, not cores.  And its only zero-maximal
element is the bottom, so ``core_decomp``, ``core_union`` and
``t0_upper_semilattice`` quantify over the bottom only.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import compress, repeat
from typing import Callable, Optional

from .bitset import bits, contains, mask_of
from .errors import LatticeIntegrityError, NotBelow, ResiduaError
from .lattice import FiniteLattice
from .residual import (
    co_heyting_sub,
    delta_plus,
    family_is_lattice,
    family_is_upper_semilattice,
    family_mask,
    maximal_subelements,
    outcasts,
    residual_derivative,
    residual_profile,
)


class LawId(Enum):
    COHEYTING_JOIN = "coheyting_join"
    MU_RESIDUE_DECOMP = "mu_residue_decomp"
    CORE_RESIDUE_DECOMP = "core_residue_decomp"
    MAXIMALS_JOIN = "maximals_join"
    MAXIMALS_MEET_MAXIMAL = "maximals_meet_maximal"
    RESIDUE_UNIQUE_MAXIMAL = "residue_unique_maximal"
    MAXIMAL_FORMULA = "maximal_formula"
    MU_RESIDUE_BOUND = "mu_residue_bound"
    OUTCAST_TRICHOTOMY = "outcast_trichotomy"
    STRATA_RANKED = "strata_ranked"
    STRATUM0_CHARACTERIZATION = "stratum0_characterization"
    DELTA_EQUALS_DELTA_PLUS = "delta_equals_delta_plus"
    TYPE_SUBADDITIVE = "type_subadditive"
    SUBELEMENT_DECOMP = "subelement_decomp"
    MU_MONOTONE = "mu_monotone"
    MU_JOIN_HOM = "mu_join_hom"
    MINMAX_BOUND = "minmax_bound"
    BOUNDARY_REMOVAL_DESCENT = "boundary_removal_descent"
    CORE_UNION = "core_union"
    CORE_DECOMP = "core_decomp"
    CORE_JOIN_HOM = "core_join_hom"
    T0_UPPER_SEMILATTICE = "t0_upper_semilattice"
    X_MINUS_BOUNDARY_T0 = "x_minus_boundary_t0"
    DOWNSET_UPPER_COMPLETE = "downset_upper_complete"
    K_LOWER_SEMILATTICE = "k_lower_semilattice"
    MAXIMALS_DUALLY_COMPACT = "maximals_dually_compact"


# boundary_removal_descent folds every removal set of a boundary poset of
# up to SUBSET_EXHAUSTIVE_BITS members.
SUBSET_EXHAUSTIVE_BITS = 12

# A run's window is ``L.box(WINDOW_BOUND)``.
WINDOW_BOUND = 4


@dataclass
class LawReport:
    law: str
    instance: str
    verdict: str  # "pass" | "fail" | "skipped"
    checked: int = 0
    exhaustive: bool = True  # every element and pair quantifier runs in full
    reason: Optional[str] = None
    witness: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {
            "law": self.law,
            "instance": self.instance,
            "verdict": self.verdict,
            "checked": self.checked,
            "exhaustive": self.exhaustive,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = {k: v for k, v in self.witness.items() if k != "indices"}
        return out


_EXACT_HASH = 1 << 61


def _key(mask: int):
    """A dict key for a mask that Python hashes well.  An int hashes to
    itself modulo 2**61 - 1, so masks that differ only in bits i and
    i + 61 collide (the 1,024 up rows of chain:1024 take 61 hashes);
    from 2**61 up the key is the mask's bytes, whose hash mixes every bit."""
    return mask if mask < _EXACT_HASH else mask.to_bytes((mask.bit_length() + 7) // 8, "little")


class _Ctx:
    """One run on an instance, its window and a family: what the laws of
    one ``run_all`` (or one ``run_law``) share.  It is dropped when the
    run returns, so nothing is stored on the instance.

    ``family`` is a normalized mask, or None for the default family.
    The instance's description, order-rows flag, window and certification
    are read once; tables are certified when order rows show no join or
    meet fault, as for every lattice ``as_lattice`` builds.  ``profiles``,
    ``derivatives``, ``maximal_row``, ``residue_row`` and ``outcast_row``
    hold, by element and in the run's family, the profile, the
    derivative, the maximal subelements, the dict of x - m by maximal m,
    and the outcasts.  An entry is stored only once its fold or
    cross-check has passed, so a faulty table raises the same error at
    every read, and each profile is built on the profile kept for an
    iterate of its element.  The row passes read ``mus`` and
    ``mu_window``, the mus and their ``window_tables``, once per run.

    ``checked`` is the running law's count, and ``folds`` the
    verified-fold memo of ``join_fold``.  ``run_law`` resets the count
    before each law, and the folds too unless the tables are certified."""

    def __init__(self, L, family=None):
        self.L = L
        self.family = family
        self.name = L.name
        self.instance = L.describe()
        self.order_rows = hasattr(L, "poset")
        self.certified = self.order_rows and L.join_fault is None and L.meet_fault is None
        self.elements = L.box(WINDOW_BOUND)
        self.profiles, self.derivatives = {}, {}
        self.maximal_row, self.residue_row, self.outcast_row = {}, {}, {}
        self.folds = {}  # head -> _key(mask) -> verified fold
        self.checked = 0

    def profile(self, x):
        """``residual_profile`` in the run's family, built on the run's
        rows and on the profile the run keeps for an iterate of x."""
        got = self.profiles.get(x)
        if got is None:
            got = self.profiles[x] = residual_profile(self.L, x, self.family, rows=self)
        return got

    # The run's element rows.  Each is filled through this module's
    # ``maximal_subelements``, ``co_heyting_sub``, ``outcasts`` and
    # ``residual_derivative``, looked up at call time, so a replacement
    # bound there reaches every entry.  The lists and dicts they return
    # are the stored entries: readers must not change them.

    def maximals(self, x) -> list:
        """``maximal_subelements`` in the run's family."""
        row = self.maximal_row
        got = row.get(x)
        if got is None:
            got = row[x] = maximal_subelements(self.L, x, self.family)
        return got

    def t(self, x) -> int:
        """The t-class of x: how many maximal subelements it has.  The
        laws that read it run in the default family."""
        return len(self.maximals(x))

    def residue(self, x, m):
        """``co_heyting_sub(L, x, m)`` for a maximal subelement m of x,
        kept in the run's residue row once its fold has passed."""
        got = self.residue_row.get(x)
        if got is None:
            got = self.residue_row[x] = {}
        r = got.get(m)
        if r is None:
            r = got[m] = co_heyting_sub(self.L, x, m)
        return r

    def residues(self, x) -> dict:
        """The dict of x - m by maximal subelement m of x, in maximal
        order: the run's row entry, made whole and put in that order on
        first read."""
        maxes = self.maximals(x)
        got = self.residue_row.get(x)
        if got is None or list(got) != maxes:
            residue = self.residue
            got = self.residue_row[x] = {m: residue(x, m) for m in maxes}
        return got

    def outcasts(self, x) -> list:
        """``outcasts`` in the run's family, kept once its boundary
        cross-check, which joins the residue row of x and runs in the
        default family only, has passed."""
        row = self.outcast_row
        got = row.get(x)
        if got is None:
            got = row[x] = outcasts(self.L, x, self.family, residues_of=self.residues)
        return got

    def derivative(self, x):
        """``residual_derivative`` in the run's family."""
        row = self.derivatives
        mu = row.get(x)
        if mu is None:
            mu = row[x] = residual_derivative(self.L, x, self.family, maximals_of=self.maximals)
        return mu

    @cached_property
    def index(self) -> dict:
        """Position of each element in ``elements``."""
        return {x: i for i, x in enumerate(self.elements)}

    def pairs(self):
        """Every ordered element pair, row-major."""
        return itertools.product(self.elements, repeat=2)

    @cached_property
    def window(self):
        """``L.window_tables(elements)`` for an instance that stores no
        join table: position tables of what ``join2``, ``leq``, ``meet2``
        and x - z would give.  None when there are none."""
        L = self.L
        if getattr(L, "join", None) is None and hasattr(L, "window_tables"):
            return L.window_tables(self.elements)
        return None

    @cached_property
    def join_table(self):
        """Row i, entry k: the position of ``elements[i] v elements[k]``.

        An instance's stored ``L.join`` is this table.  Otherwise it is
        the closed form of ``window_tables``, or built on first use in a
        run, row by row with ``map``, one ``join2`` per ordered pair, for
        the row passes and pair loops of every pair law; an entry is -1
        when the join lies outside the elements, which only a faulty
        ``join2`` can produce."""
        table = getattr(self.L, "join", None)
        if table is None and self.window is not None:
            table = self.window.join
        if table is None:
            els, join2, get = self.elements, self.L.join2, self.index.get
            table = [list(map(get, map(join2, repeat(x), els), repeat(-1))) for x in els]
        return table

    @cached_property
    def row_table(self):
        """The join table for a row pass, or None when an entry is -1 (a
        join outside the elements, which only a faulty ``join2`` makes):
        the pair loop decides those."""
        table = self.join_table
        return None if any(map(operator.contains, table, repeat(-1))) else table

    def join_pairs(self):
        """(i, k, j) for every ordered pair, row-major: the positions of
        x, z and x v z, read from the join table, with j -1 when x v z is
        not in ``elements``."""
        return ((i, k, j) for i, row in enumerate(self.join_table) for k, j in enumerate(row))

    def join_fold(self, head: int, mask: int) -> int:
        """``L.join_of_set([head, *bits(mask)])`` on order rows, with
        the same left fold, check, error and witness, through a memo that
        lives as long as the law, or the run on certified tables.

        Only verified folds are stored, and a verified fold's common upper
        bounds are up(acc), so the memo keeps acc alone, by head and then
        by ``_key(mask)``.  A fold whose mask minus its highest bit t is
        stored extends it by one join entry and one AND: join[acc][t],
        with up[acc] & up[t] as the upper bounds to check.  Any other fold
        is folded in full."""
        folds = self.folds.get(head)
        if folds is None:
            folds = self.folds[head] = {}
        key = _key(mask)
        acc = folds.get(key)
        if acc is not None:
            return acc
        up, join = self.L.poset.up, self.L.join
        top = mask.bit_length() - 1
        prefix = folds.get(_key(mask ^ (1 << top))) if mask else None
        if prefix is not None:
            acc, upper = join[prefix][top], up[prefix] & up[top]
        else:
            acc, upper, rest = head, up[head], mask
            while rest:  # the members in ascending order, as bits(mask)
                low = rest & -rest
                rest ^= low
                low = low.bit_length() - 1
                acc, upper = join[acc][low], upper & up[low]
        if upper != up[acc]:
            raise self.L._join_violation([head, *bits(mask)], acc)
        folds[key] = acc
        return acc

    def join_of_mask(self, mask: int) -> int:
        """``L.join_of_set(bits(mask))`` through ``join_fold``, headed by
        the lowest member; the empty join is the bottom."""
        if not mask:
            return self.L.bottom
        low = mask & -mask
        return self.join_fold(low.bit_length() - 1, mask ^ low)

    @cached_property
    def _below(self) -> dict:
        """The window's below rows as element rows, by element."""
        if self.window is None:
            return {}
        at = self.elements.__getitem__
        return {x: list(map(at, row)) for x, row in zip(self.elements, self.window.below)}

    def below(self, x):
        """The elements z with ``leq(z, x)``, in element order: the row of
        ``window_tables``, or filtered once per run, so that a wrong
        ``leq`` reaches the pair loops."""
        row = self._below
        got = row.get(x)
        if got is None:
            els = self.elements
            got = row[x] = list(compress(els, map(self.L.leq, els, repeat(x))))
        return got

    @cached_property
    def mus(self) -> list:
        """Each element's mu; the row passes read it, the pair loops do not."""
        return [self.profile(x).mu for x in self.elements]

    @cached_property
    def mu_window(self):
        """``L.window_tables(mus)`` when the window has tables, else None."""
        return self.window and self.L.window_tables(self.mus)

    @cached_property
    def family_holds(self) -> dict:
        """Which hypotheses of ``FAMILY_HYPOTHESES`` the run's family
        meets, checked once per run."""
        L, fam = self.L, self.family
        return {
            "bottom": contains(fam, L.bottom),
            "upper_semilattice": family_is_upper_semilattice(L, fam),
            "lattice": family_is_lattice(L, fam),
        }

    def witness(self, _data: Optional[dict] = None, **elems) -> dict:
        out = {k: self.name(v) for k, v in elems.items()}
        if _data:
            out.update(_data)
        out["indices"] = dict(elems)
        return out


@dataclass(frozen=True)
class LawSpec:
    law: LawId
    invariant_key: str
    requires_coframe: bool
    requires_distributive: bool
    needs_order_rows: bool
    fn: Callable


# -- checkers -------------------------------------------------------------
# Each returns (ok, witness): ok True/False, or None with a skip reason.


def _by_rows(ctx, rows, pairs):
    """Decide a pair law by whole rows, or replay its pair loop.

    ``rows(ctx)`` decides each row x at once and, when every row passes,
    adds the pair loop's ``checked`` count.  It may reject a row that the
    pair loop would pass, never the reverse.  On a rejected row, or on any
    error while the rows gather their facts (a profile or a primitive at
    an element the pair loop might never reach), ``checked`` goes back to
    0 and ``pairs(ctx)`` runs from the start, so the first witness, the
    count and any error raised are the pair loop's."""
    try:
        if rows(ctx):
            return True, None
    except Exception:
        pass  # the pair loop raises it again if it reaches it
    ctx.checked = 0
    return pairs(ctx)


def _check_coheyting_join(ctx):
    """z v (x - z) = x.  On distributive order rows x - z is the verified
    join of the join-irreducibles below x and not below z, as in
    ``co_heyting_sub``; its folds share prefixes through ``join_fold``."""
    L = ctx.L
    rows = getattr(L, "poset", None)
    if rows is not None and L.distributive:
        down, join = rows.down, L.join
        for x in ctx.elements:
            under = rows.irreducibles & down[x]
            for z in bits(down[x]):
                ctx.checked += 1
                s = ctx.join_of_mask(under & ~down[z])
                if join[z][s] != x:
                    return False, ctx.witness(x=x, z=z, sub=s)
        return True, None
    return _by_rows(ctx, _coheyting_join_rows, _coheyting_join_pairs)


def _coheyting_join_rows(ctx):
    """Row x: ``join[z][x - z] == x`` by position for every z below x,
    read from the window's x - z rows; without them the pair loop
    decides."""
    subs = ctx.window and ctx.window.sub_rows()
    if subs is None:
        return False
    join = ctx.join_table
    for x, (zs, sub) in enumerate(subs):
        if list(map(operator.getitem, map(join.__getitem__, zs), sub)) != [x] * len(zs):
            return False
        ctx.checked += len(zs)
    return True


def _coheyting_join_pairs(ctx):
    L = ctx.L
    for x in ctx.elements:
        for z in ctx.below(x):
            ctx.checked += 1
            s = co_heyting_sub(L, x, z)
            if L.join2(z, s) != x:
                return False, ctx.witness(x=x, z=z, sub=s)
    return True, None


def _check_mu_residue_decomp(ctx):
    L = ctx.L
    for x in ctx.elements:
        ctx.checked += 1
        p = ctx.profile(x)
        got = L.join_of_set([p.mu, *p.residues.values()])
        if got != x:
            return False, ctx.witness(x=x, mu=p.mu, got=got)
    return True, None


def _check_core_residue_decomp(ctx):
    L = ctx.L
    for x in ctx.elements:
        ctx.checked += 1
        p = ctx.profile(x)
        got = L.join_of_set([p.core, *p.residues.values()])
        if got != x:
            return False, ctx.witness(x=x, core=p.core, got=got)
    return True, None


def _check_maximals_join(ctx):
    L = ctx.L
    for x in ctx.elements:
        for y, z in itertools.combinations(ctx.maximals(x), 2):
            ctx.checked += 1
            if L.join2(y, z) != x:
                return False, ctx.witness(x=x, y=y, z=z)
    return True, None


def _check_maximals_meet_maximal(ctx):
    L = ctx.L
    for x in ctx.elements:
        for y, z in itertools.combinations(ctx.maximals(x), 2):
            ctx.checked += 1
            w = L.meet2(y, z)
            if w not in ctx.maximals(y) or w not in ctx.maximals(z):
                return False, ctx.witness(x=x, y=y, z=z, meet=w)
    return True, None


def _check_residue_unique_maximal(ctx):
    L = ctx.L
    for x in ctx.elements:
        for m in ctx.maximals(x):
            ctx.checked += 1
            r = ctx.residue(x, m)
            sub_max = ctx.maximals(r)
            if len(sub_max) != 1:
                return False, ctx.witness({"count": len(sub_max)}, x=x, m=m, residue=r)
            if not L.leq(ctx.derivative(r), m):
                return False, ctx.witness({"violated": "derivative bound"}, x=x, m=m, residue=r)
            if ctx.outcasts(r):
                return False, ctx.witness({"violated": "no outcast"}, x=x, m=m, residue=r)
    return True, None


def _check_maximal_formula(ctx):
    L = ctx.L
    for x in ctx.elements:
        p = ctx.profile(x)
        for m in p.maximal:
            ctx.checked += 1
            others = [r for k, r in p.residues.items() if k != m]
            if L.join_of_set([p.mu, *others]) != m:
                return False, ctx.witness(x=x, m=m)
    return True, None


def _check_mu_residue_bound(ctx):
    L = ctx.L
    for x in ctx.elements:
        p = ctx.profile(x)
        bound = L.join_of_set(list(p.residues.values()))
        for m in ctx.maximals(p.mu):
            ctx.checked += 1
            if not L.leq(ctx.residue(p.mu, m), bound):
                return False, ctx.witness(x=x, mu=p.mu, m=m)
    return True, None


def _check_outcast_trichotomy(ctx):
    L = ctx.L
    for x in ctx.elements:
        ctx.checked += 1
        p = ctx.profile(x)
        has = bool(ctx.outcasts(x))
        core_escapes = not L.leq(p.core, p.boundary)
        boundary_strict = p.boundary != x
        if not (has == core_escapes == boundary_strict):
            return False, ctx.witness(
                {
                    "has_outcast": has,
                    "core_not_below_boundary": core_escapes,
                    "boundary_strict": boundary_strict,
                },
                x=x,
            )
    return True, None


def _check_strata_ranked(ctx):
    """Each stratum is an antichain, and s < t in the boundary poset puts
    s in a later stratum than t.

    Both quantifiers over t are masks: a later member t of the stratum of
    s is comparable with it iff t is in up(s) | down(s), and s < t breaks
    the rank order iff t is in up(s) among the members whose stratum is
    not earlier than that of s.  The lowest such bit is the t that the
    pair loops over sorted strata would reach first."""
    up, down = ctx.L.poset.up, ctx.L.poset.down
    for x in ctx.elements:
        ctx.checked += 1
        p = ctx.profile(x)
        seen = {}
        for a, stratum in enumerate(p.strata):
            for s in stratum:
                if s in seen:
                    return False, ctx.witness({"strata": [seen[s], a]}, x=x, s=s)
                seen[s] = a
            later = mask_of(stratum)
            for s in stratum:
                later ^= 1 << s
                hit = (up[s] | down[s]) & later
                if hit:
                    return False, ctx.witness({"violated": "antichain"}, x=x, s=s, t=next(bits(hit)))
        # from_stratum[a]: the members whose stratum index is a or more
        from_stratum = [0] * (len(p.strata) + 1)
        for s, a in p.rho.items():
            from_stratum[a] |= 1 << s
        for a in range(len(p.strata) - 1, -1, -1):
            from_stratum[a] |= from_stratum[a + 1]
        for s in p.boundary_poset:
            hit = up[s] & from_stratum[p.rho[s]] & ~(1 << s)
            if hit:
                return False, ctx.witness({"violated": "rank order"}, x=x, s=s, t=next(bits(hit)))
    return True, None


def _check_stratum0_characterization(ctx):
    """Stratum 0 is the join-irredundant part of delta-plus.  The joins
    of delta-plus minus one member are verified folds through
    ``join_fold``: on a chain those of x extend those of the x below."""
    L = ctx.L
    for x in ctx.elements:
        ctx.checked += 1
        p = ctx.profile(x)
        dplus = delta_plus(L, x, core=p.core)
        members = mask_of(dplus)
        expected = {s for s in dplus if not L.leq(s, ctx.join_of_mask(members & ~(1 << s)))}
        s0 = set(p.strata[0]) if p.strata else set()
        if s0 != expected:
            return False, ctx.witness(
                {
                    "stratum0": [ctx.name(s) for s in sorted(s0)],
                    "characterized": [ctx.name(s) for s in sorted(expected)],
                },
                x=x,
            )
        for s in s0:
            m = ctx.join_fold(p.core, members & ~(1 << s))
            if m not in p.maximal or L.join2(s, m) != x:
                return False, ctx.witness(x=x, s=s, m=m)
            if any(mm != m and L.join2(s, mm) == x for mm in p.maximal):
                return False, ctx.witness({"violated": "uniqueness"}, x=x, s=s, m=m)
    return True, None


def _check_delta_equals_delta_plus(ctx):
    L = ctx.L
    for x in ctx.elements:
        ctx.checked += 1
        p = ctx.profile(x)
        dplus = sorted(delta_plus(L, x, core=p.core))
        if sorted(p.boundary_poset) != dplus:
            return False, ctx.witness(
                {
                    "delta": [ctx.name(s) for s in p.boundary_poset],
                    "delta_plus": [ctx.name(s) for s in dplus],
                },
                x=x,
            )
    return True, None


def _check_type_subadditive(ctx):
    return _by_rows(ctx, _type_subadditive_rows, _type_subadditive_pairs)


def _type_subadditive_rows(ctx):
    """Row x passes iff t(x v z) - t(z) <= t(x) for every z."""
    join = ctx.row_table
    if join is None:
        return False
    t = list(map(ctx.t, ctx.elements))
    for x, tx in enumerate(t):
        if max(map(operator.sub, map(t.__getitem__, join[x]), t)) > tx:
            return False
    ctx.checked += len(t) ** 2
    return True


def _type_subadditive_pairs(ctx):
    L, els = ctx.L, ctx.elements
    # One count per element; the elements are closed under joins, so only
    # a faulty join needs its own count.
    t = list(map(ctx.t, els))
    for i, k, j in ctx.join_pairs():
        ctx.checked += 1
        t_join = t[j] if j >= 0 else ctx.t(L.join2(els[i], els[k]))
        if t_join > t[i] + t[k]:
            return False, ctx.witness(x=els[i], z=els[k])
    return True, None


def _check_subelement_decomp(ctx):
    """z = (z ^ core) v the boundary members below z, each a verified fold
    through ``join_fold``: the folds of one x extend each other as z
    climbs, and the same z recurs under every x above it."""
    down, meet, fold = ctx.L.poset.down, ctx.L.meet, ctx.join_fold
    for x in ctx.elements:
        p = ctx.profile(x)
        core, boundary = p.core, mask_of(p.boundary_poset)
        for z in bits(down[x]):
            ctx.checked += 1
            if fold(meet[z][core], boundary & down[z]) != z:
                return False, ctx.witness(x=x, z=z)
    return True, None


def _check_mu_monotone(ctx):
    return _by_rows(ctx, _mu_monotone_rows, _mu_monotone_pairs)


def _mu_monotone_rows(ctx):
    """Row x: mu(z) <= mu(x) for every z below x.  On order rows only
    the lower covers z of x are compared, one ``leq`` each: the verified
    order is transitive, so mu is monotone on every pair once it is on
    the covers.  On a window with tables whose mus have them too
    (``window_tables(mus)``), the positions below x must lie among those
    whose mus are below mu(x); otherwise the pair loop decides."""
    mus = ctx.mus
    rows = getattr(ctx.L, "poset", None)
    if rows is not None:
        leq, covers = ctx.L.leq, rows.lower_covers
        for x in ctx.elements:
            if not all(map(leq, map(mus.__getitem__, bits(covers[x])), repeat(mus[x]))):
                return False
        ctx.checked += sum(map(int.bit_count, rows.down))
        return True
    tables = ctx.mu_window
    if tables is None:
        return False
    for zs, under in zip(ctx.window.below, tables.below):
        if not set(under).issuperset(zs):
            return False
        ctx.checked += len(zs)
    return True


def _mu_monotone_pairs(ctx):
    L = ctx.L
    for x in ctx.elements:
        mu_x = ctx.profile(x).mu
        for z in ctx.below(x):
            ctx.checked += 1
            if not L.leq(ctx.profile(z).mu, mu_x):
                return False, ctx.witness(x=x, z=z)
    return True, None


def _check_mu_join_hom(ctx):
    """The closed-form mus (profiles) against the definitional derivative
    of the join."""
    return _by_rows(ctx, _mu_join_hom_rows, _mu_join_hom_pairs)


def _mu_join_hom_rows(ctx):
    """Row x: the derivatives along join[x] against mu(x) v mu(z) for
    every z.  When the window has tables, so may the mus
    (``window_tables(mus)``): rows then compare positions among the mus
    with their join rows, and a derivative that is no mu fails its row.
    Otherwise, when every mu is an element (as on a finite lattice),
    mu(x) v mu(z) is read from row mu(x) of the table, the rows of one
    mu share their expected row, and a derivative that is no element
    fails its row; when some mu is not, the pair loop decides."""
    join = ctx.row_table
    if join is None:
        return False
    mus = ctx.mus
    derivatives = list(map(ctx.derivative, ctx.elements))
    tables = ctx.mu_window
    if tables is not None:
        got = list(map({mu: i for i, mu in enumerate(mus)}.get, derivatives))
        for row, expected in zip(join, tables.join):
            if list(map(got.__getitem__, row)) != expected:
                return False
        ctx.checked += len(mus) ** 2
        return True
    inside = list(map(ctx.index.get, mus))
    if None in inside:
        return False
    derivatives = list(map(ctx.index.get, derivatives))
    by_mu = {}
    for x, m in enumerate(inside):
        expected = by_mu.get(m)
        if expected is None:
            expected = by_mu[m] = list(map(join[m].__getitem__, inside))
        if list(map(derivatives.__getitem__, join[x])) != expected:
            return False
    ctx.checked += len(mus) ** 2
    return True


def _mu_join_hom_pairs(ctx):
    """The pair loop of ``mu_join_hom``.  Mus and derivatives are kept by
    position and computed on first use, in the pair loop's order, so a
    raising profile stops the law at the same pair.  The mus are joined
    with ``join2``: they need not be elements."""
    L, els = ctx.L, ctx.elements
    join2, profile, derivative = L.join2, ctx.profile, ctx.derivative
    mus, derivatives = [None] * len(els), [None] * len(els)
    for i, k, j in ctx.join_pairs():
        ctx.checked += 1
        mu_x = mus[i]
        if mu_x is None:
            mu_x = mus[i] = profile(els[i]).mu
        mu_z = mus[k]
        if mu_z is None:
            mu_z = mus[k] = profile(els[k]).mu
        expected = join2(mu_x, mu_z)
        if j >= 0:
            join = els[j]
            got = derivatives[j]
            if got is None:
                got = derivatives[j] = derivative(join)
        else:
            join = join2(els[i], els[k])
            got = derivative(join)
        if got != expected:
            return False, ctx.witness(x=els[i], z=els[k], join=join, mu=got, mu_of_parts=expected)
    return True, None


def _check_minmax_bound(ctx):
    """Monotone-pair bound, checked on constant pairs (every pair of
    elements, read as one-step monotone nets) and on the 2-chains a < b.
    The constant-pair folds deliberately walk every join entry and the
    table diagonals.

    Both halves fail only through a wrong table entry.  With right
    entries a constant pair (u, v) concludes (u v u) v (v ^ v) = u v v,
    its hypothesis, and a chain's bound ``join[b][a]`` is also the last
    term of ``under``.  So while neither table has a fault, the sizes of
    down(u v v) are summed as ``checked`` and the law passes.  Otherwise
    the constant pairs, then the 2-chains in element order, are scanned
    (``_first_escape``), and a chain's verified folds may raise.  The
    2-chain scan finds an escape only when the instance's own
    ``join_of_set`` and ``meet_of_set`` trust the tables, as a subclass
    may, since the registry reads folds through the instance."""
    L = ctx.L
    down = L.poset.down
    if L.join_fault is None and L.meet_fault is None:
        size = [d.bit_count() for d in down]
        ctx.checked += sum(sum(map(size.__getitem__, row)) for row in L.join)
        return True, None
    join2 = L.join2
    for u, v in ctx.pairs():
        z = _first_escape(ctx, down[join2(u, v)], down[join2(join2(u, u), L.meet2(v, v))])
        if z is not None:
            return False, ctx.witness(u=u, v=v, z=z)
    up = L.poset.up
    for a in ctx.elements:
        for b in bits(up[a] & ~(1 << a)):
            bound = join2(L.join_of_set([a, b]), L.meet_of_set([b, a]))
            z = _first_escape(ctx, down[join2(a, b)] & down[join2(b, a)], down[bound])
            if z is not None:
                return False, ctx.witness({"chain": [ctx.name(a), ctx.name(b)]}, z=z)
    return True, None


def _first_escape(ctx, under: int, bound: int):
    """A quantifier over the z in ``under`` as a bit scan: counts them as
    checked up to the first (lowest) one outside ``bound`` and returns
    it, or counts them all and returns None."""
    escaped = under & ~bound
    if not escaped:
        ctx.checked += under.bit_count()
        return None
    first = escaped & -escaped
    ctx.checked += (under & (2 * first - 1)).bit_count()
    return first.bit_length() - 1


def _check_boundary_removal_descent(ctx):
    """Removing boundary members from the join of core and boundary poset
    leaves a target that x descends to by steps into maximal subelements.

    The law is finite-only, and in a finite poset such a descent exists
    iff target <= x: the elements z with target <= z < x form a finite
    set, a maximal one among them is a lower cover of x, and induction on
    the size of the interval [target, x] builds the chain of lower covers.
    Each step only goes down, so a descent never reaches an element that
    is not below x.  The test is therefore one order bit per target.

    It fails only through a wrong join entry: each target is the checked
    join of the core and boundary members, all below x, so it is below x
    whenever its fold passes, and every fold passes while
    ``L.join_fault`` is None.  Then the removals are only counted: every
    subset of a boundary poset of up to ``SUBSET_EXHAUSTIVE_BITS``
    members, and the empty and single removals of a larger one.
    Otherwise every removal, from the first x on, folds
    ``[core, *kept]`` through ``join_fold``, in the order below, with
    kept as a mask: the kept set of one x minus its highest member is
    often a kept set of the x before (on a chain, every one).  A larger
    boundary poset folds its empty and single removals only, and when
    none of the folds fails, the law fails with the fault's pair, as
    ``downset_upper_complete`` does.
    """
    L = ctx.L
    count_only = L.join_fault is None
    unfolded = None  # the first x whose removals were not all folded
    for x in ctx.elements:
        p = ctx.profile(x)
        delta = list(p.boundary_poset)
        large = len(delta) > SUBSET_EXHAUSTIVE_BITS
        if count_only:
            ctx.checked += 1 + len(delta) if large else 1 << len(delta)
            continue
        if large:
            removals = [(), *((s,) for s in delta)]
            unfolded = x if unfolded is None else unfolded
        else:
            removals = itertools.chain.from_iterable(
                itertools.combinations(delta, k) for k in range(len(delta) + 1)
            )
        everything = mask_of(delta)
        for removed in removals:
            ctx.checked += 1
            target = ctx.join_fold(p.core, everything & ~mask_of(removed))
            if not L.leq(target, x):
                return False, ctx.witness(
                    {"removed": [ctx.name(s) for s in removed]}, x=x, target=target
                )
    if unfolded is not None:
        return False, _join_fault_witness(ctx, unfolded)
    return True, None


def _check_core_union(ctx):
    """The core is the join of the zero-maximal elements below x; on a
    finite lattice that set is {bottom}."""
    L = ctx.L
    t0 = [x for x in ctx.elements if ctx.t(x) == 0]
    for x in ctx.elements:
        ctx.checked += 1
        got = L.join_of_set([z for z in t0 if L.leq(z, x)])
        core = ctx.profile(x).core
        if got != core:
            return False, ctx.witness(x=x, joined=got, core=core)
    return True, None


def _check_core_decomp(ctx):
    """Zero-maximal y below x v z is the join of the cores of x ^ y and
    z ^ y.  The only zero-maximal element of a finite lattice is the
    bottom, so on finite instances each pair checks one y."""
    return _by_rows(ctx, _core_decomp_rows, _core_decomp_pairs)


def _core_decomp_rows(ctx):
    """With one zero-maximal element y, the least element of the order,
    every pair checks y, and pair (x, z) joins the cores c(x) of x ^ y
    and c(z) of z ^ y.  So every row passes iff c v c' = y for every two
    values c, c' that c takes; the rows of more than one y are left to
    the pair loop."""
    L = ctx.L
    t0 = mask_of(y for y in ctx.elements if ctx.t(y) == 0)
    if t0.bit_count() != 1:
        return False
    y = t0.bit_length() - 1
    cores = {ctx.profile(L.meet[x][y]).core for x in ctx.elements}
    if any(L.join[a][b] != y for a in cores for b in cores):
        return False
    ctx.checked += len(ctx.elements) ** 2
    return True


def _core_decomp_pairs(ctx):
    L = ctx.L
    t0 = mask_of(y for y in ctx.elements if ctx.t(y) == 0)
    down = L.poset.down
    join2, meet2 = L.join2, L.meet2
    profile, profiles = ctx.profile, ctx.profiles
    for x, z in ctx.pairs():
        ys = t0 & down[join2(x, z)]
        while ys:
            low = ys & -ys
            ys ^= low
            y = low.bit_length() - 1
            ctx.checked += 1
            a, b = meet2(x, y), meet2(z, y)
            core_a = (profiles.get(a) or profile(a)).core
            got = join2(core_a, (profiles.get(b) or profile(b)).core)
            if got != y:
                return False, ctx.witness(x=x, z=z, y=y, got=got)
    return True, None


def _check_core_join_hom(ctx):
    """core(x v z) = core(x) v core(z)."""
    return _by_rows(ctx, _core_join_hom_rows, _core_join_hom_pairs)


def _core_join_hom_rows(ctx):
    """Row x: the core positions along join[x] against row core(x) of the
    table read at every core(z).  With a single core c (every finite
    lattice's bottom) each row is c throughout on both sides, the right
    one being join[c][c].  A core outside the elements, which only a
    faulty profile gives, leaves the law to the pair loop."""
    join = ctx.row_table
    if join is None:
        return False
    get = ctx.index.get
    at = [get(ctx.profile(x).core, -1) for x in ctx.elements]
    if -1 in at:
        return False
    c = at[0]
    if at.count(c) == len(at):
        ok = join[c][c] == c
    else:
        ok = all(
            list(map(at.__getitem__, join[x])) == list(map(join[core].__getitem__, at))
            for x, core in enumerate(at)
        )
    if not ok:
        return False
    ctx.checked += len(at) ** 2
    return True


def _core_join_hom_pairs(ctx):
    """The pair loop of ``core_join_hom``.  Cores are kept by position and
    computed on first use, in the pair loop's order.  core(x) v core(z)
    is read from the join table when both cores are elements (the
    testbed's closed-form cores always are), else joined with ``join2``."""
    L, els = ctx.L, ctx.elements
    join2, profile = L.join2, ctx.profile
    table, index = ctx.join_table, ctx.index
    cores, core_at = [None] * len(els), [-1] * len(els)

    def fill(i):
        core = cores[i] = profile(els[i]).core
        core_at[i] = index.get(core, -1)

    for i, k, j in ctx.join_pairs():
        ctx.checked += 1
        if j >= 0:
            if cores[j] is None:
                fill(j)
            got = cores[j]
        else:
            got = profile(join2(els[i], els[k])).core
        if cores[i] is None:
            fill(i)
        if cores[k] is None:
            fill(k)
        a, b = core_at[i], core_at[k]
        e = table[a][b] if a >= 0 and b >= 0 else -1
        expected = els[e] if e >= 0 else join2(cores[i], cores[k])
        if got != expected:
            return False, ctx.witness(x=els[i], z=els[k], got=got, expected=expected)
    return True, None


def _check_t0_upper_semilattice(ctx):
    """Finite reduction of completeness: the zero-maximal family contains
    the bottom and is closed under binary join.  On a finite lattice the
    family is {bottom}, so one pair is checked."""
    L = ctx.L
    t0 = [x for x in ctx.elements if ctx.t(x) == 0]
    if L.bottom not in t0:
        return False, ctx.witness(bottom=L.bottom)
    for a in t0:
        for b in t0:
            ctx.checked += 1
            if ctx.t(L.join2(a, b)) != 0:
                return False, ctx.witness(a=a, b=b, join=L.join2(a, b))
    return True, None


def _check_x_minus_boundary_t0(ctx):
    L = ctx.L
    for x in ctx.elements:
        ctx.checked += 1
        p = ctx.profile(x)
        try:
            r = co_heyting_sub(L, x, p.boundary)
        except NotBelow:
            # The boundary is a join of elements below x, so it is below x
            # unless the lattice's bottom (the empty join) is wrong.
            return False, ctx.witness(x=x, boundary=p.boundary)
        if ctx.t(r) != 0:
            return False, ctx.witness(x=x, sub=r)
        if not L.leq(r, p.core):
            return False, ctx.witness(x=x, sub=r, core=p.core)
    return True, None


def _check_downset_upper_complete(ctx):
    """Every subset of a downset has a least upper bound inside it.

    The quantifier runs over the empty set, all singletons and all pairs
    of each downset.  ``L.join_fault`` decides the non-empty ones: while
    it is None every join entry is a least upper bound, so every fold of
    ``join_of_set`` returns the true join, which lies in down(x) because
    x bounds the subset.  The subsets are then only counted.  The empty
    join, the bottom, is checked for every x.

    With a fault, the subsets are folded one by one to report the first
    one that fails.  A bad entry that no folded subset reaches (an entry
    join[i][j] with i > j) fails with the fault's pair, the top as x.
    """
    L = ctx.L
    if L.join_fault is not None:
        ok, witness = _fold_downset_subsets(ctx)
        if ok:
            witness = _join_fault_witness(ctx, L.top)
        return False, witness
    down, up, bottom = L.poset.down, L.poset.up, L.bottom
    for x in ctx.elements:
        d = down[x].bit_count()
        ctx.checked += 1
        if down[x] & ~up[bottom]:
            return False, ctx.witness({"subset": []}, x=x, join=bottom)
        ctx.checked += d + d * (d - 1) // 2
    return True, None


def _join_fault_witness(ctx, x) -> dict:
    """The witness of a subset law whose folded subsets all pass on a
    table with a join fault (a, b): the pair, its table join, and x."""
    L = ctx.L
    a, b = L.join_fault
    witness = ctx.witness({"set": [ctx.name(a), ctx.name(b)]}, join=L.join2(a, b), x=x)
    witness["indices"].update(a=a, b=b)
    return witness


def _fold_downset_subsets(ctx):
    """The subset loop of downset upper-completeness: fold the empty
    set, each singleton and each pair of each downset through the
    verified ``join_of_set``."""
    L = ctx.L
    rows = L.poset
    for x in ctx.elements:
        down = ctx.below(x)
        subsets = [[]]
        subsets.extend([d] for d in down)
        subsets.extend(list(p) for p in itertools.combinations(down, 2))
        for s in subsets:
            ctx.checked += 1
            try:
                j = L.join_of_set(s)
            except LatticeIntegrityError as e:
                return False, {**e.witness, "x": ctx.name(x)}
            if not s and rows.down[x] & ~rows.up[j]:
                return False, ctx.witness({"subset": []}, x=x, join=j)
    return True, None


def _check_k_lower_semilattice(ctx):
    """Dually compact elements form a lower semilattice.

    On finite instances every element is dually compact and the induced
    meet is verified to be the true infimum, which makes the suite
    sensitive to any corrupted meet entry; on the testbed the closure of
    the all-finite vectors under meets is a genuine statement.  Where
    ``L.meet_fault`` is kept it is the first witness of the pair loop
    over down(x) & down(z) against down(x ^ z): the law passes with every
    pair checked, or fails at that pair with the pairs up to it checked.
    Elsewhere the rows pass over the compact pairs runs first."""
    L = ctx.L
    if hasattr(L, "meet_fault"):
        n = len(ctx.elements)
        if L.meet_fault is None:
            ctx.checked = n * n
            return True, None
        x, z = L.meet_fault
        ctx.checked = x * n + z + 1
        return False, ctx.witness(x=x, z=z, meet=L.meet2(x, z))
    return _by_rows(ctx, _k_lower_rows, _k_lower_pairs)


def _k_lower_rows(ctx):
    """Row x, for each compact x: the meets with every compact z are
    compact.  ``dually_compact`` is read once per element and indexed
    with the window's meet rows (they cover the whole window, so every
    meet checked is read); without them the pair loop decides."""
    meets = ctx.window and ctx.window.meet_rows()
    if meets is None:
        return False
    flags = list(map(ctx.L.dually_compact, ctx.elements))
    for row, compact in zip(meets, flags):
        if compact and not all(map(flags.__getitem__, compress(row, flags))):
            return False
    ctx.checked += sum(flags) ** 2
    return True


def _k_lower_pairs(ctx):
    L, els = ctx.L, ctx.elements
    compact = [L.dually_compact(x) for x in els]
    for i, k in itertools.product(range(len(els)), repeat=2):
        if compact[i] and compact[k]:
            ctx.checked += 1
            x, z = els[i], els[k]
            if not L.dually_compact(L.meet2(x, z)):
                return False, ctx.witness(x=x, z=z)
    return True, None


def _check_maximals_dually_compact(ctx):
    L = ctx.L
    for x in ctx.elements:
        if not L.dually_compact(x):
            continue
        for m in ctx.maximals(x):
            ctx.checked += 1
            if not L.dually_compact(m):
                return False, ctx.witness(x=x, m=m)
    return True, None


REGISTRY: dict[LawId, LawSpec] = {
    spec.law: spec
    for spec in [
        LawSpec(LawId.COHEYTING_JOIN, "z v (x-z) = x for z <= x", True, False, False, _check_coheyting_join),
        LawSpec(LawId.MU_RESIDUE_DECOMP, "x = mu(x) v join of residues", True, False, False, _check_mu_residue_decomp),
        LawSpec(LawId.CORE_RESIDUE_DECOMP, "x = core(x) v join of residues", True, False, False, _check_core_residue_decomp),
        LawSpec(LawId.MAXIMALS_JOIN, "distinct maximal subelements join to x", False, False, False, _check_maximals_join),
        LawSpec(LawId.MAXIMALS_MEET_MAXIMAL, "meet of distinct maximals is maximal in each", False, True, False, _check_maximals_meet_maximal),
        LawSpec(LawId.RESIDUE_UNIQUE_MAXIMAL, "residues have one maximal, bounded derivative, no outcast", True, False, False, _check_residue_unique_maximal),
        LawSpec(LawId.MAXIMAL_FORMULA, "m = mu(x) v join of other residues", True, False, False, _check_maximal_formula),
        LawSpec(LawId.MU_RESIDUE_BOUND, "residues of mu(x) sit under the boundary", True, False, False, _check_mu_residue_bound),
        LawSpec(LawId.OUTCAST_TRICHOTOMY, "outcast iff core escapes boundary iff boundary strict", True, False, False, _check_outcast_trichotomy),
        LawSpec(LawId.STRATA_RANKED, "boundary poset is ranked; strata are antichains", True, False, True, _check_strata_ranked),
        LawSpec(LawId.STRATUM0_CHARACTERIZATION, "stratum 0 via join-irredundancy in delta-plus", True, False, True, _check_stratum0_characterization),
        LawSpec(LawId.DELTA_EQUALS_DELTA_PLUS, "boundary poset equals delta-plus", True, False, True, _check_delta_equals_delta_plus),
        LawSpec(LawId.TYPE_SUBADDITIVE, "|M(x v z)| <= |M(x)| + |M(z)|", True, False, False, _check_type_subadditive),
        LawSpec(LawId.SUBELEMENT_DECOMP, "z = (z ^ core) v boundary members under z", True, False, True, _check_subelement_decomp),
        LawSpec(LawId.MU_MONOTONE, "derivative is monotone", True, False, False, _check_mu_monotone),
        LawSpec(LawId.MU_JOIN_HOM, "derivative is a join homomorphism", True, False, False, _check_mu_join_hom),
        LawSpec(LawId.MINMAX_BOUND, "monotone pair bound", True, False, True, _check_minmax_bound),
        LawSpec(LawId.BOUNDARY_REMOVAL_DESCENT, "removing boundary members is a maximal descent", True, False, True, _check_boundary_removal_descent),
        LawSpec(LawId.CORE_UNION, "core is the join of zero-maximal elements below", True, False, True, _check_core_union),
        LawSpec(LawId.CORE_DECOMP, "zero-maximal y <= x v z splits into cores", True, False, True, _check_core_decomp),
        LawSpec(LawId.CORE_JOIN_HOM, "core is a join homomorphism", True, False, False, _check_core_join_hom),
        LawSpec(LawId.T0_UPPER_SEMILATTICE, "zero-maximal family closed under join with bottom", True, False, True, _check_t0_upper_semilattice),
        LawSpec(LawId.X_MINUS_BOUNDARY_T0, "x minus boundary is zero-maximal under the core", True, False, False, _check_x_minus_boundary_t0),
        LawSpec(LawId.DOWNSET_UPPER_COMPLETE, "downsets are upper complete", False, False, True, _check_downset_upper_complete),
        LawSpec(LawId.K_LOWER_SEMILATTICE, "dually compact elements form a lower semilattice", False, False, False, _check_k_lower_semilattice),
        LawSpec(LawId.MAXIMALS_DUALLY_COMPACT, "maximal subelements of compact elements are compact", True, False, False, _check_maximals_dually_compact),
    ]
}

# Laws whose statement mentions the family H; each maps to the hypotheses
# the source lemma puts on H.
FAMILY_HYPOTHESES = {
    LawId.MAXIMALS_JOIN: ("upper_semilattice",),
    LawId.MAXIMALS_MEET_MAXIMAL: ("lattice",),
    LawId.RESIDUE_UNIQUE_MAXIMAL: ("bottom", "upper_semilattice"),
    LawId.MU_RESIDUE_DECOMP: ("bottom", "upper_semilattice"),
}


_FAMILY_SKIP_REASONS = {
    "bottom": "family does not contain the bottom",
    "upper_semilattice": "family is not an upper semilattice",
    "lattice": "family is not a lattice",
}


def run_law(L, law: LawId, family=None, _ctx=None) -> LawReport:
    """Run one law on one instance; deterministic for fixed inputs.  A
    family is a set of element positions, so it needs order rows; the
    laws outside ``FAMILY_HYPOTHESES`` run in the default family.
    ``_ctx`` is the run of ``run_all`` that the law joins, in place of a
    run of its own.

    A ``ResiduaError`` raised while the law runs fails it, with the
    error's message as the reason: a ``LatticeIntegrityError`` with its
    own witness, any other with ``_error_witness``."""
    ctx = _ctx
    if ctx is None:
        family = family_mask(L, family)
        ctx = _Ctx(L, family if law in FAMILY_HYPOTHESES else None)
    spec = REGISTRY[law]
    if spec.needs_order_rows and not ctx.order_rows:
        reason = "requires finite enumeration"
    elif spec.requires_coframe and not L.coframe:
        reason = "not a coframe"
    elif spec.requires_distributive and not L.distributive:
        reason = "not distributive"
    elif ctx.family is not None:
        holds = ctx.family_holds
        reason = next((_FAMILY_SKIP_REASONS[h] for h in FAMILY_HYPOTHESES[law] if not holds[h]), None)
    else:
        reason = None
    if reason is not None:
        return LawReport(law.value, ctx.instance, "skipped", 0, True, reason)
    ctx.checked = 0
    if not ctx.certified:
        ctx.folds = {}
    try:
        ok, witness = spec.fn(ctx)
    except LatticeIntegrityError as e:
        ok, reason, witness = False, str(e), e.witness
    except ResiduaError as e:
        ok, reason, witness = False, str(e), _error_witness(ctx, e)
    if ok is None:
        verdict, reason, witness = "skipped", witness, None
    elif ok:
        verdict, witness = "pass", None
    else:
        verdict = "fail"
    # positional arguments: keywords make this call about twice as dear
    return LawReport(law.value, ctx.instance, verdict, ctx.checked, True, reason, witness)


def _error_witness(ctx, e: ResiduaError) -> dict:
    """The error's class and message, and the elements in hand when it
    was raised: the arguments of the raising call that lie in the
    window, by parameter name."""
    tb = e.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code, local = tb.tb_frame.f_code, tb.tb_frame.f_locals
    elems = {}
    for name in code.co_varnames[: code.co_argcount]:
        try:
            if local[name] in ctx.index:
                elems[name] = local[name]
        except (KeyError, TypeError):
            pass  # reassigned away, or unhashable: not an element
    return ctx.witness({"error": type(e).__name__, "message": str(e)}, **elems)


def run_all(L, laws=None, family=None) -> list:
    """Run the registry (or a subset) in registry order as one run: the
    laws share one ``_Ctx``, and with a family the laws of
    ``FAMILY_HYPOTHESES`` share a second one in that family."""
    selected = list(REGISTRY) if laws is None else list(laws)
    ctx = _Ctx(L)
    if family is None:
        return [run_law(L, law, _ctx=ctx) for law in selected]
    in_family = _Ctx(L, family_mask(L, family))
    return [run_law(L, law, _ctx=in_family if law in FAMILY_HYPOTHESES else ctx) for law in selected]


def all_pass(reports) -> bool:
    return all(r.verdict != "fail" for r in reports)


# -- fault injection -------------------------------------------------------


def mutate_entry(L: FiniteLattice, table: str, i: int, j: int, value: int) -> FiniteLattice:
    """Copy of L with one meet/join table entry replaced (not symmetrized).

    The copy carries the mutated rows as ``join_rows`` or ``meet_rows``
    and keeps L's rows of the other table, if any: without them it
    builds a clean one."""
    if table not in ("meet", "join"):
        raise ValueError("table must be 'meet' or 'join'")
    if not all(type(v) is int and 0 <= v < L.n for v in (i, j, value)):
        raise ValueError(f"{table}[{i}][{j}]={value} is outside the carrier range({L.n})")
    rows = [list(row) for row in getattr(L, table)]
    rows[i][j] = value
    mutated = {"join_rows" if table == "join" else "meet_rows": tuple(tuple(r) for r in rows)}
    return replace(
        L, provenance=f"{L.provenance}+fault({table}[{i}][{j}]={value})", **mutated
    )


__all__ = [
    "LawId",
    "LawSpec",
    "LawReport",
    "REGISTRY",
    "FAMILY_HYPOTHESES",
    "run_law",
    "run_all",
    "all_pass",
    "mutate_entry",
]
