"""Executable registry of the residual-calculus laws.

Each law is a checker that quantifies over one lattice instance and
returns Pass, Fail (with a replayable witness) or Skipped (hypothesis
not met: most laws require the coframe law, which for finite lattices is
distributivity).  Element/pair quantifications within budget run
exhaustively; subset-valued quantifiers enumerate exhaustively for small
carriers and fall back to seeded sampling above, which the report
records.

Four laws can fail on a finite lattice only through a wrong table entry,
and read the lattice's cached ``L.join_fault``/``L.meet_fault`` (the
first pair whose entry breaks the universal property on the order rows)
instead of scanning the tables.  ``downset_upper_complete`` fails at the
join fault when no folded subset fails first, so any corrupted join
entry fails it; ``k_lower_semilattice`` passes or fails at the meet
fault while its pairs run exhaustively.  ``boundary_removal_descent``
and the constant pairs of ``minmax_bound`` count by arithmetic while the
tables they read have no fault, and run their loops otherwise.

On finite lattices the checkers read derived facts as cached rows
(lower covers and co-irreducibles on the poset, derivatives on the
lattice) and answer element quantifiers with mask operations, with the
same verdicts, ``checked`` counts and witnesses as the per-element loops
they replace; the tests keep those loops as references.

The laws of one run share the profiles and, on a finite lattice in the
default family, three rows per element kept in the run's ``_RunMemo``:
the maximal subelements, the residues x - m by maximal m, and the
outcasts.  ``residual_profile`` builds the strata from the residue rows
of the iterates, and the laws that quantify over maximal subelements,
residues or outcasts read the rows instead of calling the generic
functions again.  An entry is stored only once its fold or cross-check
has passed, so each law reports what it reports run alone.  One traced
pass of the benchmark's ``laws`` workload (114 lattices) makes 4,640
``co_heyting_sub`` calls, one per distinct argument pair, against
22,275 without the rows; 1,597 ``outcasts`` calls against 4,640; and
1,653 ``maximal_subelements`` calls against 27,411.

Four pair quantifiers go by whole table rows while a finite lattice's
pairs run exhaustively (n^2 <= ``max_pairs``): ``type_subadditive``,
``mu_join_hom``, ``core_join_hom`` and ``core_decomp``.  Each row x is
one comparison of lists built with ``map`` over ``L.join[x]`` and
per-element lists (t counts, mus, derivatives, cores), or, for
``core_decomp``, one set of cores; ``checked`` is added by arithmetic.
A failing row, or an error from the per-element facts, sends the law
back to 0 checked with no sampler drawn, and its pair loop replays from
the start to report the first failing pair (``_by_rows``).  The pair
loops also run whenever the pairs are sampled.

Those pair loops, and the testbed's, walk one join table by position
(``_Ctx.join_pairs``) and keep the per-element facts they read in
position-indexed lists, filled on first use in the pair loop's order.
A finite lattice's ``L.join`` is that table.  On the testbed the run's
``_RunMemo`` builds it on first use, one ``join2`` per ordered box pair,
and drops it with the run; while the pairs are sampled no table is built
and each drawn pair is joined as it is drawn.

``coheyting_join``, ``stratum0_characterization``, ``subelement_decomp``
and ``boundary_removal_descent`` fold ``[head, *bits(mask)]`` through
``_Ctx.join_fold``, whose memo lives on the law's context and goes with
it.  A fold whose mask minus its highest bit is stored costs one join
entry and one AND; every fold is verified as ``join_of_set`` verifies
it, raises its error, and is stored only when it passes.  Kept for a
whole run instead, the memo would hold the folds of every law at once.

Two corollaries bound what the finite checks can see.  Every core on a
finite lattice is the bottom (mu(x) lies below each lower cover of x, so
mu(x) < x for every non-bottom x), so the core laws check the tables,
not cores; the testbed's closed-form cores are the bottom too.  And the
only zero-maximal element of a finite lattice is its bottom, so
t0 = {bottom}, and ``core_decomp``, ``core_union`` and
``t0_upper_semilattice`` quantify over the bottom only.  On a
distributive lattice the residues x - z are folds of join-irreducibles
through the join table (see ``residual.co_heyting_sub``) and read no
meet entry; the meet table reaches the laws through the derivatives
and through ``L.meet_fault``.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

from .bitset import bits, contains, full_mask, mask_of
from .errors import LatticeIntegrityError, NoBottom, NotALattice, NotBelow
from .lattice import FiniteLattice, FinitePoset, as_lattice
from .residual import (
    classify_t,
    co_heyting_sub,
    delta_plus,
    family_is_lattice,
    family_is_upper_semilattice,
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


@dataclass(frozen=True)
class Budget:
    """Bounds on enumeration; instances within bounds run exhaustively."""

    max_pairs: int = 250_000
    subset_exhaustive_bits: int = 12
    max_sampled_subsets: int = 32
    testbed_bound: int = 4
    seed: int = 0


DEFAULT_BUDGET = Budget()


@dataclass
class LawReport:
    law: str
    instance: str
    verdict: str  # "pass" | "fail" | "skipped"
    checked: int = 0
    exhaustive: bool = True
    sampled_subsets: bool = False
    reason: Optional[str] = None
    witness: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {
            "law": self.law,
            "instance": self.instance,
            "verdict": self.verdict,
            "checked": self.checked,
            "exhaustive": self.exhaustive,
            "sampled_subsets": self.sampled_subsets,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = {k: v for k, v in self.witness.items() if k != "indices"}
        return out


@dataclass
class _RunMemo:
    """What the laws of one ``run_all`` (or one ``run_law``) share; it is
    dropped when the run returns, so an infinite lattice keeps no memory
    of it and nothing is stored on the lattice.

    ``profiles`` holds default-family profiles.  ``derivatives`` holds the
    testbed's default-family derivatives, each the definitional meet of
    the maximal subelements; a finite lattice keeps those in
    ``L.derivatives``.  ``joins`` is the testbed's join table over the
    box (see ``_Ctx.join_table``); a finite lattice's ``L.join`` already
    is that table.

    ``maximals``, ``residues`` and ``outcasts`` are a finite lattice's
    default-family rows, indexed by element and None until first read
    (see ``_Ctx.maximals``): the maximal subelements of x, the dict of
    x - m by maximal m, and the outcasts of x.  An entry is stored only
    once its fold or cross-check has passed, so a faulty table raises
    the same error at every read.  The testbed's closed forms bypass
    them."""

    profiles: dict = field(default_factory=dict)
    derivatives: dict = field(default_factory=dict)
    joins: Optional[list] = None
    maximals: Optional[list] = None
    residues: Optional[list] = None
    outcasts: Optional[list] = None


class _Ctx:
    """Per-law state: element list, the run's memo, fold memo, deterministic
    sampler."""

    def __init__(self, L, budget: Budget, law: LawId, family=None, memo=None):
        self.L = L
        self.budget = budget
        self.family = family
        self.finite = isinstance(L, FiniteLattice)
        if self.finite:
            self.elements = list(L.elements())
        else:
            self.elements = L.box(budget.testbed_bound)
        self._rng_seed = f"{budget.seed}:{law.value}"
        self.memo = memo = memo or _RunMemo()
        self.profiles = memo.profiles if family is None else {}
        self.shared_rows = self.finite and family is None
        if self.shared_rows and memo.maximals is None:
            memo.maximals, memo.residues, memo.outcasts = [None] * L.n, [None] * L.n, [None] * L.n
        self.derivatives = memo.derivatives
        self.folds = {}  # head -> mask -> verified fold (see join_fold)
        self.exhaustive = True
        self.sampled_subsets = False
        self.checked = 0

    @cached_property
    def rng(self) -> random.Random:
        """The law's seeded sampler, built on first use: most laws never
        draw."""
        return random.Random(self._rng_seed)

    def name(self, x) -> str:
        if self.finite:
            return self.L.names[x]
        from .testbed import fmt_vec

        return fmt_vec(x)

    def profile(self, x):
        if x not in self.profiles:
            if self.shared_rows:
                self.profiles[x] = residual_profile(self.L, x, residues_of=self.residues)
            elif self.finite:
                self.profiles[x] = residual_profile(self.L, x, self.family)
            else:
                self.profiles[x] = self.L.profile(x)
        return self.profiles[x]

    # The run's element rows.  Each is filled through this module's
    # ``maximal_subelements``, ``co_heyting_sub`` and ``outcasts``, looked
    # up at call time, so a replacement bound there reaches every entry.
    # The lists and dicts they return are the stored entries: readers
    # must not change them.

    def maximals(self, x) -> list:
        """``maximal_subelements`` in the law's family, kept in the run's
        row on a finite lattice with the default family."""
        if not self.shared_rows:
            return maximal_subelements(self.L, x, self.family)
        row = self.memo.maximals
        got = row[x]
        if got is None:
            got = row[x] = maximal_subelements(self.L, x)
        return got

    def residue(self, x, m):
        """``co_heyting_sub(L, x, m)`` for a maximal subelement m of x,
        kept in the run's residue row once its fold has passed."""
        if not self.shared_rows:
            return co_heyting_sub(self.L, x, m)
        got = self.memo.residues[x]
        if got is None:
            got = self.memo.residues[x] = {}
        r = got.get(m)
        if r is None:
            r = got[m] = co_heyting_sub(self.L, x, m)
        return r

    def residues(self, x) -> dict:
        """The dict of x - m by maximal subelement m of x, in maximal
        order: the run's row entry, made whole and put in that order on
        first read.  Read only where the rows are shared."""
        maxes = self.maximals(x)
        got = self.memo.residues[x]
        if got is None or list(got) != maxes:
            residue = self.residue
            got = self.memo.residues[x] = {m: residue(x, m) for m in maxes}
        return got

    def outcasts(self, x) -> list:
        """``outcasts`` in the law's family, kept in the run's row on a
        finite lattice with the default family once its boundary
        cross-check has passed.  On a coframe that check joins the
        residue row of x; elsewhere it does not run."""
        if not self.shared_rows:
            return outcasts(self.L, x, self.family)
        row = self.memo.outcasts
        got = row[x]
        if got is None:
            residues = self.residues(x) if self.L.coframe else None
            got = row[x] = outcasts(self.L, x, residues=residues)
        return got

    def derivative(self, x):
        """``residual_derivative`` in the law's family, memoised for the
        run on the testbed when the family is the default one."""
        if self.finite or self.family is not None:
            return residual_derivative(self.L, x, self.family)
        mu = self.derivatives.get(x)
        if mu is None:
            mu = self.derivatives[x] = residual_derivative(self.L, x)
        return mu

    @cached_property
    def index(self) -> dict:
        """Position of each element in ``elements``; a finite lattice's
        elements are their own positions."""
        return {x: i for i, x in enumerate(self.elements)}

    def _samples(self) -> bool:
        n = len(self.elements)
        return n * n > self.budget.max_pairs

    def pair_positions(self):
        """Positions (i, k) of every ordered pair within ``max_pairs``, else
        of ``max_pairs`` distinct pairs drawn without replacement."""
        n = len(self.elements)
        if not self._samples():
            return itertools.product(range(n), repeat=2)
        self.exhaustive = False
        return self._distinct_pairs(n, self.budget.max_pairs)

    def pairs(self):
        """The element pairs at ``pair_positions``."""
        positions = self.pair_positions()
        if self.finite:
            return positions
        els = self.elements
        return ((els[i], els[k]) for i, k in positions)

    def join_table(self):
        """Row i, entry k: the position of ``elements[i] v elements[k]``.

        A finite lattice's ``L.join`` is this table.  On the testbed it is
        built on first use in a run, one ``join2`` per ordered box pair,
        and kept in the run's memo; an entry is -1 when the join lies
        outside the box, which only a faulty ``join2`` can produce.  While
        ``pairs`` samples, no table is built and this is None."""
        if self.finite:
            return self.L.join
        if self._samples():
            return None
        if self.memo.joins is None:
            els, join2, index = self.elements, self.L.join2, self.index
            self.memo.joins = [[index.get(join2(x, z), -1) for z in els] for x in els]
        return self.memo.joins

    def join_pairs(self):
        """(i, k, j) for each pair at ``pair_positions``: the positions of
        x, z and x v z, with j -1 when x v z is not in ``elements``.  The
        exhaustive pairs walk the join table; a sampled pair is joined
        with ``join2`` as it is drawn."""
        if not self._samples():
            table = self.join_table()
            return ((i, k, j) for i, row in enumerate(table) for k, j in enumerate(row))
        els, join2, index = self.elements, self.L.join2, self.index
        return ((i, k, index.get(join2(els[i], els[k]), -1)) for i, k in self.pair_positions())

    def _distinct_pairs(self, n, k):
        """Draw k distinct ordered pairs of positions below n, one at a
        time, keeping a bitmap of the pairs drawn so far (n^2 / 8 bytes).
        ``random.sample`` would copy all n^2 pair numbers into a list
        whenever n^2 is below about 4 * k: 36 MB at n = 1024."""
        count = n * n
        width, draw = (count - 1).bit_length(), self.rng.getrandbits
        taken = bytearray(count // 8 + 1)
        while k:
            d = draw(width)  # uniform below 2^width; keep it if below count
            if d >= count:
                continue
            byte, bit = d >> 3, 1 << (d & 7)
            if not taken[byte] & bit:
                taken[byte] |= bit
                k -= 1
                yield d // n, d % n

    def join_fold(self, head: int, mask: int) -> int:
        """``L.join_of_set([head, *bits(mask)])`` on a finite lattice, with
        the same left fold, check, error and witness, through a memo that
        lives as long as the law's context.

        Only verified folds are stored, and a verified fold's common upper
        bounds are up(acc), so the memo keeps acc alone, by head and then
        by mask.  A fold whose mask minus its highest bit t is stored
        extends it by one join entry and one AND: join[acc][t], with
        up[acc] & up[t] as the upper bounds to check.  Any other fold is
        folded in full."""
        folds = self.folds.get(head)
        if folds is None:
            folds = self.folds[head] = {}
        acc = folds.get(mask)
        if acc is not None:
            return acc
        up, join = self.L.poset.up, self.L.join
        top = mask.bit_length() - 1
        prefix = folds.get(mask ^ (1 << top)) if mask else None
        if prefix is not None:
            acc, upper = join[prefix][top], up[prefix] & up[top]
        else:
            acc, upper = head, up[head]
            for x in bits(mask):
                acc = join[acc][x]
                upper &= up[x]
        if upper != up[acc]:
            raise self.L._join_violation([head, *bits(mask)], acc)
        folds[mask] = acc
        return acc

    def join_of_mask(self, mask: int) -> int:
        """``L.join_of_set(bits(mask))`` through ``join_fold``, headed by
        the lowest member; the empty join is the bottom."""
        if not mask:
            return self.L.bottom
        low = mask & -mask
        return self.join_fold(low.bit_length() - 1, mask ^ low)

    def below(self, x):
        """The elements below x, in element order."""
        if self.finite:
            return list(bits(self.L.down_set(x)))
        return self.L.box_below(x, self.budget.testbed_bound)

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
    finite_only: bool
    fn: Callable


# -- checkers -------------------------------------------------------------
# Each returns (ok, witness): ok True/False, or None with a skip reason.


def _by_rows(ctx, rows, pairs):
    """Decide a pair law by whole table rows, or replay its pair loop.

    While the pairs of a finite lattice run exhaustively, ``rows(ctx)``
    decides each row x at once and, when every row passes, adds the
    pair loop's ``checked`` count.  It may reject a row that the pair
    loop would pass, never the reverse.  On a rejected row, or on a
    failed fold in the facts the rows read up front (a profile the pair
    loop might never reach), ``checked`` goes back to 0, the law's
    sampler is dropped so that nothing drawn survives, and ``pairs(ctx)``
    runs from the start for the exact first witness."""
    if ctx.finite and not ctx._samples():
        try:
            if rows(ctx):
                return True, None
        except LatticeIntegrityError:
            pass
        ctx.checked = 0
        vars(ctx).pop("rng", None)
    return pairs(ctx)


def _check_coheyting_join(ctx):
    """z v (x - z) = x.  On a finite (distributive) lattice x - z is the
    verified join of the join-irreducibles below x and not below z, as in
    ``co_heyting_sub``; its folds share prefixes through ``join_fold``."""
    L = ctx.L
    if ctx.finite and L.distributive:
        down, join = L.poset.down, L.join
        for x in ctx.elements:
            under = L.poset.irreducibles & down[x]
            for z in bits(down[x]):
                ctx.checked += 1
                s = ctx.join_of_mask(under & ~down[z])
                if join[z][s] != x:
                    return False, ctx.witness(x=x, z=z, sub=s)
        return True, None
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
        outs = ctx.outcasts(x)
        has = bool(outs)
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
        if has and ctx.finite:
            expected = sorted(bits(L.up_set(p.boundary) & L.strictly_below(x)))
            if expected != outs:
                return False, ctx.witness(
                    {"outcasts": [ctx.name(o) for o in outs]}, x=x
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
    join = ctx.L.join
    t = [classify_t(ctx.L, x) for x in ctx.elements]
    for x, tx in enumerate(t):
        if max(map(operator.sub, map(t.__getitem__, join[x]), t)) > tx:
            return False
    ctx.checked += len(t) ** 2
    return True


def _type_subadditive_pairs(ctx):
    L, els = ctx.L, ctx.elements
    # One count per element; the testbed's box is closed under joins
    # (coordinatewise minima), so only a faulty join needs its own count.
    t = [classify_t(L, x) for x in els]
    for i, k, j in ctx.join_pairs():
        ctx.checked += 1
        t_join = t[j] if j >= 0 else classify_t(L, L.join2(els[i], els[k]))
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
    """Row x: the derivatives along join[x] against join[mu(x)] read at
    every mu(z)."""
    join = ctx.L.join
    mus = [ctx.profile(x).mu for x in ctx.elements]
    derivatives = [ctx.derivative(x) for x in ctx.elements]
    for x, mu_x in enumerate(mus):
        if list(map(derivatives.__getitem__, join[x])) != list(map(join[mu_x].__getitem__, mus)):
            return False
    ctx.checked += len(mus) ** 2
    return True


def _mu_join_hom_pairs(ctx):
    """The pair loop of ``mu_join_hom``.  Mus and derivatives are kept by
    position and computed on first use, in the pair loop's order, so a
    raising profile stops the law at the same pair.  The mus are joined
    with ``join2``: on the testbed most of them lie outside the box."""
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
    """Monotone-pair bound, sampled as constant pairs (every pair of
    elements, read as one-step monotone nets) plus ascending/descending
    chain pairs.  The constant-pair folds deliberately walk every join
    entry and the table diagonals.

    Both halves fail only through a wrong table entry.  With right
    entries a constant pair (u, v) concludes (u v u) v (v ^ v) = u v v,
    its hypothesis, so while the pairs run exhaustively and neither table
    has a fault, the sizes of down(u v v) are summed as ``checked``.
    The chain half's bound ``join[a_k][a_0]`` is also the last term of
    ``under``, so only a ``LatticeIntegrityError`` from
    ``join_of_set``/``meet_of_set`` can fail it while the folds verify.

    Each quantifier over z is a bit scan: ``checked`` counts the z below
    the hypothesis up to the first (lowest) one that escapes the
    conclusion, which is the witness.  The sampler draws the chains after
    the constant pairs either way."""
    L = ctx.L
    down = L.poset.down
    if not ctx._samples() and L.join_fault is None and L.meet_fault is None:
        size = [d.bit_count() for d in down]
        ctx.checked += sum(sum(map(size.__getitem__, row)) for row in L.join)
    else:
        ok, witness = _minmax_constant_pairs(ctx)
        if not ok:
            return ok, witness
    for asc in _sample_chains(ctx):
        desc = list(reversed(asc))
        bound = L.join2(L.join_of_set(asc), L.meet_of_set(desc))
        # under holds the z below every a v d
        under = L.full()
        for a, d in zip(asc, desc):
            under &= down[L.join2(a, d)]
        escaped = under & ~down[bound]
        if not escaped:
            ctx.checked += under.bit_count()
            continue
        first = escaped & -escaped
        ctx.checked += (under & (2 * first - 1)).bit_count()
        return False, ctx.witness({"chain": [ctx.name(c) for c in asc]}, z=first.bit_length() - 1)
    return True, None


def _minmax_constant_pairs(ctx):
    L = ctx.L
    down = L.poset.down
    for u, v in ctx.pairs():
        hyp = L.join2(u, v)
        conclusion = L.join2(L.join2(u, u), L.meet2(v, v))
        under = down[hyp]
        escaped = under & ~down[conclusion]
        if not escaped:
            ctx.checked += under.bit_count()
            continue
        first = escaped & -escaped
        ctx.checked += (under & (2 * first - 1)).bit_count()
        return False, ctx.witness(u=u, v=v, z=first.bit_length() - 1)
    return True, None


def _sample_chains(ctx) -> list:
    """Random chains climbing from random elements to a maximal one; each
    element's list of strictly greater elements is built once."""
    up = ctx.L.poset.up
    above = {}
    chains = []
    for _ in range(min(ctx.budget.max_sampled_subsets, 2 * len(ctx.elements))):
        x = ctx.rng.choice(ctx.elements)
        chain = [x]
        while True:
            c = chain[-1]
            ups = above.get(c)
            if ups is None:
                ups = above[c] = list(bits(up[c] & ~(1 << c)))
            if not ups:
                break
            chain.append(ctx.rng.choice(ups))
        if len(chain) > 1:
            chains.append(chain)
    return chains


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
    ``L.join_fault`` is None.  Then the removals are only counted, the
    sampled ones as many as the sampler would draw.  Otherwise every
    removal, from the first x on, folds ``[core, *kept]`` through
    ``join_fold``, in the order below, with kept as a mask: the kept set
    of one x minus its highest member is often a kept set of the x before
    (on a chain, every unsampled one).
    """
    L = ctx.L
    budget = ctx.budget
    count_only = L.join_fault is None
    for x in ctx.elements:
        p = ctx.profile(x)
        delta = list(p.boundary_poset)
        if len(delta) <= budget.subset_exhaustive_bits:
            if count_only:
                ctx.checked += 1 << len(delta)
                continue
            removals = itertools.chain.from_iterable(
                itertools.combinations(delta, k) for k in range(len(delta) + 1)
            )
        else:
            ctx.sampled_subsets = True
            if count_only:
                ctx.checked += 1 + len(delta) + budget.max_sampled_subsets
                continue
            removals = [(), *((s,) for s in delta)]
            for _ in range(budget.max_sampled_subsets):
                k = ctx.rng.randint(0, len(delta))
                removals.append(tuple(ctx.rng.sample(delta, k)))
        everything = mask_of(delta)
        for removed in removals:
            ctx.checked += 1
            target = ctx.join_fold(p.core, everything & ~mask_of(removed))
            if not L.leq(target, x):
                return False, ctx.witness(
                    {"removed": [ctx.name(s) for s in removed]}, x=x, target=target
                )
    return True, None


def _check_core_union(ctx):
    """The core is the join of the zero-maximal elements below x; on a
    finite lattice that set is {bottom}."""
    L = ctx.L
    t0 = [x for x in ctx.elements if classify_t(L, x) == 0]
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
    t0 = mask_of(y for y in ctx.elements if classify_t(L, y) == 0)
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
    t0 = mask_of(y for y in ctx.elements if classify_t(L, y) == 0)
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
    """Row x: the cores along join[x] against join[core(x)] read at every
    core(z)."""
    join = ctx.L.join
    cores = [ctx.profile(x).core for x in ctx.elements]
    for x, core in enumerate(cores):
        if list(map(cores.__getitem__, join[x])) != list(map(join[core].__getitem__, cores)):
            return False
    ctx.checked += len(cores) ** 2
    return True


def _core_join_hom_pairs(ctx):
    """The pair loop of ``core_join_hom``.  Cores are kept by position and
    computed on first use, in the pair loop's order.  core(x) v core(z)
    is read from the join table when both cores are elements (the
    testbed's closed-form cores always are), else joined with ``join2``."""
    L, els = ctx.L, ctx.elements
    join2, profile = L.join2, ctx.profile
    table = ctx.join_table()
    cores, core_at = [None] * len(els), [-1] * len(els)

    def fill(i):
        core = cores[i] = profile(els[i]).core
        if table is not None:
            core_at[i] = ctx.index.get(core, -1)

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
    t0 = [x for x in ctx.elements if classify_t(L, x) == 0]
    if L.bottom not in t0:
        return False, ctx.witness(bottom=L.bottom)
    for a in t0:
        for b in t0:
            ctx.checked += 1
            if classify_t(L, L.join2(a, b)) != 0:
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
        if classify_t(L, r) != 0:
            return False, ctx.witness(x=x, sub=r)
        if not L.leq(r, p.core):
            return False, ctx.witness(x=x, sub=r, core=p.core)
    return True, None


def _check_downset_upper_complete(ctx):
    """Every subset of a downset has a least upper bound inside it.

    The quantifier runs over the empty set, all singletons and all pairs
    of each downset, plus sampled larger subsets.  ``L.join_fault``
    decides the non-empty ones: while it is None every join entry is a
    least upper bound, so every fold of ``join_of_set`` returns the true
    join, which lies in down(x) because x bounds the subset.  The subsets
    are then only counted, the sampled ones as many as the sampler would
    draw.  The empty join, the bottom, is checked for every x.

    With a fault, the subsets are folded one by one to report the first
    one that fails.  A bad entry that no folded subset reaches (an entry
    join[i][j] with i > j is folded only by sampled subsets) fails with
    the fault's pair, the top as x.
    """
    L = ctx.L
    bad = L.join_fault
    if bad is not None:
        ok, witness = _fold_downset_subsets(ctx)
        if not ok:
            return ok, witness
        a, b = bad
        witness = ctx.witness({"set": [ctx.name(a), ctx.name(b)]}, join=L.join2(a, b), x=L.top)
        witness["indices"].update(a=a, b=b)
        return False, witness
    down, up, bottom = L.poset.down, L.poset.up, L.bottom
    for x in ctx.elements:
        d = down[x].bit_count()
        draws = _sampled_subset_draws(ctx, d)
        ctx.checked += 1
        if down[x] & ~up[bottom]:
            return False, ctx.witness({"subset": []}, x=x, join=bottom)
        ctx.checked += d + d * (d - 1) // 2 + draws
    return True, None


def _sampled_subset_draws(ctx, d: int) -> int:
    """How many subsets of three or more members the downset law draws
    from a d-element downset; marks the report sampled when the draws
    cannot cover them all."""
    if d <= 2:
        return 0
    if d > ctx.budget.subset_exhaustive_bits:
        ctx.sampled_subsets = True
    return min(ctx.budget.max_sampled_subsets, 1 << min(d, 20))


def _fold_downset_subsets(ctx):
    """The subset loop of downset upper-completeness: fold each subset
    through the verified ``join_of_set``."""
    L = ctx.L
    for x in ctx.elements:
        down = list(bits(L.down_set(x)))
        subsets = [[]]
        subsets.extend([d] for d in down)
        subsets.extend(list(p) for p in itertools.combinations(down, 2))
        for _ in range(_sampled_subset_draws(ctx, len(down))):
            k = ctx.rng.randint(3, len(down))
            subsets.append(ctx.rng.sample(down, k))
        for s in subsets:
            ctx.checked += 1
            try:
                j = L.join_of_set(s)
            except LatticeIntegrityError as e:
                return False, {**e.witness, "x": ctx.name(x)}
            if not s and L.down_set(x) & ~L.up_set(j):
                return False, ctx.witness({"subset": []}, x=x, join=j)
    return True, None


def _check_k_lower_semilattice(ctx):
    """Dually compact elements form a lower semilattice.

    On finite instances every element is dually compact and the induced
    meet is verified to be the true infimum, which makes the suite
    sensitive to any corrupted meet entry; on the testbed the closure of
    the all-finite vectors under meets is a genuine statement.  While a
    finite lattice's pairs run exhaustively, ``L.meet_fault`` is the pair
    loop's first witness: the law passes with every pair checked, or
    fails at that pair with the pairs up to it checked."""
    L, els = ctx.L, ctx.elements
    if ctx.finite and ctx._samples():
        return _k_lower_pairs(ctx)
    if ctx.finite:
        if L.meet_fault is None:
            ctx.checked = L.n * L.n
            return True, None
        x, z = L.meet_fault
        ctx.checked = x * L.n + z + 1
        return False, ctx.witness(x=x, z=z, meet=L.meet[x][z])
    compact = [L.dually_compact(x) for x in els]
    for i, k in ctx.pair_positions():
        if compact[i] and compact[k]:
            ctx.checked += 1
            x, z = els[i], els[k]
            if not L.dually_compact(L.meet2(x, z)):
                return False, ctx.witness(x=x, z=z)
    return True, None


def _k_lower_pairs(ctx):
    L = ctx.L
    for x, z in ctx.pairs():
        ctx.checked += 1
        m = L.meet2(x, z)
        common = L.down_set(x) & L.down_set(z)
        if common != L.down_set(m):
            return False, ctx.witness(x=x, z=z, meet=m)
    return True, None


def _check_maximals_dually_compact(ctx):
    L = ctx.L
    for x in ctx.elements:
        if not ctx.finite and not L.dually_compact(x):
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


def _family_skip_reason(L, law: LawId, family) -> Optional[str]:
    if family is None:
        return None
    fam = family if isinstance(family, int) else mask_of(family)
    needs = FAMILY_HYPOTHESES.get(law, ())
    if "bottom" in needs and not contains(fam, L.bottom):
        return "family does not contain the bottom"
    if "upper_semilattice" in needs and not family_is_upper_semilattice(L, fam):
        return "family is not an upper semilattice"
    if "lattice" in needs and not family_is_lattice(L, fam):
        return "family is not a lattice"
    return None


def run_law(L, law: LawId, budget: Budget = DEFAULT_BUDGET, family=None, _memo=None) -> LawReport:
    """Run one law on one instance; deterministic for fixed inputs."""
    spec = REGISTRY[law]
    finite = isinstance(L, FiniteLattice)
    instance = L.describe() if finite else f"testbed(dims={L.dims})"

    def done(verdict, ctx=None, reason=None, witness=None):
        return LawReport(
            law=law.value,
            instance=instance,
            verdict=verdict,
            checked=ctx.checked if ctx else 0,
            exhaustive=ctx.exhaustive if ctx else True,
            sampled_subsets=ctx.sampled_subsets if ctx else False,
            reason=reason,
            witness=witness,
        )

    if spec.finite_only and not finite:
        return done("skipped", reason="requires finite enumeration")
    if spec.requires_coframe and not L.coframe:
        return done("skipped", reason="not a coframe")
    if spec.requires_distributive and not L.distributive:
        return done("skipped", reason="not distributive")
    use_family = family if law in FAMILY_HYPOTHESES else None
    if use_family is not None and finite:
        why = _family_skip_reason(L, law, use_family)
        if why is not None:
            return done("skipped", reason=why)
    ctx = _Ctx(L, budget, law, family=use_family, memo=_memo)
    try:
        ok, extra = spec.fn(ctx)
    except LatticeIntegrityError as e:
        return done("fail", ctx, reason=str(e), witness=e.witness)
    if ok is None:
        return done("skipped", ctx, reason=extra)
    if ok:
        return done("pass", ctx)
    return done("fail", ctx, witness=extra)


def run_all(L, budget: Budget = DEFAULT_BUDGET, laws=None, family=None) -> list:
    """Run the registry (or a subset) in registry order, sharing one
    ``_RunMemo``."""
    selected = list(REGISTRY) if laws is None else list(laws)
    memo = _RunMemo()
    return [run_law(L, law, budget, family, memo) for law in selected]


def all_pass(reports) -> bool:
    return all(r.verdict != "fail" for r in reports)


# -- fault injection and shrinking -----------------------------------------


def mutate_entry(L: FiniteLattice, table: str, i: int, j: int, value: int) -> FiniteLattice:
    """Copy of L with one meet/join table entry replaced (not symmetrized).

    A meet-mutated copy carries its rows as ``meet_rows``; a join-mutated
    one keeps L's ``meet_rows``, so without them it builds a clean meet
    table from the down rows."""
    if table not in ("meet", "join"):
        raise ValueError("table must be 'meet' or 'join'")
    rows = [list(row) for row in getattr(L, table)]
    rows[i][j] = value
    mutated = {"join" if table == "join" else "meet_rows": tuple(tuple(r) for r in rows)}
    return replace(
        L, provenance=f"{L.provenance}+fault({table}[{i}][{j}]={value})", **mutated
    )


def _sublattice(L: FiniteLattice, keep: list) -> FiniteLattice:
    """Restriction of L (tables included, as they are) to a table-closed subset."""
    keep = sorted(keep)
    pos = {e: i for i, e in enumerate(keep)}
    n = len(keep)
    up, down = [], []
    for e in keep:
        u = d = 0
        for f in keep:
            if L.leq(e, f):
                u |= 1 << pos[f]
            if L.leq(f, e):
                d |= 1 << pos[f]
        up.append(u)
        down.append(d)
    poset = FinitePoset(
        n=n, names=tuple(L.names[e] for e in keep), up=tuple(up), down=tuple(down)
    )
    meet = tuple(tuple(pos[L.meet[a][b]] for b in keep) for a in keep)
    join = tuple(tuple(pos[L.join[a][b]] for b in keep) for a in keep)
    bottom = next((i for i in range(n) if up[i] == full_mask(n)), 0)
    top = next((i for i in range(n) if down[i] == full_mask(n)), n - 1)
    # The flag is read off the order rows, as for every other lattice:
    # co_heyting_sub's closed form relies on it, and the kept tables may
    # be corrupted.  An order that is no lattice counts as not distributive.
    try:
        distributive = as_lattice(poset).distributive
    except (NotALattice, NoBottom):
        distributive = False
    return FiniteLattice(
        poset=poset,
        meet_rows=meet,
        join=join,
        bottom=bottom,
        top=top,
        distributive=distributive,
        coframe=distributive,
        provenance=f"shrunk({L.provenance})",
    )


def _table_closure(L: FiniteLattice, seed: set) -> set:
    members = set(seed)
    frontier = list(members)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                for c in (L.meet[a][b], L.join[a][b], L.meet[b][a], L.join[b][a]):
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
        frontier = nxt
    return members


def _witness_indices(report: LawReport) -> set:
    out = set()
    if report.witness and "indices" in report.witness:
        for v in report.witness["indices"].values():
            if isinstance(v, int):
                out.add(v)
    return out


def shrink(L: FiniteLattice, law: LawId, report: LawReport, budget: Budget = DEFAULT_BUDGET):
    """Greedily remove elements (re-closing under the tables) while the
    failure persists; a passing report is returned unchanged.

    Starts from the table closure of the witness elements when that
    already reproduces the failure, then keeps dropping single elements
    whose removal leaves a table-closed proper subset."""
    if report.verdict != "fail":
        return L, report
    witness_elems = _witness_indices(report)
    current, current_report = L, report
    if witness_elems:
        seed = _table_closure(L, witness_elems)
        if len(seed) < L.n:
            candidate = _sublattice(L, sorted(seed))
            rep = run_law(candidate, law, budget)
            if rep.verdict == "fail":
                current, current_report = candidate, rep
                witness_elems = _witness_indices(rep)
    improved = True
    while improved:
        improved = False
        for e in sorted(range(current.n), reverse=True):
            if e in witness_elems:
                continue
            keep = _table_closure(current, set(range(current.n)) - {e})
            if len(keep) >= current.n:
                continue
            candidate = _sublattice(current, sorted(keep))
            rep = run_law(candidate, law, budget)
            if rep.verdict == "fail":
                current, current_report = candidate, rep
                witness_elems = _witness_indices(rep)
                improved = True
                break
    return current, current_report


__all__ = [
    "LawId",
    "LawSpec",
    "LawReport",
    "Budget",
    "DEFAULT_BUDGET",
    "REGISTRY",
    "FAMILY_HYPOTHESES",
    "run_law",
    "run_all",
    "all_pass",
    "mutate_entry",
    "shrink",
]
