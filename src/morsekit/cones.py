"""Enumeration of realizable combinatorial types by exact cone feasibility.

A combinatorial type (W, Z, M) is realizable iff the open cone cut out by
its defining strict inequalities meets the nonnegative orthant.  Feasibility
of a homogeneous strict system {l_i(g) > 0, g >= 0} is equivalent to
feasibility of {l_i(g) >= 1, g >= 0}, which a small phase-1 simplex over
exact integers decides; the phase-1 solution doubles as an interior witness.
The simplex keeps a dictionary over the n nonbasic columns only, every entry
over one common denominator, and pivots by exact integer division (Bareiss;
Avis's lrs), so a pivot costs O(m n) however many rows have been pivoted.
Each row is packed into one Python int, its right-hand side and its n
entries in signed fields of one width, fixed per solve by a Hadamard bound
on the minors the dictionary can hold; a pivot then updates a whole row with
a few big-integer operations instead of one Python operation per entry.
Each form's cleared integer form, 1-norm and packed row are cached, since
the enumeration solves the same forms many times over.

The search is a backtracking tree per subdivision W: hull constraints first
(they kill most subdivisions cheaply), then k + 1 chains in turn, the root
order Z and one monomial order M^j per root.  Every chain grows one element
at a time with a feasibility test per extension, and `cone_constraints`
reads its forms off the same chain definitions.  The subdivisions are
independent tasks, mapped in order or over a process pool.

`enumerate_types` grows every chain by the fine rule, one new comparison
per element, so its leaves are the paper's types (W, Z, M).  The vertex
reads only the elements of M^j at which the gcd ladder b drops, and only a
live element, one that b does not divide, can drop it; so `enumerate_keys`
grows each M^j by the drop rule: pick a live element beating every other
live one, replace b by its gcd with it, stop when none is live.  A leaf is
a drop key (`singularity.drop_key`), one convex cone of fine types with one
vertex: a few dozen keys stand for the thousands of types of |A| = 6.

Most extensions that turn out empty repeat a contradiction a sibling already
met.  When phase 1 proves a system empty, its final objective row holds
Farkas multipliers, and the rows they weight form an empty system on their
own.  Each subdivision keeps these cores in a store shared by all of its
systems, and a later system that contains a whole core is answered empty
without pivoting.  Z and each M^j are strict total orders, so a chain that
has grown to p > q > r also implies the comparison p > r, which a sibling
branch may have proved contradictory; every comparison a chain implies
counts as contained (the learned explanations of Dutertre and de Moura's
simplex-based solver).  Each system carries the set of its forms and the
comparisons they imply, built from its parent's set by adding what the
extension brings, so a tree node hashes only the forms it adds and a lookup
is one subset test per candidate core.  A core is only ever a proof of
emptiness, so the store changes no answer and no witness, only the time to
reach it.

A leaf's witness is nudged off the slope-tie walls by small shifts.  One
`extract` of each candidate, a Covector of its cleared denominators, finds
the ties, through its slope check, and confirms the type of the first
tie-free candidate, in integers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, partial
from math import gcd
from operator import mul

from .errors import MorsekitError, SlopeDegenerate, SupportTooLarge
from .rationals import clear_denominators
from .singularity import drop_key
from .tropical import CombinatorialType, Covector, SupportSet, extract

Form = tuple[int, ...]


@dataclass(frozen=True)
class StrictSystem:
    """Homogeneous forms required strictly positive, on g >= 0 variables.

    A form shorter than `nvars` is padded with zeros; a longer one is refused.
    `present` holds the forms and the comparisons they imply, the set the
    store tests its cores against; `extended` builds a child's from its
    parent's, hashing only the forms and comparisons it adds.
    """

    nvars: int
    forms: tuple[Form, ...] = field(default_factory=tuple)
    # form -> the proven-empty cores (frozensets of forms) that contain it;
    # shared by every system extended from the same base
    learned: dict[Form, list[frozenset[Form]]] = field(
        default_factory=dict, compare=False, repr=False
    )
    # the forms plus the comparisons they imply (positive combinations of
    # them), which the store counts as present; None builds it from `forms`
    present: frozenset[Form] | None = field(default=None, compare=False, repr=False)
    # the comparisons that came with the newest forms
    fresh: tuple[Form, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.present is None:
            _check_lengths(self.forms, self.nvars)
            object.__setattr__(self, "present", frozenset(self.forms))

    def extended(self, extra, implied=()) -> "StrictSystem":
        extra = tuple(extra)
        implied = tuple(implied)
        # the parent's forms were checked when it was built
        _check_lengths(extra, self.nvars)
        return StrictSystem(
            self.nvars,
            self.forms + extra,
            self.learned,
            self.present.union(extra, implied),
            implied,
        )

    def holds_strictly(self, point) -> bool:
        # a positive scaling of the point keeps every sign
        scaled = clear_denominators(point)
        return all(
            sum(c * x for c, x in zip(form, scaled)) > 0 for form in self.forms
        ) and all(x >= 0 for x in scaled)


def _check_lengths(forms, nvars: int) -> None:
    for form in forms:
        if len(form) > nvars:
            raise ValueError(f"a form has more than {nvars} coefficients")


# --- exact phase-1 simplex ------------------------------------------------------


class _Witness(tuple):
    """A witness's coordinates as Fractions, with the integers behind them.

    `numerators` over the one denominator `det` > 0 are the simplex's own
    values, so `_extend` tests new forms on them without clearing the
    Fractions' denominators again.
    """

    def __new__(cls, numerators: tuple[int, ...], det: int):
        self = super().__new__(cls, (Fraction(x, det) for x in numerators))
        self.numerators = numerators
        self.det = det
        return self


def feasible(system: StrictSystem) -> tuple[Fraction, ...] | None:
    """Interior witness of the open cone, or None if it is empty.

    Solves {l_i(g) >= 1, g >= 0} by a phase-1 simplex with Bland's rule that
    minimizes the sum of the artificials.  Variables: structural 0..n-1,
    surplus n + i and artificial n + m + i of row i.  The dictionary keeps
    row i as A[i][0..n-1] in the n nonbasic slots, then its right-hand side
    A[i][n], and the objective row O likewise, all integers over one
    denominator det > 0.  While artificial i is basic (always in row i),
    surplus i's column is -e_i with objective entry -1, so it cannot enter
    and is not stored; an artificial that leaves never returns.

    A pivot on row r and slot s, with p = A[r][s] > 0, turns every other
    entry into (p A[i][j] - A[i][s] A[r][j]) // det, exact by Sylvester's
    identity.  Slot s then takes the leaving column: the leaving basic
    variable (sign +1), or, when artificial r leaves, surplus r (sign -1,
    the artificial's column negated).  Then det becomes p.

    Each row is one Python int, sum_j e_j 2^(w j) over fields j = 0 .. n of
    w bits: e_0 = A[i][n] is the right-hand side and e_(k+1) = A[i][k] the
    entry in slot k; the objective row likewise.  With
    q = A[r] + (sign det) 2^(w (s + 1)), the whole update of row i is
    (p A[i] - A[i][s] q) // det.  Every field of the dividend is divisible
    by det, so the division is exact on the int however wide an
    intermediate field gets, and field s comes out as -sign A[i][s].
    Field j decodes as ((A[i] + bias) >> w j & (2^w - 1)) - 2^(w - 1),
    where bias holds 2^(w - 1) in every field, so the right-hand side needs
    no shift.  Decoding is right as long as every stored entry lies in
    [-2^(w - 1), 2^(w - 1)).

    The width w is ((m + 1) H).bit_length() + 1 with H = (N + 1)^(n + 1)
    and N the largest 1-norm of a form.  Proof: by Cramer's rule det and
    every A[i][j] are, up to sign, square minors of the full tableau
    [L | -I | I | 1]; expanding along its unit columns leaves a minor of
    order <= n + 1 of [L | 1].  A row of [L | 1] restricted to any columns
    has 2-norm at most its 1-norm, at most N + 1, so by Hadamard's
    inequality the minor is at most H in absolute value.  The objective row
    is the sum of the rows whose artificial is basic, at most m of them, so
    every stored entry is below (m + 1) H < 2^(w - 1) in absolute value.
    The bound is nearly tight for zero forms, where H = 1 and the
    objective's right-hand side is m, so one bit less can overflow.

    At the optimum the Farkas multiplier of row i is y_i = 1 while artificial
    i is basic, y_i = -O[k] / det when surplus i sits in slot k, and 0 when
    surplus i is basic; sum_i y_i l_i <= 0 coefficientwise and sum_i y_i > 0,
    so the rows with y_i > 0 admit no point on their own.  An empty answer
    records that core in the store `system.learned`, and a system whose
    `present` set, its forms and the comparisons they imply, contains a
    stored core is answered None before any dictionary is built.  Cores are
    looked up only under the last form and the comparisons that came with
    it (see `_stored_core_within`), one subset test each: systems grow by
    appending to a feasible prefix, so only these can complete a core, and
    a miss merely solves.

    The witness is a tuple of Fractions that also carries the simplex's
    integers, as `numerators` over `det`.
    """
    solved = _solve(system)
    return None if solved is None else _Witness(*solved)


def _solve(system: StrictSystem) -> tuple[tuple[int, ...], int] | None:
    """The simplex of `feasible`: the witness as numerators over det, or None."""
    n = system.nvars
    forms = system.forms
    if not forms:
        return (1,) * n, 1
    if _stored_core_within(system):
        return None
    cleared = [_cleared(form) for form in forms]
    m = len(forms)
    artificial = n + m
    norm = max(norm for _, norm in cleared)
    width = ((m + 1) * (norm + 1) ** (n + 1)).bit_length() + 1
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    bias = sum(half << (width * j) for j in range(n + 1))
    shifts = [width * (k + 1) for k in range(n)]
    rows = [_packed(integer, width) for integer, _ in cleared]
    # reduced costs of min(sum of artificials): the column sums
    obj = sum(rows)
    cols = list(range(n))
    basis = [artificial + i for i in range(m)]
    det = 1

    while True:
        # Bland: the lowest-numbered variable with O > 0 enters
        biased = obj + bias
        s = -1
        for k in range(n):
            if biased >> shifts[k] & mask > half and (s < 0 or cols[k] < cols[s]):
                s = k
        if s < 0:
            break
        sh = shifts[s]
        column = [((row + bias) >> sh & mask) - half for row in rows]
        r = -1
        for i, a in enumerate(column):
            if a <= 0:
                continue
            b = ((rows[i] + half) & mask) - half
            if r < 0:
                r, p, rb = i, a, b
                continue
            # compare b / a with the incumbent ratio rb / p
            lhs = b * p
            rhs = rb * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                r, p, rb = i, a, b
        if r < 0:
            raise AssertionError("phase-1 objective unbounded (internal bug)")
        sign = -1 if basis[r] >= artificial else 1
        prow = rows[r]
        q = prow + (sign * det << sh)
        for i, f in enumerate(column):
            if i == r:
                continue
            if f:
                rows[i] = (p * rows[i] - f * q) // det
            elif p != det:
                rows[i] = p * rows[i] // det
        f = (biased >> sh & mask) - half
        obj = (p * obj - f * q) // det
        if sign < 0:
            obj -= p << sh
        rows[r] = prow + (sign * det - p << sh)
        cols[s], basis[r] = (basis[r] if sign > 0 else n + r), cols[s]
        det = p

    if obj & mask:
        # y_i > 0: artificial i still basic, or surplus i in a slot with O < 0
        biased = obj + bias
        weighted = {
            cols[k] - n
            for k in range(n)
            if cols[k] >= n and biased >> shifts[k] & mask < half
        }
        core = frozenset(
            forms[i] for i in range(m) if basis[i] == artificial + i or i in weighted
        )
        for form in core:
            system.learned.setdefault(form, []).append(core)
        return None
    numerators = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            numerators[var] = ((rows[i] + half) & mask) - half
    return tuple(numerators), det


def _stored_core_within(system: StrictSystem) -> bool:
    """Whether a stored core lies within `system.present`.

    `present` holds the forms and the comparisons they imply; each such
    comparison is positive wherever the forms are, so a hit is a proof of
    emptiness.  Cores are looked up under the newest form and the
    comparisons that came with it (`system.fresh`) only: systems grow by
    appending to a feasible prefix, and no core lies within what a feasible
    system implies, so any core that lies within this one holds one of these
    keys, or an earlier form of the same extension, which a drop-rule step
    makes several at once; a miss merely solves.  A lookup costs one dict
    probe per key and one subset test per core found, which reads the
    hashes the sets already hold.
    """
    learned = system.learned
    present = system.present
    for key in (system.forms[-1], *system.fresh):
        for core in learned.get(key, ()):
            if core <= present:
                return True
    return False


# The enumeration solves the same forms many times over, so each form's
# cleared integer form and 1-norm, and its packed row per field width, are
# computed once and kept in bounded caches.
@lru_cache(maxsize=1 << 13)
def _cleared(form: Form) -> tuple[Form, int]:
    # a positive scaling leaves each strict inequality as it was
    integer = clear_denominators(form)
    return integer, sum(map(abs, integer))


@lru_cache(maxsize=1 << 13)
def _packed(integer: Form, width: int) -> int:
    # slot k in field k + 1; the right-hand side 1 in field 0
    return 1 + sum(c << width * (k + 1) for k, c in enumerate(integer))


# --- constraint assembly ---------------------------------------------------------


def cone_constraints(support: SupportSet, ctype: CombinatorialType) -> StrictSystem:
    """All strict forms pinning a covector to the cone of `ctype`.

    (a) strict concavity on consecutive hull triples, (b) strictly-below-hull
    for each skipped exponent over its covering edge, (c) the root-value
    chain in the order Z, (d) each monomial chain M^j, denominators cleared.
    """
    forms = _hull_forms(support, ctype.w)
    for (_, pair_form), chain in zip(_chains(support, ctype.w), (ctype.z, *ctype.m)):
        forms.extend(pair_form(prev, cur) for prev, cur in zip(chain, chain[1:]))
    return StrictSystem(len(support), tuple(forms))


def _hull_forms(support: SupportSet, w: tuple[int, ...]) -> list[Form]:
    forms = [
        support.form(((a, -(c - b)), (b, c - a), (c, -(b - a))))
        for a, b, c in zip(w, w[1:], w[2:])
    ]
    wset = set(w)
    for p in support.points:
        if p in wset:
            continue
        j = max(t for t in range(len(w) - 1) if w[t] < p)
        u, v = w[j], w[j + 1]
        forms.append(support.form(((u, v - p), (v, p - u), (p, -(v - u)))))
    return forms


def _z_pair_form(
    support: SupportSet, w: tuple[int, ...], prev: int, cur: int
) -> Form:
    # phi_i = S_i / d_i with S_i = w_{i+1} g(w_i) - w_i g(w_{i+1});
    # phi_cur > phi_prev cleared of the positive denominators
    d_prev = w[prev + 1] - w[prev]
    d_cur = w[cur + 1] - w[cur]
    return support.form(
        (
            (w[cur], w[cur + 1] * d_prev),
            (w[cur + 1], -w[cur] * d_prev),
            (w[prev], -w[prev + 1] * d_cur),
            (w[prev + 1], w[prev] * d_cur),
        )
    )


def _m_pair_form(
    support: SupportSet, w: tuple[int, ...], j: int, p: int, q: int
) -> Form:
    # value of p exceeds value of q at root j, cleared of d_j:
    # d_j (g(p) - g(q)) + (p - q)(g(w_j) - g(w_{j+1})) > 0
    d = w[j + 1] - w[j]
    return support.form(((p, d), (q, -d), (w[j], p - q), (w[j + 1], -(p - q))))


def _chains(support: SupportSet, w: tuple[int, ...]):
    """The k + 1 chains of a type over W: Z, then M^0 .. M^{k-1}.

    Each is (its elements, its pair form, built once per ordered pair).  Z
    orders the roots 0 .. k-1; M^j orders the exponents off edge j.  A full
    chain contributes the form of each adjacent pair (prev, cur), in order,
    and implies the form of every pair (x, y) with x before y: M pair forms
    add up, M(p, q) + M(q, r) == M(p, r), and Z pair forms combine with the
    positive weights d_i = w[i + 1] - w[i], d_r Z(p, q) + d_p Z(q, r) ==
    d_q Z(p, r).
    """
    k = len(w) - 1
    return [(tuple(range(k)), cache(partial(_z_pair_form, support, w)))] + [
        (
            tuple(p for p in support.points if p != w[j] and p != w[j + 1]),
            cache(partial(_m_pair_form, support, w, j)),
        )
        for j in range(k)
    ]


# --- enumeration -------------------------------------------------------------------


def _genericize(
    support: SupportSet,
    system: StrictSystem,
    witness: _Witness,
    ctype: CombinatorialType,
) -> Covector:
    """Nudge a feasibility witness off the measure-zero slope-tie walls.

    Simplex witnesses are corner solutions and frequently tie two segment
    slopes; adding eps, eps^2, ... for a small power of 1/2 stays inside the
    open cone while leaving every nonzero linear form in finitely many bad
    positions.  The candidates are the witness, then the shifts for
    eps = 2^-4, 2^-6, ... that satisfy the system strictly (see
    `_exponents` for where the ladder ends).  Each is extracted as a
    Covector of its cleared denominators, which stay ints, so in integers.
    Inside the open cone the strict hull, Z and M forms exclude every other
    wall, so `extract` can only raise SlopeDegenerate, and the first
    candidate it accepts is a covector of `ctype` (a positive scaling keeps
    the type): its type is `ctype` for a fine leaf, and its drop key is
    `ctype` for a key leaf.
    """
    span = support.high - support.low
    for values, denominator in _candidates(system, witness, span):
        try:
            found = extract(support, Covector(support, values))
        except SlopeDegenerate:
            continue
        # for a fine leaf, drop_key(found) == ctype forces found == ctype
        if found != ctype and drop_key(found) != ctype:
            raise AssertionError("witness outside its cone (internal bug)")
        return Covector(support, tuple(Fraction(x, denominator) for x in values))
    raise MorsekitError("could not move a cone's witness off the slope ties")


def _candidates(system: StrictSystem, witness: _Witness, span: int):
    """The witness, then its eps-shifts that satisfy the system strictly.

    Each comes as integers over one denominator: the shift by eps = 2^-e is
    the witness's numerators times 2^(e n), plus det 2^(e (n - 1 - i)) at
    coordinate i, over det 2^(e n).  See `_exponents` for the e tried.
    """
    numerators, det = witness.numerators, witness.det
    yield numerators, det
    n = len(numerators)
    for exponent in _exponents(system, det, span):
        shifted = tuple(
            (x << exponent * n) + (det << exponent * (n - 1 - i))
            for i, x in enumerate(numerators)
        )
        if system.holds_strictly(shifted):
            yield shifted, det << exponent * n


def _exponents(system: StrictSystem, den: int, span: int):
    """e = 4, 6, ..., 198, then on while 2^e <= den max(N, 4 span).

    N is the largest 1-norm of a system form, cleared of denominators, and
    span the width of the support.  The last e tried, at least 198, has
    2^e > den max(N, 4 span), and that shift is sure to work.  The witness
    x is integers over den, and each cleared form l has l(x) > 0, so
    l(x) >= 1 / den, while the shift moves l by at most N eps < 1 / den.  A
    slope tie (g(q) - g(p)) (s - r) = (g(s) - g(r)) (q - p) is a nonzero
    integer form T of 1-norm at most 4 span: if T(x) != 0 then
    |T(x)| >= 1 / den > 4 span eps; if T(x) = 0, the lowest power
    eps^(i + 1) with T_i != 0 outweighs all the higher ones, which sum to at
    most 4 span eps^(i + 2).
    """
    norm = max((_cleared(form)[1] for form in system.forms), default=0)
    limit = (den * max(norm, 4 * span)).bit_length()
    yield from range(4, max(200, limit + 2), 2)


def _extend(
    system: StrictSystem, witness, extra: list[Form], implied: list[Form]
):
    """Add forms to a feasible (system, witness) pair, re-solving lazily.

    witness comes from `feasible`; the parent witness usually satisfies the
    new form already, which its integer numerators show, so the exact
    simplex runs only when it does not.  `implied` are the comparisons the
    new forms imply with the old ones (see `StrictSystem.present`).
    """
    child = system.extended(extra, implied)
    numerators = witness.numerators
    if all(sum(map(mul, form, numerators)) > 0 for form in extra):
        return child, witness
    return child, feasible(child)


def _subdivision_types(
    support: SupportSet, keys: bool, w: tuple[int, ...]
) -> list[tuple[CombinatorialType, Covector]]:
    """All realizable types refining one subdivision W, with witnesses.

    Backtracking over the chains of `_chains` in turn: the root order Z, then
    each monomial chain M^j.  A chain grows one element at a time, in the
    order of its elements, pruning where the system turns empty.  Z, and
    each M^j unless `keys`, takes any unused element with the form comparing
    it to its predecessor, the forms comparing it to the earlier ones going
    along as implied comparisons; with `keys` each M^j takes the drop rule
    (see the module docstring) and its leaves are drop keys.  Witnesses are
    inherited down the tree, so a node pays for a simplex solve only when
    its parent's witness violates a new form.  Every system of the call
    shares one store of Farkas cores (see `feasible`), which lives exactly
    as long as the call.
    """
    base = StrictSystem(len(support), tuple(_hull_forms(support, w)))
    base_witness = feasible(base)
    if base_witness is None:
        return []
    chains = _chains(support, w)
    # the drop rule's ladder start b_0 = gcd(w_j, w_{j+1}) per chain, or None
    starts = [None] + [gcd(u, v) if keys else None for u, v in zip(w, w[1:])]
    found: list[tuple[CombinatorialType, Covector]] = []

    def grow(done: tuple, chain: tuple[int, ...], system: StrictSystem, witness):
        elements, pair_form = chains[len(done)]
        start = starts[len(done)]
        if start is None:
            full = len(chain) == len(elements)
        else:
            # the live elements: b, the ladder's current entry, divides every
            # element picked and is divided by every later entry
            b = gcd(start, *chain)
            elements = [p for p in elements if p % b]
            full = not elements
        if full:
            done += (chain,)
            if len(done) == len(chains):
                ctype = CombinatorialType(w, done[0], done[1:])
                found.append((ctype, _genericize(support, system, witness, ctype)))
            else:
                grow(done, (), system, witness)
            return
        for nxt in elements:
            if nxt in chain:
                continue
            if start is None:
                extra = [pair_form(chain[-1], nxt)] if chain else []
                implied = [pair_form(x, nxt) for x in chain[:-1]]
            else:
                extra = [pair_form(nxt, r) for r in elements if r != nxt]
                implied = []
            child, child_witness = _extend(system, witness, extra, implied)
            if child_witness is not None:
                grow(done, chain + (nxt,), child, child_witness)

    grow((), (), base, base_witness)
    return found


def _all_subdivisions(support: SupportSet) -> list[tuple[int, ...]]:
    interior = support.points[1:-1]
    subs = []
    for mask in range(2 ** len(interior)):
        mid = tuple(p for i, p in enumerate(interior) if mask >> i & 1)
        subs.append((support.low,) + mid + (support.high,))
    return sorted(subs)


def _pool_size(jobs: int | None, tasks: int) -> int:
    """Worker processes for `jobs`: never more than the CPUs or the tasks.

    The pool forks every worker up front, so an unclamped request would
    start that many processes whatever the work.
    """
    return max(1, min(jobs or 1, os.cpu_count() or 1, tasks))


MAX_SUPPORT_SIZE = 7


def enumerate_types(
    support: SupportSet,
    *,
    max_support_size: int = MAX_SUPPORT_SIZE,
    jobs: int | None = None,
) -> list[tuple[CombinatorialType, Covector]]:
    """Every realizable combinatorial type, with an interior witness each.

    Each subdivision W is one task, and `jobs` > 1 maps the tasks over a
    process pool of at most that many workers, clamped to the CPUs and to
    the number of subdivisions.  Output is canonically ordered
    (lexicographic by W, then Z, then M) and identical regardless of the
    parallelism degree: the tasks run in sorted W order, the pool returns
    them in that order, and each tree tries every chain's elements in
    increasing order, so it emits its types sorted.  Raises SupportTooLarge
    past the combinatorial cap.
    """
    return _enumerate(support, max_support_size, jobs, False)


def enumerate_keys(
    support: SupportSet,
    *,
    max_support_size: int = MAX_SUPPORT_SIZE,
    jobs: int | None = None,
) -> list[tuple[CombinatorialType, Covector]]:
    """Every realizable drop key, with an interior witness each.

    As `enumerate_types`, with each M^j grown by the drop rule: a leaf is the
    drop key of the fine types in one convex cone, which share one vertex.
    """
    return _enumerate(support, max_support_size, jobs, True)


def _enumerate(support, max_support_size, jobs, keys):
    if len(support) > max_support_size:
        raise SupportTooLarge(
            f"support of size {len(support)} exceeds the cap {max_support_size}"
        )
    subdivisions = _all_subdivisions(support)
    task = partial(_subdivision_types, support, keys)
    workers = _pool_size(jobs, len(subdivisions))
    if workers > 1:
        # imported here so that importing the package does not load
        # multiprocessing, which only a parallel run needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(task, subdivisions))
    else:
        chunks = map(task, subdivisions)
    return [item for chunk in chunks for item in chunk]
