"""Enumeration of realizable combinatorial types by exact cone feasibility.

A combinatorial type (W, Z, M) is realizable iff the open cone cut out by
its defining strict inequalities meets the nonnegative orthant.  Feasibility
of a homogeneous strict system {l_i(g) > 0, g >= 0} is equivalent to
feasibility of {l_i(g) >= 1, g >= 0}, which a small phase-1 simplex over
exact integers decides; the phase-1 solution doubles as an interior witness,
kept as the final dictionary holds it, integer numerators over one positive
denominator.
The simplex keeps a dictionary over the n nonbasic columns only, every entry
over one common denominator, and pivots by exact integer division (Bareiss;
Avis's lrs), so a pivot costs O(m n) however many rows have been pivoted.
The whole dictionary is one Python int: every right-hand side and entry in
a signed field of one width, each row's n + 1 fields after the previous
row's; the objective row is a second int laid out as one row.  A pivot then
updates every row with a fixed number of big-integer operations instead of a
Python loop over the rows, one add and one mask of the objective row find
every slot that may enter, and one subtract and one mask of the pivot column
every row that may leave.  The width is fixed per solve by Hadamard's
inequality on the rows' 2-norms: every dictionary entry is a minor of order
at most n + 1 of the forms with a column of ones appended, so it is at most
the square root of the product of the n + 1 largest ||l_i||_2^2 + 1
(`feasible` gives the proof).  Each form's cleared integer form, norms and
packed row are cached, since the enumeration solves the same forms many
times over, and so are the packing constants of each width and row count.

The search is a backtracking tree per subdivision W: hull constraints first
(they kill most subdivisions cheaply), then k + 1 chains in turn, the root
order Z and one monomial order M^j per root.  Every chain grows one element
at a time with a feasibility test per extension, and `cone_constraints`
reads its forms off the same chain definitions.

`enumerate_types` grows every chain by the fine rule, one new comparison
per element, so its leaves are the paper's types (W, Z, M).  The vertex
reads only the elements of M^j at which the gcd ladder b drops, and only a
live element, one that b does not divide, can drop it; so `enumerate_keys`
grows each M^j by the drop rule: pick a live element beating every other
live one, replace b by its gcd with it, stop when none is live.  A leaf is
a drop key (`singularity.drop_key`), one convex cone of fine types with one
vertex: a few dozen keys stand for the thousands of types of |A| = 6.
Every build maps its subdivisions in sorted order, in this process.

Most extensions that turn out empty repeat a contradiction a sibling already
met.  When phase 1 proves a system empty, its final dictionary holds Farkas
certificates: the objective row, and often a row of a basic artificial, or
the sum of two, that weights fewer forms.  The forms a certificate weights,
its core, admit no point on their own.  The smallest core found is kept,
since the smaller a core, the more later systems contain it (the smallest of
all, the irreducible infeasible subsystems of Gleeson and Ryan, would take
further solves to find).  Each subdivision keeps these cores in a store
shared by all of its systems, and a later system that contains a whole core
is answered empty without pivoting.  Z and each M^j are strict total orders,
so a chain that has grown to p > q > r also implies the comparison p > r,
which a sibling branch may have proved contradictory; every comparison a
chain implies counts as contained (the learned explanations of Dutertre and
de Moura's simplex-based solver).  Each system carries the set of its forms
and the comparisons they imply, built from its parent's set by adding what
the extension brings, so a tree node hashes only the forms it adds and a
lookup is one subset test per candidate core.  A core is only ever a proof of
emptiness, so the store changes no answer and no witness, only the time to
reach it.

A leaf's witness is nudged off the slope-tie walls by small shifts.  One
`extract` of each candidate, a Covector of its numerators, finds the ties,
through its slope check, and confirms the type of the first tie-free
candidate, in integers; only that candidate is turned into Fractions, the
leaf's printed witness.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import combinations
from math import gcd, isqrt, prod
from operator import mul

from .errors import MorsekitError, SlopeDegenerate, SupportTooLarge
from .rationals import clear_denominators
from .singularity import drop_key
from .tropical import CombinatorialType, Covector, SupportSet, extract

Form = tuple[int, ...]


class StrictSystem:
    """Homogeneous forms required strictly positive, on g >= 0 variables.

    A form shorter than `nvars` is padded with zeros; a longer one is refused.
    `learned` is the store of proven-empty cores, shared by every system
    extended from the same base.  `present` holds the forms and the
    comparisons they imply, the set the store tests its cores against, and
    `fresh` the comparisons that came with the newest forms; `extended`
    builds a child's from its parent's, hashing only the forms and
    comparisons it adds.  The value is (nvars, forms): equality, hash and
    repr read nothing else.  No field can be reassigned; the store is the
    one part that changes, and it is shared on purpose.
    """

    __slots__ = ("nvars", "forms", "learned", "present", "fresh")

    def __new__(
        cls,
        nvars: int,
        forms: tuple[Form, ...] = (),
        learned: dict[Form, list[frozenset[Form]]] | None = None,
    ):
        forms = tuple(forms)
        _check_lengths(forms, nvars)
        if learned is None:
            learned = {}
        return _system(nvars, forms, learned, frozenset(forms), ())

    def extended(self, extra, implied=()) -> "StrictSystem":
        extra = tuple(extra)
        implied = tuple(implied)
        # the parent's forms were checked when it was built
        _check_lengths(extra, self.nvars)
        return _system(
            self.nvars,
            self.forms + extra,
            self.learned,
            self.present.union(extra, implied),
            implied,
        )

    def holds_strictly(self, point) -> bool:
        # exact on ints and Fractions alike; the tree passes only ints
        return all(sum(map(mul, form, point)) > 0 for form in self.forms) and all(
            x >= 0 for x in point
        )

    def __eq__(self, other):
        if other.__class__ is not StrictSystem:
            return NotImplemented
        return self.nvars == other.nvars and self.forms == other.forms

    def __hash__(self):
        return hash((self.nvars, self.forms))

    def __repr__(self):
        return f"StrictSystem(nvars={self.nvars!r}, forms={self.forms!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _system, (self.nvars, self.forms, self.learned, self.present, self.fresh)


# `__setattr__` refuses every assignment, so a system's fields are written
# once, through the slots' own descriptors, when it is made
_new = object.__new__
_set_nvars, _set_forms, _set_learned, _set_present, _set_fresh = (
    vars(StrictSystem)[name].__set__ for name in StrictSystem.__slots__
)


def _system(nvars, forms, learned, present, fresh) -> StrictSystem:
    system = _new(StrictSystem)
    _set_nvars(system, nvars)
    _set_forms(system, forms)
    _set_learned(system, learned)
    _set_present(system, present)
    _set_fresh(system, fresh)
    return system


def _check_lengths(forms, nvars: int) -> None:
    for form in forms:
        if len(form) > nvars:
            raise ValueError(f"a form has more than {nvars} coefficients")


# --- exact phase-1 simplex ------------------------------------------------------


def feasible(system: StrictSystem) -> tuple[tuple[int, ...], int] | None:
    """Interior witness of the open cone, as (numerators, det), or None if empty.

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

    Row i is the int R_i = sum_j e_j 2^(w j) over fields j = 0 .. n of w
    bits: e_0 = A[i][n] is the right-hand side and e_(k+1) = A[i][k] the
    entry in slot k; the objective row O is one more int laid out alike.
    The dictionary is the one int D = sum_i R_i 2^(t i), row stride
    t = (n + 1) w, so entry j of row i is the coefficient of
    2^(w ((n + 1) i + j)): D is one polynomial in 2^w, and every update
    below acts on its coefficients.  Field j of row i decodes as
    ((D + bias) >> (t i + w j) & (2^w - 1)) - 2^(w - 1), bias holding
    2^(w - 1) in every field of every row.  A row with a negative top entry
    is a negative int, so in the bits of D it borrows from the next row's
    right-hand side; that is harmless, for the value of D is the sum of its
    terms whatever its bits.  As long as every stored entry lies in
    (-2^(w - 1), 2^(w - 1)), every field of D + bias lies in [1, 2^w), so
    those fields are the base-2^w digits of D + bias and each decodes alone.

    Entering: every field of O + bias is at least 1, so subtracting 1 from
    each slot field borrows from no other field, and slot k enters exactly
    when its field less one keeps its top bit.  One add and one mask of O
    thus give every slot with O > 0, and Bland's rule picks among them.
    Leaving: C = (D + bias) >> w (s + 1), masked to the right-hand-side
    field of each row, holds A[i][s] + 2^(w - 1) there, at least 1; C less
    1 in each of those fields, masked to their top bits, marks the rows with
    A[i][s] > 0, and the ratio test visits only those.  Update: with
    q = R_r + (sign det) 2^(w (s + 1)) and F = sum_i A[i][s] 2^(t i), which
    is C less 2^(w - 1) in each of its fields, the new dictionary is
    (p D - F q) // det with one fix of row r.  The n + 1 fields of q
    shifted by t i meet no other row's, so entry j of row i in p D - F q is
    p A[i][j] - A[i][s] q_j.  Each is divisible by det (for i != r by
    Sylvester's identity, and row r's is p (R_r - q), -sign p det in slot
    s alone), so the int is: the division is exact however wide an
    intermediate field or borrow gets, and every quotient coefficient is an
    entry, slot s of row i != r coming out as -sign A[i][s].  Adding
    q + (sign - 1) p 2^(w (s + 1)) at row r turns its -sign p into the
    pivot row with sign det in slot s.  O is updated as one row,
    (p O - O[s] q) // det, less p in slot s when sign is -1.

    The width w is ((m + 1) H).bit_length() + 1 with
    H = ceil(sqrt(P)), P the product of the n + 1 largest of the weights
    ||l_i||_2^2 + 1 (all m when m <= n), l_i the cleared forms.  Proof: by
    Cramer's rule det and every A[i][j] are, up to sign, square minors of
    the full tableau [L | -I | I | 1]; expanding along its unit columns
    leaves a minor of order k <= n + 1 of [L | 1].  Its rows are rows of
    [L | 1] restricted to some columns, the row of l_i of squared 2-norm at
    most ||l_i||_2^2 + 1, so by Hadamard's inequality the minor is at most
    the square root of the product of k weights, and as every weight is
    at least 1, at most sqrt(P) <= H in absolute value.  The objective row
    is the sum of the rows whose artificial is basic, at most m of them, so
    every stored entry is below (m + 1) H < 2^(w - 1) in absolute value.
    Intermediate values may exceed it (p D - F q, q's slot s), but none is
    decoded before the division.  The bound is nearly tight for zero forms,
    where H = 1 and the objective's right-hand side is m, so one bit less
    can overflow.

    At the optimum the Farkas multiplier of row i is y_i = 1 while
    artificial i is basic, y_i = -O[k] / det when surplus i sits in slot k,
    and 0 when surplus i is basic; sum_i y_i l_i <= 0 coefficientwise and
    sum_i y_i > 0, so the rows with y_i > 0 admit no point on their own.  Any
    row R of the final dictionary that is a sum of rows of basic artificials
    certifies emptiness the same way when its right-hand side is positive
    and none of its slots is: y_i = 1 for each artificial row in the sum,
    and y_j = -R[k] / det for the surplus j in slot k.  The empty answer
    tries O, then each row of a basic artificial, then each sum of two, and
    records the first smallest core (the forms with y > 0) in the store
    `system.learned` under each of its forms.  A sum of two has entries at
    most 2 H in absolute value, within the objective row's bound, so it
    decodes, and its slots test, in the same fields.  A system whose
    `present` set, its forms and the comparisons they imply, contains a
    stored core is answered None before any dictionary is built.  Cores are
    looked up only under the last form and the comparisons that came with it
    (see `_stored_core_within`), one subset test each: systems grow by
    appending to a feasible prefix, so only these can complete a core, and a
    miss merely solves.

    The witness is the final dictionary's own values: the structural
    variables' right-hand sides as integer `numerators` over the one
    denominator `det` > 0, so the point is numerators[i] / det.  No Fraction
    is built, since the tree tests new forms on the numerators alone
    (`_extend`); `det` stays because the eps-shifts of `_candidates` are
    taken over it, and `_genericize` prints a leaf's witness over it.
    """
    n = system.nvars
    forms = system.forms
    if not forms:
        return (1,) * n, 1
    if _stored_core_within(system):
        return None
    cleared = [_cleared(form) for form in forms]
    m = len(forms)
    artificial = n + m
    _, width = _field_width([weight for _, _, weight in cleared], n)
    half, mask, bias, entering, tops, shifts = _layout(n, width)
    stride, row_mask, each, halves, column_mask, biases = _stack(n, m, width)
    rows = [_packed(integer, width) for integer, _, _ in cleared]
    # reduced costs of min(sum of artificials): the column sums
    obj = sum(rows)
    table = sum(row << stride * i for i, row in enumerate(rows))
    cols = list(range(n))
    basis = [artificial + i for i in range(m)]
    det = 1

    while True:
        biased = table + biases
        # Bland: the lowest-numbered variable with O > 0 enters; a slot is
        # positive iff its biased field less one keeps its top bit, which
        # for slot k is bit w (k + 2) - 1
        positive = (obj + entering) & tops
        if not positive:
            break
        s = -1
        while positive:
            low = positive & -positive
            positive ^= low
            k = low.bit_length() // width - 2
            if s < 0 or cols[k] < cols[s]:
                s = k
        sh = shifts[s]
        # slot s of every row, biased, in the field of that row's right-hand
        # side; a row may leave iff its entry is positive
        column = biased >> sh & column_mask
        candidates = (column - each) & halves
        r = -1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            at = low.bit_length() - width
            i = at // stride
            a = (column >> at & mask) - half
            b = (biased >> at & mask) - half
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
        at = stride * r
        q = (biased >> at & row_mask) - bias + (sign * det << sh)
        # row r comes out as -sign p in slot s alone; the last term makes it
        # the pivot row with the leaving column in slot s
        table = (p * table - (column - halves) * q) // det + (
            q + (sign * p - p << sh) << at
        )
        f = ((obj + bias) >> sh & mask) - half
        obj = (p * obj - f * q) // det
        if sign < 0:
            obj -= p << sh
        cols[s], basis[r] = (basis[r] if sign > 0 else n + r), cols[s]
        det = p

    if obj & mask:
        # proofs of emptiness in the final dictionary (see `feasible`):
        # the objective row, then each row of a basic artificial and each sum
        # of two; the first of the smallest cores is filed
        basic = [i for i in range(m) if basis[i] == artificial + i]
        surplus = [(shifts[k], forms[cols[k] - n]) for k in range(n) if cols[k] >= n]
        row = {i: (biased >> stride * i & row_mask) - bias for i in basic}

        def proof(packed, members):
            # the core of `packed`, the sum of the rows `members`, or None
            # unless its right-hand side is positive and none of its slots is
            biased = packed + bias
            if biased & mask <= half or (packed + entering) & tops:
                return None
            negative = [form for sh, form in surplus if biased >> sh & mask < half]
            return frozenset(forms[i] for i in members).union(negative)

        core = proof(obj, basic)
        for size in (1, 2):
            for group in combinations(basic, size):
                if len(core) <= size:
                    break
                found = proof(sum(row[i] for i in group), group)
                if found is not None and len(found) < len(core):
                    core = found
        for form in core:
            system.learned.setdefault(form, []).append(core)
        return None
    numerators = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            numerators[var] = (biased >> stride * i & mask) - half
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
# cleared integer form, 1-norm and squared 2-norm plus one, and its packed row
# per field width, are computed once and kept in bounded caches.
@lru_cache(maxsize=1 << 13)
def _cleared(form: Form) -> tuple[Form, int, int]:
    # a positive scaling leaves each strict inequality as it was
    integer = clear_denominators(form)
    return integer, sum(map(abs, integer)), sum(c * c for c in integer) + 1


@lru_cache(maxsize=1 << 13)
def _packed(integer: Form, width: int) -> int:
    # slot k in field k + 1; the right-hand side 1 in field 0
    return 1 + sum(c << width * (k + 1) for k, c in enumerate(integer))


def _field_width(weights: list[int], n: int) -> tuple[int, int]:
    """(H, w) for rows l_i with weights ||l_i||_2^2 + 1, on n variables.

    H = ceil(sqrt(product of the n + 1 largest weights)) bounds every minor
    of order <= n + 1 of [L | 1], and w = ((m + 1) H).bit_length() + 1 for
    m rows is the field width of `feasible`, which proves the bound.
    """
    bound = isqrt(prod(sorted(weights)[-n - 1 :]) - 1) + 1
    return bound, ((len(weights) + 1) * bound).bit_length() + 1


@lru_cache(maxsize=1 << 10)
def _layout(n: int, width: int) -> tuple[int, int, int, int, int, tuple[int, ...]]:
    """The packing constants of `feasible` for n slots of `width` bits.

    half = 2^(w - 1) and mask = 2^w - 1 decode one field; bias holds half in
    every field; `entering` is bias less 1 in each slot field and `tops` the
    top bit of each slot field, for the entering test; shifts[k] is the
    offset of slot k.
    """
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    ones = sum(1 << width * (k + 1) for k in range(n))
    tops = ones << (width - 1)
    bias = half + tops
    shifts = tuple(width * (k + 1) for k in range(n))
    return half, mask, bias, bias - ones, tops, shifts


@lru_cache(maxsize=1 << 10)
def _stack(n: int, m: int, width: int) -> tuple[int, int, int, int, int, int]:
    """The constants of `feasible`'s dictionary of m rows, n slots each.

    Row i starts at bit stride i, stride = (n + 1) w, and row_mask cuts one
    row out.  `each` holds 1 in the right-hand-side field of every row,
    `halves` half there, and column_mask the whole field; biases holds half
    in every field of every row.
    """
    stride = width * (n + 1)
    each = sum(1 << stride * i for i in range(m))
    return (
        stride,
        (1 << stride) - 1,
        each,
        each << (width - 1),
        each * ((1 << width) - 1),
        each * _layout(n, width)[2],
    )
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
    witness: tuple[tuple[int, ...], int],
    ctype: CombinatorialType,
) -> Covector:
    """Nudge a feasibility witness off the measure-zero slope-tie walls.

    Simplex witnesses are corner solutions and frequently tie two segment
    slopes; adding eps, eps^2, ... for a small power of 1/2 stays inside the
    open cone while leaving every nonzero linear form in finitely many bad
    positions.  The candidates are the witness, then the shifts for
    eps = 2^-4, 2^-6, ... that satisfy the system strictly (see
    `_exponents` for where the ladder ends).  Each is extracted as a
    Covector of its numerators, which are ints, so in integers.
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


def _candidates(
    system: StrictSystem, witness: tuple[tuple[int, ...], int], span: int
):
    """The witness, then its eps-shifts that satisfy the system strictly.

    Each comes as integers over one denominator: the shift by eps = 2^-e is
    the witness's numerators times 2^(e n), plus det 2^(e (n - 1 - i)) at
    coordinate i, over det 2^(e n).  See `_exponents` for the e tried.
    """
    numerators, det = witness
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
    new form already, which its numerators show, so the exact
    simplex runs only when it does not.  `implied` are the comparisons the
    new forms imply with the old ones (see `StrictSystem.present`).
    """
    child = system.extended(extra, implied)
    numerators, _ = witness
    for form in extra:
        if sum(map(mul, form, numerators)) <= 0:
            return child, feasible(child)
    return child, witness


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


# The largest |A| each tree takes, refused before any tree work.  On a 2-core
# x86 box shared with other load (Python 3.11, one run each), the fine tree
# of [1..7] takes 81-87 s; the key tree of an 8-point support 0.3-4.2 s, and
# of a 9-point one 1.1-12.2 s.
MAX_FINE_SUPPORT = 7
MAX_KEY_SUPPORT = 8


def _enumerate(support: SupportSet, keys: bool) -> list[tuple[CombinatorialType, Covector]]:
    cap = MAX_KEY_SUPPORT if keys else MAX_FINE_SUPPORT
    if len(support) > cap:
        raise SupportTooLarge(f"support of size {len(support)} exceeds the cap {cap}")
    return [
        item
        for w in _all_subdivisions(support)
        for item in _subdivision_types(support, keys, w)
    ]


def enumerate_types(support: SupportSet) -> list[tuple[CombinatorialType, Covector]]:
    """Every realizable combinatorial type, with an interior witness each.

    Output is canonically ordered (lexicographic by W, then Z, then M): the
    subdivisions are mapped in sorted W order, in this process, and each
    tree tries every chain's elements in increasing order, so it emits its
    types sorted.  Raises SupportTooLarge when |A| > MAX_FINE_SUPPORT.
    """
    return _enumerate(support, False)


def enumerate_keys(support: SupportSet) -> list[tuple[CombinatorialType, Covector]]:
    """Every realizable drop key, with an interior witness each.

    As `enumerate_types`, with each M^j grown by the drop rule: a leaf is the
    drop key of the fine types in one convex cone, which share one vertex.
    Raises SupportTooLarge when |A| > MAX_KEY_SUPPORT.
    """
    return _enumerate(support, True)
