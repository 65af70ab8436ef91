"""An independent full-tableau phase-1 simplex, kept only as a test oracle.

Where `morsekit.cones.feasible` pivots a dictionary over the nonbasic columns
with one common denominator, this keeps every column (structural, surplus,
right-hand side), each row over its own denominator, and reduces rows by
their content once the denominators grow.  Both make the same Bland pivots,
so they must return the same witness.  This one records the objective row's
Farkas core, at least as large as the one `feasible` records, and never
looks a core up in the store.
"""

from fractions import Fraction
from math import gcd

from morsekit.cones import StrictSystem
from morsekit.rationals import clear_denominators

_REDUCE_BITS = 32


def _reduce_row(nums: list[int], den: int) -> tuple[list[int], int]:
    # content reduction is only worth its gcd cost once entries get large
    if den.bit_length() <= _REDUCE_BITS:
        return nums, den
    g = den
    for v in nums:
        if v:
            g = gcd(g, v)
            if g == 1:
                return nums, den
    if g > 1:
        return [v // g for v in nums], den // g
    return nums, den


def reference_feasible(system: StrictSystem) -> tuple[Fraction, ...] | None:
    """Interior witness of the open cone, or None if it is empty.

    Solves {l_i(g) >= 1, g >= 0} by a phase-1 simplex with Bland's rule.
    With a store (`system.learned`), an empty answer records its Farkas
    core: the rows whose surplus column has a negative objective entry.
    """
    n = system.nvars
    forms = system.forms
    if not forms:
        return (Fraction(1),) * n
    learned = system.learned
    if any(not isinstance(c, int) for form in forms for c in form):
        # a positive scaling leaves each strict inequality as it was
        forms = tuple(clear_denominators(f) for f in forms)
    m = len(forms)
    # columns: n structural | m surplus | rhs.  The artificial variables that
    # seed the basis are never allowed back in, so their identity block is
    # never materialized; basis entry n + m + i marks "artificial of row i".
    width = n + m + 1
    nums: list[list[int]] = []
    dens: list[int] = []
    for i, form in enumerate(forms):
        row = [0] * width
        row[: len(form)] = form
        row[n + i] = -1
        row[-1] = 1
        nums.append(row)
        dens.append(1)
    basis = [n + m + i for i in range(m)]

    # reduced costs for min(sum of artificials): obj[j] = sum_i rows[i][j]
    onums = [sum(nums[i][j] for i in range(m)) for j in range(width)]
    oden = 1

    while True:
        enter = next((j for j in range(width - 1) if onums[j] > 0), None)
        if enter is None:
            break
        pivot_row = None
        for i in range(m):
            if nums[i][enter] <= 0:
                continue
            if pivot_row is None:
                pivot_row = i
                continue
            # compare nums[i][-1]/nums[i][enter] with the incumbent ratio
            lhs = nums[i][-1] * nums[pivot_row][enter]
            rhs = nums[pivot_row][-1] * nums[i][enter]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                pivot_row = i
        if pivot_row is None:
            raise AssertionError("phase-1 objective unbounded (internal bug)")
        prow = nums[pivot_row]
        piv = prow[enter]
        for i in range(m):
            if i == pivot_row or nums[i][enter] == 0:
                continue
            f = nums[i][enter]
            row = nums[i]
            nums[i], dens[i] = _reduce_row(
                [piv * a - f * b for a, b in zip(row, prow)], dens[i] * piv
            )
        f = onums[enter]
        onums, oden = _reduce_row(
            [piv * a - f * b for a, b in zip(onums, prow)], oden * piv
        )
        nums[pivot_row], dens[pivot_row] = _reduce_row(prow, piv)
        basis[pivot_row] = enter

    if onums[-1] != 0:
        if learned is not None:
            # oden > 0, so y_i > 0 exactly where onums[n + i] < 0
            core = frozenset(
                system.forms[i] for i in range(m) if onums[n + i] < 0
            )
            for form in core:
                learned.setdefault(form, []).append(core)
        return None
    point = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            # the basis column entry equals the row denominator exactly
            point[var] = Fraction(nums[i][-1], nums[i][var])
    return tuple(point)
