"""Incomplete matrices indexing circle-fixed components, and their data.

A distinguished component is indexed by a matrix A whose i-th row is a
non-decreasing list of r_i non-negative integers summing to d_i, with
entries dominating the next row columnwise.  A general component is
indexed by a pair (A;B) of such matrices whose degree vectors add up to
d, and it is distinguished when B = 0.  A Tableau carries the run-length
blocks of its rows (distinct values with multiplicities) and answers the
critical-containment index Tableau.I_A and the partial rank Tableau.l
between adjacent levels; the functions below give the dimensions of both
the ambient moduli space and the component itself.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product
from math import comb, prod

from .errors import InfeasibleTableauError
from .spec import FlagSpec, _frozen


def hquot_dimension(spec: FlagSpec) -> int:
    """Dimension of the hyper-Quot scheme for this spec."""
    dim = spec.flag_dimension()
    for i in range(1, spec.levels + 1):
        dim += spec.degrees[i - 1] * (spec.rank(i + 1) - spec.rank(i - 1))
    return dim


def _ascending_rows(total: int, parts: int) -> list[tuple[int, ...]]:
    """Non-decreasing non-negative rows of fixed length with a fixed sum,
    unordered.  Only the at most `total` positive entries are chosen, from
    an explicit stack, so a long row costs no recursion.

    The positive entries are chosen largest first, so the slots still free
    hold at most the next entry v: the rest `left` is reachable only when
    v >= ceil(left / free slots).  Each entry starts at that bound, so every
    pushed prefix completes to a row, and the work is the output."""
    rows = []
    stack = [((), total)]  # positive entries, largest first, and the rest
    while stack:
        chosen, left = stack.pop()
        if not left:
            rows.append((0,) * (parts - len(chosen)) + chosen[::-1])
        else:
            lo = -(-left // (parts - len(chosen)))  # ceil(left / free slots)
            cap = min(chosen[-1], left) if chosen else left
            stack.extend((chosen + (v,), left - v) for v in range(lo, cap + 1))
    return rows


def _column_admissible(upper: tuple[int, ...], lower: tuple[int, ...]) -> bool:
    return all(upper[j] >= lower[j] for j in range(len(upper)))


def _rle(row: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    values: list[int] = []
    mults: list[int] = []
    for v in row:
        if values and values[-1] == v:
            mults[-1] += 1
        else:
            values.append(v)
            mults.append(1)
    return tuple(values), tuple(mults)


# frozen and slotted like FlagSpec, for the reasons given in `spec`
class Tableau:
    """An admissible incomplete matrix A and the run-length blocks of its
    rows: values[i-1] holds the distinct entries of row i, ascending, and
    mults[i-1] their multiplicities.

    Levels are 1-based; level I+1 is the ambient pseudo-level with a single
    block of value 0 and multiplicity n, whose letters are e[1..n].
    Equality, hashing and pickling use spec and rows only, since the
    blocks follow from them.
    """

    __slots__ = ("spec", "rows", "values", "mults")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, spec: FlagSpec, rows):
        """Store the rows as a tuple of tuples, and raise ValueError at the
        first failed check."""
        rows = tuple(map(tuple, rows))
        if len(rows) != spec.levels:
            raise ValueError("one row per level is required")
        for i, row in enumerate(rows):
            if len(row) != spec.ranks[i]:
                raise ValueError(f"row {i + 1} must have length r_{i + 1}")
            if any(v < 0 for v in row):
                raise ValueError("entries must be non-negative")
            if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
                raise ValueError("rows must be non-decreasing")
        for upper, lower in zip(rows, rows[1:]):
            if not _column_admissible(upper, lower):
                raise ValueError("rows violate column admissibility")
        for i, row in enumerate(rows):
            if sum(row) != spec.degrees[i]:
                raise ValueError(f"row {i + 1} must sum to d_{i + 1}")
        blocks = [_rle(row) for row in rows] + [((0,), (spec.n,))]
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "values", tuple(v for v, _ in blocks))
        object.__setattr__(self, "mults", tuple(m for _, m in blocks))

    def __repr__(self):
        return f"Tableau(spec={self.spec!r}, rows={self.rows!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.spec, self.rows) == (other.spec, other.rows)

    def __hash__(self):
        return hash((self.spec, self.rows))

    def __reduce__(self):
        return Tableau, (self.spec, self.rows)

    @property
    def levels(self) -> int:
        return self.spec.levels

    def K(self, i: int) -> int:
        return len(self.values[i - 1])

    def a(self, i: int, j: int) -> int:
        return self.values[i - 1][j - 1]

    def m(self, i: int, j: int) -> int:
        return self.mults[i - 1][j - 1]

    def r(self, i: int, j: int) -> int:
        """Partial rank m_{i,1} + ... + m_{i,j}; r(i, 0) = 0."""
        return sum(self.mults[i - 1][:j])

    def I_A(self, i: int, j: int) -> int:
        """Critical-containment index: the last level-(i+1) block whose
        value is at most a(i, j), found by bisection since block values
        strictly ascend; I_A(i, 0) = 0.  The ambient pseudo-level gives 1."""
        return bisect_right(self.values[i], self.a(i, j)) if j else 0

    def l(self, i_plus_1: int, j: int) -> int:
        """l_{i+1,j}: the partial rank of level i+1 up to I_A(i, j)."""
        return self.r(i_plus_1, self.I_A(i_plus_1 - 1, j))

    def letters(self, i: int, j: int) -> list[VarId]:
        """The root letters y[i,j;1], ..., y[i,j;m(i,j)] of block (i, j),
        and e[1], ..., e[n] of the ambient block (I+1, 1)."""
        from .algebra import ambient, y  # local: tableaux imports no algebra
        if i > self.levels:
            return [ambient(k) for k in range(1, self.spec.n + 1)]
        return [y(i, j, k) for k in range(1, self.m(i, j) + 1)]


def enumerate_tableaux(spec: FlagSpec) -> list[Tableau]:
    """All distinguished tableaux, in lexicographic order of flattened rows:
    the admissible prefixes are extended one level at a time, each in
    order, so many levels cost no recursion."""
    prefixes: list[tuple[tuple[int, ...], ...]] = [()]
    for degree, rank in zip(spec.degrees, spec.ranks):
        candidates = sorted(_ascending_rows(degree, rank))
        prefixes = [chosen + (row,) for chosen in prefixes
                    for row in candidates
                    if not chosen or _column_admissible(chosen[-1], row)]
    return [Tableau(spec, rows) for rows in prefixes]


def enumerate_general_components(
        spec: FlagSpec) -> list[tuple[Tableau, Tableau]]:
    """All (A;B) pairs, A of degree e and B of degree d - e for 0 <= e <= d,
    in lexicographic order of the level pairs (A row, B row)."""
    census = {e: enumerate_tableaux(FlagSpec(spec.n, spec.ranks, e))
              for e in product(*(range(d + 1) for d in spec.degrees))}
    pairs = []
    for e, alphas in census.items():
        betas = census[tuple(d - k for d, k in zip(spec.degrees, e))]
        pairs.extend((a, b) for a in alphas for b in betas)
    pairs.sort(key=lambda ab: tuple(zip(ab[0].rows, ab[1].rows)))
    return pairs


def block_decomposition(t: Tableau) -> Tableau:
    """The tableau itself, which carries its blocks; kept for old callers."""
    return t


def component_dimension(t: Tableau) -> int:
    """Dimension of the fixed component of a distinguished tableau: the sum
    of its fibration steps, each of which must be non-negative."""
    dim = 0
    for i in range(1, t.levels + 1):
        for j in range(1, t.K(i) + 1):
            step = (t.r(i, j) - t.r(i, j - 1)) * (t.l(i + 1, j) - t.r(i, j))
            if step < 0:
                raise InfeasibleTableauError(
                    f"negative fibration step at level {i}, block {j}")
            dim += step
    return dim


def fixed_point_count(t: Tableau) -> int:
    """The number of torus fixed points of the component, a product of
    binomials, one per block.

    Block (i, j) picks m(i, j) coordinates out of those held by the
    blocks of level i+1 up to I_A(i, j), l(i+1, j) of them, less the
    r(i, j-1) already taken by the blocks before it.  That count never
    depends on the other blocks' choices, so the choices multiply.
    """
    return prod(
        comb(t.l(i + 1, j) - t.r(i, j - 1), t.m(i, j))
        for i in range(1, t.levels + 1)
        for j in range(1, t.K(i) + 1))


def general_component_dimension(a: Tableau, b: Tableau) -> int:
    """Dimension of a general (A;B) component via the fibered-product rule.

    Per level pair: A-tower step + B-tower step minus the shared Grassmannian
    choice r_i * (max(l^A, l^B) - r_i) of the common last flag element.
    """
    dim = component_dimension(a) + component_dimension(b)
    for i in range(1, a.levels + 1):
        la = a.l(i + 1, a.K(i))
        lb = b.l(i + 1, b.K(i))
        ri = a.spec.rank(i)
        dim -= ri * (max(la, lb) - ri)
    return dim
