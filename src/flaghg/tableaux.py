"""Incomplete matrices indexing circle-fixed components, and their data.

A distinguished component is indexed by a matrix A whose i-th row is a
non-decreasing list of r_i non-negative integers summing to d_i, with
entries dominating the next row columnwise.  A general component is
indexed by a pair (A;B) of such matrices whose degree vectors add up to
d, and it is distinguished when B = 0.  From A we derive run-length
blocks (distinct values with multiplicities), the critical-containment
index between adjacent levels, and the dimensions of both the ambient
moduli space and the component itself.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product
from typing import TYPE_CHECKING, Iterator

from .errors import InfeasibleTableauError

if TYPE_CHECKING:
    from .algebra import VarId


# The records below are frozen slotted classes rather than dataclasses, so
# that a command-line cache hit, which imports this module, never loads
# `dataclasses` (and through it `inspect`).  Each spells out its fields in
# __init__, __eq__ and __hash__: a loop over __slots__ is several times
# slower, and enumeration builds a Tableau per component.

def _frozen(self, name, *value):
    raise AttributeError(
        f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


class FlagSpec:
    """Ambient dimension, strictly increasing ranks, per-level degrees."""

    __slots__ = ("n", "ranks", "degrees")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, n: int, ranks, degrees):
        """Store ranks and degrees as tuples, and raise ValueError at the
        first failed check.  The command line reports these messages as
        usage errors, so this order decides which one a bad line shows.
        Together the checks force n >= 2."""
        ranks, degrees = tuple(ranks), tuple(degrees)
        if any(a >= b for a, b in zip(ranks, ranks[1:])):
            raise ValueError("ranks must be strictly increasing")
        if ranks and ranks[-1] >= n:
            raise ValueError("ranks must be smaller than n")
        if not ranks or ranks[0] < 1:
            raise ValueError("ranks must be positive")
        if len(degrees) != len(ranks):
            raise ValueError("degrees must match ranks in length")
        if any(d < 0 for d in degrees):
            raise ValueError("degrees must be non-negative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "degrees", degrees)

    def __repr__(self):
        return (f"FlagSpec(n={self.n!r}, ranks={self.ranks!r}, "
                f"degrees={self.degrees!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.n, self.ranks, self.degrees)
                == (other.n, other.ranks, other.degrees))

    def __hash__(self):
        return hash((self.n, self.ranks, self.degrees))

    def __reduce__(self):
        return FlagSpec, (self.n, self.ranks, self.degrees)

    @property
    def levels(self) -> int:
        return len(self.ranks)

    def rank(self, i: int) -> int:
        """r_i with the conventions r_0 = 0, r_{I+1} = n."""
        if i == 0:
            return 0
        if i == self.levels + 1:
            return self.n
        return self.ranks[i - 1]

    def flag_dimension(self) -> int:
        return sum(
            (self.n - self.rank(i)) * (self.rank(i) - self.rank(i - 1))
            for i in range(1, self.levels + 1)
        )

    def to_json(self):
        return {"n": self.n, "ranks": list(self.ranks),
                "degrees": list(self.degrees)}


def hquot_dimension(spec: FlagSpec) -> int:
    """Dimension of the hyper-Quot scheme for this spec."""
    dim = spec.flag_dimension()
    for i in range(1, spec.levels + 1):
        dim += spec.degrees[i - 1] * (spec.rank(i + 1) - spec.rank(i - 1))
    return dim


def _ascending_rows(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Non-decreasing non-negative rows of fixed length with a fixed sum."""
    def rec(remaining, slots, minimum):
        if slots == 1:
            if remaining >= minimum:
                yield (remaining,)
            return
        for v in range(minimum, remaining // slots + 1):
            for rest in rec(remaining - v, slots - 1, v):
                yield (v,) + rest
    if parts == 0:
        if total == 0:
            yield ()
        return
    yield from rec(total, parts, 0)


def _row_candidates(spec: FlagSpec) -> list[list[tuple[int, ...]]]:
    return [
        sorted(_ascending_rows(spec.degrees[i], spec.ranks[i]))
        for i in range(spec.levels)
    ]


def _column_admissible(upper: tuple[int, ...], lower: tuple[int, ...]) -> bool:
    return all(upper[j] >= lower[j] for j in range(len(upper)))


class Tableau:
    """An admissible incomplete matrix A."""

    __slots__ = ("spec", "rows")
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
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "rows", rows)

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


def enumerate_tableaux(spec: FlagSpec) -> list[Tableau]:
    """All distinguished tableaux, in lexicographic order of flattened rows."""
    candidates = _row_candidates(spec)
    out: list[Tableau] = []

    def rec(level, chosen):
        if level == spec.levels:
            out.append(Tableau(spec, tuple(chosen)))
            return
        for row in candidates[level]:
            if level > 0 and not _column_admissible(chosen[-1], row):
                continue
            rec(level + 1, chosen + [row])

    rec(0, [])
    return out


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


class BlockData:
    """Distinct row values, multiplicities and partial ranks per level.

    Levels are 1-based; level I+1 is the ambient pseudo-level with a single
    block of value 0 and multiplicity n.
    """

    __slots__ = ("spec", "values", "mults")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, spec: FlagSpec, values: tuple[tuple[int, ...], ...],
                 mults: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mults", mults)

    def __repr__(self):
        return (f"BlockData(spec={self.spec!r}, values={self.values!r}, "
                f"mults={self.mults!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.spec, self.values, self.mults)
                == (other.spec, other.values, other.mults))

    def __hash__(self):
        return hash((self.spec, self.values, self.mults))

    def __reduce__(self):
        return BlockData, (self.spec, self.values, self.mults)

    @staticmethod
    def from_rows(spec: FlagSpec, rows) -> "BlockData":
        values = []
        mults = []
        for row in rows:
            v, m = _rle(row)
            values.append(v)
            mults.append(m)
        values.append((0,))
        mults.append((spec.n,))
        return BlockData(spec, tuple(values), tuple(mults))

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
        """The root letters y[i,j;1], ..., y[i,j;m(i,j)] of block (i, j)."""
        from .algebra import y  # local, so tableaux imports no algebra
        return [y(i, j, k) for k in range(1, self.m(i, j) + 1)]


def block_decomposition(t: Tableau) -> BlockData:
    """Run-length blocks of the alpha rows plus the ambient pseudo-level."""
    return BlockData.from_rows(t.spec, t.rows)


def _tower_dimension(blocks: BlockData) -> int:
    dim = 0
    for i in range(1, blocks.levels + 1):
        for j in range(1, blocks.K(i) + 1):
            step = (blocks.r(i, j) - blocks.r(i, j - 1)) \
                * (blocks.l(i + 1, j) - blocks.r(i, j))
            if step < 0:
                raise InfeasibleTableauError(
                    f"negative fibration step at level {i}, block {j}")
            dim += step
    return dim


def component_dimension(t: Tableau) -> int:
    """Dimension of the fixed component of a distinguished tableau."""
    return _tower_dimension(block_decomposition(t))


def general_component_dimension(a: Tableau, b: Tableau) -> int:
    """Dimension of a general (A;B) component via the fibered-product rule.

    Per level pair: A-tower step + B-tower step minus the shared Grassmannian
    choice r_i * (max(l^A, l^B) - r_i) of the common last flag element.
    """
    a_blocks = block_decomposition(a)
    b_blocks = block_decomposition(b)
    dim = _tower_dimension(a_blocks) + _tower_dimension(b_blocks)
    for i in range(1, a.spec.levels + 1):
        la = a_blocks.l(i + 1, a_blocks.K(i))
        lb = b_blocks.l(i + 1, b_blocks.K(i))
        ri = a.spec.rank(i)
        dim -= ri * (max(la, lb) - ri)
    return dim
