"""The flag manifold and degrees a job is about: FlagSpec.

This module imports nothing, so the command line can parse and key a job
without loading the tableau enumeration in `tableaux`, which re-exports
FlagSpec.  FlagSpec and Tableau are frozen slotted classes rather than
dataclasses, so that a command-line cache hit never loads `dataclasses`
(and through it `inspect`).  Each spells out its fields in __init__,
__eq__ and __hash__: a loop over __slots__ is several times slower, and
enumeration builds a Tableau per component.
"""


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
