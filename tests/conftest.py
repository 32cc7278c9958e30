"""Shared suite generators and random-input helpers."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from flaghg.algebra import Poly
from flaghg.pushforward import complete_homogeneous
from flaghg.tableaux import FlagSpec, Tableau, block_decomposition


# torus weights with pairwise different denominators
MIXED_LAM = [Fraction(1, 2), Fraction(2, 3), Fraction(-3, 5), Fraction(7, 4)]


def all_specs(n_max: int, degree_sum_max: int, levels_max: int = 3):
    """Every FlagSpec with n <= n_max, I <= levels_max, sum(d) <= degree_sum_max."""
    for n in range(2, n_max + 1):
        for levels in range(1, min(levels_max, n - 1) + 1):
            for ranks in itertools.combinations(range(1, n), levels):
                for degrees in itertools.product(
                        range(degree_sum_max + 1), repeat=levels):
                    if sum(degrees) <= degree_sum_max:
                        yield FlagSpec(n, ranks, degrees)


def random_poly(rng: random.Random, variables, degree: int = 3,
                terms: int = 4) -> Poly:
    out = Poly.zero()
    for _ in range(terms):
        term = Poly.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, degree)):
            term = term * Poly.var(rng.choice(variables))
        out = out + term
    return out


def random_block_symmetric(t: Tableau, rng: random.Random,
                           degree_cap: int) -> Poly:
    """A random product of complete homogeneous pieces, one per block."""
    blocks = block_decomposition(t)
    out = Poly.const(rng.randint(1, 3))
    budget = degree_cap
    for i in range(1, blocks.levels + 1):
        for j in range(1, blocks.K(i) + 1):
            k = rng.randint(0, max(0, min(3, budget)))
            budget -= k
            out = out * complete_homogeneous(k, blocks.letters(i, j))
    return out
