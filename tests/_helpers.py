"""Shared test utilities: brute-force oracles kept independent of the code under test."""

from __future__ import annotations

import itertools
import random
import shlex
import sys

from nfasat.cnf import CnfInstance
from nfasat.sample import Sample, word_key

# the bundled solver run as a process, as a user's --solver template names it
BUNDLED_SOLVER = f"{shlex.quote(sys.executable)} -m nfasat.dimacs_solver {{cnf}} --timeout {{timeout}}"


def brute_force_sat(var_count: int, clauses: list[tuple[int, ...]]) -> bool:
    """Truth-table satisfiability check; exponential, for tiny formulas only."""
    assert var_count <= 22, "truth table too large"
    for bits in range(1 << var_count):
        if all(
            any((lit > 0) == bool(bits >> (abs(lit) - 1) & 1) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def instance_sat_by_enumeration(inst: CnfInstance) -> bool:
    return brute_force_sat(inst.var_count, inst.clauses)


def random_tiny_sample(rng: random.Random, n: int = 2, max_len: int = 3, max_each: int = 2) -> Sample:
    """Random disjoint sample over an n-symbol alphabet with short words."""
    words = [
        tuple(w)
        for length in range(max_len + 1)
        for w in itertools.product(range(n), repeat=length)
    ]
    count = rng.randint(1, 2 * max_each)
    chosen = rng.sample(words, min(count, len(words)))
    split = rng.randint(0, len(chosen))
    return Sample.build(n, chosen[:split], chosen[split:])


def random_cut_assignment(rng: random.Random, sample: Sample) -> dict:
    return {w: rng.randint(0, len(w)) for w in sample.sorted_nonempty_words()}


def sorted_words(words) -> list:
    return sorted(words, key=word_key)
