"""Shared test utilities: brute-force oracles kept independent of the code under test."""

from __future__ import annotations

import itertools
import random
import shlex
import sys

from hypothesis import strategies as st

from nfasat.cnf import CnfInstance
from nfasat.sample import Sample, word_key
from nfasat.solver import SolveOutcome, solve_in_process

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


def search_in_process(inst: CnfInstance) -> SolveOutcome:
    """solve_in_process with the instance's sample detached, so that the
    verdict comes from a search of the clauses, never from a fooling set."""
    sample, inst.sample = inst.sample, None
    try:
        return solve_in_process(inst)
    finally:
        inst.sample = sample


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


@st.composite
def samples_with_cuts(draw, max_len: int = 6, max_words: int = 10) -> tuple[Sample, dict]:
    """A sample over 1 to 3 symbols, and a split assignment of its non-empty words."""
    n = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, n - 1), max_size=max_len).map(tuple)
    words = draw(st.lists(word, unique=True, max_size=max_words))
    split = draw(st.integers(0, len(words)))
    sample = Sample.build(n, words[:split], words[split:])
    return sample, {w: draw(st.integers(0, len(w))) for w in sample.sorted_nonempty_words()}


def random_cut_assignment(rng: random.Random, sample: Sample) -> dict:
    return {w: rng.randint(0, len(w)) for w in sample.sorted_nonempty_words()}


def sorted_words(words) -> list:
    return sorted(words, key=word_key)
