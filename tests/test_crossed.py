"""The crossed-product core shared by the Hecke and Laurent algebras."""

import itertools

import pytest

from twisted_hecke.crossed import exponents_bounded


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("d", [-1, 0, 1, 4])
def test_exponents_bounded_matches_the_filtered_product(n, d):
    brute = [p for p in itertools.product(range(d + 1), repeat=n) if sum(p) <= d]
    fast = list(exponents_bounded(n, d))
    assert set(fast) == set(brute)
    assert fast == brute  # same lexicographic order, no repeats
