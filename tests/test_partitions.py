import gc
import itertools

import pytest
from hypothesis import given, strategies as st

from strata_kit import (
    Partition,
    ShapeError,
    WeightMismatchError,
    add,
    conjugate,
    dominance_leq,
    enumerate_partitions,
    whittaker_support,
)
from strata_kit.errors import BudgetExceededError

partitions_st = st.lists(st.integers(1, 8), max_size=6).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ShapeError):
            Partition((1, 2))
        with pytest.raises(ShapeError):
            Partition((2, 0))

    @pytest.mark.parametrize("parts,message", [
        ((3, 0, 4), "partition parts must be positive, got 0"),
        ((1, 2, 0), "partition parts must be weakly decreasing: (1, 2, 0)"),
        ((5, 4, 4, -1), "partition parts must be positive, got -1"),
        ((5, 4, 4, 6, 0), "partition parts must be weakly decreasing: (5, 4, 4, 6, 0)"),
        ((0,), "partition parts must be positive, got 0"),
    ])
    def test_the_first_fault_words_the_error(self, parts, message):
        """The error names the first faulty part in order, even past the
        first pair, whichever check it fails."""
        with pytest.raises(ShapeError) as info:
            Partition(parts)
        assert str(info.value) == message

    def test_weight_length_part(self):
        lam = Partition.of(3, 2)
        assert lam.weight == 5
        assert lam.length == 2
        assert lam.part(1) == 3
        assert lam.part(3) == 0

    def test_from_counts(self):
        assert Partition.from_counts([1, 3, 2]) == Partition.of(3, 2, 1)

    def test_json_round_trip(self):
        lam = Partition.of(4, 2, 1)
        assert Partition.from_json(lam.to_json()) == lam
        assert lam.to_json() == [4, 2, 1]


class TestConjugate:
    def test_examples(self):
        assert conjugate(Partition.of(3, 2)) == Partition.of(2, 2, 1)
        assert conjugate(Partition.of(5)) == Partition.of(1, 1, 1, 1, 1)
        assert conjugate(Partition()) == Partition()

    def test_involution(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert conjugate(conjugate(lam)) == lam
                assert conjugate(lam).weight == lam.weight


class TestDominance:
    def test_examples(self):
        assert dominance_leq(Partition.of(1, 1), Partition.of(2))
        assert dominance_leq(Partition.of(2, 1), Partition.of(2, 1))
        assert not dominance_leq(Partition.of(3, 3), Partition.of(4, 1, 1))
        assert not dominance_leq(Partition.of(4, 1, 1), Partition.of(3, 3))

    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatchError, match="incomparable weights"):
            dominance_leq(Partition.of(2), Partition.of(2, 1))

    def test_partial_order(self):
        for n in range(1, 9):
            parts = enumerate_partitions(n)
            for lam, mu in itertools.product(parts, parts):
                if dominance_leq(lam, mu) and dominance_leq(mu, lam):
                    assert lam == mu
        parts = enumerate_partitions(7)
        for lam, mu, nu in itertools.product(parts, repeat=3):
            if dominance_leq(lam, mu) and dominance_leq(mu, nu):
                assert dominance_leq(lam, nu)

    def test_conjugation_reverses_dominance(self):
        for n in range(1, 11):
            parts = enumerate_partitions(n)
            for lam, mu in itertools.product(parts, parts):
                assert dominance_leq(lam, mu) == dominance_leq(
                    conjugate(mu), conjugate(lam)
                )


class TestAdd:
    def test_examples(self):
        assert add(Partition.of(2, 1), Partition.of(1, 1)) == Partition.of(3, 2)
        assert add(Partition.of(3), Partition()) == Partition.of(3)
        assert add(Partition.of(1, 1), Partition.of(1, 1)) == Partition.of(2, 2)

    @given(partitions_st, partitions_st, partitions_st)
    def test_associative_commutative(self, a, b, c):
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, b).weight == a.weight + b.weight


class TestWhittakerSupport:
    def test_examples(self):
        assert whittaker_support(Partition.of(3, 2)) == frozenset({1, 3, 4})
        assert whittaker_support(Partition.of(6)) == frozenset(range(1, 6))
        assert whittaker_support(Partition.of(1, 1, 1)) == frozenset()

    def test_empty_rejected(self):
        with pytest.raises(ShapeError, match="undefined for weight 0"):
            whittaker_support(Partition())

    def test_cardinality(self):
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                s = whittaker_support(lam)
                assert len(s) == n - lam.length
                assert n not in s


class TestEnumerate:
    def test_examples(self):
        assert enumerate_partitions(0) == [Partition()]
        assert enumerate_partitions(4) == [
            Partition.of(4),
            Partition.of(3, 1),
            Partition.of(2, 2),
            Partition.of(2, 1, 1),
            Partition.of(1, 1, 1, 1),
        ]
        assert len(enumerate_partitions(5)) == 7

    def test_counts(self):
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, p_n in enumerate(expected):
            assert len(enumerate_partitions(n)) == p_n

    def test_bound(self):
        with pytest.raises(BudgetExceededError):
            enumerate_partitions(41)
        with pytest.raises(ShapeError):
            enumerate_partitions(-1)

    def test_matches_sorted_brute_force(self):
        for n in range(10):
            brute = [
                parts[::-1]
                for k in range(n + 1)
                for parts in itertools.combinations_with_replacement(range(1, n + 1), k)
                if sum(parts) == n
            ]
            assert [lam.parts for lam in enumerate_partitions(n)] == sorted(brute, reverse=True)

    def test_leaves_no_cyclic_garbage(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for n in range(10):
                enumerate_partitions(n)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

