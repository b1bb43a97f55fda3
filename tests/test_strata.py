import gc
import itertools
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from strata_kit import (
    BlockSpec,
    BudgetExceededError,
    CuspidalLabel,
    CuspidalLine,
    InertialClass,
    InvariantRingPresentation,
    Multisegment,
    Orbit,
    Partition,
    Segment,
    ShapeError,
    StratumReport,
    WeightMismatchError,
    WraparoundError,
    classification_partition,
    components,
    enumerate_partitions,
    ext_dimensions,
    inertial_class,
    lambda_of,
    multisegment_to_orbit,
    point_to_multisegment,
    ring_presentation,
    tangent_dim,
)

from conftest import mseg, seg


def brute_force_components(block):
    """Oracle: every inertial class of degree block.n over the block's lines,
    sorted by representative; a stratum keeps those whose lambda matches."""
    items = [
        (line, length)
        for line in sorted(block.lines, key=lambda l: (l.line_id, l.dim))
        for length in range(1, block.n // line.dim + 1)
    ]
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(inertial_class(Multisegment(tuple(acc))))
            return
        if idx == len(items):
            return
        line, length = items[idx]
        d = line.dim * length
        copies = 0
        while copies * d <= remaining:
            rec(idx + 1, remaining - copies * d, acc)
            acc.append(Segment(line, 0, length - 1))
            copies += 1
        del acc[len(acc) - copies :]

    rec(0, block.n, [])
    return sorted(out, key=lambda c: str(c.representative))


def oracle_ring(cls):
    """Oracle: the ring presentation with one orbit per distinct segment,
    as it was built before classes carried their orbit sizes."""
    variables, orbits, generators, units = [], [], [], []
    for _, mult in cls.distinct_segments():
        orbit = tuple(f"X{len(variables) + i + 1}" for i in range(mult))
        variables.extend(orbit)
        orbits.append(orbit)
        if mult == 1:
            generators.append(orbit[0])
            units.append(orbit[0])
        else:
            joined = ",".join(orbit)
            generators.extend(f"e{k}({joined})" for k in range(1, mult + 1))
            units.append(f"e{mult}({joined})")
    return InvariantRingPresentation(
        tuple(variables), tuple(orbits), tuple(generators), tuple(units)
    )


def brute_force_orbit(m):
    """Oracle: the inertial class of m and the set of its token tuples,
    built from every permutation of each block's twists."""
    cls = inertial_class(m)
    per_orbit_shifts = [
        sorted(
            s.a - rep.a
            for s in m.segments
            if s.cuspidal == rep.cuspidal and s.length == rep.length
        )
        for rep, _ in cls.distinct_segments()
    ]
    perms_per_orbit = [
        sorted(set(itertools.permutations(shifts))) for shifts in per_orbit_shifts
    ]
    return cls, frozenset(
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*perms_per_orbit)
    )


@st.composite
def orbit_points(draw):
    """A multisegment of up to 10 segments on 1-3 blocks of inertially equal
    segments, with repeated twists."""
    blocks = draw(st.lists(
        st.tuples(st.sampled_from("rs"), st.integers(1, 3)), min_size=1, max_size=3, unique=True,
    ))
    spare = 10 - len(blocks)
    segments = []
    for line_id, length in blocks:
        size = 1 + draw(st.integers(0, spare))
        spare -= size - 1
        twists = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        dim = 1 if line_id == "r" else 2
        segments += [seg(t, t + length - 1, line_id, dim) for t in twists]
    return Multisegment(tuple(segments))


class TestClassificationPartition:
    def test_examples(self):
        assert classification_partition(mseg((0, 1))) == Partition.of(1, 1)
        assert classification_partition(mseg((0, 0), (1, 1))) == Partition.of(2)
        m = Multisegment.of(seg(0, 2, dim=2))
        assert classification_partition(m) == Partition.of(2, 2, 2)

    def test_equals_lambda_mixed_dims(self):
        pool = [seg(a, b) for a in range(2) for b in range(a, 3)] + [
            seg(a, b, line_id="s", dim=2) for a in range(2) for b in range(a, 2)
        ]
        for r in range(4):
            for combo in itertools.combinations_with_replacement(pool, r):
                m = Multisegment.of(*combo)
                assert classification_partition(m) == lambda_of(m)


class TestRingPresentation:
    def test_repeated_segment(self):
        ring = ring_presentation(inertial_class(mseg((0, 1), (4, 5))))
        assert ring.dimension == 2
        assert ring.orbits == (("X1", "X2"),)
        assert ring.generators == ("e1(X1,X2)", "e2(X1,X2)")
        assert ring.units == ("e2(X1,X2)",)

    def test_single_segment(self):
        ring = ring_presentation(inertial_class(mseg((0, 1))))
        assert ring.dimension == 1
        assert ring.generators == ("X1",)

    def test_mixed(self):
        ring = ring_presentation(inertial_class(mseg((0, 1), (3, 4), (0, 0))))
        assert ring.dimension == 3
        assert ring.orbits == (("X1", "X2"), ("X3",))
        assert ring.generators == ("e1(X1,X2)", "e2(X1,X2)", "X3")

    def test_dimension_matches_tangent(self):
        for m in [mseg((0, 1)), mseg((0, 0), (1, 1), (2, 2)), Multisegment()]:
            cls = inertial_class(m)
            assert ring_presentation(cls).dimension == tangent_dim(m)


class TestComponents:
    def block(self, n, dim=1, period=None):
        return BlockSpec((CuspidalLabel("r", dim, period),), n)

    def test_n2(self):
        rep = components(self.block(2), Partition.of(1, 1))
        assert len(rep.components) == 1
        cls, ring = rep.components[0]
        assert cls.representative == mseg((0, 1))
        assert ring.dimension == 1
        rep = components(self.block(2), Partition.of(2))
        assert len(rep.components) == 1
        cls, ring = rep.components[0]
        assert cls.representative == mseg((0, 0), (0, 0))
        assert ring.dimension == 2
        assert ring.orbits == (("X1", "X2"),)

    def test_n3_hook(self):
        rep = components(self.block(3), Partition.of(2, 1))
        assert len(rep.components) == 1
        cls, ring = rep.components[0]
        assert cls.representative == mseg((0, 1), (0, 0))
        assert ring.dimension == 2
        assert cls.weyl_order() == 1

    def test_partition_of_classes(self):
        n = 4
        all_reps = []
        for lam in enumerate_partitions(n):
            for cls, _ in components(self.block(n), lam).components:
                assert lambda_of(cls.representative) == lam
                all_reps.append(cls.representative)
        assert len(all_reps) == len(set(all_reps)) == 5

    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatchError):
            components(self.block(2), Partition.of(3))

    def test_finite_period_rejected(self):
        with pytest.raises(WraparoundError):
            components(self.block(2, period=3), Partition.of(2))

    # Over four lines named r, classes can print alike (str() omits the dim);
    # in the stratum (10, 4) only the tie-break by segment counts orders them.
    @example(lines=[("r", 1), ("r", 2), ("r", 3), ("r", 4)], n=14)
    @settings(deadline=None)
    @given(
        lines=st.lists(
            st.tuples(st.sampled_from("rst"), st.integers(1, 3)),
            min_size=1, max_size=3, unique=True,
        ),
        n=st.integers(1, 8),
    )
    def test_matches_brute_force(self, lines, n):
        block = BlockSpec(tuple(CuspidalLabel(i, d) for i, d in lines), n)
        every = [(c, lambda_of(c.representative)) for c in brute_force_components(block)]
        for lam in enumerate_partitions(n):
            kept = [c for c, mine in every if mine == lam]
            expected = StratumReport(lam, tuple((c, oracle_ring(c)) for c in kept))
            report = components(block, lam, bound=len(kept))
            assert report.to_json() == expected.to_json()
            assert report == expected
            if kept:
                with pytest.raises(BudgetExceededError, match=f"has {len(kept)} classes$"):
                    components(block, lam, bound=len(kept) - 1)

    def test_budget_counts_classes_returned(self):
        block = BlockSpec((CuspidalLabel("r"), CuspidalLabel("s", 2)), 28)
        lam = Partition.of(7, 7, 7, 7)
        assert len(components(block, lam, bound=4).components) == 4
        with pytest.raises(BudgetExceededError, match="bound 3 exceeded: the stratum has 4 "):
            components(block, lam, bound=3)

    @pytest.mark.parametrize("line_ids,classes", [("rs", 2001), ("rst", 2003001)])
    def test_bound_is_checked_before_any_split_is_built(self, line_ids, classes):
        block = BlockSpec(tuple(CuspidalLabel(i) for i in line_ids), 2000)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as info:
            components(block, Partition.of(2000), bound=1)
        assert time.perf_counter() - start < 0.25
        assert str(info.value) == (
            f"component enumeration bound 1 exceeded: the stratum has {classes} classes"
        )

    def test_length_without_a_split_empties_the_stratum(self):
        # lam_1 - lam_2 = 1 has no split over dims 2 and 3, so the stratum has
        # no class and no bound is exceeded, however many splits lam_2 has.
        block = BlockSpec((CuspidalLabel("r", 2), CuspidalLabel("s", 3)), 4001)
        assert components(block, Partition.of(2001, 2000), bound=0).components == ()

    def test_leaves_no_cyclic_garbage(self):
        # A reference cycle per call is freed only by the collector, and its
        # pauses then land in the calls that follow.
        block = BlockSpec((CuspidalLabel("r"), CuspidalLabel("s", 2)), 8)
        lams = enumerate_partitions(8)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for lam in lams:
                for cls, ring in components(block, lam).components:
                    m = point_to_multisegment(cls, tuple(range(ring.dimension)))
                    multisegment_to_orbit(m)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_report_json_shape(self):
        rep = components(self.block(2), Partition.of(2))
        data = rep.to_json()
        assert data["lambda"] == [2]
        assert data["components"][0]["ring"]["dimension"] == 2
        assert set(data["components"][0]) == {"class", "ring"}


class TestBlockSpec:
    def test_repeated_line_rejected(self):
        r = CuspidalLabel("r")
        with pytest.raises(ShapeError, match="repeats the cuspidal line r"):
            BlockSpec((r, r), 3)
        with pytest.raises(ShapeError, match="repeats"):
            BlockSpec((CuspidalLabel("r", 2, 3), CuspidalLabel("r", 2, 3, twist=1)), 3)

    def test_twisted_point_stands_for_its_line(self):
        """A block given a twisted point is the block of its line, so its
        classes start at twist 0 like the untwisted block's."""
        lam = Partition.of(2, 1)
        twisted = BlockSpec((CuspidalLabel("r", twist=2),), 3)
        assert twisted == BlockSpec((CuspidalLabel("r", twist=5),), 3)
        assert twisted == BlockSpec((CuspidalLine("r"),), 3)
        assert components(twisted, lam) == components(BlockSpec((CuspidalLabel("r"),), 3), lam)

    def test_same_id_other_dim_or_period_distinct(self):
        lines = (CuspidalLabel("r"), CuspidalLabel("r", 2), CuspidalLabel("r", 1, 3))
        assert BlockSpec(lines, 3).lines == tuple(point.line for point in lines)
        rep = components(BlockSpec(lines[:2], 3), Partition.of(3))
        dims = [[s.dim for s in c.representative] for c, _ in rep.components]
        assert dims == [[1, 1, 1], [1, 2]]


class TestBijection:
    def test_identity_tokens(self):
        cls = inertial_class(mseg((0, 1), (0, 0)))
        assert point_to_multisegment(cls, (0, 0)) == cls.representative

    def test_orbit_equal_tokens(self):
        cls = inertial_class(mseg((0, 0), (0, 0)))
        assert point_to_multisegment(cls, (2, 5)) == point_to_multisegment(cls, (5, 2))
        assert point_to_multisegment(cls, (0, 1)) == mseg((0, 0), (1, 1))

    def test_orbit_example(self):
        cls, orbit = multisegment_to_orbit(mseg((0, 0), (1, 1)))
        assert cls == inertial_class(mseg((0, 0), (0, 0)))
        assert set(orbit) == {(0, 1), (1, 0)}
        cls, orbit = multisegment_to_orbit(mseg((0, 1), (3, 4)))
        assert set(orbit) == {(0, 3), (3, 0)}

    def test_round_trip_small(self):
        for lengths in [(1,), (2,), (1, 1), (2, 1), (2, 2), (1, 1, 2), (1, 1, 1, 1)]:
            rep = Multisegment.of(*(seg(0, l - 1) for l in lengths))
            cls = inertial_class(rep)
            r = tangent_dim(rep)
            for tokens in itertools.product(range(4), repeat=r):
                m = point_to_multisegment(cls, tokens)
                cls2, orbit = multisegment_to_orbit(m)
                assert cls2 == cls
                assert tokens in orbit
                for other in orbit:
                    assert point_to_multisegment(cls, other) == m

    def test_token_errors(self):
        cls = inertial_class(mseg((0, 0), (0, 0)))
        with pytest.raises(ShapeError):
            point_to_multisegment(cls, (0,))
        with pytest.raises(ShapeError):
            point_to_multisegment(cls, (0, None))
        with pytest.raises(ShapeError, match="expected 2 tokens, got 3"):
            Orbit(cls, (0, 1, 2))

    def test_finite_period_rejected(self):
        with pytest.raises(WraparoundError):
            multisegment_to_orbit(mseg((0, 0), (1, 1), period=3))

    def test_orbit_value(self):
        cls, orbit = multisegment_to_orbit(mseg((0, 1), (3, 4), (2, 2)))
        assert orbit.canonical == (0, 3, 2) and orbit.cls == cls
        assert orbit == Orbit(cls, (3, 0, 2)) and set(orbit) == {(0, 3, 2), (3, 0, 2)}
        assert hash(orbit) == hash(Orbit(cls, (3, 0, 2)))
        assert orbit != Orbit(cls, (0, 3, 1)) and orbit != {(0, 3, 2)}
        assert orbit != frozenset(orbit) and frozenset(orbit) != orbit
        assert [0, 3, 2] not in orbit and (0, 3) not in orbit and (0, 3, 2, 2) not in orbit
        assert (None, 3, 2) not in orbit and ("a", 3, 2) not in orbit
        empty = multisegment_to_orbit(Multisegment())[1]
        assert list(empty) == [()] and len(empty) == 1 and () in empty

    def test_orbits_of_equal_block_sizes_compare_in_linear_time(self):
        m = mseg(*((t, t) for t in range(10)))
        cls, orbit = multisegment_to_orbit(m)
        twin, other = Orbit(cls, tuple(range(9, -1, -1))), Orbit(cls, tuple(range(1, 11)))

        def timed():
            start = time.perf_counter()
            verdicts = (orbit == twin, orbit != twin, orbit == other)
            return time.perf_counter() - start, verdicts

        best, verdicts = min(timed() for _ in range(5))
        assert verdicts == (True, False, False)
        assert best < 1e-3

    def test_hash_of_ten_distinct_twists_in_under_a_millisecond(self):
        _, orbit = multisegment_to_orbit(mseg(*((t, t) for t in range(10))))

        def timed():
            start = time.perf_counter()
            value = hash(orbit)
            return time.perf_counter() - start, value

        best, value = min(timed() for _ in range(5))
        assert value == hash(Orbit(orbit.cls, orbit.canonical[::-1]))
        assert best < 1e-3

    def test_ten_distinct_twists_in_under_a_millisecond(self):
        m = mseg(*((t, t) for t in range(10)))

        def timed():
            start = time.perf_counter()
            size = len(multisegment_to_orbit(m)[1])
            return time.perf_counter() - start, size

        best, size = min(timed() for _ in range(5))
        assert size == 3628800
        assert best < 1e-3

    @settings(deadline=None)
    @given(orbit_points(), st.data())
    def test_orbit_matches_brute_force(self, m, data):
        cls, orbit = multisegment_to_orbit(m)
        assert point_to_multisegment(cls, orbit.canonical) == m
        # Any within-block permutation of the tokens is a member, and a tuple
        # is a member exactly when it maps back to m.
        blocks = iter(orbit.canonical)
        permuted = tuple(itertools.chain.from_iterable(
            data.draw(st.permutations([next(blocks) for _ in range(size)]))
            for size in cls.orbit_sizes
        ))
        candidates = [permuted] + data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=len(m) - 1, max_size=len(m) + 1).map(tuple),
            max_size=5,
        ))
        for tokens in candidates:
            maps_back = len(tokens) == len(m) and point_to_multisegment(cls, tokens) == m
            assert (tokens in orbit) == maps_back
        assert permuted in orbit
        # The oracle lists every permutation of each block, so it is built
        # only when there are few of them.
        if cls.weyl_order() > 5040:
            head = list(itertools.islice(orbit, 2000))
            assert all(x < y for x, y in zip(head, head[1:]))
            return
        cls2, expected = brute_force_orbit(m)
        assert cls2 == cls
        members = list(orbit)
        assert all(x < y for x, y in zip(members, members[1:]))
        assert len(orbit) == len(members) == len(expected)
        assert set(orbit) == expected
        for tokens in candidates:
            assert (tokens in orbit) == (tokens in expected)


    @settings(deadline=None)
    @given(orbit_points(), orbit_points(), st.data())
    def test_orbit_equality_matches_brute_force(self, m1, m2, data):
        """Orbits are equal exactly when their multisegments are, also against
        a class whose orbit is the same set of token tuples, and equal
        orbits hash alike."""
        cls1, orbit1 = multisegment_to_orbit(m1)
        # The tokens of m1 regrouped into blocks of other sizes: a class whose
        # orbit can be the same set as orbit1 through blocks of equal tokens.
        cuts = data.draw(st.sets(st.integers(1, len(m1) - 1))) if len(m1) > 1 else set()
        sizes = [hi - lo for lo, hi in zip([0, *sorted(cuts)], [*sorted(cuts), len(m1)])]
        regrouped = InertialClass(Multisegment.of(*(
            seg(0, length - 1) for length, size in enumerate(sizes, 1) for _ in range(size)
        )))
        m3 = point_to_multisegment(regrouped, orbit1.canonical)
        for m in (m1, m2, m3):
            cls, orbit = multisegment_to_orbit(m)
            assert (orbit1 == orbit) == (orbit == orbit1) == (m1 == m)
            assert (orbit1 != orbit) == (m1 != m)
            if orbit1 == orbit:
                assert hash(orbit1) == hash(orbit)
                if cls1.weyl_order() <= 5040:
                    assert set(orbit1) == set(orbit) == brute_force_orbit(m)[1]

    def test_orbits_of_different_classes_differ(self):
        """{[3,3]_r} and {[3,5]_s} both have the one-member orbit {(3,)}."""
        _, orbit_r = multisegment_to_orbit(mseg((3, 3)))
        _, orbit_s = multisegment_to_orbit(mseg((3, 5), line_id="s"))
        assert set(orbit_r) == set(orbit_s) == {(3,)}
        assert orbit_r != orbit_s and hash(orbit_r) != hash(orbit_s)


class TestTangentAndExt:
    def test_tangent(self):
        assert tangent_dim(mseg((0, 1))) == 1
        assert tangent_dim(mseg((0, 0), (1, 1))) == 2
        assert tangent_dim(Multisegment()) == 0

    def test_ext(self):
        assert ext_dimensions(3) == [1, 3, 3, 1]
        assert ext_dimensions(0) == [1]
        assert ext_dimensions(5) == [1, 5, 10, 10, 5, 1]
        assert ext_dimensions(mseg((0, 0), (1, 1), (3, 3))) == [1, 3, 3, 1]

    def test_ext_sum(self):
        for r in range(13):
            assert sum(ext_dimensions(r)) == 2**r
