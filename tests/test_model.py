import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydsim.classical import gillespie_run
from rydsim.model import (AtomNetwork, Configuration, DetuningSchedule,
                          InputError, SimParams, facilitation_detuning,
                          facilitation_radius)
from rydsim.quantum import evolve_quantum


def two_atom_network(spacing=1.0, c6=10.0, detunings=(-10.0, -10.0)):
    return AtomNetwork([[0, 0, 0], [spacing, 0, 0]], detunings, c6)


class TestFacilitationDetuning:
    def test_direct_formula(self):
        assert facilitation_detuning(1.0, 10.0) == -10.0

    def test_rubidium_parameters(self):
        # c6/(2pi) = 109 GHz um^6 at r_f = 5 um gives about -7 MHz
        value = facilitation_detuning(5.0, 109e9)
        assert value == pytest.approx(-6.976e6, rel=1e-3)
        assert abs(value) == pytest.approx(7e6, rel=0.01)

    def test_gas_parameters(self):
        # inverting -69.5 MHz at c6/(2pi) = 869 GHz um^6 pins r_f near 4.817
        assert facilitation_detuning(4.817, 869e9) == pytest.approx(-69.5e6, rel=1e-3)
        # the rounded 4.8 um is visibly inconsistent with -69.5 MHz
        assert facilitation_detuning(4.8, 869e9) == pytest.approx(-71.1e6, rel=1e-3)

    def test_rejects_non_positive(self):
        with pytest.raises(InputError, match="r_f and c6 must be positive"):
            facilitation_detuning(0.0, 10.0)
        with pytest.raises(InputError, match="r_f and c6 must be positive"):
            facilitation_detuning(1.0, -1.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = rng.uniform(0.1, 20.0)
            c6 = rng.uniform(0.1, 1e12)
            assert facilitation_detuning(r, c6) * r**6 == pytest.approx(-c6, rel=1e-12)
            assert facilitation_radius(facilitation_detuning(r, c6), c6) == pytest.approx(r, rel=1e-12)


class TestAtomNetwork:
    def test_rejects_coincident_atoms(self):
        with pytest.raises(InputError, match="distances must be positive"):
            AtomNetwork([[0, 0, 0], [0, 0, 0]], [0.0, 0.0], 10.0)

    def test_rejects_repeated_position_among_many(self):
        pos = np.random.default_rng(3).uniform(0, 10, size=(50, 3))
        pos[37] = pos[3]
        with pytest.raises(InputError, match="distances must be positive"):
            AtomNetwork(pos, np.zeros(50), 10.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_positions(self, bad):
        with pytest.raises(InputError, match="positions must be finite"):
            AtomNetwork([[0, 0, 0], [bad, 0, 0]], [0.0, 0.0], 1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError,
                           match="static_detunings length must match"):
            AtomNetwork([[0, 0, 0]], [0.0, 1.0], 10.0)

    def test_rejects_bad_c6(self):
        with pytest.raises(InputError, match="c6 must be positive"):
            AtomNetwork([[0, 0, 0]], [0.0], 0.0)

    def test_immutable_arrays(self):
        net = two_atom_network()
        with pytest.raises(ValueError):
            net.positions[0, 0] = 3.0


class TestSimParams:
    def test_rejects_bad_values(self):
        with pytest.raises(InputError, match="omega must be positive"):
            SimParams(0.0, 1.0, 0.0)
        with pytest.raises(InputError, match="must be non-negative"):
            SimParams(1.0, -1.0, 0.0)

    @pytest.mark.parametrize("values", [
        (np.nan, 1.0, 0.0), (np.inf, 1.0, 0.0), (1.0, np.nan, 0.0),
        (1.0, np.inf, 0.0), (1.0, 1.0, np.nan), (1.0, 1.0, np.inf),
        (np.nan, np.nan, np.inf)])
    def test_rejects_non_finite(self, values):
        with pytest.raises(InputError, match="must be finite"):
            SimParams(*values)


class TestConfiguration:
    def test_index_ordering(self):
        # atom 0 is bit 0 of the basis index
        assert Configuration((1, 0, 0)).to_index() == 1
        assert Configuration((0, 0, 1)).to_index() == 4

    def test_rejects_bad_bits(self):
        with pytest.raises(InputError, match="bits must be 0 or 1"):
            Configuration((0, 2))

    def test_rejects_length_mismatch(self):
        # the engines need one bit per atom to start from
        net = two_atom_network()
        params = SimParams(1.0, 1.0, 0.0)
        with pytest.raises(InputError, match="configuration length mismatch"):
            gillespie_run(net, params, Configuration((0, 0, 0)), 1.0, seed=0)
        with pytest.raises(InputError, match="configuration length mismatch"):
            evolve_quantum(net, params, Configuration((0, 0, 0)), 1.0)


class TestDetuningSchedule:
    def test_rejects_overlap(self):
        with pytest.raises(InputError, match="overlapping overrides"):
            DetuningSchedule(((0.0, 2.0, 0, 1.0), (1.0, 3.0, 0, 2.0)))
        # the overlapping intervals are apart in start order
        with pytest.raises(InputError, match="overlapping overrides"):
            DetuningSchedule(((0.0, 2.0, 0, 1.0), (0.5, 1.0, 1, 2.0),
                              (1.5, 3.0, 0, 2.0)))

    def test_rejects_empty_interval(self):
        with pytest.raises(InputError, match="needs t_start < t_end"):
            DetuningSchedule(((1.0, 1.0, 0, 1.0),))

    def test_rejects_negative_atom(self):
        # atom -1 would override the last atom
        with pytest.raises(InputError, match="is negative"):
            DetuningSchedule(((0.0, 1.0, -1, 0.0),))

    def test_rejects_atom_past_the_network(self):
        sched = DetuningSchedule(((0.0, 1.0, 5, 0.0),))
        with pytest.raises(InputError, match="past the last of 3"):
            sched.segments(2.0, np.array([-10.0, -10.0, -10.0]))

    def test_lookup(self):
        sched = DetuningSchedule(((1.0, 2.0, 1, 5.0),))
        static = np.array([0.0, -10.0])
        segments = sched.segments(3.0, static)

        def at(t):
            return next(d for t0, t1, d in segments if t0 <= t < t1)
        np.testing.assert_allclose(at(0.5), [0.0, -10.0])
        np.testing.assert_allclose(at(1.0), [0.0, 5.0])
        np.testing.assert_allclose(at(2.0), [0.0, -10.0])

    def test_breakpoints(self):
        sched = DetuningSchedule(((1.0, 2.0, 0, 5.0), (2.0, 3.0, 1, 6.0)))
        segments = sched.segments(4.0, np.zeros(2))
        np.testing.assert_allclose([t0 for t0, _, _ in segments[1:]],
                                   [1.0, 2.0, 3.0])


@st.composite
def schedules(draw):
    """Up to three intervals per atom on three atoms, from sorted distinct
    times on a 1/8 grid, so no two overrides of an atom overlap."""
    overrides = []
    for atom in range(3):
        times = sorted(draw(st.sets(st.integers(-16, 96), max_size=6)))
        for t0, t1 in zip(times[::2], times[1::2]):
            overrides.append((t0 / 8, t1 / 8, atom,
                              draw(st.floats(-20.0, 20.0))))
    return DetuningSchedule(tuple(overrides))


@settings(max_examples=200, deadline=None)
@given(schedule=schedules(), t_end=st.integers(1, 640).map(lambda k: k / 64))
def test_segments_tile_and_match_a_lookup(schedule, t_end):
    # the segments cover [0, t_end] end to end, no override starts or ends
    # inside one, and each holds the detunings active at its midpoint
    static = np.array([-10.0, 0.0, 3.0])
    segments = schedule.segments(t_end, static)
    starts = [t0 for t0, _, _ in segments]
    ends = [t1 for _, t1, _ in segments]
    assert starts[0] == 0.0 and ends[-1] == t_end
    assert starts[1:] == ends[:-1]
    for t0, t1, det in segments:
        assert t0 < t1
        assert not any(t0 < t < t1 for s0, s1, _, _ in schedule.overrides
                       for t in (s0, s1))
        mid = (t0 + t1) / 2
        expected = static.copy()
        for s0, s1, atom, value in schedule.overrides:
            if s0 <= mid < s1:
                expected[atom] = value
        np.testing.assert_array_equal(det, expected)
