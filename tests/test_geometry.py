import hashlib

import numpy as np
import pytest
from scipy.spatial import cKDTree

from rydsim import geometry
from rydsim.devices import (GAS_D_MIN, GAS_N_ATOMS, GAS_RADIUS,
                            GAS_REGION_LENGTHS)
from rydsim.geometry import assign_regions, build_chain, sample_cylinder
from rydsim.model import InputError, IntegrationError


class TestSampleCylinder:
    def test_two_atoms_in_bounds(self):
        pos = sample_cylinder(100.0, 50.0, 2, 0.1, seed=0)
        assert np.all(pos[:, 0] >= 0) and np.all(pos[:, 0] <= 100)
        assert np.all(np.hypot(pos[:, 1], pos[:, 2]) <= 50)
        assert np.linalg.norm(pos[0] - pos[1]) >= 0.1

    def test_full_scale_gas(self):
        pos = sample_cylinder(30.0, 7.0, 3000, 0.1, seed=42)
        assert pos.shape == (3000, 3)
        assert np.all(pos[:, 0] >= 0) and np.all(pos[:, 0] <= 30)
        assert np.all(np.hypot(pos[:, 1], pos[:, 2]) <= 7.0)
        # independent min-distance check over every pair
        tree = cKDTree(pos)
        dist, _ = tree.query(pos, k=2)
        assert dist[:, 1].min() >= 0.1

    def test_deterministic_per_seed(self):
        a = sample_cylinder(10.0, 3.0, 200, 0.1, seed=5)
        b = sample_cylinder(10.0, 3.0, 200, 0.1, seed=5)
        assert np.array_equal(a, b)
        c = sample_cylinder(10.0, 3.0, 200, 0.1, seed=6)
        assert not np.array_equal(a, c)

    def test_infeasible_packing_fails(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_ATTEMPTS_PER_ATOM", 50)
        with pytest.raises(IntegrationError):
            sample_cylinder(2.0, 1.0, 300, 1.0, seed=0)

    def test_rejects_bad_spec(self):
        with pytest.raises(InputError, match="parameters must be positive"):
            sample_cylinder(0.0, 1.0, 1, 0.1, seed=0)


LENGTHS = (5.0, 10.0, 15.0)
DETUNINGS = (0.0, -10.0, -10.0)


class TestAssignRegions:
    def test_region_values(self):
        pos = np.array([[2.0, 0, 0], [8.0, 0, 0], [20.0, 0, 0]])
        np.testing.assert_allclose(assign_regions(pos, LENGTHS, DETUNINGS),
                                   [0.0, -10.0, -10.0])

    def test_switch_off_gate_value(self):
        pos = np.array([[8.0, 0, 0]])
        assert assign_regions(pos, LENGTHS, (0.0, 10.0, -10.0))[0] == 10.0

    def test_boundary_belongs_to_right_region(self):
        pos = np.array([[5.0, 0, 0], [15.0, 0, 0]])
        np.testing.assert_allclose(assign_regions(pos, LENGTHS, DETUNINGS),
                                   [-10.0, -10.0])

    def test_empty_region_is_fine(self):
        pos = np.array([[20.0, 0, 0]])
        np.testing.assert_allclose(assign_regions(pos, LENGTHS, DETUNINGS),
                                   [-10.0])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(InputError, match=r"outside \[0, L_x\]"):
            assign_regions(np.array([[31.0, 0, 0]]), LENGTHS, DETUNINGS)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        pos = np.column_stack([rng.uniform(0, 30, 100), np.zeros(100), np.zeros(100)])
        first = assign_regions(pos, LENGTHS, DETUNINGS)
        np.testing.assert_array_equal(first, assign_regions(pos, LENGTHS, DETUNINGS))


class TestBuildChain:
    def test_uniform_chain(self):
        net = build_chain([1.0] * 5, [-10.0] * 6, 10.0)
        assert net.n_atoms == 6
        gaps = np.diff(net.positions[:, 0])
        np.testing.assert_allclose(gaps, 1.0)

    def test_diode_style_gaps(self):
        gaps_in = [1.0, 0.89, 1.0, 1.0, 1.0]
        net = build_chain(gaps_in, [-10.0] * 6, 10.0)
        np.testing.assert_allclose(np.diff(net.positions[:, 0]), gaps_in)

    def test_single_gap_pair(self):
        net = build_chain([1.0], [-10.0, -10.0], 10.0)
        assert net.n_atoms == 2

    def test_rejects_non_positive_spacing(self):
        with pytest.raises(InputError, match="spacings must be positive"):
            build_chain([1.0, 0.0], [0.0, 0.0, 0.0], 10.0)



def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestSampleCylinderPinned:
    """Positions are pinned bit for bit: a change to the sampler's draws or
    arithmetic moves every gas built from a seed."""

    FULL = {
        7: "8352b8f5fb3c7d54a1311ca91e02eb562025c82ce743a7967a1c37eb17d58f72",
        8: "f986aeb62da2cae73437441a506575caaa03af61858e7e36e176873a3cde3b41",
        42: "0783558b2ad79cc9f96ce01268642b450c60f056a40a7ccd46ddbe7fe59479c5",
    }
    SHRUNK = "37d24b367ef37149caa7aa667ca38019675299c24eda95840961c254c63d227d"

    @pytest.mark.parametrize("seed", sorted(FULL))
    def test_full_scale_gas(self, seed):
        assert digest(sample_cylinder(30.0, 7.0, 3000, 0.1, seed)
                      ) == self.FULL[seed]

    def test_shrunk_gas(self):
        # the 400-atom cylinder build_gas_switch samples: same density,
        # scaled
        scale = (400 / GAS_N_ATOMS) ** (1.0 / 3.0)
        pos = sample_cylinder(sum(l * scale for l in GAS_REGION_LENGTHS),
                              GAS_RADIUS * scale, 400, GAS_D_MIN, 7)
        assert digest(pos) == self.SHRUNK

    def test_packing_error_message(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_ATTEMPTS_PER_ATOM", 50)
        with pytest.raises(IntegrationError) as err:
            sample_cylinder(2.0, 1.0, 300, 1.0, seed=0)
        assert str(err.value) == "placed 9/300 atoms after 15000 attempts"
