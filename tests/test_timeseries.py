import numpy as np
import pytest

from rydsim.model import InputError
from rydsim.timeseries import TimeSeries, config_hash, write_csv


def make_series(with_err=False):
    t = np.linspace(0, 2, 5)
    dens = np.column_stack([np.sin(t) ** 2, np.cos(t) ** 2])
    n_o = dens.sum(axis=1)
    err = 0.01 * np.ones_like(t) if with_err else None
    return TimeSeries(t, dens, n_o, err)


class TestConstruction:
    def test_shape_validation(self):
        t = np.array([0.0, 1.0])
        with pytest.raises(InputError, match="site_density rows must match"):
            TimeSeries(t, np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(InputError, match="output_count must match"):
            TimeSeries(t, np.zeros((2, 1)), np.zeros(3))

    def test_rejects_non_increasing_times(self):
        with pytest.raises(InputError, match="strictly increasing"):
            TimeSeries(np.array([0.0, 0.0]), np.zeros((2, 1)), np.zeros(2))


class TestValueAt:
    def test_interpolation(self):
        ts = TimeSeries(np.array([0.0, 1.0]), np.zeros((2, 1)),
                        np.array([0.0, 2.0]))
        assert ts.value_at(0.5) == pytest.approx(1.0)
        assert ts.value_at(1.0) == 2.0

    def test_out_of_range(self):
        ts = make_series()
        with pytest.raises(InputError, match="outside recorded range"):
            ts.value_at(-0.1)
        with pytest.raises(InputError, match="outside recorded range"):
            ts.value_at(2.1)


def test_resample_roundtrip():
    ts = make_series(with_err=True)
    fine = ts.resample(np.linspace(0, 2, 17))
    back = fine.resample(ts.times)
    np.testing.assert_allclose(back.output_count, ts.output_count)
    np.testing.assert_allclose(back.site_density, ts.site_density)
    np.testing.assert_allclose(back.output_stderr, ts.output_stderr)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        ts = make_series()
        path = tmp_path / "series.csv"
        ts.to_csv(path)
        loaded = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        # t, site_0, site_1, N_o and no N_o_stderr column
        assert loaded.shape == (ts.times.size, 4)
        np.testing.assert_allclose(loaded[:, 0], ts.times, rtol=1e-8)
        np.testing.assert_allclose(loaded[:, 1:3], ts.site_density,
                                   rtol=1e-8)
        np.testing.assert_allclose(loaded[:, 3], ts.output_count, rtol=1e-8)

    def test_roundtrip_with_stderr(self, tmp_path):
        ts = make_series(with_err=True)
        path = tmp_path / "series.csv"
        ts.to_csv(path)
        loaded = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_allclose(loaded[:, 4], ts.output_stderr, rtol=1e-8)

    def test_header(self, tmp_path):
        ts = make_series(with_err=True)
        path = tmp_path / "series.csv"
        ts.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,site_0,site_1,N_o,N_o_stderr"


# nan, +-inf, -0.0, the smallest subnormal, a 9-digit mantissa at 1e16
# and integral floats
SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
           1.23456789e16, 3.0, -2.0, 1e22, 0.1 + 0.2]


def per_value_csv(header, rows):
    """The per-value CSV format that one format string per file replaced."""
    return "".join([",".join(header) + "\n"] + [
        ",".join(x if isinstance(x, str) else f"{x:.9g}" for x in row) + "\n"
        for row in rows])


class TestCsvBytes:
    @pytest.mark.parametrize("with_err", [False, True])
    def test_matches_the_per_value_format(self, tmp_path, with_err):
        n = len(SPECIAL)
        dens = np.column_stack([SPECIAL, SPECIAL[::-1]])
        ts = TimeSeries(np.arange(n) * 0.5, dens, np.roll(SPECIAL, 3),
                        np.roll(SPECIAL, 5) if with_err else None)
        path = tmp_path / "series.csv"
        ts.to_csv(path)
        header = ["t", "site_0", "site_1", "N_o"] + ["N_o_stderr"] * with_err
        cols = [ts.times, *dens.T, ts.output_count]
        if with_err:
            cols.append(ts.output_stderr)
        expected = per_value_csv(header, np.column_stack(cols))
        assert path.read_bytes() == expected.encode()
        # the round trip gives each value at 9 significant digits
        nine = np.vectorize(lambda x: float(f"{x:.9g}"))
        loaded = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(loaded[:, 1:3], nine(ts.site_density))
        np.testing.assert_array_equal(loaded[:, 3], nine(ts.output_count))
        np.testing.assert_array_equal(np.signbit(loaded[:, 1:3]),
                                      np.signbit(ts.site_density))
        if with_err:
            np.testing.assert_array_equal(loaded[:, 4],
                                          nine(ts.output_stderr))

    def test_strings_pass_through(self, tmp_path):
        header = ["inputs", "N_o_at_t_w", "output_bit"]
        rows = [("01", 0.0284586958123, 0), ("11", np.float64(1 / 3), 1)]
        path = tmp_path / "scan.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == per_value_csv(header, rows).encode()
        assert path.read_text().splitlines()[1] == "01,0.0284586958,0"

    def test_no_rows_writes_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["a", "b"], [])
        assert path.read_text() == "a,b\n"


class TestConfigHash:
    def test_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == \
            config_hash({"b": [2, 3], "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_format(self):
        h = config_hash({"x": 0.5})
        assert len(h) == 16
        int(h, 16)
