"""Output checks for the benchmark workloads.

Every check reads the files `rydsim run` wrote, so it covers result writing
as well as the engines.  A check returns one failure reason (or None) per
operation: one scan point, or one gas instance.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# fig3's default gate-detuning grid, dg/df = 0.1 .. 3.0.
GRID = [round(0.1 * i, 2) for i in range(1, 31)]

# Reference rows kept per series: every ROW_STRIDE-th record point.
ROW_STRIDE = 10

# Absolute tolerance on site densities and N_o against the reference.  A
# change of integrator moves densities by ~5e-6; dropping decay
# (kappa = 0.003 over t = 8) moves them by ~1e-2.
TOL = 1e-4
PEAK_WINDOW = 0.15
# kmc against the exact classical N_o at the work time, in units of the
# reported standard error.  Tested at one time per point only: across all
# 200 record times of a full scan the largest |z| reached 4.55.
Z_MAX = 5.0
# fig4's on-switch plateau at 3000 atoms and one instance of 30
# trajectories: 10.0 +- 0.2 over 40 seeds.  The off plateau is no use: it
# ranged over 5 .. 9 and the on/off ratio fell to 1.09.
ON_PLATEAU = (7.0, 13.0)

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def series_name(ratio: float) -> str:
    return f"dg_ratio_{ratio:g}.csv"


def read_csv(path: Path) -> dict:
    """Column name -> values of a CSV written by rydsim."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _scan_rows(out_dir: Path) -> dict:
    scan = read_csv(out_dir / "scan.csv")
    return {f"{r:g}": (n_o, t_w) for r, n_o, t_w in zip(
        scan["delta_g_over_delta_f"], scan["N_o_at_t_w"], scan["t_w"])}


def _exact_point(out_dir: Path, ratio: float, row, ref: dict) -> str | None:
    n_o, t_w = row
    if abs(t_w - ref["t_w"]) > 1e-9:
        return f"t_w {t_w} != {ref['t_w']}"
    if abs(n_o - ref["n_o_at_t_w"]) > TOL:
        return f"N_o(t_w) {n_o:.7f} vs reference {ref['n_o_at_t_w']:.7f}"
    got = read_csv(out_dir / series_name(ratio))
    cols = np.column_stack(list(got.values()))[::ROW_STRIDE]
    want = np.asarray(ref["rows"])
    if cols.shape != want.shape:
        return f"series shape {cols.shape} != {want.shape}"
    if np.max(np.abs(cols[:, 0] - want[:, 0])) > 1e-6:
        return "record grid differs from reference"
    err = float(np.max(np.abs(cols[:, 1:] - want[:, 1:])))
    if not err <= TOL:
        return f"max density error {err:.2e} > {TOL:g}"
    return None


def _kmc_point(out_dir: Path, ratio: float, row, ref: dict,
               trajectories: int) -> str | None:
    n_o, t_w = row
    got = read_csv(out_dir / series_name(ratio))
    dens = np.column_stack([v for k, v in got.items() if k.startswith("site_")])
    if not (np.all(np.isfinite(dens)) and dens.min() >= 0 and dens.max() <= 1):
        return "site densities outside [0, 1]"
    stderr = float(np.interp(t_w, got["t"], got["N_o_stderr"]))
    # a point where no trajectory reaches the output reports stderr 0
    z = (n_o - ref["n_o_at_t_w"]) / max(stderr, 1.0 / trajectories)
    if not abs(z) <= Z_MAX:
        return (f"N_o(t_w) {n_o:.4f} vs exact {ref['n_o_at_t_w']:.4f}: "
                f"|z| = {abs(z):.2f} > {Z_MAX:g}")
    return None


def check_switch_scan(out_dir: Path, ratios, engine: str, reference: dict,
                      trajectories: int) -> list:
    """One reason-or-None per scan point of a fig3 run; `trajectories` is
    the kmc ensemble size."""
    rows = _scan_rows(out_dir)
    exact = reference["classical-exact" if engine == "kmc" else engine]
    failures = []
    for ratio in ratios:
        key = f"{ratio:g}"
        if key not in rows:
            failures.append("missing from scan.csv")
        elif engine == "kmc":
            failures.append(_kmc_point(out_dir, ratio, rows[key], exact[key],
                                       trajectories))
        else:
            failures.append(_exact_point(out_dir, ratio, rows[key], exact[key]))
    if len(rows) != len(ratios):
        failures = [f or f"scan.csv has {len(rows)} rows" for f in failures]
    if engine != "kmc" and all(f is None for f in failures):
        peak = max(ratios, key=lambda r: rows[f"{r:g}"][0])
        if abs(peak - 1.0) > PEAK_WINDOW:
            failures[ratios.index(peak)] = f"scan peak at dg/df = {peak:g}"
    return failures


def check_gas(out_dir: Path, instances: int, t_end: float = 100.0,
              points: int = 200) -> list:
    """One reason-or-None per gas instance (on and off) of a fig4 run.

    Only checks that hold for every seed at one instance: the [1.6, 2.6]
    on/off gate of the acceptance suite is defined at 10 instances.
    """
    summary = json.loads((out_dir / "summary.json").read_text())
    grid = np.linspace(t_end / points, t_end, points)
    reasons = {}
    for key in ("on", "off"):
        series = read_csv(out_dir / f"{key}.csv")
        values = np.concatenate([series["N_o"], series["N_o_stderr"]])
        plateau = summary[f"plateau_{key}"]
        tail = np.mean(series["N_o"][-points // 10:])
        if not np.allclose(series["t"], grid, rtol=0, atol=1e-6):
            reasons[key] = "record grid differs"
        elif not (np.all(np.isfinite(values)) and values.min() >= 0):
            reasons[key] = "N_o or its stderr negative or not finite"
        elif not (plateau > 0 and abs(tail / plateau - 1) <= 1e-6):
            reasons[key] = f"plateau {plateau} does not match the series"
    on, off = summary["plateau_on"], summary["plateau_off"]
    if not reasons and abs(summary["on_off_ratio"] * off / on - 1) > 1e-9:
        reasons["on"] = reasons["off"] = "on_off_ratio != on / off plateau"
    lo, hi = ON_PLATEAU
    if "on" not in reasons and not lo <= on <= hi:
        reasons["on"] = f"on plateau {on:.3f} outside [{lo:g}, {hi:g}]"
    return [reasons.get(key) for key in ("on", "off") for _ in range(instances)]
