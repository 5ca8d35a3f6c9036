"""Command-line front end: run named experiments, scan parameter grids,
and validate the engines against analytic oracles.

Outputs are deterministic for fixed seeds: one CSV per recorded series,
an aggregated scan CSV where applicable, and a JSON summary embedding the
full config and its hash so any run can be replayed from the summary
alone (`rydsim run summary.json`).
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale on the parser's first message: import
# it with the rest, so that no run pays for an import
import locale  # noqa: F401
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import ENGINES, EXPERIMENTS, FLAGS, KEYS, run_experiment
from . import classical, quantum  # after experiments: 0.5 MB less peak RSS
from .model import AtomNetwork, Configuration, InputError, SimParams
from .timeseries import write_csv


def _load_config(target: str, flags: dict) -> dict:
    """The target, unchecked: {"experiment": name}, or a JSON file's object
    (a summary's config when replaying), with the flags that were set."""
    if target in EXPERIMENTS:
        data = {"experiment": target}
    else:
        try:  # decoding errors are ValueErrors too
            data = json.loads(Path(target).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise InputError(f"{target!r} is neither a known experiment "
                             f"nor a readable JSON file ({exc})") from None
        if isinstance(data, dict) and "config" in data:  # replay a summary
            data = data["config"]
        if not isinstance(data, dict):
            raise InputError(f"{target}: config is not a JSON object")
    return {**data, **{k: v for k, v in flags.items() if v is not None}}


def _write_results(result: dict, out_dir: Path, scan_only: bool = False) -> list:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    config = result["config"]
    series = result.get("series", {})
    if not scan_only:
        for key, ts in series.items():
            path = out_dir / f"{key}.csv"
            ts.to_csv(path)
            written.append(path)
    if "scan_rows" in result:
        path = out_dir / "scan.csv"
        write_csv(path, result["scan_header"], result["scan_rows"])
        written.append(path)
    summary = {"experiment": config["experiment"], "config": config,
               "config_hash": result["config_hash"],
               "code_version": __version__,
               "outputs": [p.name for p in written]}
    # then the runner's scalar results, in order (config_hash stays put)
    summary.update((key, value) for key, value in result.items()
                   if np.isscalar(value))
    # engine, work counters and invariant residuals of each series; all
    # deterministic, so a replay writes the same summary
    if series:
        summary["series"] = {key: ts.metadata for key, ts in series.items()}
    path = out_dir / "summary.json"
    path.write_text(json.dumps(summary, indent=2, default=str) + "\n")
    written.append(path)
    return written


def cmd_run(args) -> int:
    """`run` writes every output; `scan` only the scan CSV and the summary,
    and refuses an experiment without one."""
    scan_only = args.command == "scan"
    config = _load_config(args.target,
                          {key: getattr(args, key) for key in FLAGS})
    name = config.get("experiment")
    # refused before anything runs (run_experiment checks the name)
    if (scan_only and isinstance(name, str) and name in EXPERIMENTS
            and not EXPERIMENTS[name][3]):
        raise InputError(f"experiment {name!r} has no scan output")
    result = run_experiment(config)
    out_dir = Path(args.out) / result["config"]["experiment"]
    for path in _write_results(result, out_dir, scan_only):
        print(path)
    return 0


_ATOM = AtomNetwork([[0.0, 0.0, 0.0]], [0.0], 10.0)


def _rabi():
    ts = quantum.evolve_quantum(_ATOM, SimParams(1.0, 0.0, 0.0),
                                Configuration((0,)), 5.0, output_sites=(0,))
    err = float(np.max(np.abs(ts.output_count - np.sin(ts.times) ** 2)))
    return err < 1e-6, f"max |<n> - sin^2(t)| = {err:.2e}"


def _decay():
    m, expect = 40000, np.exp(-1.0)
    frac = float(classical.gillespie_ensemble(
        _ATOM, SimParams(1e-4, 1.0, 1.0), Configuration((1,)), m, 42,
        np.array([1.0]), (0,)).output_count[0])
    bound = 3.0 * np.sqrt(expect * (1.0 - expect) / m)
    return abs(frac - expect) < bound, (
        f"excited fraction at t = 1/kappa {frac:.4f} vs e^-1 = "
        f"{expect:.4f} (3-sigma {bound:.4f})")


def _two_state_relaxation():
    ts = classical.evolve_classical_exact(
        _ATOM, SimParams(1.0, 1.0, 0.0), Configuration((0,)), 2.0,
        output_sites=(0,))
    err = float(np.max(np.abs(ts.output_count - 0.5 * (1 - np.exp(-8 * ts.times)))))
    return err < 1e-8, f"max error {err:.2e}"


# six significant digits: at gamma = 10 the difference is 2e-5 under 0.05
def _agreement(appB):
    diff = dict(appB["scan_rows"])[10.0]
    return diff < 0.05, f"max density diff {diff:.6g} (< 0.05)"


def _divergence(appB):
    diff = dict(appB["scan_rows"])[0.1]
    return diff > 0.05, (f"max density diff {diff:.6g} (> 0.05, divergence "
                         f"expected)")


# the worst residuals `propagate` recorded over appB's six runs (negativity
# reads only rho's diagonal), and the least eigenvalue of a noisy final rho
def _conservation(appB):
    drift, negativity = (max(ts.metadata[key] for ts in appB["series"].values())
                         for key in ("norm_drift", "negativity"))
    rho = quantum.from_real(appB["series"]["quantum_gamma_1"].final_state)
    least = float(np.linalg.eigvalsh(rho)[0])
    return drift < 1e-8 and least >= -1e-8 and negativity < 1e-8, (
        f"norm drift {drift:.1e}, least eigenvalue {least:.3g}, "
        f"negativity {negativity:.1e}")


def _column_sums(appB):
    leak = max(ts.metadata["trace_leak"] for ts in appB["series"].values())
    return leak < 1e-12, f"max |column sum| = {leak:.1e}"


# validate's checks in print order: (name, reads appB, check -> (ok, detail))
CHECKS = (("rabi", False, _rabi), ("decay", False, _decay),
          ("two-state-relaxation", False, _two_state_relaxation),
          ("cross-engine-gamma-10", True, _agreement),
          ("cross-engine-gamma-0.1-expected-divergent", True, _divergence),
          ("conservation", True, _conservation),
          ("generator-column-sums", True, _column_sums))


def run_validation() -> bool:
    """Print a PASS or FAIL line for each of CHECKS (the list the acceptance
    suite and the engine unit tests assert), running appB once, then the
    verdict.  A check that raises fails.  Returns True if all passed."""
    appB, passed = None, True
    for name, reads_appB, check in CHECKS:
        try:
            if reads_appB and appB is None:
                appB = run_experiment({"experiment": "appB"})
            ok, detail = check(appB) if reads_appB else check()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        passed = passed and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    print("validation " + ("passed" if passed else "FAILED"))
    return passed


def cmd_validate(args) -> int:
    return 0 if run_validation() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydsim",
        description="Rydberg atomtronic device simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="results", help="output directory")
    for key in FLAGS:
        flag = "--" + key.replace("_", "-")
        if key in KEYS:
            common.add_argument(flag, type=KEYS[key][0])
        else:  # the engine
            common.add_argument(flag, choices=ENGINES)

    for cmd, text in (("run", "run a named experiment or config file"),
                      ("scan", "run a scan, writing the aggregated CSV only")):
        p = sub.add_parser(cmd, parents=[common], help=text)
        p.add_argument("target", help="experiment name or JSON config/summary")
        p.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="run engine self-checks")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"engine failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
