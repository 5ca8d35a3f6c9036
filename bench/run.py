"""rydsim benchmark: times the user-facing `rydsim run` command.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of WORKLOADS, or `all` to run each in turn.  One closed-loop
client: operations run back to back, each `rydsim.cli.main(["run", ...])`
call in a fresh process (op.py), for about --seconds.  The last
stdout line is a JSON object {correct, attempted, failed, metrics}; the
lines before it report the run facts and every measurement.  See README.md
for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import GRID, check_gas, check_switch_scan, load_reference
from op import PROBE
from spans import COUNTS, TIMES, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NPROC = len(os.sched_getaffinity(0))

SCAN_TRAJECTORIES = 1000
# A kmc point costs ~2.5x more at resonance (dg/df = 1) than at dg/df >= 2,
# and the cost falls off unevenly in between.  So kmc's seed-drawn point
# comes from where the cost is flat; otherwise the draw, not the code, would
# set much of a run's median.
KMC_OTHERS = [r for r in GRID if r >= 2.0]
GAS_INSTANCES = 1
# The whole run, every operation included, ends within this many seconds.
RUN_LIMIT = 170.0


@dataclass
class Op:
    """One `rydsim run` call: its target and flags, the config file to
    write (None for a named experiment) and one label per operation."""

    target: str
    flags: list
    config: dict | None
    units: list
    check: Callable[[Path, dict], list]  # (out_dir, reference) -> reasons


def switch_scan(engine: str, points: int | None, others=None):
    """fig3 on one engine.  The scan is the whole grid in an order drawn
    from the seed, or the resonance dg/df = 1 (the expected peak) plus
    `points - 1` others drawn from the seed out of `others` (default: the
    rest of the grid)."""
    def make(seed: int, index: int) -> Op:
        rng = random.Random(f"{seed}:{index}")
        if points is None:
            ratios = rng.sample(GRID, len(GRID))
        else:
            ratios = [1.0] + rng.sample(
                others or [r for r in GRID if r != 1.0], points - 1)
        flags = ["--engine", engine]
        if engine == "kmc":
            # fig3 ignores both on kmc today (run_device's defaults, 1000
            # trajectories and seed 0, apply); passing them keeps the
            # workload's size fixed once that is fixed.
            flags += ["--trajectories", str(SCAN_TRAJECTORIES),
                      "--seed", str(rng.randrange(10**6))]
        return Op("config.json", flags, {"experiment": "fig3", "scan": ratios},
                  ratios,
                  lambda out, ref: check_switch_scan(out, ratios, engine, ref,
                                                     SCAN_TRAJECTORIES))
    return make


def gas_switch(seed: int, index: int) -> Op:
    """fig4 at its full 3000 atoms, GAS_INSTANCES instances of each switch
    state."""
    fig4_seed = random.Random(f"{seed}:{index}").randrange(10**6)
    units = [f"{state}-{fig4_seed + i}" for state in ("on", "off")
             for i in range(GAS_INSTANCES)]
    return Op("fig4", ["--instances", str(GAS_INSTANCES), "--seed",
                       str(fig4_seed)], None, units,
              lambda out, ref: check_gas(out, GAS_INSTANCES))


WORKLOADS = {
    "switch-scan-quantum": switch_scan("quantum", 2),
    "switch-scan-classical": switch_scan("classical-exact", None),
    "switch-scan-kmc": switch_scan("kmc", 2, KMC_OTHERS),
    "gas-switch-3000": gas_switch,
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{name: "s" for name in TIMES}, **{name: "count" for name in COUNTS},
    "quantum.step_ms": "ms", "classical.step_us": "us",
    "classical.kmc_us_per_event": "us", "classical.table_mean_degree": "count",
    "trace.spans": "count", "experiments.parallel_speedup": "ratio",
    "trace.overhead_ratio": "ratio", "cli.bytes_written": "B",
    **{f"quantum.rhs_ms_n{n}": "ms" for n in PROBE},
    **{f"quantum.rho_bytes_n{n}": "B" for n in PROBE},
}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def work_dir() -> Path:
    path = ROOT / ".bench_run"
    path.mkdir(exist_ok=True)
    return path


def spawn(spec: dict, op_dir: Path, threads: int, deadline: float):
    """Run op.py on `spec` in a fresh process; its result dict, or None if
    it ended without one (the log is copied to stderr)."""
    spec_path = op_dir / "spec.json"
    spec.update(src=str(ROOT / "src"), result=str(op_dir / "result.json"))
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, RYDSIM_THREADS=str(threads))
    with open(op_dir / "log.txt", "w") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "op.py"), str(spec_path), repr(t_spawn)],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=env,
            start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            print(f"{spec['mode']} timed out", file=sys.stderr)
        finally:
            # the process group holds op.py and any pool workers it left
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    result = op_dir / "result.json"
    if proc.returncode == 0 and result.is_file():
        return json.loads(result.read_text())
    sys.stderr.write((op_dir / "log.txt").read_text()[-4000:])
    return None


class Runner:
    """The operations of one benchmark run and everything they measured."""

    def __init__(self, workload: str, seed: int, tmp: Path, deadline: float):
        self.make = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.reference = load_reference()
        self.records = []
        self.attempted = 0
        self.failed = 0

    def run(self, kind: str, index: int) -> None:
        """One operation on input `index` of the run's seed: `kind` is
        "default" (RYDSIM_THREADS = nproc), "serial" (1 worker) or "traced"
        (1 worker, spans recorded)."""
        op = self.make(self.seed, index)
        op_dir = self.tmp / f"op{len(self.records)}"
        out = op_dir / "out"
        op_dir.mkdir()
        target = str(op_dir / op.target) if op.config else op.target
        threads = NPROC if kind == "default" else 1
        spec = {"mode": "run",
                "argv": ["run", target, *op.flags, "--out", str(out)],
                "config": op.config, "config_path": str(op_dir / op.target),
                "trace": kind == "traced",
                "run_id": f"{self.workload}:{self.seed}:{index}:{kind}"}
        result = spawn(spec, op_dir, threads, self.deadline)
        reasons = ["no result"] * len(op.units)
        if result is not None:
            result["bytes_written"] = sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file())
            children = result["children_maxrss_kb"]
            result["peak_rss_mb"] = (result["maxrss_kb"]
                                     + threads * children) / 1024
            reasons = [f"rydsim exited {result['rc']}"] * len(op.units)
        if result is not None and result["rc"] == 0:
            try:
                (exp_dir,) = out.iterdir()
                reasons = op.check(exp_dir, self.reference)
            except (OSError, ValueError, KeyError) as exc:
                reasons = [f"output unreadable: {exc!r}"] * len(op.units)
        failed = [(u, r) for u, r in zip(op.units, reasons) if r is not None]
        self.attempted += len(op.units)
        self.failed += len(failed)
        for unit, reason in failed:
            print(f"FAIL input {index} {unit}: {reason}", file=sys.stderr)
        record = {"op": len(self.records), "input": index, "kind": kind,
                  "threads": threads, "target": op.target, "flags": op.flags,
                  "units": op.units, "failed": len(failed)}
        if result is not None:
            record.update({k: result[k] for k in (
                "setup_s", "wall_s", "peak_rss_mb", "bytes_written",
                "spans", "counts") if k in result})
        print("op " + json.dumps({k: v for k, v in record.items()
                                  if k not in ("spans", "counts")}))
        shutil.rmtree(op_dir)
        self.records.append(record)

    def probe(self) -> dict | None:
        op_dir = self.tmp / "probe"
        op_dir.mkdir()
        result = spawn({"mode": "probe"}, op_dir, 1, self.deadline)
        shutil.rmtree(op_dir)
        return result

    def median(self, key: str, kind: str) -> float:
        values = [r[key] for r in self.records
                  if r["kind"] == kind and key in r]
        return statistics.median(values) if values else 0.0


def measure(runner: Runner, seconds: float, trace: bool):
    """The run's metrics: end-to-end from untraced one-worker calls, or
    per-layer from cycles of a default-worker, a one-worker and a traced
    call; None if nothing was measured."""
    start = time.perf_counter()
    kinds = ("default", "serial", "traced") if trace else ("serial",)
    probe = runner.probe() if trace else None
    cycles = []
    for index in itertools.count():
        cycle_start = time.perf_counter()
        for kind in kinds:
            runner.run(kind, index)
        cycles.append(time.perf_counter() - cycle_start)
        # stop before a cycle that would likely end past `seconds`, so that
        # a run lasts about `seconds` whatever one cycle costs
        if (time.perf_counter() - start + statistics.median(cycles)
                > seconds):
            break
    if not trace:
        if not any("wall_s" in r for r in runner.records):
            return None
        # the run's high-water is the largest of its calls'
        return {"wall_s": runner.median("wall_s", "serial"),
                "setup_s": runner.median("setup_s", "serial"),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in runner.records
                                   if "peak_rss_mb" in r)}

    traced = [layer_metrics(r["spans"], r["counts"])
              for r in runner.records if "spans" in r]
    if probe is None or not traced or not runner.median("wall_s", "default"):
        return None
    metrics = {name: statistics.median(t[name] for t in traced)
               for name in traced[0]}
    serial = runner.median("wall_s", "serial")
    metrics["experiments.parallel_speedup"] = (
        serial / runner.median("wall_s", "default"))
    metrics["trace.overhead_ratio"] = (
        runner.median("wall_s", "traced") / serial if serial else 0.0)
    metrics["cli.bytes_written"] = runner.median("bytes_written", "traced")
    metrics.update(probe)
    return metrics


def facts(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "nproc": NPROC,
            "RYDSIM_THREADS": ({"default": NPROC, "serial": 1, "traced": 1}
                               if trace else 1),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "load": "closed loop, one client, one fresh process per operation"}


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    print("facts " + json.dumps(facts(workload, seed, seconds, trace)))
    deadline = time.perf_counter() + RUN_LIMIT
    tmp = Path(tempfile.mkdtemp(dir=work_dir()))
    try:
        runner = Runner(workload, seed, tmp, deadline)
        metrics = measure(runner, seconds, trace)
    finally:
        shutil.rmtree(tmp)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    if metrics is None:
        print(f"{workload}: no operation produced a measurement",
              file=sys.stderr)
        return None
    error_rate = runner.failed / runner.attempted
    print(f"{workload}: error_rate {error_rate:.6g} ratio "
          f"({runner.failed} of {runner.attempted} operations failed)")
    units = PER_LAYER if trace else END_TO_END
    for name, value in metrics.items():
        print(f"{workload}: {name} {value:.6g} {units[name]}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn(), which stops the running call
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "rydsim" / "cli.py").is_file():
        print(f"rydsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
