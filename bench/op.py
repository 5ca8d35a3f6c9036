"""One measured operation in a fresh process, started by run.py.

    python3 bench/op.py SPEC.json T_SPAWN

Mode "run" imports rydsim from the checkout's src/, writes the input
config, then times `rydsim.cli.main([...])` (optionally traced).  Mode
"probe" times `quantum.lindblad_rhs` on dense density matrices.  The
result goes to the JSON file the spec names.  T_SPAWN is the parent's
time.perf_counter() just before it started this process (the clock is
system-wide), so set-up time includes interpreter start.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path


def run(spec: dict) -> dict:
    from rydsim import cli

    if spec["config"] is not None:
        Path(spec["config_path"]).write_text(json.dumps(spec["config"]))
    setup_s = time.perf_counter() - spec["t_spawn"]
    tracer = None
    if spec["trace"]:
        from spans import Tracer, install
        tracer = Tracer(spec["run_id"])
        install(tracer)
    start = time.perf_counter()
    rc = cli.main(spec["argv"])
    wall_s = time.perf_counter() - start
    out = {
        "rc": rc, "setup_s": setup_s, "wall_s": wall_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = dict(tracer.counts)
    return out


# Atom counts of the kernel scaling probe and calls timed at each.
PROBE = {6: 30, 8: 7, 10: 3}


def probe(spec: dict) -> dict:
    from rydsim.devices import build_transport_chain
    from rydsim.model import SimParams
    from rydsim.quantum import (build_hamiltonian, density_from_configuration,
                                lindblad_rhs)

    params = SimParams(1.0, 1.0, 0.003)
    out = {}
    for n, calls in PROBE.items():
        dev = build_transport_chain(n)
        ham = build_hamiltonian(dev.network, dev.network.static_detunings,
                                params.omega)
        rho = density_from_configuration(dev.initial)
        lindblad_rhs(rho, ham, params)  # fills the basis-table cache
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            lindblad_rhs(rho, ham, params)
            times.append(time.perf_counter() - start)
        out[f"quantum.rhs_ms_n{n}"] = statistics.median(times) * 1e3
        out[f"quantum.rho_bytes_n{n}"] = rho.nbytes
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    spec["t_spawn"] = float(sys.argv[2])
    sys.path.insert(0, spec["src"])
    result = (probe if spec["mode"] == "probe" else run)(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
