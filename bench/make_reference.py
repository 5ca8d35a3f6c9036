"""Regenerate reference.json: the fig3 switch scan over its full 30-point
grid on both exact engines, read back from the files `rydsim run` writes.

    python3 bench/make_reference.py

The committed file was made from the commit it records; regenerate it only
when a change of physics is intended, never to make a check pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import GRID, REFERENCE, ROW_STRIDE, read_csv, series_name
from run import ROOT, git_commit, work_dir


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from rydsim import cli

    ref = {"commit": git_commit(), "row_stride": ROW_STRIDE}
    tmp = Path(tempfile.mkdtemp(dir=work_dir()))
    try:
        config = tmp / "fig3.json"
        config.write_text(json.dumps({"experiment": "fig3", "scan": GRID}))
        for engine in ("quantum", "classical-exact"):
            out = tmp / engine
            if cli.main(["run", str(config), "--engine", engine,
                         "--out", str(out)]) != 0:
                return 1
            out = out / "fig3"
            scan = read_csv(out / "scan.csv")
            ref[engine] = {}
            for ratio, n_o, t_w in zip(scan["delta_g_over_delta_f"],
                                       scan["N_o_at_t_w"], scan["t_w"]):
                series = read_csv(out / series_name(ratio))
                rows = list(zip(*series.values()))[::ROW_STRIDE]
                ref[engine][f"{ratio:g}"] = {
                    "n_o_at_t_w": float(n_o), "t_w": float(t_w),
                    "rows": [[float(x) for x in row] for row in rows]}
    finally:
        shutil.rmtree(tmp)
    REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
