"""rydsim: driven-dissipative Rydberg network simulator with exact Lindblad
and classical rate-equation engines, plus atomtronic device builders."""

import os

# One BLAS thread unless the caller chose otherwise: scan points, not BLAS,
# share the CPUs, and a threaded BLAS product as small as the propagator's
# runs 30-100x slower while another process keeps the CPUs busy.  Only
# takes effect if numpy is not loaded yet.
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"
