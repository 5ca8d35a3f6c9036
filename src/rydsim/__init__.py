"""rydsim: driven-dissipative Rydberg network simulator with exact Lindblad
and classical rate-equation engines, plus atomtronic device builders."""

import os

# One BLAS thread unless the caller chose otherwise: scan points, not BLAS,
# share the CPUs, and a threaded BLAS product as small as the propagator's
# runs 30-100x slower while another process keeps the CPUs busy.  Only
# takes effect if numpy is not loaded yet.
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .model import (AtomNetwork, Configuration, DetuningSchedule, SimParams,
                    facilitation_detuning, facilitation_radius)
from .quantum import build_hamiltonian, evolve_quantum, lindblad_rhs
from .classical import (NeighborTable, Trajectory, classical_generator,
                        ensemble_average, evolve_classical,
                        evolve_classical_exact, gillespie_ensemble,
                        gillespie_run)
from .geometry import CylinderSpec, RegionPartition, build_chain, sample_cylinder
from .devices import (DeviceInstance, LogicResult, build_and_gate, build_diode,
                      build_gas_switch, build_nand_gate, build_switch_chain,
                      build_transport_chain, find_work_time, logic_readout)
from .timeseries import TimeSeries

__version__ = "0.1.0"
