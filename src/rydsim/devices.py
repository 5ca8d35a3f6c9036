"""Atomtronic device builders: switch chain, 3D-gas switch, diode and the
AND/NAND logic gates.  How a device is read out is the experiments'."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .model import (AtomNetwork, Configuration, DetuningSchedule, InputError,
                    SimParams, facilitation_detuning, facilitation_radius)

# Chain devices: dimensionless units, facilitation distance 1.
C6 = 10.0
R_F = 1.0
DELTA_F = facilitation_detuning(R_F, C6)  # -10
OMEGA = 1.0

# 3D gas, frequencies in units of the drive (50 kHz) and lengths in um:
# gamma = 700/50, kappa = 2/50, C6 = 869 GHz / 50 kHz.
GAS_PARAMS = SimParams(omega=1.0, gamma=14.0, kappa=0.04)
GAS_C6 = 869e9 / 50e3
GAS_DELTA_F = -69.5e6 / 50e3  # -1390
GAS_R_F = facilitation_radius(GAS_DELTA_F, GAS_C6)  # ~4.817 um
GAS_REGION_LENGTHS = (5.0, 10.0, 15.0)
GAS_RADIUS = 7.0
GAS_N_ATOMS = 3000
GAS_D_MIN = 0.1


@dataclass(frozen=True)
class DeviceInstance:
    """What the engines and runners read of a device: how to run it (engine,
    noise, duration) and when to read it out are the caller's choice."""

    network: AtomNetwork
    initial: Configuration
    output_sites: tuple
    schedule: DetuningSchedule = DetuningSchedule()
    name: str = ""

    def __post_init__(self):
        if not self.output_sites:
            raise InputError("output_sites must be nonempty")
        excited = {i for i, b in enumerate(self.initial.bits) if b}
        if excited & set(self.output_sites):
            raise InputError("output sites overlap initially excited inputs")


def _chain(gaps, detunings, output_sites, name: str, c6=C6) -> DeviceInstance:
    """Facilitation chain along x with the given gaps and detunings, its
    atom 0 excited."""
    return DeviceInstance(geometry.build_chain(gaps, detunings, c6),
                          Configuration.single_excitation(len(detunings), 0),
                          output_sites, name=name)


def build_switch_chain(delta_g: float) -> DeviceInstance:
    """Six-atom switch: input, gate with tunable detuning, four outputs."""
    return _chain([R_F] * 5, [DELTA_F, delta_g] + [DELTA_F] * 4,
                  (2, 3, 4, 5), "switch-chain")


def build_transport_chain(n_atoms: int = 6, c6: float = C6) -> DeviceInstance:
    """Uniform facilitation chain with the input atom excited."""
    delta_f = facilitation_detuning(R_F, c6)
    return _chain([R_F] * (n_atoms - 1), [delta_f] * n_atoms,
                  (n_atoms - 1,), "transport-chain", c6)


def build_gas_switch(seed: int, n_atoms: int = GAS_N_ATOMS
                     ) -> tuple[DeviceInstance, DeviceInstance]:
    """Cylindrical-gas switch with input/gate/output detuning regions: its
    on and off devices, in one gas sampled once from `seed`.

    For n_atoms below the full-scale 3000 the geometry is shrunk uniformly
    so the gas density is preserved.  A gate too narrow to block direct
    input-to-output facilitation (no wider than GAS_R_F: below 336 atoms)
    is refused before a gas is sampled.
    """
    scale = (n_atoms / GAS_N_ATOMS) ** (1.0 / 3.0)
    if GAS_REGION_LENGTHS[1] * scale <= GAS_R_F:
        raise InputError(f"n_atoms {n_atoms} is too few for the gas switch: "
                         "its gate region is narrower than the facilitation "
                         "radius")
    lengths = tuple(l * scale for l in GAS_REGION_LENGTHS)
    positions = geometry.sample_cylinder(sum(lengths), GAS_RADIUS * scale,
                                         n_atoms, GAS_D_MIN, seed)
    output_start = lengths[0] + lengths[1]
    output_sites = tuple(np.nonzero(positions[:, 0] >= output_start)[0])
    devices = []
    for state, delta_g in (("on", GAS_DELTA_F), ("off", -GAS_DELTA_F)):
        detunings = geometry.assign_regions(positions, lengths,
                                            (0.0, delta_g, GAS_DELTA_F))
        devices.append(DeviceInstance(
            network=AtomNetwork(positions, detunings, GAS_C6),
            initial=Configuration.ground(n_atoms),
            output_sites=output_sites,
            name=f"gas-switch-{state}"))
    return tuple(devices)


def build_diode(direction: str, delta_g: float = 2 * DELTA_F) -> DeviceInstance:
    """Six-atom diode: a gate atom whose off-spacing gap r_g satisfies the
    facilitation condition only when approached from the input side."""
    if delta_g >= 0:
        raise InputError("gate detuning must be negative")
    if direction not in ("forward", "reverse"):
        raise InputError(f"unknown direction {direction!r}")
    gaps = [R_F] * 5
    # r_g on the gate's input side going forward, its output side in reverse
    gaps[1 if direction == "forward" else 2] = facilitation_radius(delta_g, C6)
    return _chain(gaps, [DELTA_F, DELTA_F, delta_g] + [DELTA_F] * 3,
                  (3, 4, 5), f"diode-{direction}")


def _and_atoms(input_bits, gate: str):
    """The AND gate's positions, detunings and input bits.  Output atom at
    the origin, inputs at distance R_F, opened to 120 deg so the
    input-input interaction is negligible (~0.04 |Delta_f|)."""
    bits = tuple(int(b) for b in input_bits)
    if len(bits) != 2:
        raise InputError(f"{gate} gate takes two input bits")
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    positions = [[R_F * c, R_F * s, 0.0], [R_F * c, -R_F * s, 0.0],
                 [0.0, 0.0, 0.0]]
    return positions, [DELTA_F, DELTA_F, 2 * DELTA_F], bits


def build_and_gate(input_bits) -> DeviceInstance:
    """AND gate: two inputs facilitate the doubly-detuned output only when
    both are excited."""
    positions, detunings, bits = _and_atoms(input_bits, "AND")
    return DeviceInstance(AtomNetwork(positions, detunings, C6),
                          Configuration(bits + (0,)), (2,),
                          name=f"and-{bits[0]}{bits[1]}")


NOT_PULSE_CENTER = 1.5  # in units of 1/omega
NOT_PULSE_LENGTH = np.pi / (2 * OMEGA)


def build_nand_gate(input_bits) -> DeviceInstance:
    """AND gate plus a NOT atom at facilitation distance from the AND
    output.  The NOT atom's detuning is dropped to zero for a pi-pulse
    window centered at t*omega = 1.5 and sits at Delta_f otherwise."""
    positions, detunings, bits = _and_atoms(input_bits, "NAND")
    t0 = NOT_PULSE_CENTER - NOT_PULSE_LENGTH / 2
    t1 = NOT_PULSE_CENTER + NOT_PULSE_LENGTH / 2
    return DeviceInstance(
        network=AtomNetwork(positions + [[-R_F, 0.0, 0.0]],
                            detunings + [DELTA_F], C6),
        schedule=DetuningSchedule(((t0, t1, 3, 0.0),)),
        initial=Configuration(bits + (0, 0)),
        output_sites=(3,),
        name=f"nand-{bits[0]}{bits[1]}")
