import importlib.util
import pathlib

import numpy as np
import pytest

from gridstate.fileio import load_system_file
from gridstate.loads import Load
from gridstate.machine import MachineParams
from gridstate.network import Network
from gridstate.steady_state import OperatingSpec, compute_steady_state
from gridstate.system import assemble

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"


def benchmark_cases():
    """The benchmark's seeded case generator, ``benchmark/cases.py``."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_cases", ROOT / "benchmark" / "cases.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    return cases


def singular_solve_at(monkeypatch, call):
    """Make ``np.linalg.solve`` raise LinAlgError at its ``call``-th solve
    of a real system from now on, the network solve's Newton step at that
    iteration (its complex Kron reduction is not counted), and solve as
    usual otherwise; returns the list of calls counted, which a test clears
    to count again."""
    solve, calls = np.linalg.solve, []

    def counted(a, b):
        if not np.iscomplexobj(a):
            calls.append(1)
            if len(calls) == call:
                raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


@pytest.fixture(scope="session")
def fixture_path():
    return FIXTURE_DIR / "three_bus.json"


@pytest.fixture(scope="session")
def three_bus(fixture_path):
    """Canonical 3-bus / 2-machine / 1-load system and its operating spec."""
    return load_system_file(fixture_path)


@pytest.fixture(scope="session")
def certified(three_bus):
    """Certified steady state of the canonical fixture."""
    sys_, spec = three_bus
    return compute_steady_state(sys_, spec)


def numeric_ids(doc):
    """The fixture with bus ids 1, 2, 3 in place of 'b1', 'b2', 'b3'; a
    boolean true would look up bus 1 in a plain dict."""
    number = {bus["id"]: k + 1 for k, bus in enumerate(doc["buses"])}
    for bus in doc["buses"]:
        bus["id"] = number[bus["id"]]
    for line in doc["lines"]:
        line["from"], line["to"] = number[line["from"]], number[line["to"]]
    for entry in doc["machines"] + doc["operating_point"]["generator_voltages"]:
        entry["bus"] = number[entry["bus"]]


def sample_machine(salient=True):
    """Well-conditioned machine constants used across unit tests."""
    if salient:
        return MachineParams(
            m=0.002, d=0.06, r_s=0.08, r_f=0.06, r_d=0.05, r_q=0.05,
            l_s=6e-3, l_sa=4e-4, l_f=0.12, l_d=8e-3, l_q=8e-3, l_fd=4e-3,
            l_sf=2.0e-2, l_sd=1.8e-3, l_sq=1.8e-3)
    return MachineParams(
        m=0.0025, d=0.07, r_s=0.07, r_f=0.05, r_d=0.05, r_q=0.05,
        l_s=5e-3, l_sa=0.0, l_f=0.10, l_d=7e-3, l_q=7e-3, l_fd=3e-3,
        l_sf=1.8e-2, l_sd=1.5e-3, l_sq=1.5e-3)


def slow_two_bus(omega0=5.0, g=0.2, b=0.0):
    """Small low-frequency system: one machine, one loaded bus, one line.

    The low frequency keeps finite-difference truncation far below the
    thresholds the probes are tested against.
    """
    net = Network(heads=[0], tails=[1], c=np.array([1e-3, 1e-3]),
                  r_T=np.array([0.5]), l_T=np.array([1e-2]))
    loads = [Load.none(), Load.impedance(g, b)]
    sys_ = assemble([sample_machine(salient=True)], [0], net,
                    loads=loads, bus_ids=["gen", "load"])
    spec = OperatingSpec(omega0=omega0, gen_voltage_mag=np.array([10.0]),
                         gen_voltage_angle=np.array([0.0]),
                         sigma=np.array([1]))
    return sys_, spec


def ring_mesh(n_bus, kinds, seed=0, level=10.0, omega0=314.0):
    """Seeded ring-plus-chords system at generator voltage ``level``.

    A machine sits on every fourth bus; the other buses carry loads of the
    given kinds in turn, scaled so that each draws about the same current
    at the operating voltage whatever its kind. The line inductances and
    bus capacitances are scaled by 314 / ``omega0``, so the network's
    reactances at ``omega0`` are those of the default mesh at 314 rad/s.
    """
    rng = np.random.default_rng(seed)
    n_t = n_bus + n_bus // 4
    ends = [(t, (t + 1) % n_bus) for t in range(n_bus)]
    ends += [rng.choice(n_bus, size=2, replace=False)
             for _ in range(n_bus, n_t)]
    heads, tails = np.array(ends).T
    c, l_T, r_T = (rng.uniform(2e-4, 2e-3, n_bus),
                   rng.uniform(2.5e-3, 3.5e-3, n_t), rng.uniform(0.3, 0.5, n_t))
    design = 314.0 / omega0
    net = Network(heads=heads, tails=tails, c=design * c, r_T=r_T,
                  l_T=design * l_T)
    make = {"impedance": Load.impedance,
            "current": lambda g, b: Load.constant_current(g * level,
                                                          b * level),
            "power": lambda g, b: Load.constant_power(g * level**2,
                                                      b * level**2)}
    gen_buses = list(range(0, n_bus, 4))
    free = [k for k in range(n_bus) if k not in gen_buses]
    loads = [Load.none()] * n_bus
    for j, k in enumerate(free):
        loads[k] = make[kinds[j % len(kinds)]](rng.uniform(3e-2, 8e-2),
                                               rng.uniform(1e-2, 3e-2))
    n_g = len(gen_buses)
    machines = [sample_machine(salient=k % 2 == 0) for k in range(n_g)]
    sys_ = assemble(machines, gen_buses, net, loads=loads)
    spec = OperatingSpec(omega0=omega0,
                         gen_voltage_mag=level * rng.uniform(0.98, 1.02, n_g),
                         gen_voltage_angle=np.radians(rng.uniform(-2, 2, n_g)),
                         sigma=np.ones(n_g, dtype=int))
    return sys_, spec


class AnisotropicLoad:
    """Test-only non-conforming load: scales the two axes differently, so it
    does not commute with rotations."""

    def __init__(self, ga=1.0, gb=2.0):
        self.ga, self.gb = ga, gb

    def current(self, v):
        return np.array([self.ga * v[0], self.gb * v[1]])
