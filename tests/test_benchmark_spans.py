"""The benchmark's tracer wraps package functions by name; a rename or
removal would otherwise surface only when a traced benchmark run fails, and
a traced run also fails when a wrapped function is never called."""

import importlib
import importlib.util
import pathlib
import types

from gridstate.simulate import SimConfig, drift_metrics, simulate
from gridstate.steady_state import compute_steady_state, verify_steady_state

from conftest import AnisotropicLoad

SPANS = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # Modules by name: the package's top level does not import these.
    gs = types.SimpleNamespace(**{
        name: importlib.import_module(f"gridstate.{name}")
        for name in ("fileio", "simulate", "steady_state", "system")})
    return spans.patch_targets(gs)


def test_every_traced_function_exists():
    targets = traced_targets()
    assert targets
    missing = [name for owner, attr, name in targets
               if not callable(vars(owner).get(attr))]
    assert missing == []


def count_spans(monkeypatch, watched):
    """Counts of calls into the traced functions named ``watched``."""
    calls = dict.fromkeys(watched, 0)

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, name in traced_targets():
        if name in watched:
            monkeypatch.setattr(owner, attr,
                                counting(vars(owner)[attr], name))
    return calls


def test_certify_runs_the_traced_load_and_network_spans(three_bus,
                                                        monkeypatch):
    # The shipped loads commute with rotations by construction, so the
    # fixture's certificate probes none; the benchmark's anisotropic control
    # (a custom load) keeps the probe's span populated.
    sys_, spec = three_bus
    probe = "loads.equivariance_defect"
    calls = count_spans(monkeypatch, {
        "network.admittance", "system.load_currents",
        "system.invariance_defect", "system.residual", probe})
    ss = compute_steady_state(sys_, spec)
    verify_steady_state(sys_, ss)
    assert calls[probe] == 0
    assert all(n for name, n in calls.items() if name != probe), calls
    loads = list(sys_.loads)
    loads[2] = AnisotropicLoad()
    verify_steady_state(sys_.with_loads(loads), ss)
    assert calls[probe] == 1


def test_drift_metrics_runs_the_traced_residual_and_reference(three_bus,
                                                             certified,
                                                             monkeypatch):
    # The traced benchmark takes the medians of these two spans, which the
    # batched drift metrics must still open: once per trajectory.
    sys_, _ = three_bus
    ss = certified
    watched = {"residual", "reference_trajectory"}
    calls = dict.fromkeys(watched, 0)

    def counting(fn, attr):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, name in traced_targets():
        if owner.__name__ == "gridstate.simulate" and attr in watched:
            monkeypatch.setattr(owner, attr, counting(vars(owner)[attr], attr))
    traj = simulate(sys_, ss.x, ss.u, SimConfig(dt=1e-5, t_end=1e-4))
    drift_metrics(sys_, traj, ss.x, ss.omega0)
    assert calls == dict.fromkeys(watched, 1)
