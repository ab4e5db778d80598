"""In-memory spans around calls into gridstate's layers.

The tracer replaces public functions on the package's modules with thin
wrappers while a traced unit of work runs, so calls made inside the package
(for example ``solve_network`` calling ``admittance``) are recorded with
their caller as parent. Nothing in the package is edited; ``uninstall``
puts every original back.
"""

import csv
import time
from contextlib import contextmanager


def patch_targets(gs):
    """(owner, attribute, span name) for every wrapped call.

    A span name starts with its layer, the gridstate module that defines
    the function. A function imported into several modules is wrapped
    wherever the package looks it up.
    """
    fileio, steady_state, simulate, system = (gs.fileio, gs.steady_state,
                                              gs.simulate, gs.system)
    return [
        (fileio, "load_system_file", "fileio.load_system_file"),
        (fileio, "write_result_file", "fileio.write_result_file"),
        (fileio, "load_result_file", "fileio.load_result_file"),
        (fileio, "write_trajectory_csv", "fileio.write_trajectory_csv"),
        (fileio, "read_trajectory_csv", "fileio.read_trajectory_csv"),
        (system, "validate_params", "machine.validate_params"),
        (steady_state, "compute_steady_state", "steady_state.compute"),
        (steady_state, "verify_steady_state", "steady_state.verify"),
        (steady_state, "solve_network", "steady_state.solve_network"),
        (steady_state, "recover_all", "steady_state.recover_all"),
        (steady_state, "assemble_steady_state", "steady_state.assemble"),
        (steady_state, "admittance", "network.admittance"),
        (steady_state, "equivariance_defect", "loads.equivariance_defect"),
        (steady_state, "invariance_defect", "system.invariance_defect"),
        (steady_state, "residual", "system.residual"),
        (system, "residual", "system.residual"),
        (simulate, "residual", "system.residual"),
        (system.PowerSystem, "inductance_stack", "system.inductance_stack"),
        (system.PowerSystem, "load_currents", "system.load_currents"),
        (simulate, "simulate", "simulate.simulate"),
        (simulate, "rk4_step", "simulate.rk4_step"),
        (simulate, "vector_field", "system.vector_field"),
        (simulate, "reference_trajectory", "simulate.reference_trajectory"),
        (simulate, "drift_metrics", "simulate.drift_metrics"),
    ]


class Tracer:
    """Spans kept as parallel lists: name, start, end, parent index, case."""

    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.cases = [], []
        self.case = None
        self._stack = [-1]
        self._saved = []

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.cases.append(self.case)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def durations(self, name):
        return [self.ends[k] - self.starts[k]
                for k, n in enumerate(self.names) if n == name]

    def count(self, name, parent=None):
        return sum(1 for k, n in enumerate(self.names) if n == name and (
            parent is None or (self.parents[k] >= 0
                               and self.names[self.parents[k]] == parent)))

    def self_time_by_layer(self):
        """Seconds per layer of span time not covered by child spans."""
        child = [0.0] * len(self.names)
        for k, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[k] - self.starts[k]
        out = {}
        for k, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (
                self.ends[k] - self.starts[k] - child[k])
        return out

    def write(self, path):
        """Write every span as one CSV row, times relative to the first."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "case"])
            for k, name in enumerate(self.names):
                out.writerow([k, name, f"{self.starts[k] - t0:.9f}",
                              f"{self.ends[k] - t0:.9f}", self.parents[k],
                              self.cases[k]])
