"""gridstate benchmark: time to a certificate, RK4 throughput, failure share.

Run from the root of a checkout:

    python3 benchmark/run.py --workload mesh-solve --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones. With ``--trace 1`` every other unit of
work runs with spans around the calls into each package module (see
spans.py); the metrics are the per-layer ones, read from the spans, and
the tracing overhead, the traced over the untraced cost of the same
phases. The spans are written to ``spans.csv`` when the run ends. The lines
before the JSON give each metric with its unit, the tail percentile and
sample count, the raw failure counts, the control margins and the
environment.

The benchmark drives gridstate only through its public functions and its
CLI, in one process; CLI commands run one at a time as subprocesses of the
same interpreter. BLAS is held to one thread. Scratch files, the span file
and the environment record go to ``.bench_work/<workload>/`` in the
checkout.

On a shared machine the CPU speed drifts by 25-50% in spells that can
outlast a run. After one set-up before any solve, the phases (set-up again,
certify, simulate, trajectory, cli) therefore run interleaved in small
units, each getting its share of ``--seconds``, so every median spans the
whole run. Between every two units a fixed reference kernel is timed (see
pace.py), and each sample is paced: scaled to the speed at which that
kernel takes ``pace.REFERENCE_S``. The unpaced medians are printed too.

Workloads:

* ``fixture-pipeline``: the shipped three-bus fixture in its four rotor
  polarizations, through parse, compute, verify, result write and reload, a
  simulate recorded every five steps, CSV write and read, drift metrics,
  the identity suite, and the CLI chain steady-state -> simulate -> verify.
  The network is tiny, so the machine block and Python call overhead
  dominate each RK4 step; network changes should not move it.
* ``mesh-solve``: seeded ring-plus-chord meshes of 16, 32 and 64 buses at
  three generator voltage levels, one 64-bus impedance-only mesh and one
  load-heavy 24-bus mesh, each through compute and verify. The dense
  admittance rebuilds inside the forward-difference Newton step and the
  per-load equivariance probe dominate. The lowest level certifies; the
  others hit today's false rejections, which fail_ratio counts. The
  24-bus mesh (4 machines, a load on each of the other 20 buses) is then
  simulated with every step recorded, CSV written and read and drift
  measured: the per-bus load loop is most of each vector-field call. The
  CLI chain is steady-state alone; ``gridstate verify`` exits early while
  the certificate rejects the mesh, so timing it would make a certificate
  fix read as a slowdown, and it runs in the traced run only.

End-to-end metrics:

* ``setup_s``: median over repetitions of parsing and validating all of the
  workload's system files. The first repetition runs after import and
  before any solve; the others are interleaved with the phases.
* ``certify_p50_ms`` / ``certify_tail_ms``: time from a parsed system to a
  certificate verdict (compute + verify). A case that raises is an
  infinite sample. The tail is the highest percentile with at least 10
  samples beyond it; its percentile and the sample count are printed.
* ``sim_steps_per_s``: RK4 steps per second inside ``simulate``.
* ``traj_verify_samples_per_s``: trajectory samples per second through
  ``read_trajectory_csv`` + ``drift_metrics``.
* ``cli_s``: median wall time of the workload's CLI chain.
* ``fail_ratio``: failures among the distinct operations of the run, as the
  add-one estimate (failed + 1) / (attempted + 2), so that it is never 0;
  the raw counts are printed. A failure is a solve that raises, a genuine
  steady state the certificate rejects, a negative control it accepts, a
  failed correctness check or a CLI exit code that disagrees with the
  in-process verdict. An operation repeated for timing fails if any
  repetition fails.
* ``peak_rss_mb``: peak resident memory of the benchmark process.

The JSON fields ``attempted`` and ``failed`` count every operation run,
repetitions included. ``failed`` and ``correct`` cover exceptions, failed
correctness checks and accepted negative controls. A genuine steady state
that the certificate rejects is today's known defect: it counts in
fail_ratio only, so the run stays correct.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # single-threaded runs time steadily

import argparse
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import cases as case_gen
import checks as ck
import pace
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "fixtures" / "three_bus.json"
WORK = ROOT / ".bench_work"

DT = 1e-5                # RK4 step (s), the one the acceptance tests use
CHECK_STEPS = 20         # steps of the drift check from every computed state
CLI_SIM_STEPS = 200      # steps of each `gridstate simulate` call
SETUP_SHARE = 0.08       # share of --seconds spent repeating the set-up
SETUP_REPS = 7           # set-up repetitions at least
MIN_CERT_SAMPLES = 21    # the tail percentile needs more than 10 samples
MIN_REPS = 3
CLI_TIMEOUT_S = 120
MESH_SIZES = (16, 32, 64)    # doubling steps: the scaling exponent is log2
# Generator voltage levels (V). Today's certificate accepts the 0.02 V
# meshes (invariance margin about 0.2-0.3) and rejects the 2 V and 60 V
# ones (margins about 20 and 600). The fixture runs at 6 V.
MESH_LEVELS = (0.02, 2.0, 60.0)
# The impedance-only mesh is a 64-bus one: with it a pass holds three
# 16-bus cases, the 24-bus simulated mesh, three 32-bus and four 64-bus
# cases, so the median certify sample lies inside the 32-bus group, not on
# the edge between two size groups where it would jump from run to run.
IMPEDANCE_MESH = (64, 6.0)
PHASES = ("setup", "certify", "simulate", "trajectory", "cli")
TIMED = ("setup", "certify", "cli")    # samples in seconds; the rest rates
LAYERS = ("fileio", "network", "loads", "machine", "system", "steady_state",
          "simulate", "identities", "cli")


@dataclasses.dataclass(frozen=True)
class Workload:
    shares: dict            # phase -> share of --seconds
    sim_steps: int          # steps per timed simulate call
    record_every: int
    cli_chain: tuple        # CLI commands timed into cli_s
    cli_probe: tuple        # further CLI commands, traced run only
    cli_all_cases: bool     # cycle the chain over every case, else sim case


WORKLOADS = {
    "fixture-pipeline": Workload(
        {"certify": 0.05, "simulate": 0.35, "trajectory": 0.15, "cli": 0.45},
        sim_steps=1000, record_every=5,
        cli_chain=("steady-state", "simulate", "verify"), cli_probe=(),
        cli_all_cases=True),
    "mesh-solve": Workload(
        {"certify": 0.55, "simulate": 0.17, "trajectory": 0.08, "cli": 0.2},
        sim_steps=400, record_every=1,
        cli_chain=("steady-state",), cli_probe=("simulate", "verify"),
        cli_all_cases=False),
}


@dataclasses.dataclass
class Case:
    id: str
    path: Path
    doc: dict
    bucket: str


def make_cases(name, seed, folder):
    """Write the workload's system files; returns (cases, sim case index).

    The seed fixes every draw; for the fixture it only orders the four
    polarizations."""
    rng = np.random.default_rng(seed)
    fixture = case_gen.read_document(FIXTURE)
    docs = []
    if name == "fixture-pipeline":
        for sigma in rng.permutation(list(itertools.product((1, -1),
                                                            repeat=2))):
            tag = "".join("p" if s > 0 else "m" for s in sigma)
            docs.append((f"fixture-{tag}",
                         case_gen.with_polarization(fixture, sigma), "n3"))
        sim_index = 0
    elif name == "mesh-solve":
        # Every case is its own mesh: a size group of several meshes moves
        # less from seed to seed than one mesh that may need an extra
        # Newton iteration.
        for level in MESH_LEVELS:
            for n in MESH_SIZES:
                docs.append((f"n{n}-v{level:g}", case_gen.mesh_document(
                    fixture, int(rng.integers(2**31)), n, level), f"n{n}"))
        n, level = IMPEDANCE_MESH
        docs.append((f"n{n}-v{level:g}-z", case_gen.mesh_document(
            fixture, int(rng.integers(2**31)), n, level,
            kinds=("impedance",)), f"n{n}"))
        # The simulated mesh: 24 buses, 4 machines, a load on each of the
        # other 20 buses, so the per-bus load loop dominates each RK4 step.
        sim_index = len(docs)
        docs.append(("n24-v6-sim", case_gen.mesh_document(
            fixture, int(rng.integers(2**31)), 24, 6.0, n_machines=4,
            load_every_free_bus=True), "n24"))
    out = []
    for cid, doc, bucket in docs:
        path = folder / f"{cid}.json"
        case_gen.write_document(path, doc)
        out.append(Case(cid, path, doc, bucket))
    return out, sim_index


class Run:
    """One measurement of a workload: samples, outcomes and checks."""

    def __init__(self, gs, wl, cases, sim_index, folder, tracer=None):
        self.gs, self.wl = gs, wl
        self.cases, self.sim_index = cases, sim_index
        self.folder = folder
        self.tracer = None        # own_tracer while a traced unit runs
        self.own_tracer = tracer  # installed unit by unit in a traced run
        self.targets = spans.patch_targets(gs) if tracer else []
        self.ledger = {}          # distinct operation -> failed
        self.attempted = self.failed = 0
        self.correct = True
        self.notes = []
        self.parsed = []
        self.first = {}           # case id -> (ss, report) of its first solve
        self.start = {}           # case id -> reloaded (x0, u, omega0)
        self.cli_traj = {}        # case id -> in-process CLI-length run
        self.sim_first = None
        self.csv_path = folder / "simulate.csv"
        self.plain = {phase: [] for phase in PHASES}
        self.traced = {phase: [] for phase in PHASES}
        self.samples = self.plain  # where the running unit's samples go
        self.kernel_s = []         # every pace reading of the run

    def op(self, key, ok, detail="", kind="check"):
        """Record one operation. kind is "check" (an output is wrong),
        "raise" (the call raised) or "verdict" (a genuine steady state
        rejected)."""
        self.attempted += 1
        if ok:
            self.ledger.setdefault(key, False)
            return
        if not self.ledger.get(key):
            self.notes.append(f"{kind} {'/'.join(key)}: {detail}")
        self.ledger[key] = True
        if kind != "verdict":
            self.failed += 1
        if kind == "check":
            self.correct = False

    def set_case(self, i):
        if self.tracer is not None:
            self.tracer.case = self.cases[i].id

    def span(self, name):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    @contextmanager
    def tracing(self, on):
        """Run the enclosed unit traced (spans, traced samples) or not."""
        if not on or self.own_tracer is None:
            yield
            return
        self.tracer, self.samples = self.own_tracer, self.traced
        self.tracer.install(self.targets)
        try:
            yield
        finally:
            self.tracer.uninstall()
            self.tracer, self.samples = None, self.plain

    def system(self, i):
        return self.parsed[i][0]

    def unit(self, phase, fn, n, traced):
        """Run one unit of a phase, then read the pace; the samples it
        added become (raw, kernel seconds) pairs, the kernel time being the
        mean of the readings before and after the unit."""
        with self.tracing(traced):
            bin_ = self.samples[phase]
            n0 = len(bin_)
            fn(n)
        self.kernel_s.append(pace.reading())
        kernel_s = 0.5 * (self.kernel_s[-2] + self.kernel_s[-1])
        bin_[n0:] = [(v, kernel_s) for v in bin_[n0:]]

    def values(self, phase, traced=False, raw=False):
        """A phase's samples, paced to the reference kernel time unless raw:
        times scaled by REFERENCE_S / kernel time, rates by its inverse."""
        out = []
        for v, kernel_s in (self.traced if traced else self.plain)[phase]:
            f = 1.0 if raw else pace.REFERENCE_S / kernel_s
            out.append(v * f if phase in TIMED else v / f)
        return out

    # --- set-up and the four interleaved phases ---------------------------

    def setup(self, n=0):
        """Parse and validate every system file of the workload once; the
        phases use the systems of the first repetition."""
        t0 = time.perf_counter()
        parsed = []
        for i, case in enumerate(self.cases):
            self.set_case(i)
            parsed.append(self.gs.fileio.load_system_file(case.path))
        self.samples["setup"].append(time.perf_counter() - t0)
        self.attempted += len(self.cases)
        self.parsed = self.parsed or parsed

    def certify(self, n):
        """One case, in order; the first solve of each case is checked."""
        st = self.gs.steady_state
        i = n % len(self.cases)
        case, (sys_, spec) = self.cases[i], self.parsed[i]
        self.set_case(i)
        t0 = time.perf_counter()
        try:
            ss = st.compute_steady_state(sys_, spec)
            report = st.verify_steady_state(sys_, ss)
        except self.gs.GridStateError as err:
            self.samples["certify"].append(math.inf)
            self.op(("solve", case.id), False, str(err), "raise")
            return
        self.samples["certify"].append(time.perf_counter() - t0)
        self.op(("solve", case.id), True, kind="raise")
        self.op(("certificate", case.id), report.certificate,
                "; ".join(report.failures), "verdict")
        if case.id not in self.first:
            self.first[case.id] = (ss, report)
            self.check_case(i, ss, report)

    def check_case(self, i, ss, report):
        gs, case, sys_ = self.gs, self.cases[i], self.system(i)
        self.op(("residual", case.id), *ck.residual_check(gs, sys_, ss))
        path = self.folder / f"{case.id}.result.json"
        with open(path, "w", encoding="utf-8") as fh:
            gs.fileio.write_result_file(fh, sys_, ss, report)
        start = gs.fileio.load_result_file(path, sys_)
        self.start[case.id] = start
        self.op(("result_reload", case.id),
                *ck.result_reload_check(gs, sys_, ss, start))
        x0, u, omega0 = start
        try:
            traj = gs.simulate.simulate(sys_, x0, u, gs.simulate.SimConfig(
                dt=DT, t_end=CHECK_STEPS * DT))
        except gs.GridStateError as err:
            self.op(("drift", case.id), False, str(err), "raise")
        else:
            metrics = gs.simulate.drift_metrics(sys_, traj, x0, omega0)
            self.op(("drift", case.id), *ck.drift_check(metrics, omega0))
        if case_gen.impedance_only(case.doc):
            self.op(("phasor", case.id), *ck.phasor_check(sys_, ss, case.doc))

    def simulate(self, n):
        gs, wl, i = self.gs, self.wl, self.sim_index
        case, sys_ = self.cases[i], self.system(i)
        x0, u, omega0 = self.start[case.id]
        self.set_case(i)
        t0 = time.perf_counter()
        traj = gs.simulate.simulate(sys_, x0, u, gs.simulate.SimConfig(
            dt=DT, t_end=wl.sim_steps * DT, record_every=wl.record_every))
        self.samples["simulate"].append(
            wl.sim_steps / (time.perf_counter() - t0))
        if self.sim_first is not None:
            self.op(("simulate_repeat", case.id),
                    *ck.trajectory_equal(traj, self.sim_first))
            return
        self.sim_first = traj
        metrics = gs.simulate.drift_metrics(sys_, traj, x0, omega0)
        self.op(("long_drift", case.id), *ck.drift_check(metrics, omega0))
        with open(self.csv_path, "w", encoding="utf-8") as fh:
            gs.fileio.write_trajectory_csv(fh, sys_, traj)
        back = gs.fileio.read_trajectory_csv(self.csv_path, sys_, u)
        self.op(("csv_reload", case.id), *ck.trajectory_equal(back, traj))

    def trajectory(self, n):
        gs, i = self.gs, self.sim_index
        case, sys_ = self.cases[i], self.system(i)
        x0, u, omega0 = self.start[case.id]
        self.set_case(i)
        t0 = time.perf_counter()
        traj = gs.fileio.read_trajectory_csv(self.csv_path, sys_, u)
        metrics = gs.simulate.drift_metrics(sys_, traj, x0, omega0)
        self.samples["trajectory"].append(
            len(traj.times) / (time.perf_counter() - t0))
        self.op(("trajectory_drift", case.id),
                *ck.drift_check(metrics, omega0))

    def cli_cases(self):
        """Cases the CLI chain cycles over: those that solved in-process."""
        indices = (range(len(self.cases)) if self.wl.cli_all_cases
                   else [self.sim_index])
        return [i for i in indices if self.cases[i].id in self.start]

    def cli(self, n):
        indices = self.cli_cases()
        i = indices[n % len(indices)]
        t0 = time.perf_counter()
        for command in self.wl.cli_chain:
            self.run_cli(command, i)
        self.samples["cli"].append(time.perf_counter() - t0)

    def run_cli(self, command, i):
        gs, wl, case, sys_ = self.gs, self.wl, self.cases[i], self.system(i)
        report = self.first[case.id][1]
        result = self.folder / f"{case.id}.cli-result.json"
        csv_path = self.folder / f"{case.id}.cli.csv"
        if command == "steady-state":
            args = [str(case.path), "-o", str(result)]
            expected = 0 if report.certificate else 5
        elif command == "simulate":
            args = [str(case.path), "--from", str(result),
                    "--dt", repr(DT), "--t-end", repr(CLI_SIM_STEPS * DT),
                    "--record-every", str(wl.record_every),
                    "-o", str(csv_path)]
            expected = 0
        else:
            args = [str(case.path), "--traj", str(csv_path)]
            expected = 0 if report.certificate and \
                self.in_process_cli_traj(i)[1] else 5
        self.set_case(i)
        with self.span("cli." + command.replace("-", "_")):
            proc = subprocess.run(
                [sys.executable, "-m", "gridstate.cli", command] + args,
                cwd=ROOT, env=cli_env(), capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S)
        self.op(("cli_exit", command, case.id), proc.returncode == expected,
                f"exit {proc.returncode}, expected {expected}: "
                f"{proc.stderr.strip()[-300:]}")
        key = ("cli_output", command, case.id)
        if key in self.ledger:
            return
        if command == "steady-state":
            ok = all(np.array_equal(a, b) for a, b in zip(
                gs.fileio.load_result_file(result, sys_),
                self.start[case.id]))
            self.op(key, ok, "CLI result differs from the in-process result")
        elif command == "simulate":
            back = gs.fileio.read_trajectory_csv(csv_path, sys_,
                                                 self.start[case.id][1])
            self.op(key, *ck.trajectory_equal(
                back, self.in_process_cli_traj(i)[0]))

    def in_process_cli_traj(self, i):
        """The run `gridstate simulate` makes, done in-process, and whether
        its drift stays within the verify tolerance."""
        case = self.cases[i]
        if case.id not in self.cli_traj:
            gs, wl, sys_ = self.gs, self.wl, self.system(i)
            x0, u, omega0 = self.start[case.id]
            traj = gs.simulate.simulate(sys_, x0, u, gs.simulate.SimConfig(
                dt=DT, t_end=CLI_SIM_STEPS * DT,
                record_every=wl.record_every))
            metrics = gs.simulate.drift_metrics(sys_, traj, x0, omega0)
            self.cli_traj[case.id] = (traj,
                                      ck.drift_check(metrics, omega0)[0])
        return self.cli_traj[case.id]

    # --- once per run -----------------------------------------------------

    def controls(self):
        """Two inputs the certificate must reject by a wide margin."""
        st, i = self.gs.steady_state, self.sim_index
        sys_, ss = self.system(i), self.first[self.cases[i].id][0]
        loads = list(sys_.loads)
        k = next(k for k, ld in enumerate(loads) if ld.kind != "none")
        loads[k] = ck.AnisotropicLoad()
        report = st.verify_steady_state(sys_.with_loads(loads), ss)
        anisotropic = max(report.equivariance_defects) / \
            report.tolerances["equivariance"]
        report_u = st.verify_steady_state(
            sys_, dataclasses.replace(ss, u=ss.u * 1.01))
        perturbed = report_u.residual_inf / (report_u.tolerances["residual"]
                                             * report_u.scale)
        self.control_margins = {"anisotropic_load": anisotropic,
                                "perturbed_input": perturbed}
        for name, rep, margin in (("anisotropic_load", report, anisotropic),
                                  ("perturbed_input", report_u, perturbed)):
            self.op(("control", name),
                    not rep.certificate and margin >= ck.CONTROL_MARGIN,
                    f"accepted, or rejected by only {margin:.3g}x")

    def identities(self):
        i = self.sim_index
        self.set_case(i)
        t0 = time.perf_counter()
        with self.span("identities.run_identity_suite"):
            rows = self.gs.identities.run_identity_suite(self.system(i))
        self.identity_s = time.perf_counter() - t0
        bad = [row.name for row in rows if not row.passed]
        self.op(("identities", self.cases[i].id), not bad,
                f"failed rows {bad}")

    def phases(self, seconds):
        """One set-up before any solve, then the phases interleaved.

        Each step runs one unit of the ready phase furthest behind its
        share of the time, so a slow spell of the machine lands on every
        metric alike; the further set-up repetitions are interleaved too.
        Every phase runs at least its minimum count, every CLI case at
        least once. Certify runs at least enough whole passes over the
        cases that more than 10 samples of the largest systems lie beyond
        the tail rank, so the tail always reads the same size class."""
        self.kernel_s.append(pace.reading())
        self.unit("setup", self.setup, 0, False)
        n_cases = len(self.cases)
        units = {"setup": self.setup, "certify": self.certify,
                 "simulate": self.simulate, "trajectory": self.trajectory,
                 "cli": self.cli}
        count = dict.fromkeys(units, 0)
        ready = {
            "setup": lambda: True,
            "certify": lambda: True,
            "simulate": lambda: self.cases[self.sim_index].id in self.start,
            "trajectory": lambda: self.sim_first is not None,
            "cli": lambda: count["certify"] >= n_cases and self.cli_cases(),
        }
        # A traced run alternates traced and untraced units (certify: whole
        # passes, the first traced; cli: always traced, spans cost nothing
        # beside a subprocess), so both halves see the same machine. It
        # reports no tail, so two certify passes do.
        modes = 1 if self.own_tracer is None else 2
        minimum = {phase: modes * MIN_REPS for phase in units}
        minimum["setup"] = modes * SETUP_REPS - 1
        largest = max(self.cases, key=lambda c: int(c.bucket[1:])).bucket
        in_largest = sum(c.bucket == largest for c in self.cases)
        passes = max(-(-MIN_CERT_SAMPLES // n_cases), -(-11 // in_largest))
        minimum["certify"] = n_cases * (2 if modes == 2 else passes)
        minimum["cli"] = max(MIN_REPS,
                             n_cases if self.wl.cli_all_cases else 1)

        def traced(phase, n):
            if phase == "cli":
                return True
            return (n // n_cases if phase == "certify" else n) % 2 == 0

        shares = dict(self.wl.shares, setup=SETUP_SHARE)
        spent = dict.fromkeys(units, 0.0)
        end = time.perf_counter() + seconds
        while True:
            late = time.perf_counter() >= end
            pool = [p for p in units if ready[p]() and (
                not late or count[p] < minimum[p])]
            if not pool:
                break
            pick = min(pool, key=lambda p: spent[p] / shares[p])
            t0 = time.perf_counter()
            self.unit(pick, units[pick], count[pick], traced(pick, count[pick]))
            spent[pick] += time.perf_counter() - t0
            count[pick] += 1
        with self.tracing(True):
            self.controls()
            if self.tracer is not None:
                for command in self.wl.cli_probe:
                    self.run_cli(command, self.sim_index)
            self.identities()
        self.csv_bytes = self.csv_path.stat().st_size

    # --- results ----------------------------------------------------------

    def fail_counts(self):
        return sum(self.ledger.values()), len(self.ledger)

    def tail(self):
        """(percentile, sample count) of certify_tail_ms."""
        n = len(self.plain["certify"])
        return 100.0 * (n - 10) / n, n

    def end_to_end(self, raw=False):
        s = {phase: self.values(phase, raw=raw) for phase in PHASES}
        cert = sorted(s["certify"])
        n = len(cert)
        failed, attempted = self.fail_counts()
        return {
            "setup_s": (statistics.median(s["setup"]), "s"),
            "certify_p50_ms": (1e3 * statistics.median(cert), "ms"),
            "certify_tail_ms": (1e3 * cert[n - 11], "ms"),
            "sim_steps_per_s": (statistics.median(s["simulate"]), "1/s"),
            "traj_verify_samples_per_s": (
                statistics.median(s["trajectory"]), "1/s"),
            "cli_s": (statistics.median(s["cli"]), "s"),
            "fail_ratio": ((failed + 1) / (attempted + 2), "1"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_startup():
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gridstate.cli"], cwd=ROOT,
                   env=cli_env(), check=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0


def per_layer(run, tracer, overhead):
    """Per-layer figures from the traced run: medians per call, counts."""
    def median_s(name):
        return statistics.median(tracer.durations(name))

    genuine = [run.first[c.id] for c in run.cases if c.id in run.first]
    margins = [rep.invariance_defect / (rep.tolerances["invariance"]
                                        * rep.scale) for _, rep in genuine]
    self_time = tracer.self_time_by_layer()
    total_self = sum(self_time.values())
    out = {
        "network.admittance_ms": (1e3 * median_s("network.admittance"), "ms"),
        "steady_state.solve_network_ms": (
            1e3 * median_s("steady_state.solve_network"), "ms"),
        "steady_state.newton_iters": (statistics.median(
            ss.network.iterations for ss, _ in genuine), "count"),
        "loads.equivariance_defect_ms": (
            1e3 * median_s("loads.equivariance_defect"), "ms"),
        "steady_state.verify_ms": (1e3 * median_s("steady_state.verify"),
                                   "ms"),
        "system.invariance_defect_us": (
            1e6 * median_s("system.invariance_defect"), "us"),
        "steady_state.invariance_margin": (statistics.median(margins), "1"),
        "steady_state.cert_rejects": (
            sum(not rep.certificate for _, rep in genuine), "count"),
        "steady_state.recover_all_ms": (
            1e3 * median_s("steady_state.recover_all"), "ms"),
        "steady_state.assemble_ms": (1e3 * median_s("steady_state.assemble"),
                                     "ms"),
        "steady_state.solve_errors": (sum(
            failed for key, failed in run.ledger.items()
            if key[0] == "solve"), "count"),
        "system.vector_field_us": (1e6 * median_s("system.vector_field"),
                                   "us"),
        "system.inductance_stack_us": (
            1e6 * median_s("system.inductance_stack"), "us"),
        "simulate.rk4_step_us": (1e6 * median_s("simulate.rk4_step"), "us"),
        "simulate.rhs_evals": (
            tracer.count("system.vector_field", parent="simulate.rk4_step")
            / tracer.count("simulate.rk4_step"), "count"),
        "system.load_currents_us": (1e6 * median_s("system.load_currents"),
                                    "us"),
        "system.residual_us": (1e6 * median_s("system.residual"), "us"),
        "simulate.reference_trajectory_us": (
            1e6 * median_s("simulate.reference_trajectory"), "us"),
        "simulate.drift_metrics_ms": (
            1e3 * median_s("simulate.drift_metrics"), "ms"),
        "fileio.read_trajectory_csv_ms": (
            1e3 * median_s("fileio.read_trajectory_csv"), "ms"),
        "fileio.write_trajectory_csv_ms": (
            1e3 * median_s("fileio.write_trajectory_csv"), "ms"),
        "fileio.csv_bytes": (run.csv_bytes, "B"),
        "fileio.write_result_file_ms": (
            1e3 * median_s("fileio.write_result_file"), "ms"),
        "fileio.load_result_file_ms": (
            1e3 * median_s("fileio.load_result_file"), "ms"),
        "cli.steady_state_s": (median_s("cli.steady_state"), "s"),
        "cli.simulate_s": (median_s("cli.simulate"), "s"),
        "cli.verify_s": (median_s("cli.verify"), "s"),
        "cli.startup_s": (statistics.median(
            cli_startup() for _ in range(3)), "s"),
        "fileio.load_system_file_ms": (
            1e3 * median_s("fileio.load_system_file"), "ms"),
        "machine.validate_params_us": (
            1e6 * median_s("machine.validate_params"), "us"),
        "identities.run_identity_suite_ms": (1e3 * run.identity_s, "ms"),
        "trace.overhead_frac": (overhead, "1"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (self_time[layer] / total_self, "1")
    return out


def tracing_overhead(run):
    """Per in-process phase, the median untraced and traced sample, and the
    median over phases of traced cost over untraced cost, minus one."""
    rows, ratios = [], []
    for phase in ("setup", "certify", "simulate", "trajectory"):
        plain = statistics.median(run.values(phase))
        traced = statistics.median(run.values(phase, traced=True))
        rows.append((phase, plain, traced))
        # set-up and certify samples are times, the others rates
        ratios.append(traced / plain if phase in ("setup", "certify")
                      else plain / traced)
    return rows, statistics.median(ratios) - 1.0


def bucket_lines(run, tracer):
    """Network-layer figures per mesh size, for the scaling exponent."""
    bucket_of = {c.id: c.bucket for c in run.cases}
    order = sorted({c.bucket for c in run.cases}, key=lambda b: int(b[1:]))
    lines = []
    for name in ("network.admittance", "steady_state.solve_network"):
        by = {}
        for k, span_name in enumerate(tracer.names):
            if span_name == name:
                by.setdefault(bucket_of[tracer.cases[k]], []).append(
                    tracer.ends[k] - tracer.starts[k])
        lines += [f"bucket {name}_ms.{b} "
                  f"{1e3 * statistics.median(by[b]):.4f} ms" for b in order
                  if b in by]
    iters = {}
    for c in run.cases:
        if c.id in run.first:
            iters.setdefault(c.bucket, []).append(
                run.first[c.id][0].network.iterations)
    lines += [f"bucket steady_state.newton_iters.{b} "
              f"{statistics.median(iters[b]):g} count" for b in order
              if b in iters]
    return lines


def environment(seed):
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridstate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    blas["threads"] = blas_threads()
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_env": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_gridstate():
    """The checkout's gridstate modules from src/, never an installed copy."""
    if not (SRC / "gridstate" / "__init__.py").is_file() or \
            not FIXTURE.is_file():
        sys.exit(f"benchmark: no gridstate sources or fixture under {ROOT}")
    sys.path.insert(0, str(SRC))
    import gridstate
    if Path(gridstate.__file__).resolve().parent != SRC / "gridstate":
        sys.exit(f"benchmark: imported gridstate from {gridstate.__file__}")
    # Modules by name: the package re-exports a function called simulate.
    return types.SimpleNamespace(
        GridStateError=gridstate.GridStateError,
        wrap_angle=gridstate.wrap_angle,
        **{name: importlib.import_module(f"gridstate.{name}") for name in (
            "fileio", "identities", "simulate", "steady_state", "system")})


def finite_or_none(value):
    value = float(value)
    return value if math.isfinite(value) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    gs = import_gridstate()
    wl = WORKLOADS[args.workload]
    folder = WORK / args.workload
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    case_list, sim_index = make_cases(args.workload, args.seed, folder)
    env = environment(args.seed)
    (folder / "environment.json").write_text(json.dumps(env, indent=1))
    print("environment " + json.dumps(env, sort_keys=True))

    tracer = spans.Tracer() if args.trace else None
    run = Run(gs, wl, case_list, sim_index, folder, tracer)
    run.phases(args.seconds)
    print(f"pace: reference kernel median {statistics.median(run.kernel_s):.6g}"
          f" s over {len(run.kernel_s)} readings; figures are paced to "
          f"{pace.REFERENCE_S:g} s")
    if tracer is None:
        metrics = run.end_to_end()
        pct, n = run.tail()
        print(f"certify_tail_ms is p{pct:.2f} of {n} samples")
        for name, (value, unit) in run.end_to_end(raw=True).items():
            print(f"unpaced {name} {value:.6g} {unit}")
    else:
        rows, overhead = tracing_overhead(run)
        for phase, plain, traced in rows:
            print(f"overhead {phase} untraced {plain:.6g} traced "
                  f"{traced:.6g} (s, or 1/s for rates)")
        for line in bucket_lines(run, tracer):
            print(line)
        tracer.write(folder / "spans.csv")
        metrics = per_layer(run, tracer, overhead)

    for note in run.notes:
        print("failure " + note)
    failed_ops, distinct = run.fail_counts()
    print(f"fail_ratio counts: {failed_ops} of {distinct} distinct "
          "operations failed")
    print("controls rejected by " + ", ".join(
        f"{k} {v:.3g}x" for k, v in run.control_margins.items()))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": finite_or_none(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
