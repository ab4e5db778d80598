"""Command-line interface.

Subcommands: steady-state (solve + certify + write result), simulate
(certify the start read from a result document, integrate, write CSV +
drift summary), verify (re-check a trajectory against the certified
behavior), identities (run the numeric identity suite on a system file).

Exit codes: 0 success/certified, 1 usage, 2 parse/schema, 3 physics
validation, 4 solver failure, 5 certification failure.
"""

import argparse
import contextlib
import logging
import math
import os
import sys as _sys
import time

from .errors import (GridStateError, SchemaError, SolverError, UsageError,
                     ValidationError)
from .fileio import (load_result_file, load_system_file, read_trajectory_csv,
                     write_result_file, write_trajectory_csv)
from .identities import run_identity_suite
from .simulate import SimConfig, drift_metrics, simulate
from .steady_state import (FullSteadyState, compute_steady_state,
                           verify_steady_state)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCHEMA = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_CERTIFICATION = 5

log = logging.getLogger("gridstate")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="gridstate",
                     description="Synchronous steady-state computation and "
                                 "certification for AC power system models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ss = sub.add_parser("steady-state",
                          help="solve and certify the operating point")
    p_ss.add_argument("file", help="system file (JSON)")
    p_ss.add_argument("-o", "--out", help="result file (default: stdout)")
    p_ss.add_argument("--sigma", action="append", default=[], metavar="K=S",
                      help="override rotor polarization of machine K "
                           "(1-based) to S in {-1, +1}; repeatable")

    p_sim = sub.add_parser("simulate", help="integrate from a result file")
    p_sim.add_argument("file", help="system file (JSON)")
    p_sim.add_argument("--from", dest="from_result", required=True,
                       help="steady-state result file to start from")
    p_sim.add_argument("--dt", type=float, required=True, help="step (s)")
    p_sim.add_argument("--t-end", type=float, required=True,
                       help="end time (s)")
    p_sim.add_argument("-o", "--out", help="trajectory CSV (default: stdout)")
    p_sim.add_argument("--record-every", type=int, default=1,
                       help="record every N-th step (default 1)")
    p_sim.add_argument("--perturb-v", type=float, default=0.0, metavar="FRAC",
                       help="scale all bus voltages by (1+FRAC) before "
                            "integrating")

    p_ver = sub.add_parser("verify", help="re-check a trajectory CSV")
    p_ver.add_argument("file", help="system file (JSON)")
    p_ver.add_argument("--traj", required=True, help="trajectory CSV")
    p_ver.add_argument("--tol", type=float, default=1e-6,
                       help="relative tolerance (default 1e-6)")

    p_id = sub.add_parser("identities",
                          help="run the numeric identity suite")
    p_id.add_argument("file", help="system file (JSON)")
    p_id.add_argument("--seed", type=int, default=0,
                      help="seed for the randomized sweeps (default 0)")
    return parser


def _parse_sigma_overrides(flags, n_g):
    overrides = {}
    for flag in flags:
        try:
            key, _, val = flag.partition("=")
            k = int(key)
            s = int(val)
        except ValueError:
            raise UsageError(f"--sigma expects K=S with integers, got {flag!r}")
        if s not in (-1, 1):
            raise UsageError(f"--sigma value must be -1 or +1, got {s}")
        if not 1 <= k <= n_g:
            raise UsageError(f"--sigma machine index {k} out of range 1..{n_g}")
        overrides[k - 1] = s
    return overrides


@contextlib.contextmanager
def _open_out(path, mode="w"):
    if path is None:
        yield _sys.stdout
        return
    try:
        fh = open(path, mode, encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot open output {path}: {err.strerror}") from err
    with fh:
        yield fh


def _check_out(path):
    """Open the output ``path`` before the work, so that one that cannot be
    opened fails first, and leave it as it was: a new file is removed."""
    created = path is not None and not os.path.exists(path)
    with _open_out(path, "a"):
        pass
    if created:
        os.remove(path)


def cmd_steady_state(args):
    system, spec = load_system_file(args.file)
    for k, s in _parse_sigma_overrides(args.sigma, system.n_g).items():
        spec.sigma[k] = s
    _check_out(args.out)
    ss = compute_steady_state(system, spec)
    report = verify_steady_state(system, ss)
    with _open_out(args.out) as fh:
        write_result_file(fh, system, ss, report)
    if report.certificate:
        log.info("steady state certified: |residual|_inf = %.3e (scale %.3e)",
                 report.residual_inf, report.scale)
        return EXIT_OK
    for failure in report.failures:
        print(f"certification failed: {failure}", file=_sys.stderr)
    return EXIT_CERTIFICATION


def cmd_simulate(args):
    system, _ = load_system_file(args.file)
    x0, u, omega0 = load_result_file(args.from_result, system)
    try:
        cfg = SimConfig(dt=args.dt, t_end=args.t_end,
                        record_every=args.record_every)
    except ValueError as err:
        raise UsageError(str(err)) from err
    if not math.isfinite(args.perturb_v):
        raise UsageError(f"--perturb-v must be finite, got {args.perturb_v!r}")
    _check_out(args.out)
    report = verify_steady_state(system, FullSteadyState(x0, u, omega0))
    log.info("start point margins: %s", report.margins)
    if not report.certificate:
        for failure in report.failures:
            print(f"start point not certified: {failure}", file=_sys.stderr)
        return EXIT_CERTIFICATION
    if args.perturb_v:
        x0[system.layout.sl_v] *= 1.0 + args.perturb_v

    start = time.perf_counter()
    traj = simulate(system, x0, u, cfg)
    wall, steps = time.perf_counter() - start, round(cfg.t_end / cfg.dt)
    log.info("simulate: %d steps, %d RHS evaluations in %.3g s: "
             "sim_steps_per_s %.1f", steps, 4 * steps, wall, steps / wall)
    with _open_out(args.out) as fh:
        write_trajectory_csv(fh, system, traj)
    metrics = drift_metrics(system, traj, x0, omega0)
    for name, value in metrics.as_dict().items():
        print(f"{name}: {value:.6e}" if isinstance(value, float)
              else f"{name}: {value}", file=_sys.stderr)
    return EXIT_OK


def cmd_verify(args):
    if not 0.0 < args.tol < math.inf:
        raise UsageError(f"--tol must be positive and finite, got {args.tol!r}")
    system, spec = load_system_file(args.file)
    start = time.perf_counter()
    traj = read_trajectory_csv(args.traj, system)
    wall = time.perf_counter() - start
    ss = compute_steady_state(system, spec)
    traj.inputs = ss.u
    report = verify_steady_state(system, ss)
    if not report.certificate:
        for failure in report.failures:
            print(f"reference operating point not certified: {failure}",
                  file=_sys.stderr)
        return EXIT_CERTIFICATION

    start = time.perf_counter()
    m = drift_metrics(system, traj, traj.states[0], ss.omega0)
    wall += time.perf_counter() - start
    log.info("verify: %d samples in %.3g s: traj_verify_samples_per_s %.1f",
             len(traj.times), wall, len(traj.times) / wall)
    fdev = m.frequency_deviation / max(1.0, abs(ss.omega0))
    if all(dev <= args.tol for dev in (m.residual, m.state_deviation,
                                       m.voltage_magnitude_deviation, fdev)):
        print(f"trajectory verified: {len(traj.times)} samples within "
              f"tolerance {args.tol:.1e}")
        return EXIT_OK
    t = traj.times[m.worst_sample]
    print(f"trajectory violates tolerance {args.tol:.1e} (worst state "
          f"deviation at sample {m.worst_sample}, t={t:.6e}): "
          f"residual={m.residual:.3e} state_dev={m.state_deviation:.3e} "
          f"vmag_dev={m.voltage_magnitude_deviation:.3e} "
          f"freq_dev={fdev:.3e}", file=_sys.stderr)
    return EXIT_CERTIFICATION


def cmd_identities(args):
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    system, _ = load_system_file(args.file)
    rows = run_identity_suite(system, seed=args.seed)
    width = max(len(row.name) for row in rows)
    all_pass = True
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"{status}  {row.name:<{width}}  max defect {row.max_defect:.3e}"
              f"  (tol {row.tolerance:.1e})")
        all_pass = all_pass and row.passed
    return EXIT_OK if all_pass else EXIT_CERTIFICATION


def main(argv=None):
    level = os.environ.get("GRIDSTATE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"steady-state": cmd_steady_state, "simulate": cmd_simulate,
                   "verify": cmd_verify, "identities": cmd_identities}
        return handler[args.command](args)
    except UsageError as err:
        print(f"usage error: {err}", file=_sys.stderr)
        return EXIT_USAGE
    except SchemaError as err:
        print(f"input error: {err}", file=_sys.stderr)
        return EXIT_SCHEMA
    except ValidationError as err:
        print(f"validation error: {err}", file=_sys.stderr)
        return EXIT_VALIDATION
    except SolverError as err:
        print(f"solver error: {err}", file=_sys.stderr)
        return EXIT_SOLVER
    except GridStateError as err:
        # Load-domain failures during simulation land here.
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_SOLVER


def entry():
    _sys.exit(main())


if __name__ == "__main__":
    entry()
