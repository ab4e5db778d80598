"""Certify every case of the mesh-solve benchmark workload over many seeds.

Run from the root of a checkout:

    python3 tests/mesh_seed_sweep.py            # seeds 1-200
    python3 tests/mesh_seed_sweep.py 1 20       # seeds 1-20

For each seed, ``benchmark/run.py``'s ``make_cases`` writes the workload's
system files. Each case is computed and verified as the benchmark's
certify phase does, then simulated for the benchmark's 20 RK4 steps from
its reloaded result file and held to ``benchmark/checks.py``'s drift
check. The run fails unless the cases that raise are exactly the known
non-converging ones in the seed range, every other case certifies and
every drift check passes. A case that raises reads infinite in the
benchmark's certify tail, so this guards every seed a benchmark run may
draw. ``benchmark/`` is only read.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import run  # noqa: E402  (first: it holds BLAS to one thread on import)
import checks  # noqa: E402
from gridstate import GridStateError  # noqa: E402
from gridstate.fileio import (load_result_file, load_system_file,  # noqa: E402
                              write_result_file)
from gridstate.simulate import SimConfig, drift_metrics, simulate  # noqa: E402
from gridstate.steady_state import (compute_steady_state,  # noqa: E402
                                    verify_steady_state)

# Seed/case ids whose Newton solve does not converge (ROADMAP item 6).
KNOWN_RAISES = {(12, "n64-v2"), (65, "n64-v2")}


def sweep(seeds, folder):
    """(cases that raised, problems) over the seeds' mesh-solve cases."""
    raised, problems = set(), []
    result = folder / "result.json"
    for seed in seeds:
        for case in run.make_cases("mesh-solve", seed, folder)[0]:
            key, (sys_, spec) = (seed, case.id), load_system_file(case.path)
            try:
                ss = compute_steady_state(sys_, spec)
                report = verify_steady_state(sys_, ss)
            except GridStateError:
                raised.add(key)
                continue
            if not report.certificate:
                problems.append(f"{key}: rejected: {report.failures}")
            with open(result, "w", encoding="utf-8") as fh:
                write_result_file(fh, sys_, ss, report)
            x0, u, omega0 = load_result_file(result, sys_)
            try:
                traj = simulate(sys_, x0, u, SimConfig(
                    dt=run.DT, t_end=run.CHECK_STEPS * run.DT))
            except GridStateError as err:
                problems.append(f"{key}: simulate raised: {err}")
                continue
            ok, detail = checks.drift_check(
                drift_metrics(sys_, traj, x0, omega0), omega0)
            if not ok:
                problems.append(f"{key}: {detail}")
    return raised, problems


def main(argv):
    first, last = (int(a) for a in argv) if argv else (1, 200)
    seeds = range(first, last + 1)
    with tempfile.TemporaryDirectory() as folder:
        raised, problems = sweep(seeds, Path(folder))
    expected = {key for key in KNOWN_RAISES if key[0] in seeds}
    problems += [f"{key}: raised" for key in sorted(raised - expected)]
    problems += [f"{key}: solved, expected to raise"
                 for key in sorted(expected - raised)]
    for line in problems:
        print(line)
    print(f"seeds {first}-{last}: {len(raised)} raised "
          f"({sorted(raised)}), {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
