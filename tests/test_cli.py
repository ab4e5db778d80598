import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gridstate
from gridstate.cli import main
from gridstate.errors import LoadDomainError, SolverError
from gridstate.fileio import load_system_file, write_trajectory_csv
from gridstate.simulate import SimConfig, simulate
from gridstate.steady_state import compute_steady_state

from conftest import AnisotropicLoad


@pytest.fixture()
def fixture_file(fixture_path):
    return str(fixture_path)


def write_variant(tmp_path, fixture_path, mutate):
    doc = json.loads(open(fixture_path).read())
    mutate(doc)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_steady_state_certifies(tmp_path, fixture_file):
    out = tmp_path / "result.json"
    assert main(["steady-state", fixture_file, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["diagnostics"]["certificate"] is True
    assert {m["case"] for m in doc["machines"]} == {"regular"}


def test_steady_state_sigma_flip(tmp_path, fixture_file):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["steady-state", fixture_file, "-o", str(out_a)]) == 0
    assert main(["steady-state", fixture_file, "-o", str(out_b),
                 "--sigma", "1=-1"]) == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    dtheta = abs(b["machines"][0]["theta"] - a["machines"][0]["theta"])
    assert min(dtheta, abs(dtheta - 2 * np.pi)) == pytest.approx(np.pi,
                                                                 abs=1e-9)
    assert b["machines"][0]["i_f"] == pytest.approx(
        -a["machines"][0]["i_f"], rel=1e-9)
    assert b["diagnostics"]["certificate"] is True


def test_usage_errors(fixture_file):
    assert main(["steady-state", fixture_file, "--sigma", "7=-1"]) == 1
    assert main(["steady-state", fixture_file, "--sigma", "1=0"]) == 1
    assert main(["nonsense"]) == 1


def test_schema_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["steady-state", str(bad)]) == 2


@pytest.mark.parametrize("newton", [{"max_iter": 0}, {"max_iter": "x"},
                                    {"tol": True}, {"tol": -1}])
def test_bad_newton_options_exit_code(tmp_path, fixture_path, capsys, newton):
    path = write_variant(tmp_path, fixture_path, lambda doc:
                         doc["operating_point"].__setitem__("newton", newton))
    assert main(["steady-state", path]) == 2
    assert "operating_point.newton" in capsys.readouterr().err


def _set(*path):
    """Mutation of a fixture document: the entry at ``path`` set to the
    last argument."""
    *keys, last, value = path

    def mutate(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set("buses", 0, 3), "buses[0]: must be an object"),
    (_set("lines", 1, ["b2", "b3"]), "lines[1]: must be an object"),
    (_set("machines", 0, "m1"), "machines[0]: must be an object"),
    (_set("operating_point", "generator_voltages", 1, None),
     "operating_point.generator_voltages[1]: must be an object"),
    (_set("buses", 2, "load", 5), "buses[2]: key 'load' must be dict"),
    (_set("buses", 0, "id", ["b1"]),
     "buses[0]: key 'id' must be a string or number"),
    (_set("lines", 0, "from", ["b1"]), "lines[0]: unknown bus id ['b1']"),
    (_set("machines", 1, "bus", {"id": "b2"}),
     "machines[1]: unknown bus id {'id': 'b2'}"),
    (_set("operating_point", "generator_voltages", 0, "bus", ["b1"]),
     "operating_point.generator_voltages[0]: unknown bus id ['b1']"),
], ids=["bus", "line", "machine", "generator-voltage", "load", "bus-id",
        "line-end", "machine-bus", "generator-voltage-bus"])
def test_malformed_entries_exit_code(tmp_path, fixture_path, capsys, mutate,
                                     message):
    path = write_variant(tmp_path, fixture_path, mutate)
    assert main(["steady-state", path]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("polarization", [[True, True], [1, False]])
def test_boolean_polarization_is_rejected(tmp_path, fixture_path, capsys,
                                          polarization):
    path = write_variant(tmp_path, fixture_path, _set(
        "operating_point", "polarization", polarization))
    assert main(["steady-state", path]) == 2
    bad = next(k for k, s in enumerate(polarization) if isinstance(s, bool))
    assert f"polarization[{bad}] must be -1 or +1, got " \
        f"{polarization[bad]}" in capsys.readouterr().err


@pytest.mark.parametrize("mutate, message", [
    (_set("omega0", float("inf")), "top level: key 'omega0' must be finite"),
    (_set("operating_point", "generator_voltages", 1, "magnitude",
          float("nan")),
     "operating_point.generator_voltages[1]: key 'magnitude' must be finite"),
    (_set("buses", 1, "capacitance", float("nan")),
     "buses[1]: key 'capacitance' must be finite"),
    (_set("lines", 2, "resistance", -float("inf")),
     "lines[2]: key 'resistance' must be finite"),
    (_set("buses", 2, "load", "params", "g", 10**400),
     "buses[2].load: key 'g' must be finite"),
], ids=["omega0-inf", "magnitude-nan", "capacitance-nan", "resistance-inf",
        "huge-int"])
def test_non_finite_numbers_exit_code(tmp_path, fixture_path, capsys, mutate,
                                      message):
    # json reads NaN and Infinity, and Python ints of any size.
    path = write_variant(tmp_path, fixture_path, mutate)
    assert main(["steady-state", path]) == 2
    assert message in capsys.readouterr().err


def test_stale_fd_step_is_ignored(tmp_path, fixture_path):
    path = write_variant(tmp_path, fixture_path, lambda doc:
                         doc["operating_point"].__setitem__(
                             "newton", {"tol": 1e-10, "max_iter": 50,
                                        "fd_step": 1e-6}))
    assert main(["steady-state", path, "-o", str(tmp_path / "r.json")]) == 0


def test_validation_exit_code(tmp_path, fixture_path):
    path = write_variant(tmp_path, fixture_path, lambda doc: doc["machines"][0]
                         .__setitem__("l_sa", doc["machines"][0]["l_s"]))
    assert main(["steady-state", path]) == 3


def test_zero_frequency_infeasible_exit_code(tmp_path, fixture_path, capsys):
    def mutate(doc):
        doc["omega0"] = 0.0
        doc["operating_point"]["generator_voltages"][1]["magnitude"] = 4.0
    path = write_variant(tmp_path, fixture_path, mutate)
    assert main(["steady-state", path]) == 4
    err = capsys.readouterr().err
    assert "zero frequency" in err


def test_newton_failure_exit_code(tmp_path, fixture_path):
    def mutate(doc):
        # A constant-power draw far above what the network can deliver.
        doc["buses"][2]["load"] = {"type": "power",
                                   "params": {"P": 1e6, "Q": 0.0,
                                              "v_min": 1e-3}}
    path = write_variant(tmp_path, fixture_path, mutate)
    assert main(["steady-state", path]) == 4


def test_newton_domain_error_names_file_bus(tmp_path, fixture_path, capsys):
    # The loaded bus comes first in the file but last in solve order
    # (machine buses first); the error must use the file's bus id.
    def mutate(doc):
        bus = doc["buses"].pop(2)
        bus["load"] = {"type": "power",
                       "params": {"P": 20, "Q": 0, "v_min": 5}}
        doc["buses"].insert(0, bus)
    path = write_variant(tmp_path, fixture_path, mutate)
    assert main(["steady-state", path]) == 4
    err = capsys.readouterr().err
    assert "left a load's domain" in err and "bus 'b3'" in err
    assert "bus index" not in err

    sys_, spec = load_system_file(path)
    with pytest.raises(SolverError, match="bus 'b3'") as info:
        compute_steady_state(sys_, spec)
    assert isinstance(info.value.__cause__, LoadDomainError)
    assert info.value.__cause__.bus == "b3"


def test_simulate_row_count_and_metrics(tmp_path, fixture_file, capsys):
    result = tmp_path / "result.json"
    traj = tmp_path / "traj.csv"
    assert main(["steady-state", fixture_file, "-o", str(result)]) == 0
    assert main(["simulate", fixture_file, "--from", str(result),
                 "--dt", "1e-5", "--t-end", "0.002", "-o", str(traj)]) == 0
    err = capsys.readouterr().err
    assert "state_deviation" in err
    lines = traj.read_text().strip().splitlines()
    assert len(lines) == int(0.002 / 1e-5) + 2  # header + samples
    assert main(["simulate", fixture_file, "--from", str(result),
                 "--dt", "1e-5", "--t-end", "0.002", "--record-every", "10",
                 "-o", str(traj)]) == 0
    lines = traj.read_text().strip().splitlines()
    assert len(lines) == int(0.002 / (1e-5 * 10)) + 2


def test_verify_roundtrip_and_corruption(tmp_path, fixture_file):
    result = tmp_path / "result.json"
    traj = tmp_path / "traj.csv"
    assert main(["steady-state", fixture_file, "-o", str(result)]) == 0
    assert main(["simulate", fixture_file, "--from", str(result),
                 "--dt", "1e-5", "--t-end", "0.001", "-o", str(traj)]) == 0
    assert main(["verify", fixture_file, "--traj", str(traj)]) == 0

    lines = traj.read_text().splitlines()
    parts = lines[50].split(",")
    parts[16] = repr(float(parts[16]) * 1.2)  # corrupt one voltage sample
    lines[50] = ",".join(parts)
    traj.write_text("\n".join(lines) + "\n")
    assert main(["verify", fixture_file, "--traj", str(traj)]) == 5


def test_verify_detects_perturbed_start(tmp_path, fixture_file, capsys):
    result = tmp_path / "result.json"
    traj = tmp_path / "traj.csv"
    assert main(["steady-state", fixture_file, "-o", str(result)]) == 0
    assert main(["simulate", fixture_file, "--from", str(result),
                 "--dt", "1e-5", "--t-end", "0.001", "--perturb-v", "0.05",
                 "-o", str(traj)]) == 0
    assert main(["verify", fixture_file, "--traj", str(traj)]) == 5
    assert "sample" in capsys.readouterr().err


def test_verify_flags_nonconforming_load_run(tmp_path, fixture_file):
    # Integrate under an anisotropic load, then verify against the original
    # (conforming) system file: the drift must be flagged.
    sys_, spec = load_system_file(fixture_file)
    ss = compute_steady_state(sys_, spec)
    bad_sys = sys_.with_loads([sys_.loads[0], sys_.loads[1],
                               AnisotropicLoad()])
    traj = simulate(bad_sys, ss.x, ss.u,
                    SimConfig(dt=1e-5, t_end=0.01, record_every=10))
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        write_trajectory_csv(fh, sys_, traj)
    assert main(["verify", fixture_file, "--traj", str(path)]) == 5


def test_verify_missing_columns(tmp_path, fixture_file):
    path = tmp_path / "short.csv"
    path.write_text("t,theta_1\n0.0,0.0\n")
    assert main(["verify", fixture_file, "--traj", str(path)]) == 2


def test_identities_deterministic_output(fixture_file, capsys):
    assert main(["identities", fixture_file, "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["identities", fixture_file, "--seed", "11"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count("PASS") >= 6 and "FAIL" not in first


def test_identities_other_seeds(fixture_file, capsys):
    for seed in ("1", "42"):
        assert main(["identities", fixture_file, "--seed", seed]) == 0
    capsys.readouterr()


def test_result_to_stdout(fixture_file, capsys):
    assert main(["steady-state", fixture_file]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["diagnostics"]["certificate"] is True


def test_cli_import_loads_no_scipy():
    # Every CLI process pays for what the package imports at start-up.
    src = str(pathlib.Path(gridstate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import gridstate, gridstate.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "[]"
