import io
import json
import logging
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gridstate
import gridstate.cli
from gridstate.cli import main
from gridstate.errors import LoadDomainError, SolverError
from gridstate.fileio import (load_result_file, load_system_file,
                              write_trajectory_csv)
from gridstate.simulate import SimConfig, simulate
from gridstate.steady_state import compute_steady_state

from conftest import (AnisotropicLoad, benchmark_cases, numeric_ids,
                      singular_solve_at)


@pytest.fixture()
def fixture_file(fixture_path):
    return str(fixture_path)


def write_variant(tmp_path, fixture_path, mutate):
    doc = json.loads(pathlib.Path(fixture_path).read_text())
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


@pytest.mark.parametrize("path, message", [
    (("buses", 2, "id"), "buses[2]: key 'id' must be a string or number"),
    (("lines", 1, "to"), "lines[1]: unknown bus id True"),
    (("machines", 0, "bus"), "machines[0]: unknown bus id True"),
    (("operating_point", "generator_voltages", 0, "bus"),
     "operating_point.generator_voltages[0]: unknown bus id True"),
], ids=["bus-id", "line-end", "machine-bus", "generator-voltage-bus"])
def test_boolean_bus_ids_are_rejected(tmp_path, fixture_path, capsys, path,
                                      message):
    def mutate(doc):
        numeric_ids(doc)
        _set(*path, True)(doc)
    assert main(["steady-state", write_variant(tmp_path, fixture_path,
                                               mutate)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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


@pytest.mark.parametrize("token", ["NaN", "Infinity", "1e400"])
def test_non_finite_bus_ids_exit_code(tmp_path, fixture_path, capsys, token):
    # A bus id and its references read as the same non-finite float would
    # solve and certify, and the result file would hold tokens that strict
    # JSON rejects; no result file is written.
    path, out = tmp_path / "system.json", tmp_path / "result.json"
    path.write_text(fixture_path.read_text().replace('"b3"', token))
    assert main(["steady-state", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "buses[2]: key 'id' must be finite" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("mutate, message, renumber", [
    (_set("machines", 0, "theta", float("nan")),
     "machines[0]: key 'theta' must be finite", False),
    (lambda doc: doc["machines"][1].pop("i_f"),
     "machines[1]: missing required key 'i_f'", False),
    (_set("buses", 2, "v", [1.0]),
     "buses[2]: key 'v' must hold two numbers, got 1", False),
    (lambda doc: doc["lines"].reverse(),
     "lines[0]: must run from bus 'b1' to bus 'b2'", False),
    (lambda doc: [row.update({"from": "x", "to": "y"})
                  for row in doc["lines"]],
     "lines[0]: must run from bus 'b1' to bus 'b2'", False),
    (_set("machines", 0, "bus", True), "machine 1 bus id mismatch", True),
    (_set("lines", 0, "from", True),
     "lines[0]: must run from bus 1 to bus 2", True),
], ids=["theta-nan", "missing-i_f", "short-v", "lines-reversed",
        "unknown-line-ends", "machine-bus-true", "line-from-true"])
def test_malformed_result_file_exit_code(tmp_path, fixture_path, capsys,
                                         mutate, message, renumber):
    # simulate --from starts from the result file's state as written. Its
    # bus ids name buses as in system files: true does not name bus 1.
    system = (write_variant(tmp_path, fixture_path, numeric_ids) if renumber
              else str(fixture_path))
    result = tmp_path / "result.json"
    assert main(["steady-state", system, "-o", str(result)]) == 0
    doc = json.loads(result.read_text())
    mutate(doc)
    result.write_text(json.dumps(doc))
    assert main(["simulate", system, "--from", str(result),
                 "--dt", "1e-5", "--t-end", "1e-4",
                 "-o", str(tmp_path / "traj.csv")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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


def test_newton_failure_names_the_weakest_bus(tmp_path, fixture_path,
                                              capsys):
    # On a 16-bus mesh whose solve is cut after two Newton iterations, the
    # exit is 4 and stderr carries the in-process message: the residual
    # history and the non-machine bus with the lowest |v|, by file bus id.
    cases = benchmark_cases()
    doc = cases.mesh_document(cases.read_document(fixture_path), 116, 16, 2.0)
    doc["operating_point"]["newton"] = {"max_iter": 2}
    path = tmp_path / "capped.json"
    cases.write_document(path, doc)
    with pytest.raises(SolverError, match="did not converge in 2") as err:
        compute_steady_state(*load_system_file(path))
    out = tmp_path / "r.json"
    assert main(["steady-state", str(path), "-o", str(out)]) == 4
    assert capsys.readouterr().err == f"solver error: {err.value}\n"
    assert not out.exists()
    weakest = str(err.value).rpartition(" at bus ")[2]
    free = ({bus["id"] for bus in doc["buses"]}
            - {machine["bus"] for machine in doc["machines"]})
    assert weakest in {repr(bus) for bus in free}


def test_a_singular_jacobian_exits_4_without_a_result(tmp_path, fixture_path,
                                                     capsys, monkeypatch):
    # A singular Newton step, forced at iteration 2 of a 16-bus mesh, is a
    # solver error: exit 4, the in-process message on stderr, no -o file.
    cases = benchmark_cases()
    doc = cases.mesh_document(cases.read_document(fixture_path), 116, 16, 2.0)
    path, out = tmp_path / "mesh.json", tmp_path / "r.json"
    cases.write_document(path, doc)
    calls = singular_solve_at(monkeypatch, 2)
    with pytest.raises(SolverError, match="^singular Jacobian .* iteration 2; "
                       "residual history .* at bus 'n[0-9]+'$") as err:
        compute_steady_state(*load_system_file(path))
    calls.clear()
    assert main(["steady-state", str(path), "-o", str(out)]) == 4
    assert capsys.readouterr().err == f"solver error: {err.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("v_min, stop", [(5.0, 3), (7.0, 1)])
def test_a_load_leaving_its_domain_exits_4_without_a_result(
        tmp_path, fixture_path, capsys, v_min, stop):
    # A constant-power load driven below its floor, at iteration 3 or at the
    # flat start (6 V, before any residual), is a solver error: exit 4, the
    # in-process message with how the solve ended on stderr, no -o file.
    def mutate(doc):
        doc["buses"][2]["load"] = {"type": "power", "params": {
            "P": 20.0, "Q": 0.0, "v_min": v_min}}
    path, out = write_variant(tmp_path, fixture_path, mutate), tmp_path / "r"
    seen = "residual history .* last" if stop > 1 else "no residual evaluated"
    with pytest.raises(SolverError, match=(
            f"^network solve left a load's domain at iteration {stop}: bus "
            f"'b3': .*; {seen}; lowest load-bus voltage .* at bus 'b3'$")
            ) as err:
        compute_steady_state(*load_system_file(path))
    assert main(["steady-state", path, "-o", str(out)]) == 4
    assert capsys.readouterr().err == f"solver error: {err.value}\n"
    assert not out.exists()


def test_a_loose_newton_tolerance_is_a_certification_failure(tmp_path,
                                                            fixture_path,
                                                            capsys):
    # Newton stops at its own tolerance; whether the point it stopped at is
    # a steady state is the certificate's call, and the result file says
    # why it is not.
    cases = benchmark_cases()
    doc = cases.mesh_document(cases.read_document(fixture_path), 116, 16, 2.0)
    doc["operating_point"]["newton"] = {"tol": 1e-2}
    path, out = tmp_path / "mesh.json", tmp_path / "result.json"
    cases.write_document(path, doc)
    assert main(["steady-state", str(path), "-o", str(out)]) == 5
    err = capsys.readouterr().err
    assert "worst block: nodes" in err
    diagnostics = json.loads(out.read_text())["diagnostics"]
    assert diagnostics["certificate"] is False
    assert diagnostics["margins"]["residual"] > 1.0


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
    # 50 steps recorded every 7th: steps 0, 7, ..., 49 and the last, 50.
    assert main(["simulate", fixture_file, "--from", str(result),
                 "--dt", "1e-5", "--t-end", "5e-4", "--record-every", "7",
                 "-o", str(traj)]) == 0
    lines = traj.read_text().strip().splitlines()
    assert len(lines) == 1 + 8 + 1
    assert float(lines[-2].split(",")[0]) == 49 * 1e-5
    assert float(lines[-1].split(",")[0]) == 50 * 1e-5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverged_simulation_is_a_solver_error(tmp_path, fixture_file,
                                                capsys):
    # At dt = 1e-2 RK4 leaves the fixture's stability region: the run exits
    # 4 naming the first recorded time whose state is not finite, writes no
    # CSV and leaves an existing output as it was. At dt = 1e-3 it stays
    # finite.
    result = tmp_path / "result.json"
    traj = tmp_path / "traj.csv"
    assert main(["steady-state", fixture_file, "-o", str(result)]) == 0
    args = ["simulate", fixture_file, "--from", str(result), "--t-end", "0.5",
            "-o", str(traj)]
    assert main(args + ["--dt", "1e-2"]) == 4
    assert not traj.exists()
    traj.write_text("kept\n")
    assert main(args + ["--dt", "1e-2"]) == 4
    assert traj.read_text() == "kept\n"
    err = capsys.readouterr().err
    assert err.count("solver error: simulation diverged: state not finite "
                     "at t=5.000000e-02") == 2
    assert "state_deviation" not in err
    assert main(args + ["--dt", "1e-3"]) == 0


@pytest.mark.parametrize("column, text", [
    (3, "nan"), (7, "inf"), (20, "1e999"), (0, "nan")],
    ids=["nan", "inf", "overflow", "nan-time"])
def test_a_non_finite_trajectory_entry_is_an_input_error(
        tmp_path, fixture_file, capsys, column, text):
    # Like the system and result files, a trajectory whose numbers are not
    # all finite is rejected as input (exit 2), by file line and column.
    result = tmp_path / "result.json"
    traj = tmp_path / "traj.csv"
    assert main(["steady-state", fixture_file, "-o", str(result)]) == 0
    assert main(["simulate", fixture_file, "--from", str(result), "--dt",
                 "1e-5", "--t-end", "3e-5", "-o", str(traj)]) == 0
    lines = traj.read_text().splitlines()
    header, row = lines[0].split(","), lines[3].split(",")
    row[column] = text
    lines[3] = ",".join(row)
    traj.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", fixture_file, "--traj", str(traj)]) == 2
    assert capsys.readouterr().err == (
        f"input error: {traj}: line 4: {header[column]} is not finite "
        f"({float(text)})\n")


def test_simulate_refuses_a_start_that_is_not_a_steady_state(
        tmp_path, fixture_file, capsys):
    result = tmp_path / "result.json"
    traj = tmp_path / "traj.csv"
    assert main(["steady-state", fixture_file, "-o", str(result)]) == 0
    doc = json.loads(result.read_text())
    doc["machines"][0]["theta"] += 0.1
    result.write_text(json.dumps(doc))
    assert main(["simulate", fixture_file, "--from", str(result),
                 "--dt", "1e-5", "--t-end", "0.001", "-o", str(traj)]) == 5
    err = capsys.readouterr().err
    assert "start point not certified: residual" in err
    assert "state_deviation" not in err and not traj.exists()
    # Bad step options are a usage error, reported before the certificate.
    assert main(["simulate", fixture_file, "--from", str(result),
                 "--dt", "-1e-5", "--t-end", "0.001"]) == 1
    assert "not certified" not in capsys.readouterr().err


@pytest.mark.parametrize("perturb", [None, "1e-3"])
def test_simulate_from_a_certified_start(tmp_path, fixture_file, perturb,
                                         caplog):
    # The start is certified before any perturbation; the run and its CSV
    # are those of integrating from the (perturbed) loaded point.
    result = tmp_path / "result.json"
    traj = tmp_path / "traj.csv"
    assert main(["steady-state", fixture_file, "-o", str(result)]) == 0
    extra = ["--perturb-v", perturb] if perturb else []
    with caplog.at_level(logging.INFO, logger="gridstate"):
        assert main(["simulate", fixture_file, "--from", str(result),
                     "--dt", "1e-5", "--t-end", "0.0005", "-o", str(traj)]
                    + extra) == 0
    assert "start point margins: {'residual': " in caplog.text
    sys_, _ = load_system_file(fixture_file)
    x0, u, _ = load_result_file(result, sys_)
    if perturb:
        x0[sys_.layout.sl_v] *= 1.0 + float(perturb)
    out = io.StringIO()
    write_trajectory_csv(out, sys_, simulate(sys_, x0, u, SimConfig(
        dt=1e-5, t_end=0.0005)))
    assert traj.read_text() == out.getvalue()


@pytest.mark.parametrize("level", [logging.INFO, None],
                         ids=["info", "default"])
def test_simulate_and_verify_log_their_rates_at_info(tmp_path, fixture_file,
                                                     caplog, level):
    # One INFO line each: simulate its steps, RHS evaluations (4 a step),
    # wall time and rate; verify its samples, wall time and rate. At the
    # default WARNING level neither shows.
    result, traj = tmp_path / "result.json", tmp_path / "traj.csv"
    assert main(["steady-state", fixture_file, "-o", str(result)]) == 0
    with caplog.at_level(level or logging.WARNING, logger="gridstate"):
        assert main(["simulate", fixture_file, "--from", str(result),
                     "--dt", "1e-5", "--t-end", "0.0005", "--record-every",
                     "10", "-o", str(traj)]) == 0
        assert main(["verify", fixture_file, "--traj", str(traj)]) == 0
    rates = [r for r in caplog.records if "_per_s" in r.getMessage()]
    if level is None:
        assert rates == []
        return
    assert [r.levelno for r in rates] == [logging.INFO] * 2
    for record, head, name in (
            (rates[0], "simulate: 50 steps, 200 RHS evaluations in ",
             "sim_steps_per_s"),
            (rates[1], "verify: 6 samples in ",
             "traj_verify_samples_per_s")):
        wall, rate = record.getMessage().removeprefix(head).split(
            f" s: {name} ")
        assert float(wall) > 0.0 and float(rate) > 0.0


def refuse_to_run(monkeypatch):
    """Make the CLI fail loudly if it reaches a certificate or a run."""
    def called(*args, **kwargs):
        raise AssertionError("ran past the flag check")
    for name in ("compute_steady_state", "verify_steady_state", "simulate"):
        monkeypatch.setattr(gridstate.cli, name, called)


@pytest.mark.parametrize("flag, value, message", [
    ("--dt", "nan", "dt must be positive and finite, got nan"),
    ("--t-end", "inf", "t_end must be finite and at least one step"),
    ("--t-end", "nan", "t_end must be finite and at least one step"),
    ("--perturb-v", "nan", "--perturb-v must be finite, got nan"),
], ids=["dt-nan", "t-end-inf", "t-end-nan", "perturb-v-nan"])
def test_simulate_rejects_non_finite_flags(tmp_path, fixture_file, capsys,
                                           monkeypatch, flag, value, message):
    result = tmp_path / "result.json"
    assert main(["steady-state", fixture_file, "-o", str(result)]) == 0
    refuse_to_run(monkeypatch)
    args = {"--dt": "1e-5", "--t-end": "1e-4", flag: value}
    traj = tmp_path / "traj.csv"
    assert main(["simulate", fixture_file, "--from", str(result),
                 "-o", str(traj)] + [a for kv in args.items()
                                     for a in kv]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not traj.exists()


@pytest.mark.parametrize("dt, t_end, message", [
    ("1e-300", "1e300", "t_end / dt must be a finite step count"),
    ("1e-5", "1e300", "1e+305 recorded states of 26 entries cannot be held"),
    ("1e-5", "1e12", "1e+17 recorded states of 26 entries cannot be held"),
], ids=["count", "dimension", "size"])
def test_simulate_refuses_a_record_count_it_cannot_hold(
        tmp_path, fixture_file, capsys, monkeypatch, dt, t_end, message):
    # The first step count overflows to inf. The others are 1e305 records,
    # past numpy's largest dimension, and 1e17 records of the fixture's 26
    # entries, past its largest array: sizes numpy refuses at once, without
    # allocating. The CLI refuses each as a usage error before it certifies
    # or runs.
    if dt == "1e-5":
        with pytest.raises(ValueError):
            np.empty((SimConfig(dt=1e-5, t_end=float(t_end)).n_records, 26))
    result = tmp_path / "result.json"
    assert main(["steady-state", fixture_file, "-o", str(result)]) == 0
    refuse_to_run(monkeypatch)
    assert main(["simulate", fixture_file, "--from", str(result), "--dt", dt,
                 "--t-end", t_end]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_verify_rejects_bad_tol(tmp_path, fixture_file, capsys, monkeypatch,
                                tol):
    refuse_to_run(monkeypatch)
    assert main(["verify", fixture_file, "--traj", str(tmp_path / "t.csv"),
                 "--tol", tol]) == 1
    assert capsys.readouterr().err == \
        f"usage error: --tol must be positive and finite, got {float(tol)!r}\n"


@pytest.mark.parametrize("argv, code, message", [
    (["steady-state", "{missing}"], 2, "input error: {missing}: "),
    (["steady-state", "{folder}"], 2, "input error: {folder}: "),
    (["simulate", "{fixture}", "--from", "{missing}", "--dt", "1e-5",
      "--t-end", "1e-4"], 2, "input error: {missing}: "),
    (["verify", "{fixture}", "--traj", "{missing}"], 2,
     "input error: {missing}: "),
    (["steady-state", "{fixture}", "-o", "{folder}/no/out.json"], 1,
     "usage error: cannot open output {folder}/no/out.json: "),
    (["identities", "{fixture}", "--seed", "-1"], 1,
     "usage error: --seed must be non-negative, got -1"),
    (["steady-state", "{binary}"], 2, "input error: {binary}: "),
    (["simulate", "{fixture}", "--from", "{binary}", "--dt", "1e-5",
      "--t-end", "1e-4"], 2, "input error: {binary}: "),
    (["verify", "{fixture}", "--traj", "{binary}"], 2,
     "input error: {binary}: "),
], ids=["missing-system", "folder-system", "missing-from", "missing-traj",
        "output", "negative-seed", "binary-system", "binary-from",
        "binary-traj"])
def test_file_and_seed_errors_print_one_line(tmp_path, fixture_file, capsys,
                                             monkeypatch, argv, code,
                                             message):
    # A wrong --traj, or an -o that cannot be opened, is reported before
    # any steady state is computed. The binary input starts like an ELF
    # file and is not UTF-8.
    names = {"fixture": fixture_file, "folder": str(tmp_path),
             "missing": str(tmp_path / "missing.json"),
             "binary": str(tmp_path / "binary")}
    (tmp_path / "binary").write_bytes(b"\x7fELF\x02\x01\x01"
                                      + bytes(range(256)))
    refuse_to_run(monkeypatch)
    assert main([arg.format(**names) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(message.format(**names)) and err.count("\n") == 1


def test_output_is_opened_before_the_run(tmp_path, fixture_file, capsys,
                                        monkeypatch):
    result = tmp_path / "result.json"
    assert main(["steady-state", fixture_file, "-o", str(result)]) == 0
    refuse_to_run(monkeypatch)
    out = tmp_path / "no" / "x.csv"
    assert main(["simulate", fixture_file, "--from", str(result), "--dt",
                 "1e-5", "--t-end", "0.1", "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"usage error: cannot open output {out}: ")
    # A run that stops after opening its output leaves an existing file
    # as it was, and a new one not at all.
    monkeypatch.undo()
    doc = json.loads(result.read_text())
    doc["machines"][0]["theta"] += 0.1
    result.write_text(json.dumps(doc))
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_text("kept\n")
    for out in (kept, new):
        assert main(["simulate", fixture_file, "--from", str(result), "--dt",
                     "1e-5", "--t-end", "1e-4", "-o", str(out)]) == 5
    assert kept.read_text() == "kept\n" and not new.exists()


def test_verify_roundtrip_and_corruption(tmp_path, fixture_file):
    result = tmp_path / "result.json"
    traj = tmp_path / "traj.csv"
    assert main(["steady-state", fixture_file, "-o", str(result)]) == 0
    assert main(["simulate", fixture_file, "--from", str(result),
                 "--dt", "1e-5", "--t-end", "0.001", "-o", str(traj)]) == 0
    assert main(["verify", fixture_file, "--traj", str(traj)]) == 0

    # The reference turns the first sample by omega0 times the time since
    # it, so the run from t = 5e-4 on, and the run backwards, verify too.
    window = tmp_path / "window.csv"
    header, *rows = traj.read_text().splitlines()
    assert float(rows[50].split(",")[0]) == 5e-4
    for part in (rows[50:], rows[::-1]):
        window.write_text("\n".join([header] + part) + "\n")
        assert main(["verify", fixture_file, "--traj", str(window)]) == 0

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
