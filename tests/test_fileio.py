import io
import json

import numpy as np
import pytest

from gridstate.errors import SchemaError, ValidationError
from gridstate.fileio import (load_result_file, load_system_file,
                              read_trajectory_csv, result_document,
                              system_from_dict, trajectory_header,
                              write_result_file, write_trajectory_csv)
from gridstate.frame import wrap_angle
from gridstate.simulate import SimConfig, Trajectory, simulate
from gridstate.steady_state import compute_steady_state, verify_steady_state
from gridstate.system import residual, tolerance_scale

from conftest import benchmark_cases, numeric_ids, ring_mesh
from oracles import per_value_trajectory_csv


def fixture_doc(fixture_path):
    with open(fixture_path) as fh:
        return json.load(fh)


def test_fixture_parses(three_bus):
    sys_, spec = three_bus
    assert sys_.n_x == 26
    assert spec.omega0 == pytest.approx(2 * np.pi * 50)
    assert list(spec.sigma) == [1, 1]


def test_duplicate_bus_id_rejected(fixture_path):
    doc = fixture_doc(fixture_path)
    doc["buses"][1]["id"] = "b1"
    with pytest.raises(SchemaError, match="duplicate bus id 'b1'"):
        system_from_dict(doc)


NON_FINITE_IDS = pytest.mark.parametrize(
    "token", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "1e400", "huge-int"])


@NON_FINITE_IDS
def test_non_finite_bus_id_rejected(tmp_path, fixture_path, token):
    # json reads the first four as floats, and the lines find bus b3 under
    # the same one; written back they would be tokens that strict JSON
    # rejects. An integer too large for a float is no finite number either.
    path = tmp_path / "system.json"
    path.write_text(fixture_path.read_text().replace('"b3"', token))
    with pytest.raises(SchemaError, match=r"^buses\[2\]: key 'id' must be "
                       "finite$"):
        load_system_file(path)


@NON_FINITE_IDS
def test_result_file_non_finite_bus_id_rejected(tmp_path, three_bus,
                                                certified, token):
    sys_, _ = three_bus
    path = tmp_path / "result.json"
    with open(path, "w") as fh:
        write_result_file(fh, sys_, certified,
                          verify_steady_state(sys_, certified))
    path.write_text(path.read_text().replace('"id": "b3"', f'"id": {token}'))
    with pytest.raises(SchemaError, match=r"^buses\[2\]: key 'id' must be "
                       "finite$"):
        load_result_file(path, sys_)


def test_unknown_machine_bus_rejected(fixture_path):
    doc = fixture_doc(fixture_path)
    doc["machines"][0]["bus"] = "nowhere"
    with pytest.raises(SchemaError, match="unknown bus id 'nowhere'"):
        system_from_dict(doc)


def test_missing_machine_key_rejected(fixture_path):
    doc = fixture_doc(fixture_path)
    del doc["machines"][0]["l_sf"]
    with pytest.raises(SchemaError, match="l_sf"):
        system_from_dict(doc)


def test_physics_violation_rejected(fixture_path):
    doc = fixture_doc(fixture_path)
    doc["machines"][0]["l_sa"] = doc["machines"][0]["l_s"]
    with pytest.raises(ValidationError, match="positive definite"):
        system_from_dict(doc)


def test_bad_polarization_rejected(fixture_path):
    doc = fixture_doc(fixture_path)
    doc["operating_point"]["polarization"] = [2, 1]
    with pytest.raises(SchemaError, match="polarization"):
        system_from_dict(doc)


def test_zero_voltage_magnitude_rejected(fixture_path):
    doc = fixture_doc(fixture_path)
    doc["operating_point"]["generator_voltages"][0]["magnitude"] = 0.0
    with pytest.raises(ValidationError, match="magnitude"):
        system_from_dict(doc)


def test_json_syntax_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="JSON syntax"):
        load_system_file(path)


def test_load_types_parse(fixture_path):
    doc = fixture_doc(fixture_path)
    doc["buses"][2]["load"] = {"type": "power",
                               "params": {"P": 1.0, "Q": 0.5, "v_min": 0.1}}
    sys_, _ = system_from_dict(doc)
    assert sys_.loads[2].kind == "power"
    doc["buses"][2]["load"] = {"type": "current",
                               "params": {"c_g": 1.0, "c_b": 0.0}}
    sys_, _ = system_from_dict(doc)
    assert sys_.loads[2].kind == "current"
    doc["buses"][2]["load"] = {"type": "wobbly", "params": {}}
    with pytest.raises(SchemaError, match="load type"):
        system_from_dict(doc)


def test_result_roundtrip(tmp_path, three_bus, certified):
    sys_, _ = three_bus
    report = verify_steady_state(sys_, certified)
    path = tmp_path / "result.json"
    with open(path, "w") as fh:
        write_result_file(fh, sys_, certified, report)

    x0, u, omega0 = load_result_file(path, sys_)
    assert omega0 == certified.omega0
    np.testing.assert_allclose(u, certified.u, rtol=0, atol=0)
    # The reloaded state sits on the steady-state set (angles may re-enter
    # wrapped; the model is periodic in them).
    rho = residual(sys_, x0, u, omega0)
    assert np.max(np.abs(rho)) <= 1e-9 * tolerance_scale(x0, u)


def test_result_file_bus_ids_follow_the_system_reader(tmp_path,
                                                      fixture_path):
    # A result file names buses as a system file does: 2.0 is bus 2.
    doc = fixture_doc(fixture_path)
    numeric_ids(doc)
    sys_, spec = system_from_dict(doc)
    ss = compute_steady_state(sys_, spec)
    result = result_document(sys_, ss, verify_steady_state(sys_, ss))
    result["machines"][1]["bus"] = result["lines"][0]["to"] = 2.0
    path = tmp_path / "result.json"
    path.write_text(json.dumps(result))
    x0, u, _ = load_result_file(path, sys_)
    np.testing.assert_array_equal(u, ss.u)
    np.testing.assert_array_equal(x0[sys_.layout.sl_v], ss.x[sys_.layout.sl_v])


def test_multi_machine_result_roundtrip(tmp_path, fixture_path):
    # A seeded 24-bus mixed-load mesh whose 4 machines alternate their
    # polarizations: the machine rows follow the recovery in machine order.
    cases = benchmark_cases()
    doc = cases.with_polarization(cases.mesh_document(
        fixture_doc(fixture_path), 5, 24, 6.0, n_machines=4,
        load_every_free_bus=True), (1, -1, 1, -1))
    sys_, op = system_from_dict(doc)
    ss = compute_steady_state(sys_, op)
    result = tmp_path / "result.json"
    with open(result, "w") as fh:
        write_result_file(fh, sys_, ss, verify_steady_state(sys_, ss))

    x0, u, _ = load_result_file(result, sys_)
    np.testing.assert_array_equal(u, ss.u)
    theta = sys_.layout.sl_theta
    np.testing.assert_array_equal(x0[theta], wrap_angle(ss.x[theta]))
    np.testing.assert_array_equal(x0[theta.stop:], ss.x[theta.stop:])
    rec = ss.recovery
    assert rec.sigma.tolist() == [1, -1, 1, -1]
    rows = json.loads(result.read_text())["machines"]
    assert len(rows) == 4
    for k, row in enumerate(rows):
        assert row["theta"] == wrap_angle(rec.theta[k])
        assert [row[key] for key in ("i_f", "tau_m", "v_f", "sigma", "case")] \
            == [rec.i_f[k], rec.tau_m[k], rec.v_f[k], rec.sigma[k],
                rec.case[k]]
        assert row["nu"] == rec.nu[k].tolist()


def test_result_document_precision_and_determinism(three_bus, certified):
    sys_, _ = three_bus
    report = verify_steady_state(sys_, certified)
    a, b = io.StringIO(), io.StringIO()
    write_result_file(a, sys_, certified, report)
    write_result_file(b, sys_, certified, report)
    assert a.getvalue() == b.getvalue()
    doc = json.loads(a.getvalue())
    v_written = doc["buses"][0]["v"][0]
    lay = sys_.layout
    assert v_written == certified.x[lay.sl_v][0]  # full precision round-trip


def test_result_reports_buses_in_input_order(three_bus, certified):
    sys_, _ = three_bus
    report = verify_steady_state(sys_, certified)
    doc = result_document(sys_, certified, report)
    assert [row["id"] for row in doc["buses"]] == ["b1", "b2", "b3"]
    assert [row["bus"] for row in doc["machines"]] == ["b1", "b2"]


def test_result_size_mismatch_rejected(tmp_path, three_bus, certified):
    sys_, _ = three_bus
    report = verify_steady_state(sys_, certified)
    path = tmp_path / "result.json"
    with open(path, "w") as fh:
        write_result_file(fh, sys_, certified, report)
    doc = json.loads(path.read_text())
    doc["machines"] = doc["machines"][:1]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="sizes"):
        load_result_file(path, sys_)


def test_trajectory_header_layout(three_bus):
    sys_, _ = three_bus
    header = trajectory_header(sys_)
    assert header.startswith(
        "t,theta_1,theta_2,omega_1,omega_2,i_alpha_1,i_beta_1,i_f_1,i_d_1,"
        "i_q_1,i_alpha_2")
    assert header.endswith("iT_alpha_3,iT_beta_3")
    assert len(header.split(",")) == sys_.n_x + 1


def test_trajectory_csv_roundtrip(tmp_path, three_bus, certified):
    sys_, _ = three_bus
    traj = simulate(sys_, certified.x, certified.u,
                    SimConfig(dt=1e-4, t_end=1e-3))
    path = tmp_path / "traj.csv"
    with open(path, "w") as fh:
        write_trajectory_csv(fh, sys_, traj)
    back = read_trajectory_csv(path, sys_, inputs=certified.u)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.states, traj.states)


@pytest.mark.parametrize("case", ["fixture", "ring24-mixed", "edge-values"])
def test_trajectory_csv_bytes_match_per_value_repr(three_bus, certified,
                                                   case):
    # 201 records of 200 RK4 steps from a certified point, and the
    # fixture's records with their values replaced by signed zeros,
    # subnormals, huge and non-finite numbers and every binary exponent.
    sys_, ss = three_bus[0], certified
    if case == "ring24-mixed":
        sys_, spec = ring_mesh(24, ("impedance", "current", "power"), seed=3)
        ss = compute_steady_state(sys_, spec)
    traj = simulate(sys_, ss.x, ss.u, SimConfig(dt=1e-5, t_end=2e-3))
    assert len(traj.times) == 201
    if case == "edge-values":
        rng = np.random.default_rng(5)
        states = rng.standard_normal(traj.states.shape) * np.exp2(
            rng.integers(-1074, 1000, traj.states.shape))
        states.flat[:6] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308,
                           np.nan, -np.inf]
        traj = Trajectory(traj.times, states, traj.inputs)
    out = io.StringIO()
    write_trajectory_csv(out, sys_, traj)
    got, want = out.getvalue(), per_value_trajectory_csv(sys_, traj)
    same = got == want  # a short message: no diff of two long texts
    assert same, next((a, b) for a, b in zip(got.split("\n"),
                                               want.split("\n")) if a != b)


def test_trajectory_header_mismatch_rejected(tmp_path, three_bus):
    sys_, _ = three_bus
    path = tmp_path / "traj.csv"
    path.write_text("t,wrong\n0.0,1.0\n")
    with pytest.raises(SchemaError, match="header"):
        read_trajectory_csv(path, sys_)


def csv_with_rows(tmp_path, sys_, rows):
    """A trajectory file with the system's header and the given data lines."""
    path = tmp_path / "traj.csv"
    path.write_text(trajectory_header(sys_) + "\n" + "".join(
        row + "\n" for row in rows))
    return path


def test_trajectory_csv_bad_row_names_its_file_line(tmp_path, three_bus):
    sys_, _ = three_bus
    good = ",".join(["0.5"] * (sys_.n_x + 1))
    # Blank lines are skipped but still counted: the bad row is file line 5.
    short = ",".join(["0.5"] * sys_.n_x)
    path = csv_with_rows(tmp_path, sys_, [good, "", good, short, good])
    with pytest.raises(SchemaError,
                       match=f"line 5: expected {sys_.n_x + 1} columns, "
                             f"got {sys_.n_x}"):
        read_trajectory_csv(path, sys_)
    bad_number = good.replace("0.5", "0.5x", 1)
    path = csv_with_rows(tmp_path, sys_, [good, "", bad_number, good])
    with pytest.raises(SchemaError, match="line 4: could not convert "
                                          "string to float: '0.5x'"):
        read_trajectory_csv(path, sys_)
    # In file order, the first bad line is reported whatever its fault.
    path = csv_with_rows(tmp_path, sys_, [bad_number, short])
    with pytest.raises(SchemaError, match="line 2: could not convert"):
        read_trajectory_csv(path, sys_)
    path = csv_with_rows(tmp_path, sys_, [short, bad_number])
    with pytest.raises(SchemaError, match="line 2: expected"):
        read_trajectory_csv(path, sys_)


def test_trajectory_csv_skips_blank_lines_and_needs_a_sample(tmp_path,
                                                              three_bus):
    sys_, _ = three_bus
    row = [float(k) for k in range(sys_.n_x + 1)]
    path = csv_with_rows(tmp_path, sys_,
                         ["", " ", ",".join(map(repr, row)), ""])
    traj = read_trajectory_csv(path, sys_)
    np.testing.assert_array_equal(traj.times, [0.0])
    np.testing.assert_array_equal(traj.states, [row[1:]])
    with pytest.raises(SchemaError, match="no samples"):
        read_trajectory_csv(csv_with_rows(tmp_path, sys_, ["", ""]), sys_)


def test_result_diagnostics_carry_margins_that_reload_ignores(tmp_path,
                                                              three_bus,
                                                              certified):
    sys_, _ = three_bus
    report = verify_steady_state(sys_, certified)
    assert set(report.margins) == {"residual", "frequency", "invariance",
                                   "equivariance"}
    assert report.margins["invariance"] == report.invariance_defect / (
        report.tolerances["invariance"] * report.scale)
    assert max(report.margins.values()) <= 1.0
    path = tmp_path / "result.json"
    with open(path, "w") as fh:
        write_result_file(fh, sys_, certified, report)
    doc = json.loads(path.read_text())
    assert doc["diagnostics"]["margins"] == report.margins
    net = certified.network
    assert doc["diagnostics"]["newton"] == {
        "iterations": net.iterations,
        "residual_history": net.residual_history}
    rec = certified.recovery
    assert doc["diagnostics"]["recovery"] == [
        {"case": c, "excitation_residual": e, "alignment_residual": a}
        for c, e, a in zip(rec.case, rec.excitation_residual,
                           rec.alignment_residual)]
    for key in ("margins", "newton", "recovery"):
        del doc["diagnostics"][key]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    for a, b in zip(load_result_file(path, sys_),
                    load_result_file(bare, sys_)):
        np.testing.assert_array_equal(a, b)
