"""System, result, and trajectory file formats.

System files are JSON; angles appear in degrees there (human convention)
and are converted to radians on load. Result documents are JSON with full
float precision so they re-load losslessly. Trajectories are CSV, one
column per state entry in state-vector order.
"""

import contextlib
import json
import math

import numpy as np

from .errors import SchemaError, ValidationError
from .frame import wrap_angle
from .loads import Load
from .machine import MachineParams
from .network import Network
from .simulate import Trajectory
from .steady_state import NewtonOptions, OperatingSpec
from .system import assemble

MAX_FLOAT = float(np.finfo(float).max)
MACHINE_KEYS = ("inertia", "damping", "r_s", "r_f", "r_d", "r_q", "l_s",
                "l_sa", "l_f", "l_d", "l_q", "l_fd", "l_sf", "l_sd", "l_sq")
# Constructor and parameter names of each load type in system files.
LOAD_TYPES = {"impedance": (Load.impedance, "g", "b"),
              "current": (Load.constant_current, "c_g", "c_b"),
              "power": (Load.constant_power, "P", "Q")}


def _require(doc, key, kind, where):
    if key not in doc:
        raise SchemaError(f"{where}: missing required key {key!r}")
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"{where}: key {key!r} must be a number")
        if not abs(value) <= MAX_FLOAT:  # json's NaN, Infinity, huge ints
            raise SchemaError(f"{where}: key {key!r} must be finite")
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(f"{where}: key {key!r} must be {kind.__name__}")
    return value


def _pair(doc, key, where):
    """The (alpha, beta) pair under ``key``: exactly two finite numbers."""
    pair = _require(doc, key, list, where)
    if len(pair) != 2:
        raise SchemaError(f"{where}: key {key!r} must hold two numbers, "
                          f"got {len(pair)}")
    return [_require({key: value}, key, float, where) for value in pair]


def _bus_id(doc, where):
    bid = doc.get("id")
    if bid is None:
        raise SchemaError(f"{where}: missing required key 'id'")
    if isinstance(bid, (list, dict, bool)):
        raise SchemaError(f"{where}: key 'id' must be a string or number")
    if not isinstance(bid, str) and not abs(bid) <= MAX_FLOAT:
        raise SchemaError(f"{where}: key 'id' must be finite")
    return bid


def _objects(doc, key, where):
    """The list under ``key``, checked to hold only JSON objects."""
    items = _require(doc, key, list, where)
    path = key if where == "top level" else f"{where}.{key}"
    for n, item in enumerate(items):
        if not isinstance(item, dict):
            raise SchemaError(f"{path}[{n}]: must be an object")
    return items


def _bus_lookup(index_of, bid):
    """Index of bus id ``bid`` or None; ``true`` names no bus, ``2.0`` bus 2."""
    return None if isinstance(bid, (list, dict, bool)) else index_of.get(bid)


def _bus_index(index_of, bid, where):
    k = _bus_lookup(index_of, bid)
    if k is None:
        raise SchemaError(f"{where}: unknown bus id {bid!r}")
    return k


def _build_load(spec, where):
    kind = _require(spec, "type", str, where)
    params = _require(spec, "params", dict, where)
    if kind not in LOAD_TYPES:
        raise SchemaError(f"{where}: load type must be one of "
                          f"{tuple(LOAD_TYPES)}, got {kind!r}")
    make, a, b = LOAD_TYPES[kind]
    kwargs = ({"v_min": _require(params, "v_min", float, where)}
              if kind != "impedance" and "v_min" in params else {})
    return make(_require(params, a, float, where),
                _require(params, b, float, where), **kwargs)


def system_from_dict(doc):
    """Build the validated system and operating spec from a parsed document."""
    omega0 = _require(doc, "omega0", float, "top level")
    buses, lines, machines_doc = (_objects(doc, key, "top level")
                                  for key in ("buses", "lines", "machines"))
    op = _require(doc, "operating_point", dict, "top level")

    index_of, caps, loads = {}, [], []
    for n, bus in enumerate(buses):
        where = f"buses[{n}]"
        bid = _bus_id(bus, where)
        if bid in index_of:
            raise SchemaError(f"{where}: duplicate bus id {bid!r}")
        index_of[bid] = n
        caps.append(_require(bus, "capacitance", float, where))
        loads.append(_build_load(_require(bus, "load", dict, where),
                                 f"{where}.load")
                     if "load" in bus else Load.none())
    bus_ids = list(index_of)

    heads, tails, r_T, l_T = [], [], [], []
    for n, line in enumerate(lines):
        where = f"lines[{n}]"
        heads.append(_bus_index(index_of, line.get("from"), where))
        tails.append(_bus_index(index_of, line.get("to"), where))
        if heads[-1] == tails[-1]:
            raise SchemaError(f"{where}: line endpoints must differ")
        r_T.append(_require(line, "resistance", float, where))
        l_T.append(_require(line, "inductance", float, where))

    machines, machine_buses = [], []
    for n, m in enumerate(machines_doc):
        where = f"machines[{n}]"
        machine_buses.append(_bus_index(index_of, m.get("bus"), where))
        vals = [_require(m, key, float, where) for key in MACHINE_KEYS]
        machines.append(MachineParams(*vals))

    network = Network(heads=np.array(heads, dtype=int),
                      tails=np.array(tails, dtype=int), c=np.array(caps),
                      r_T=np.array(r_T), l_T=np.array(l_T))
    sys_ = assemble(machines, machine_buses, network, loads=loads,
                    bus_ids=bus_ids)

    gen_volts = _objects(op, "generator_voltages", "operating_point")
    mag, ang = np.empty((2, len(machines)))
    machine_at = {b: k for k, b in enumerate(machine_buses)}
    covered = set()
    for n, gv in enumerate(gen_volts):
        where = f"operating_point.generator_voltages[{n}]"
        bid = gv.get("bus")
        k = machine_at.get(_bus_index(index_of, bid, where))
        if k is None:
            raise SchemaError(f"{where}: bus {bid!r} carries no machine")
        if k in covered:
            raise SchemaError(f"{where}: duplicate voltage for bus {bid!r}")
        covered.add(k)
        mag[k] = _require(gv, "magnitude", float, where)
        ang[k] = math.radians(_require(gv, "angle_deg", float, where))
        if mag[k] <= 0.0:
            raise ValidationError(
                f"{where}: voltage magnitude must be positive for a "
                f"nontrivial operating point, got {mag[k]!r}")
    if len(covered) != len(machines):
        raise SchemaError("operating_point.generator_voltages must cover "
                          "every machine bus exactly once")

    sigma = np.ones(len(machines), dtype=int)
    if "polarization" in op:
        pol = _require(op, "polarization", list, "operating_point")
        if len(pol) != len(machines):
            raise SchemaError("operating_point.polarization must list one "
                              "entry per machine")
        for k, s in enumerate(pol):
            if isinstance(s, bool) or s not in (-1, 1):
                raise SchemaError(f"polarization[{k}] must be -1 or +1, "
                                  f"got {s!r}")
            sigma[k] = s

    newton = NewtonOptions()
    if "newton" in op:
        where = "operating_point.newton"
        nd = _require(op, "newton", dict, "operating_point")
        kwargs = {key: _require(nd, key, kind, where)
                  for key, kind in (("tol", float), ("max_iter", int))
                  if key in nd}
        try:
            newton = NewtonOptions(**kwargs)
        except ValueError as err:
            raise SchemaError(f"{where}: {err}") from err

    spec = OperatingSpec(omega0=omega0, gen_voltage_mag=mag,
                         gen_voltage_angle=ang, sigma=sigma, newton=newton)
    return sys_, spec


@contextlib.contextmanager
def _open_input(path):
    """The input file at ``path`` opened for reading; one that cannot be
    read, or that is not UTF-8 text, is a :class:`SchemaError` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except OSError as err:
        raise SchemaError(f"{path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path}: not UTF-8 text ({err.reason})") from err


def _read_object(path):
    """The JSON object in the file at ``path``; a syntax error or any other
    top-level value is a :class:`SchemaError` naming the file."""
    with _open_input(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise SchemaError(f"{path}: JSON syntax error: {err}") from err
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return doc


def load_system_file(path):
    """Parse and validate a system file; returns (system, operating spec)."""
    return system_from_dict(_read_object(path))


def result_document(sys, ss, report):
    """Serializable steady-state result; numbers keep full precision."""
    theta, _, i, v, i_T = sys.layout.split(ss.x)
    tau_m, v_f = sys.layout.split_input(ss.u)
    rec = ss.recovery
    # Machine k sits at solve-order bus k; the zip stops after the machines.
    machines = [{"bus": bus, "theta": th, "i_s": i_k[:2], "i_f": i_k[2],
                 "i_d": i_k[3], "i_q": i_k[4], "tau_m": tm, "v_f": vf,
                 "sigma": s, "case": c, "nu": nu}
                for bus, th, i_k, tm, vf, s, c, nu in zip(
                    sys.bus_ids, wrap_angle(theta).tolist(),  # unwrapped in x
                    i.reshape(-1, 5).tolist(), tau_m.tolist(), v_f.tolist(),
                    rec.sigma.tolist(), rec.case, rec.nu.tolist())]
    # Report buses and lines in the user's input order.
    bus_rows = [None] * sys.n_v
    for k in range(sys.n_v):
        bus_rows[sys.input_position[k]] = {
            "id": sys.bus_ids[k],
            "v": [float(v[2 * k]), float(v[2 * k + 1])],
        }
    ends = zip(sys.network.heads.tolist(), sys.network.tails.tolist())
    line_rows = [{"from": sys.bus_ids[frm], "to": sys.bus_ids[to],
                  "i_T": [float(i_T[2 * t]), float(i_T[2 * t + 1])]}
                 for t, (frm, to) in enumerate(ends)]
    diagnostics = report.as_dict()
    diagnostics["newton"] = {
        "iterations": ss.network.iterations,
        "residual_history": ss.network.residual_history}
    diagnostics["recovery"] = [
        {"case": c, "excitation_residual": e, "alignment_residual": a}
        for c, e, a in zip(rec.case, rec.excitation_residual.tolist(),
                           rec.alignment_residual.tolist())]
    return {
        "omega0": ss.omega0,
        "machines": machines,
        "buses": bus_rows,
        "lines": line_rows,
        "diagnostics": diagnostics,
    }


def write_result_file(fh, sys, ss, report):
    json.dump(result_document(sys, ss, report), fh, indent=2)
    fh.write("\n")


def load_result_file(path, sys):
    """Rebuild (x0, u, omega0) from a result document against a system."""
    doc = _read_object(path)
    omega0 = _require(doc, "omega0", float, "top level")
    machines, buses, lines = (_objects(doc, key, "top level")
                              for key in ("machines", "buses", "lines"))
    if len(machines) != sys.n_g or len(buses) != sys.n_v \
            or len(lines) != sys.n_t:
        raise SchemaError(f"{path}: result sizes do not match the system")

    lay = sys.layout
    index_of = {bid: k for k, bid in enumerate(sys.bus_ids)}  # solve order
    i = np.zeros((sys.n_g, 5))
    theta, tau_m, v_f = np.zeros((3, sys.n_g))
    for k, m in enumerate(machines):
        where = f"machines[{k}]"
        if _bus_lookup(index_of, m.get("bus")) != k:
            raise SchemaError(f"{path}: machine {k + 1} bus id mismatch")
        theta[k], i[k, 2], i[k, 3], i[k, 4], tau_m[k], v_f[k] = (
            _require(m, key, float, where)
            for key in ("theta", "i_f", "i_d", "i_q", "tau_m", "v_f"))
        i[k, :2] = _pair(m, "i_s", where)

    v = np.zeros(2 * sys.n_v)
    position = {_bus_id(row, f"buses[{n}]"): n for n, row in enumerate(buses)}
    for k in range(sys.n_v):
        n = position.get(sys.bus_ids[k])
        if n is None:
            raise SchemaError(f"{path}: missing bus {sys.bus_ids[k]!r}")
        v[2 * k:2 * k + 2] = _pair(buses[n], "v", f"buses[{n}]")
    i_T = np.zeros(2 * sys.n_t)
    ends = zip(sys.network.heads.tolist(), sys.network.tails.tolist())
    for t, (row, (head, tail)) in enumerate(zip(lines, ends)):
        where = f"lines[{t}]"
        if (_bus_lookup(index_of, row.get("from")),
                _bus_lookup(index_of, row.get("to"))) != (head, tail):
            raise SchemaError(f"{path}: {where}: must run from bus "
                              f"{sys.bus_ids[head]!r} to bus "
                              f"{sys.bus_ids[tail]!r}")
        i_T[2 * t:2 * t + 2] = _pair(row, "i_T", where)

    x0 = lay.pack(theta, np.full(sys.n_g, omega0), i, v, i_T)
    u = lay.pack_input(tau_m, v_f)
    return x0, u, omega0


def trajectory_header(sys):
    cols = ["t"]
    cols += [f"theta_{k + 1}" for k in range(sys.n_g)]
    cols += [f"omega_{k + 1}" for k in range(sys.n_g)]
    for k in range(sys.n_g):
        cols += [f"i_alpha_{k + 1}", f"i_beta_{k + 1}", f"i_f_{k + 1}",
                 f"i_d_{k + 1}", f"i_q_{k + 1}"]
    for k in range(sys.n_v):
        cols += [f"v_alpha_{k + 1}", f"v_beta_{k + 1}"]
    for k in range(sys.n_t):
        cols += [f"iT_alpha_{k + 1}", f"iT_beta_{k + 1}"]
    return ",".join(cols)


def write_trajectory_csv(fh, sys, traj):
    fh.write(trajectory_header(sys) + "\n")
    for t, x in zip(traj.times, traj.states):
        row = [repr(float(t))] + [repr(float(val)) for val in x]
        fh.write(",".join(row) + "\n")


def read_trajectory_csv(path, sys, inputs=None):
    """Load a trajectory CSV, checking the header against the system.

    numpy's text parser reads all samples in one call. Rows it rejects are
    read again as Python floats, which name the first bad file line. A
    number that is not finite is named by its file line and column.
    """
    with _open_input(path) as fh:
        header = fh.readline().rstrip("\n")
        expected = trajectory_header(sys)
        if header != expected:
            raise SchemaError(
                f"{path}: trajectory header does not match the system; "
                f"expected {expected!r}"
            )
        lines = fh.readlines()
    if not any(line.strip() for line in lines):
        raise SchemaError(f"{path}: no samples")
    width = sys.n_x + 1
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != width:
        rows = []
        for n, line in enumerate(lines, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise SchemaError(f"{path}: line {n}: expected "
                                  f"{width} columns, got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as err:
                raise SchemaError(f"{path}: line {n}: {err}") from err
        data = np.array(rows)
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        n = [n for n, line in enumerate(lines, start=2) if line.strip()][row]
        raise SchemaError(f"{path}: line {n}: {expected.split(',')[col]} is "
                          f"not finite ({data[row, col]})")
    u = np.zeros(sys.layout.n_u) if inputs is None else np.asarray(inputs)
    return Trajectory(times=data[:, 0], states=data[:, 1:], inputs=u)
