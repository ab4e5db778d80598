"""System, result, and trajectory file formats.

System files are JSON; angles appear in degrees there (human convention)
and are converted to radians on load. Result documents are JSON with full
float precision so they re-load losslessly. Trajectories are CSV, one
column per state entry in state-vector order.
"""

import json
import math

import numpy as np

from .errors import SchemaError, ValidationError
from .frame import wrap_angle
from .loads import Load
from .machine import MachineParams
from .network import NetworkParams, Topology
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


def _objects(doc, key, where):
    """The list under ``key``, checked to hold only JSON objects."""
    items = _require(doc, key, list, where)
    path = key if where == "top level" else f"{where}.{key}"
    for n, item in enumerate(items):
        if not isinstance(item, dict):
            raise SchemaError(f"{path}[{n}]: must be an object")
    return items


def _bus_index(index_of, bid, where):
    if isinstance(bid, (list, dict)) or bid not in index_of:
        raise SchemaError(f"{where}: unknown bus id {bid!r}")
    return index_of[bid]


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

    bus_ids, caps, loads = [], [], []
    for n, bus in enumerate(buses):
        where = f"buses[{n}]"
        bid = bus.get("id")
        if bid is None:
            raise SchemaError(f"{where}: missing required key 'id'")
        if isinstance(bid, (list, dict)):
            raise SchemaError(f"{where}: key 'id' must be a string or number")
        if bid in bus_ids:
            raise SchemaError(f"{where}: duplicate bus id {bid!r}")
        bus_ids.append(bid)
        caps.append(_require(bus, "capacitance", float, where))
        loads.append(_build_load(_require(bus, "load", dict, where),
                                 f"{where}.load")
                     if "load" in bus else Load.none())
    index_of = {bid: k for k, bid in enumerate(bus_ids)}

    incidence = np.zeros((len(bus_ids), len(lines)))
    r_T, l_T = [], []
    for n, line in enumerate(lines):
        where = f"lines[{n}]"
        a = _bus_index(index_of, line.get("from"), where)
        b = _bus_index(index_of, line.get("to"), where)
        if a == b:
            raise SchemaError(f"{where}: line endpoints must differ")
        incidence[a, n], incidence[b, n] = 1.0, -1.0
        r_T.append(_require(line, "resistance", float, where))
        l_T.append(_require(line, "inductance", float, where))

    machines, machine_buses = [], []
    for n, m in enumerate(machines_doc):
        where = f"machines[{n}]"
        machine_buses.append(_bus_index(index_of, m.get("bus"), where))
        vals = [_require(m, key, float, where) for key in MACHINE_KEYS]
        machines.append(MachineParams(*vals))

    network = NetworkParams(c=np.array(caps), l_T=np.array(l_T),
                            r_T=np.array(r_T))
    sys_ = assemble(machines, machine_buses, Topology(incidence), network,
                    loads=loads, bus_ids=bus_ids)

    gen_volts = _objects(op, "generator_voltages", "operating_point")
    mag, ang = np.empty((2, len(machines)))
    covered = set()
    for n, gv in enumerate(gen_volts):
        where = f"operating_point.generator_voltages[{n}]"
        bid = gv.get("bus")
        if _bus_index(index_of, bid, where) not in machine_buses:
            raise SchemaError(f"{where}: bus {bid!r} carries no machine")
        k = machine_buses.index(index_of[bid])
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


def load_system_file(path):
    """Parse and validate a system file; returns (system, operating spec)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: JSON syntax error: {err}") from err
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return system_from_dict(doc)


def result_document(sys, ss, report):
    """Serializable steady-state result; numbers keep full precision."""
    lay = sys.layout
    theta, omega, i_flat, v, i_T = lay.split(ss.x)
    i = i_flat.reshape(sys.n_g, 5)
    machines = []
    for k, rec in enumerate(ss.recoveries):
        machines.append({
            "bus": sys.bus_ids[k],
            "theta": float(wrap_angle(rec.theta)),  # unwrapped internally
            "i_s": [float(i[k, 0]), float(i[k, 1])],
            "i_f": rec.i_f,
            "i_d": rec.i_d,
            "i_q": rec.i_q,
            "tau_m": rec.tau_m,
            "v_f": rec.v_f,
            "sigma": rec.sigma,
            "case": rec.case,
            "nu": [float(rec.nu[0]), float(rec.nu[1])],
        })
    # Report buses and lines in the user's input order.
    bus_rows = [None] * sys.n_v
    for k in range(sys.n_v):
        bus_rows[sys.input_position[k]] = {
            "id": sys.bus_ids[k],
            "v": [float(v[2 * k]), float(v[2 * k + 1])],
        }
    line_rows = []
    for t in range(sys.n_t):
        col = sys.topology.incidence[:, t]
        frm = int(np.where(col == 1)[0][0])
        to = int(np.where(col == -1)[0][0])
        line_rows.append({
            "from": sys.bus_ids[frm],
            "to": sys.bus_ids[to],
            "i_T": [float(i_T[2 * t]), float(i_T[2 * t + 1])],
        })
    return {
        "omega0": ss.omega0,
        "machines": machines,
        "buses": bus_rows,
        "lines": line_rows,
        "diagnostics": report.as_dict(),
    }


def write_result_file(fh, sys, ss, report):
    json.dump(result_document(sys, ss, report), fh, indent=2)
    fh.write("\n")


def load_result_file(path, sys):
    """Rebuild (x0, u, omega0) from a result document against a system."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise SchemaError(f"{path}: JSON syntax error: {err}") from err
    for key in ("omega0", "machines", "buses", "lines"):
        if key not in doc:
            raise SchemaError(f"{path}: missing key {key!r}")
    if len(doc["machines"]) != sys.n_g or len(doc["buses"]) != sys.n_v \
            or len(doc["lines"]) != sys.n_t:
        raise SchemaError(f"{path}: result sizes do not match the system")

    omega0 = float(doc["omega0"])
    lay = sys.layout
    i = np.zeros((sys.n_g, 5))
    theta = np.zeros(sys.n_g)
    tau_m = np.zeros(sys.n_g)
    v_f = np.zeros(sys.n_g)
    for k, m in enumerate(doc["machines"]):
        if m.get("bus") != sys.bus_ids[k]:
            raise SchemaError(f"{path}: machine {k + 1} bus id mismatch")
        theta[k] = float(m["theta"])
        i[k, :2] = m["i_s"]
        i[k, 2], i[k, 3], i[k, 4] = m["i_f"], m["i_d"], m["i_q"]
        tau_m[k], v_f[k] = float(m["tau_m"]), float(m["v_f"])

    v = np.zeros(2 * sys.n_v)
    by_id = {row["id"]: row for row in doc["buses"]}
    for k in range(sys.n_v):
        row = by_id.get(sys.bus_ids[k])
        if row is None:
            raise SchemaError(f"{path}: missing bus {sys.bus_ids[k]!r}")
        v[2 * k:2 * k + 2] = row["v"]
    i_T = np.zeros(2 * sys.n_t)
    for t, row in enumerate(doc["lines"]):
        i_T[2 * t:2 * t + 2] = row["i_T"]

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
    read again as Python floats, which name the first bad file line.
    """
    with open(path, "r", encoding="utf-8") as fh:
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
    u = np.zeros(sys.layout.n_u) if inputs is None else np.asarray(inputs)
    return Trajectory(times=data[:, 0], states=data[:, 1:], inputs=u)
