"""Seeded synthetic system files for the benchmark.

A mesh is a ring of buses plus random chords, with machines spread evenly
around the ring and shunt loads on the other buses. Cases are written as
system-file JSON, so the library and the CLI read identical inputs.

Parameter ranges, and why they were chosen:

* Machines copy one of the two fixture machines, with every resistance and
  inductance scaled by one common factor in [0.8, 1.25]. Positive
  definiteness of the winding inductances survives a common positive
  scaling, so every draw is valid and none is ever redrawn. Inertia and
  damping take an independent factor in [0.8, 1.25].
* Lines take resistance in [0.3, 0.5] ohm and inductance in [2.5, 3.5] mH,
  the fixture's range. Bus capacitances lie in [0.2, 2] mF, which spans the
  fixture's load bus and machine buses.
* Loads cycle through the impedance, constant-current and constant-power
  kinds. Their strength is fixed relative to the voltage level V: g in
  [3, 8] mS and b in [1, 3] mS around the fixture's load, c = (g, b) V and
  (P, Q) = (g, b) V^2. The operating point at level V is then exactly the
  V = 1 point scaled by V, so the level changes only the magnitudes the
  certificate sees, not the Newton path.
* Generator magnitudes lie within 2% of V and angles within +-2 degrees: a
  light load flow on which Newton converges in a few iterations.

No case is redrawn or resized after it fails to solve or certify; such a
case counts against the benchmark's fail_ratio.
"""

import copy
import json

import numpy as np

MACHINE_KEYS = ("inertia", "damping", "r_s", "r_f", "r_d", "r_q", "l_s",
                "l_sa", "l_f", "l_d", "l_q", "l_fd", "l_sf", "l_sd", "l_sq")
MECHANICAL_KEYS = ("inertia", "damping")
MIXED_LOADS = ("impedance", "current", "power")


def _load(kind, g, b, level):
    if kind == "impedance":
        return {"type": "impedance", "params": {"g": g, "b": b}}
    if kind == "current":
        return {"type": "current",
                "params": {"c_g": g * level, "c_b": b * level}}
    return {"type": "power", "params": {"P": g * level**2, "Q": b * level**2}}


def mesh_document(fixture, seed, n_bus, level, n_machines=None,
                  load_every_free_bus=False, kinds=MIXED_LOADS):
    """System-file document of one ring-plus-chords mesh.

    ``fixture`` is the parsed fixture document, whose machines are the
    templates. ``seed`` fixes every random draw, so the same seed at two
    levels gives the same mesh at two voltage scales. By default about one
    bus in six has a machine and every other bus a load;
    ``load_every_free_bus`` puts a load on every bus without a machine.
    """
    rng = np.random.default_rng(seed)
    n_g = n_machines or max(1, round(n_bus / 6))
    gen_buses = [round(k * n_bus / n_g) for k in range(n_g)]
    ids = [f"n{k}" for k in range(n_bus)]

    buses, n_loads = [], 0
    for k in range(n_bus):
        bus = {"id": ids[k], "capacitance": float(rng.uniform(2e-4, 2e-3))}
        wants_load = load_every_free_bus or k % 2 == 1
        if wants_load and k not in gen_buses:
            bus["load"] = _load(kinds[n_loads % len(kinds)],
                                float(rng.uniform(3e-3, 8e-3)),
                                float(rng.uniform(1e-3, 3e-3)), level)
            n_loads += 1
        buses.append(bus)

    pairs = [(k, (k + 1) % n_bus) for k in range(n_bus)]
    taken = {frozenset(p) for p in pairs}
    while len(pairs) < n_bus + n_bus // 4:
        a, b = (int(x) for x in rng.choice(n_bus, size=2, replace=False))
        if frozenset((a, b)) not in taken:
            taken.add(frozenset((a, b)))
            pairs.append((a, b))
    lines = [{"from": ids[a], "to": ids[b],
              "resistance": float(rng.uniform(0.3, 0.5)),
              "inductance": float(rng.uniform(2.5e-3, 3.5e-3))}
             for a, b in pairs]

    machines = []
    for k in gen_buses:
        template = fixture["machines"][int(rng.integers(2))]
        electrical = float(rng.uniform(0.8, 1.25))
        mechanical = float(rng.uniform(0.8, 1.25))
        machine = {"bus": ids[k]}
        for key in MACHINE_KEYS:
            machine[key] = template[key] * (
                mechanical if key in MECHANICAL_KEYS else electrical)
        machines.append(machine)

    gen_volts = [{"bus": ids[k],
                  "magnitude": level * float(rng.uniform(0.98, 1.02)),
                  "angle_deg": float(rng.uniform(-2.0, 2.0))}
                 for k in gen_buses]
    return {"omega0": fixture["omega0"], "buses": buses, "lines": lines,
            "machines": machines,
            "operating_point": {"generator_voltages": gen_volts,
                                "polarization": [1] * n_g}}


def with_polarization(doc, sigma):
    """Copy of a system document with the rotor polarizations replaced."""
    out = copy.deepcopy(doc)
    out["operating_point"]["polarization"] = [int(s) for s in sigma]
    return out


def impedance_only(doc):
    return all(bus["load"]["type"] == "impedance"
               for bus in doc["buses"] if "load" in bus)


def read_document(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_document(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
