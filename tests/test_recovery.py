"""The array machine recovery against the scalar oracle in ``oracles``.

Each quantity is compared relative to the size of the terms it is computed
from, so a quantity that cancels to almost nothing (the excitation demand of
a degenerate machine, the excitation current at equal ellipse radii) is held
to rounding of those terms, not to its own size.
"""

import logging
from dataclasses import replace

import numpy as np
import pytest

from gridstate.errors import InfeasibleSteadyStateError
from gridstate.frame import ROT90
from gridstate.identities import random_valid_params
from gridstate.network import Network
from gridstate.steady_state import (NetworkSolution, OperatingSpec,
                                    recover_all, recovery_parts)
from gridstate.system import assemble

import oracles
from oracles import machine_row, recover_one, rot, rvec

REL = 1e-14


def chain_system(machines):
    """One machine per bus on a chain of lines; recovery reads only the
    machines, the network just has to validate."""
    n = len(machines)
    net = Network(heads=np.arange(n - 1), tails=np.arange(1, n),
                  c=np.full(n, 1e-3), r_T=np.full(n - 1, 0.5),
                  l_T=np.full(n - 1, 1e-2))
    return assemble(machines, list(range(n)), net)


def recover_stack(machines, v, i_s, omega0, sigma):
    """recover_all on terminal pairs handed in directly, not solved for."""
    n = len(machines)
    spec = OperatingSpec(omega0=omega0, gen_voltage_mag=np.ones(n),
                         gen_voltage_angle=np.zeros(n),
                         sigma=np.asarray(sigma))
    net = NetworkSolution(i_s=np.ravel(i_s), v=np.ravel(v),
                          i_T=np.zeros(2 * (n - 1)), iterations=0,
                          residual_history=[])
    return recover_all(chain_system(machines), spec, net)


def assert_matches_oracle(rec, p, v, i_s, omega0, sigma, angle_defined=True,
                          residuals_in_volts=False):
    ref = oracles.recover_machine(p, v, i_s, omega0, sigma)
    i_mag = float(np.linalg.norm(i_s))
    volts = max(1.0, float(np.linalg.norm(v)), p.r_s * i_mag,
                abs(omega0) * (p.l_s + p.l_sa) * i_mag)
    amps = volts / (abs(omega0) * p.l_sf) if omega0 else 1.0
    torque = max(1.0, abs(p.d * omega0), (p.l_s + p.l_sa) * i_mag ** 2,
                 p.l_sf * amps * i_mag)
    assert rec.case == ref.case
    assert rec.sigma == ref.sigma
    if angle_defined:
        turn = (rec.theta - ref.theta + np.pi) % (2 * np.pi) - np.pi
        assert abs(turn) <= REL * max(1.0, abs(ref.theta))
    assert abs(rec.i_f - ref.i_f) <= REL * amps
    assert abs(rec.v_f - ref.v_f) <= REL * p.r_f * amps
    assert abs(rec.tau_m - ref.tau_m) <= REL * torque
    assert np.max(np.abs(rec.nu - ref.nu)) <= REL * volts
    # Both residuals are already relative to max(1, |nu|); with a demand
    # far below 1 V they are the rounding of terms of size ``volts``.
    residual_tol = REL * volts if residuals_in_volts else REL
    assert abs(rec.excitation_residual - ref.excitation_residual) \
        <= residual_tol
    assert abs(rec.alignment_residual - ref.alignment_residual) \
        <= residual_tol


def test_recovery_matches_oracle_randomized():
    # 1200 draws, every other one round-rotor, in stacks of 10 sharing a
    # frequency of either sign; each stack is recovered at both
    # polarizations of every machine, and each draw alone (n_g = 1).
    rng = np.random.default_rng(61)
    for stack in range(120):
        omega0 = rng.uniform(10, 400) * (1 if stack % 2 else -1)
        machines = [random_valid_params(rng) for _ in range(10)]
        machines[::2] = [replace(p, l_sa=0.0) for p in machines[::2]]
        v = rng.uniform(-3, 3, (10, 2))
        i_s = rng.uniform(-3, 3, (10, 2))
        sigma = rng.choice((-1, 1), 10)
        for s in (sigma, -sigma):
            recs = recover_stack(machines, v, i_s, omega0, s)
            assert recs.case == ["regular"] * 10
            for k, p in enumerate(machines):
                assert_matches_oracle(machine_row(recs, k), p, v[k], i_s[k],
                                      omega0, int(s[k]))
                assert_matches_oracle(
                    recover_one(p, v[k], i_s[k], omega0, int(s[k])),
                    p, v[k], i_s[k], omega0, int(s[k]))


def degenerate_machine(kind, rng, omega0):
    """Parameters and terminal pairs of one machine of the given case.

    nu_zero: a round rotor whose terminal voltage exactly covers the stator
    drop (as test_recover_nu_zero_flagged builds it); its round part is
    rounding noise and it has no saliency, so every angle balances and the
    reported one is set by rounding. nu_small: the same with 5e-10 |v| of
    demand left, inside the 1e-9 band; its angle is fixed only to that
    demand's relative rounding, about 1e-7. nu_zero_salient: a salient rotor whose
    two parts have equal radii exactly (as test_recover_alpha_equal_flagged
    builds it); the aligned angle is defined and cancels the demand.
    alpha_equal: radii 1.5e-9 apart at small voltages (see
    :func:`equal_radii_machine`).
    """
    p = random_valid_params(rng)
    i_s = rng.uniform(-3, 3, 2)
    drop = (p.r_s * np.eye(2) + omega0 * p.l_s * ROT90) @ i_s
    if kind == "regular":
        return p, rng.uniform(-3, 3, 2), i_s
    if kind == "nu_zero":
        return replace(p, l_sa=0.0), drop, i_s
    if kind == "nu_small":
        nudge = 5e-10 * np.linalg.norm(drop) * rvec(rng.uniform(-np.pi, np.pi))
        return replace(p, l_sa=0.0), drop + nudge, i_s
    if kind == "nu_zero_salient":
        radius = abs(omega0) * p.l_sa * np.linalg.norm(i_s)
        target = radius * rvec(rng.uniform(-np.pi, np.pi))
        return p, drop + ROT90 @ target, i_s
    return equal_radii_machine(p, 1e-4 * i_s, rng, omega0)


def equal_radii_machine(p, i_s, rng, omega0):
    """A machine whose two rotor-frame parts have radii 1.5e-9 apart, inside
    the relative alpha_equal band, with a demand above the degeneracy
    floor; it needs strong saliency, l_sa > l_s / 3, for |v| < |a| + |b|."""
    p = replace(p, l_sa=0.6 * p.l_s)
    drop = (p.r_s * np.eye(2) + omega0 * p.l_s * ROT90) @ i_s
    radius = abs(omega0) * p.l_sa * np.linalg.norm(i_s) * (1 + 1.5e-9)
    # Round part a quarter turn ahead of the drop, so v = drop + J a is short.
    target = radius * (ROT90 @ drop) / np.linalg.norm(drop)
    target = rot(rng.uniform(-0.3, 0.3)) @ target
    return p, drop + ROT90 @ target, i_s


KINDS = ("regular", "nu_zero", "nu_small", "nu_zero_salient", "alpha_equal")
CASE_OF = {"regular": "regular", "nu_zero": "nu_zero", "nu_small": "nu_zero",
           "nu_zero_salient": "nu_zero", "alpha_equal": "alpha_equal"}


def test_mixed_degenerate_stacks_match_oracle(caplog):
    rng = np.random.default_rng(62)
    seen = set()
    for stack in range(40):
        omega0 = rng.uniform(10, 400) * (1 if stack % 2 else -1)
        kinds = [KINDS[k % len(KINDS)] for k in range(10)]
        rng.shuffle(kinds)
        built = [degenerate_machine(kind, rng, omega0) for kind in kinds]
        machines = [p for p, _, _ in built]
        v = np.array([v for _, v, _ in built])
        i_s = np.array([i for _, _, i in built])
        sigma = rng.choice((-1, 1), 10)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="gridstate.steady_state"):
            recs = recover_stack(machines, v, i_s, omega0, sigma)
        assert recs.case == [CASE_OF[kind] for kind in kinds]
        seen.update(recs.case)
        for k, kind in enumerate(kinds):
            assert_matches_oracle(machine_row(recs, k), machines[k], v[k],
                                  i_s[k], omega0, int(sigma[k]),
                                  angle_defined=kind not in ("nu_zero",
                                                             "nu_small"))
        warned = [r.getMessage() for r in caplog.records
                  if r.name == "gridstate.steady_state"]
        degenerate = [k + 1 for k, kind in enumerate(kinds)
                      if CASE_OF[kind] == "nu_zero"]
        assert warned == [f"machine {k}: recovery hit degenerate case "
                          "'nu_zero'; this does not define a sensible "
                          "operating point" for k in degenerate]
    assert seen == {"regular", "nu_zero", "alpha_equal"}


def test_alpha_equal_at_unit_scale_recovers(caplog):
    # Unit-scale currents put |v| near 80 V, where an angle exact only at
    # equal radii left alignment residuals far above the recovery
    # tolerance; the regular angle balances inside the band as well.
    rng = np.random.default_rng(66)
    for stack in range(30):
        omega0 = rng.uniform(10, 400) * (1 if stack % 2 else -1)
        built = [equal_radii_machine(random_valid_params(rng),
                                     rng.uniform(-3, 3, 2), rng, omega0)
                 for _ in range(10)]
        machines = [p for p, _, _ in built]
        v = np.array([v for _, v, _ in built])
        i_s = np.array([i for _, _, i in built])
        sigma = rng.choice((-1, 1), 10)
        with caplog.at_level(logging.WARNING, logger="gridstate.steady_state"):
            recs = recover_stack(machines, v, i_s, omega0, sigma)
        assert not caplog.records
        assert recs.case == ["alpha_equal"] * 10
        for k, p in enumerate(machines):
            assert_matches_oracle(machine_row(recs, k), p, v[k], i_s[k],
                                  omega0, int(sigma[k]),
                                  residuals_in_volts=True)


def test_zero_frequency_stack_matches_oracle(caplog):
    rng = np.random.default_rng(63)
    machines = [random_valid_params(rng) for _ in range(5)]
    i_s = rng.uniform(-3, 3, (5, 2))
    # Below 1 V the feasibility gauge is 1, not |v|: machine 1 is left
    # 5e-10 V of net stator voltage, inside 1e-9 * max(1, |v|).
    i_s[0] *= 1e-2
    v = np.array([p.r_s * i for p, i in zip(machines, i_s)])
    v[0, 0] += 5e-10
    sigma = rng.choice((-1, 1), 5)
    with caplog.at_level(logging.WARNING, logger="gridstate.steady_state"):
        recs = recover_stack(machines, v, i_s, 0.0, sigma)
    assert recs.case == ["omega_zero"] * 5
    for k, p in enumerate(machines):
        assert_matches_oracle(machine_row(recs, k), p, v[k], i_s[k], 0.0,
                              int(sigma[k]))
    assert [r.getMessage().split(":")[0] for r in caplog.records
            if r.name == "gridstate.steady_state"] == \
        [f"machine {k}" for k in range(1, 6)]


def test_infeasible_zero_frequency_names_first_machine():
    rng = np.random.default_rng(64)
    machines = [random_valid_params(rng) for _ in range(4)]
    i_s = rng.uniform(-3, 3, (4, 2))
    v = np.array([p.r_s * i for p, i in zip(machines, i_s)])
    v[2] += 0.5
    v[3] += 0.5
    with pytest.raises(InfeasibleSteadyStateError,
                       match=r"^machine 3: no steady state at zero frequency"):
        recover_stack(machines, v, i_s, 0.0, np.ones(4, dtype=int))


def test_bad_polarization_names_machine():
    rng = np.random.default_rng(65)
    machines = [random_valid_params(rng) for _ in range(3)]
    with pytest.raises(ValueError,
                       match=r"machine 2: sigma must be -1 or \+1"):
        recover_stack(machines, np.ones((3, 2)), np.ones((3, 2)), 50.0,
                      np.array([1, 0, -1]))
    with pytest.raises(ValueError, match="sigma must be -1 or"):
        recover_one(machines[0], [1.0, 0.0], [0.5, 0.0], 50.0, sigma=2)


def test_round_rotor_without_demand_reports_zero_angle():
    # With no saliency (b = 0) and no demand left every angle balances, so
    # the angle rounding would pick is replaced by 0; salient machines
    # keep the aligned angle that cancels their demand.
    rng = np.random.default_rng(67)
    for k in range(200):
        omega0 = rng.uniform(10, 400) * (1 if k % 2 else -1)
        sigma = int(rng.choice((-1, 1)))
        for kind in ("nu_zero", "nu_small"):
            p, v, i_s = degenerate_machine(kind, rng, omega0)
            rec = recover_one(p, v, i_s, omega0, sigma)
            assert rec.case == "nu_zero" and rec.theta == 0.0
        p, v, i_s = degenerate_machine("nu_zero_salient", rng, omega0)
        assert_matches_oracle(recover_one(p, v, i_s, omega0, sigma), p, v,
                              i_s, omega0, sigma)


def test_ellipse_bound_attained_within_samples():
    # The lower bound is tight: over a fine angle grid the squared radius
    # comes close to it.
    rng = np.random.default_rng(9)
    p = random_valid_params(rng)
    v = complex(*rng.uniform(-3, 3, 2))
    i_s = complex(*rng.uniform(-3, 3, 2))
    a, b = recovery_parts(p, v, i_s, 120.0)
    theta = np.linspace(-np.pi, np.pi, 720)
    radii = np.abs(np.exp(-1j * theta) * a + np.exp(1j * theta) * b) ** 2
    bound = (abs(a) - abs(b)) ** 2
    assert min(radii) >= bound - 1e-12
    assert min(radii) <= bound + 0.01 * max(1.0, bound)
