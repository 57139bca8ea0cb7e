"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (visible with `pytest -s tests/test_acceptance.py`).

Criterion 8 (metastable switching on a 20,000/gamma horizon) carries the
`slow` marker and is excluded from the default tier; run it with `-m slow`.
"""

import numpy as np
import pytest

from conftest import down_state, full_wfmc_ensemble, random_product_state, run_ensemble, z2_flip
from gwmc.cli import RunConfig, SweepConfig, run_sweep
from gwmc.dynamics import (
    ModelParams,
    RngStream,
    StepConfig,
    TrajectoryConfig,
    advance,
    deterministic_step,
    run_trajectory,
)
from gwmc.lattice import build_lattice
from gwmc.observables import (
    Accumulator,
    correlation_profile,
    instantaneous_structure_factor,
    magnetization,
    mf_structure_factor,
    mf_transition_point,
    structure_factor,
)
from gwmc.oracle import DenseLindblad, product_density
from gwmc.state import bloch_vectors, plus_x_state

P_FERRO = ModelParams(jx=0.9, jy=1.2, jz=1.0)


def _report(number, description, ok, detail=""):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description} {detail}".rstrip())
    assert ok, f"criterion {number} ({description}) {detail}"


def test_criterion_1_single_spin_analytic_decay():
    geometry = build_lattice(1, 1)
    p = ModelParams(0.0, 0.0, 0.0, gamma=1.0)
    traj = TrajectoryConfig(t_total=5.0, sample_interval=0.5, seed=101)
    m = 4000
    times, blochs = run_ensemble(geometry, p, traj, StepConfig(), n_traj=m)
    worst = 0.0
    ok = True
    for k, t in enumerate(times):
        sx = blochs[k, :, 0, 0]
        sz = blochs[k, :, 0, 2]
        for vals, target in ((sz, -1.0 + np.exp(-t)), (sx, np.exp(-t / 2.0))):
            se = vals.std(ddof=1) / np.sqrt(m)
            dev = abs(vals.mean() - target)
            ok &= dev <= 3.0 * se + 1e-12
            worst = max(worst, dev / max(se, 1e-300))
    _report(1, "single-spin analytic decay (M=4000, t<=5)", ok, f"max |dev|/SE = {worst:.2f}")


def test_criterion_2_unraveling_exactness():
    geometry = build_lattice(2, 1)
    m = 4000
    traj = TrajectoryConfig(t_total=10.0, sample_interval=1.0, seed=202)
    times, blochs, pairs = full_wfmc_ensemble(geometry, P_FERRO, traj, StepConfig(), n_traj=m)
    system = DenseLindblad(geometry, P_FERRO)
    rho = product_density(plus_x_state(2))
    prev = 0.0
    worst = 0.0
    ok = True
    for t_chk in (1.0, 2.0, 5.0, 10.0):
        rho = system.integrate(rho, t_chk - prev)
        prev = t_chk
        idx = int(np.argmin(np.abs(times - t_chk)))
        for vals, exact in (
            (blochs[idx, :, 0, 0], system.site_bloch(rho)[0, 0]),
            (pairs[idx, :, 0, 1], system.pair_xx(rho)[0, 1]),
        ):
            se = vals.std(ddof=1) / np.sqrt(m)
            dev = abs(vals.mean() - exact)
            ok &= dev <= 3.0 * se + 1e-12
            worst = max(worst, dev / max(se, 1e-300))
    _report(2, "unraveling exactness on 2 sites vs dense master equation", ok,
            f"max |dev|/SE = {worst:.2f}")


def test_criterion_3_xxz_dark_state():
    geometry = build_lattice(4, 4)
    p = ModelParams(0.9, 0.9, 1.0)
    res = run_trajectory(geometry, p, TrajectoryConfig(t_total=200.0, seed=3))
    final = res.samples[-1].bloch
    ok = (
        res.trapped_at is not None
        and res.trapped_at < 200.0
        and np.abs(final[:, :2]).max() < 1e-12
    )
    _report(3, "XXZ trajectory reaches the trapped all-down state", ok,
            f"trapped_at = {res.trapped_at}")


def test_criterion_4_mean_field_transition():
    transition = mf_transition_point(0.9, 1.0)
    value = mf_structure_factor(P_FERRO)
    # independent evaluation of the closed form: q = sqrt(50)
    q = np.sqrt(50.0)
    derived = 0.125 * (q / 16.0 - 1.0) * q * 0.2 / (0.9 - 1.2)
    ok = (
        transition == pytest.approx(1.0390625, abs=1e-12)
        and round(transition, 2) == 1.04
        and abs(value - derived) <= 1e-5
    )
    _report(4, "mean-field transition point and ferromagnetic value", ok,
            f"Jy* = {transition}, S(1.2) = {value:.6f}")


def _ferro_run(initial_state):
    geometry = build_lattice(6, 6)
    traj = TrajectoryConfig(t_total=2000.0, burn_in=200.0, seed=1, initial_state=initial_state)
    res = run_trajectory(geometry, P_FERRO, traj)
    est = structure_factor(res.samples)
    mx = np.array([magnetization(s.bloch)[0] for s in res.samples if not s.burn_in])
    return est, mx


def test_criterion_5_ferromagnetic_phase_desk_scale():
    est, mx = _ferro_run("plus_x")
    sign_flips = int((np.sign(mx[1:]) != np.sign(mx[:-1])).sum())
    est_m, mx_m = _ferro_run("minus_x")
    mirrored = np.array_equal(mx_m, -mx) and est_m.value == est.value
    ok = (
        est.value > 0.1
        and est.standard_error < 0.05
        and sign_flips == 0
        and mx.min() > 0
        and mirrored
    )
    _report(5, "ferromagnetic phase at Jy = 1.2 on 6x6", ok,
            f"S = {est.value:.3f} +- {est.standard_error:.3f}, sign flips = {sign_flips}, "
            f"mirrored = {mirrored}")


def test_criterion_6_paramagnetic_finite_size_trend():
    estimates = {}
    for size in (4, 6):
        geometry = build_lattice(size, size)
        traj = TrajectoryConfig(t_total=2000.0, burn_in=200.0, seed=1)
        res = run_trajectory(geometry, ModelParams(0.9, 2.5, 1.0), traj)
        estimates[size] = structure_factor(res.samples)
    e4, e6 = estimates[4], estimates[6]
    separation = (e4.value - e6.value) / np.hypot(e4.standard_error, e6.standard_error)
    ok = e6.value < e4.value and separation > 3.0 and e4.value < 0.05 and e6.value < 0.05
    _report(6, "paramagnetic phase at Jy = 2.5 shrinks with lattice size", ok,
            f"S(L=4) = {e4.value:.4f}, S(L=6) = {e6.value:.4f}, separation = {separation:.1f} SE")


def test_criterion_7_antiferromagnetic_remnant():
    geometry = build_lattice(12, 12)
    traj = TrajectoryConfig(t_total=4000.0, burn_in=200.0, seed=1)
    res = run_trajectory(geometry, ModelParams(0.9, 1.7, 1.0), traj)
    profile = correlation_profile(res.samples, geometry)
    first_four = profile.mean[:4]  # classes sorted by distance: 1, sqrt2, 2, sqrt5
    monotone = bool(np.all(np.diff(first_four) < 0))
    far_value = profile.mean[-1]
    far_err = profile.stderr[-1]
    negative_far = far_value < -2.0 * far_err
    ok = monotone and negative_far
    _report(7, "Jy = 1.7 correlations decay and turn negative at large distance", ok,
            f"first four = {np.round(first_four, 3).tolist()}, "
            f"far = {far_value:.4f} +- {far_err:.4f}")


@pytest.mark.slow
def test_criterion_8_metastable_switching():
    geometry = build_lattice(6, 6)
    traj = TrajectoryConfig(t_total=20000.0, burn_in=0.0, seed=2)
    res = run_trajectory(geometry, ModelParams(0.9, 1.8, 1.0), traj)
    mx_abs = np.abs([magnetization(s.bloch)[0] for s in res.samples])
    bands = []
    for value in mx_abs:
        band = "F" if value > 0.3 else ("P" if value < 0.1 else None)
        if band and (not bands or bands[-1] != band):
            bands.append(band)
    visits_f = bands.count("F")
    visits_p = bands.count("P")
    ok = visits_f >= 2 and visits_p >= 2
    _report(8, "metastable switching at Jy = 1.8 over 20000/gamma", ok,
            f"ferro visits = {visits_f}, para visits = {visits_p}")


def test_criterion_9_property_suites(rng):
    failures = []

    # Z2 step equivariance, dark stationarity, norm preservation: 100 cases
    geometry = build_lattice(3, 3)
    step = StepConfig()
    for case in range(100):
        p = ModelParams(*rng.uniform(-2, 2, size=3), gamma=float(rng.uniform(0.2, 2.0)))
        amps = random_product_state(rng, 9)
        seed = int(rng.integers(2**32))
        out_a, ev_a = advance(amps, geometry, p, step, RngStream(seed).generator())
        out_b, ev_b = advance(z2_flip(amps), geometry, p, step, RngStream(seed).generator())
        ba, bb = bloch_vectors(out_a), bloch_vectors(out_b)
        if not (
            np.array_equal(ev_a, ev_b)
            and np.array_equal(bb[:, 0], -ba[:, 0])
            and np.array_equal(bb[:, 1], -ba[:, 1])
            and np.array_equal(bb[:, 2], ba[:, 2])
        ):
            failures.append(f"z2 equivariance case {case}")
        dark = deterministic_step(down_state(9), geometry, p, step.dt)
        if np.abs(bloch_vectors(dark) - np.array([0.0, 0.0, -1.0])).max() > 1e-10:
            failures.append(f"dark stationarity case {case}")
        norm2 = np.abs(out_a[:, 0]) ** 2 + np.abs(out_a[:, 1]) ** 2
        if np.abs(norm2 - 1.0).max() > 1e-10:
            failures.append(f"norm preservation case {case}")

    # estimator pair-sum / Fourier identity: 100 cases
    g54 = build_lattice(5, 4)
    coords = g54.site_coords()
    for case in range(100):
        sx = rng.uniform(-1, 1, size=20)
        k = tuple(rng.uniform(-np.pi, np.pi, size=2))
        phases = np.exp(-1j * (coords @ np.array(k)))
        outer = np.outer(phases * sx, np.conj(phases) * sx)
        brute = (outer.sum() - np.trace(outer)).real / (20 * 19)
        if abs(instantaneous_structure_factor(sx, k, coords) - brute) > 1e-10:
            failures.append(f"estimator identity case {case}")

    # accumulator merge associativity/commutativity: 100 random splits
    for case in range(100):
        values = rng.normal(size=int(rng.integers(9, 120)))
        i, j = sorted(rng.integers(1, len(values) - 1, size=2))
        if i == j:
            j += 1
        accs = []
        for part in (values[:i], values[i:j], values[j:]):
            acc = Accumulator()
            for v in part:
                acc.add("x", v)
            accs.append(acc)
        left = accs[0].combine(accs[1]).combine(accs[2])
        right = accs[0].combine(accs[1].combine(accs[2]))
        swapped = accs[1].combine(accs[0])
        whole = Accumulator()
        for v in values:
            whole.add("x", v)
        if not (
            abs(left.mean("x") - right.mean("x")) < 1e-13
            and abs(left.mean("x") - whole.mean("x")) < 1e-12
            and swapped.mean("x") == accs[0].combine(accs[1]).mean("x")
        ):
            failures.append(f"accumulator case {case}")

    # determinism: identical configs give identical sample streams
    traj = TrajectoryConfig(t_total=20.0, seed=55)
    run_a = run_trajectory(geometry, P_FERRO, traj)
    run_b = run_trajectory(geometry, P_FERRO, traj)
    if not all(
        np.array_equal(sa.bloch, sb.bloch) and sa.time == sb.time
        for sa, sb in zip(run_a.samples, run_b.samples)
    ):
        failures.append("determinism")

    # worker-count invariance of the sweep aggregation
    rows = {}
    for workers in (1, 2):
        sweep = SweepConfig(
            base=RunConfig(width=3, height=3, t_total=30.0, burn_in=10.0, seed=4, workers=workers),
            values=(1.2, 1.8),
            trajectories=2,
        )
        rows[workers] = run_sweep(sweep)
    if rows[1] != rows[2]:
        failures.append("worker-count invariance")

    _report(9, "property suites (100 randomized cases each)", not failures,
            f"failures: {failures}" if failures else "all suites green")
