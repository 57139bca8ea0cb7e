from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import full_wfmc_ensemble, full_wfmc_trajectory, random_product_state, site_operator
from gwmc.cli import main
from gwmc.errors import ConfigError, NumericsError
from gwmc.dynamics import (ModelParams, RngStream, SamplePath, StepConfig, TrajectoryConfig, TrajectoryStream,
                           run_trajectory)
from gwmc import dynamics, oracle
from gwmc.lattice import bonds, build_lattice
from gwmc.oracle import (
    DenseLindblad,
    FullWfmc,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    product_density,
    build_hamiltonian,
    oracle_report,
    pair_xx_expectations,
    pauli_expectations,
    product_state_vector,
    single_spin_analytic,
    structure_factor_from_pairs,
)
from gwmc.observables import Sample, StructureFactorEstimate, structure_factor
from gwmc.state import bloch_vectors, plus_x_state

P_FERRO = ModelParams(0.9, 1.2, 1.0)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# -- reference loops ----------------------------------------------------------
# One step-and-sample loop per oracle engine, each with its own cadence
# arithmetic; the engines on the shared driver (gwmc.dynamics.SamplePath)
# must match them bit for bit. They advance with the engine's own stepping
# (FullWfmc._drift, DenseLindblad.integrate), so they check the cadence; the
# stepping itself is checked against the RK4 stage sum and scipy's expm in
# TestPropagator.
# They start from plus_x, as the cases below do.

def _reference_rk4_combination(f, y, dt):
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_full_step(engine, psi, step, rng):
    probs = (engine.p.gamma * step.dt) * ((psi.real**2 + psi.imag**2) @ engine.up.T.astype(float))
    jumped = rng.random(size=probs.shape) < probs
    n_jumps = int(jumped.sum())
    if n_jumps:
        psi = psi.copy()
        for site in range(engine.n):
            rows = jumped[..., site]
            if rows.any():
                if psi.ndim == 1:
                    psi = engine.apply_jump(psi, site)
                else:
                    psi[rows] = engine.apply_jump(psi[rows], site)
    return engine._renorm(engine._drift(psi, step.dt)), n_jumps


def reference_full_wfmc_trajectory(geometry, p, traj, step, stream=0):
    engine = FullWfmc(geometry, p)
    rng = RngStream(traj.seed, stream).generator()
    psi = product_state_vector(plus_x_state(geometry.n_sites))
    n_steps = int(round(traj.t_total / step.dt))
    spp = max(1, int(round(traj.sample_interval / step.dt)))

    def make_sample(t, jumps):
        bloch = pauli_expectations(psi, engine.n)
        sxx = float(structure_factor_from_pairs(pair_xx_expectations(psi, engine.n))) if engine.n > 1 else 0.0
        return Sample(t, bloch, burn_in=t < traj.burn_in, jumps_in_interval=jumps, sxx_inst=sxx)

    samples = [make_sample(0.0, 0)]
    total = 0
    since = 0
    for n in range(1, n_steps + 1):
        psi, jumps = _reference_full_step(engine, psi, step, rng)
        total += jumps
        since += jumps
        if n % spp == 0:
            samples.append(make_sample(n * step.dt, since))
            since = 0
    return samples, total


class _StepwiseRows:
    """One Philox stream per row, drawn step by step with no read-ahead."""

    def __init__(self, seed, streams):
        self.generators = [RngStream(seed, s).generator() for s in streams]

    def random(self, size):
        return np.stack([gen.random(size[-1]) for gen in self.generators])


def reference_full_wfmc_ensemble(geometry, p, traj, step, n_traj, stream=0):
    engine = FullWfmc(geometry, p)
    rng = _StepwiseRows(traj.seed, range(stream, stream + n_traj))
    psi0 = product_state_vector(plus_x_state(geometry.n_sites))
    psi = np.broadcast_to(psi0, (n_traj,) + psi0.shape).copy()
    n_steps = int(round(traj.t_total / step.dt))
    spp = max(1, int(round(traj.sample_interval / step.dt)))
    times = [0.0]
    blochs = [pauli_expectations(psi, engine.n)]
    pairs = [pair_xx_expectations(psi, engine.n)]
    for n in range(1, n_steps + 1):
        psi, _ = _reference_full_step(engine, psi, step, rng)
        if n % spp == 0:
            times.append(n * step.dt)
            blochs.append(pauli_expectations(psi, engine.n))
            pairs.append(pair_xx_expectations(psi, engine.n))
    return np.asarray(times), np.asarray(blochs), np.asarray(pairs)


def reference_dense_samples(system, traj, step):
    def sample(rho, t):
        sxx = float(structure_factor_from_pairs(system.pair_xx(rho))) if system.n > 1 else 0.0
        return Sample(t, system.site_bloch(rho), burn_in=t < traj.burn_in, sxx_inst=sxx)

    rho = product_density(plus_x_state(system.n))
    n_steps = int(round(traj.t_total / step.dt))
    spp = max(1, int(round(traj.sample_interval / step.dt)))
    samples = [sample(rho, 0.0)]
    for n in range(spp, n_steps + 1, spp):
        rho = system.integrate(rho, spp * step.dt)
        samples.append(sample(rho, n * step.dt))
    return samples


def _assert_samples_bit_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.time, a.burn_in, a.jumps_in_interval) == (b.time, b.burn_in, b.jumps_in_interval)
        assert a.bloch.tobytes() == b.bloch.tobytes()
        assert np.float64(a.sxx_inst).tobytes() == np.float64(b.sxx_inst).tobytes()


class TestOperators:
    def test_site_operator_placement(self):
        op = site_operator(SIGMA_Z, 0, 2)
        assert np.allclose(np.diag(op), [1, 1, -1, -1])
        op = site_operator(SIGMA_Z, 1, 2)
        assert np.allclose(np.diag(op), [1, -1, 1, -1])

    def test_hamiltonian_hermitian_and_real(self):
        g = build_lattice(2, 2)
        h = build_hamiltonian(g, P_FERRO)
        assert np.allclose(h, h.conj().T)
        assert np.abs(h.imag).max() < 1e-14

    def test_hamiltonian_bond_count_2x1(self):
        # the 2x1 pair has a single de-duplicated bond
        g = build_lattice(2, 1)
        h = build_hamiltonian(g, ModelParams(1.0, 0.0, 0.0))
        expected = site_operator(SIGMA_X, 0, 2) @ site_operator(SIGMA_X, 1, 2)
        assert np.allclose(h, expected)

    @pytest.mark.parametrize("width,height", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, 1)])
    @pytest.mark.parametrize("p", [P_FERRO, ModelParams(1.0, 0.0, 0.0), ModelParams(-0.7, 1.3, 0.25, gamma=0.4)])
    def test_hamiltonian_matches_two_embedding_product(self, width, height, p):
        # each bond term, one Kronecker product, has the bits of the product
        # of its two single-site embeddings, signed zeros included
        g = build_lattice(width, height)
        n = g.n_sites
        want = np.zeros((2**n, 2**n), dtype=np.complex128)
        for i, j in bonds(g):
            want += p.jx * site_operator(SIGMA_X, i, n) @ site_operator(SIGMA_X, j, n)
            want += p.jy * site_operator(SIGMA_Y, i, n) @ site_operator(SIGMA_Y, j, n)
            want += p.jz * site_operator(SIGMA_Z, i, n) @ site_operator(SIGMA_Z, j, n)
        assert build_hamiltonian(g, p).tobytes() == want.tobytes()

    def test_dimension_cap(self):
        with pytest.raises(ConfigError):
            build_hamiltonian(build_lattice(4, 3), P_FERRO)

    def test_pauli_expectations_match_product_states(self, rng):
        for _ in range(25):
            amps = random_product_state(rng, 3)
            psi = product_state_vector(amps)
            assert np.allclose(pauli_expectations(psi, 3), bloch_vectors(amps), atol=1e-12)

    def test_pauli_expectations_match_dense_operators(self, rng):
        n = 3
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        got = pauli_expectations(psi, n)
        for i in range(n):
            for a, sigma in enumerate((SIGMA_X, SIGMA_Y, SIGMA_Z)):
                op = site_operator(sigma, i, n)
                assert got[i, a] == pytest.approx((np.conj(psi) @ op @ psi).real, abs=1e-12)

    def test_pair_xx_match_dense_operators(self, rng):
        n = 3
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        xx = pair_xx_expectations(psi, n)
        assert np.allclose(np.diag(xx), 1.0, atol=1e-12)
        for i in range(n):
            for j in range(n):
                op = site_operator(SIGMA_X, i, n) @ site_operator(SIGMA_X, j, n)
                assert xx[i, j] == pytest.approx((np.conj(psi) @ op @ psi).real, abs=1e-12)


def _tables(n):
    """(flip, up, masks): flip[i, b] = b ^ mask_i, up[i, b] = site i of b is up."""
    b = np.arange(2**n)
    masks = np.array([1 << (n - 1 - i) for i in range(n)])
    return b ^ masks[:, None], (b & masks[:, None]) == 0, masks


def _reference_pauli_expectations(psi, n):
    flip, up, _ = _tables(n)
    prob = psi.real**2 + psi.imag**2
    out = np.empty(psi.shape[:-1] + (n, 3))
    for i in range(n):
        cross = np.conj(psi) * psi[..., flip[i]]
        out[..., i, 0] = cross.sum(axis=-1).real
        out[..., i, 1] = (np.where(up[i], -1.0j, 1.0j) * cross).sum(axis=-1).real
        out[..., i, 2] = (np.where(up[i], prob, -prob)).sum(axis=-1)
    return out


def _reference_site_bloch(rho, n):
    flip, up, _ = _tables(n)
    idx = np.arange(2**n)
    out = np.empty((n, 3))
    diag = rho[idx, idx].real
    for i in range(n):
        cross = rho[idx, flip[i]]
        out[i, 0] = cross.sum().real
        out[i, 1] = (np.where(up[i], 1.0j, -1.0j) * cross).sum().real
        out[i, 2] = np.where(up[i], diag, -diag).sum()
    return out


def _reference_pair_xx(rho, n):
    _, _, masks = _tables(n)
    idx = np.arange(2**n)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = rho[idx, idx ^ masks[i] ^ masks[j]].sum().real
    return out


def _random_mixed_state(rng, n):
    """Three random pure states mixed with Dirichlet weights."""
    psi = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return np.einsum("k,ki,kj->ij", rng.dirichlet(np.ones(3)), psi, np.conj(psi))


_SITES = {1: (1, 1), 2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


class TestBlochRule:
    """Both exact engines read Bloch vectors through oracle._bloch_rule; it
    must keep the bits of the per-site loops each engine had, written above
    as the reference, and agree with traces against embedded operators."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mixed_state_observables_match_operators(self, n, rng):
        system = DenseLindblad(build_lattice(*_SITES[n]), P_FERRO)
        for _ in range(5):
            rho = _random_mixed_state(rng, n)
            bloch, xx = system.site_bloch(rho), system.pair_xx(rho)
            for i in range(n):
                for a, sigma in enumerate((SIGMA_X, SIGMA_Y, SIGMA_Z)):
                    want = np.trace(rho @ site_operator(sigma, i, n)).real
                    assert abs(bloch[i, a] - want) < 1e-12
                for j in range(n):
                    want = np.trace(rho @ site_operator(SIGMA_X, i, n) @ site_operator(SIGMA_X, j, n)).real
                    assert abs(xx[i, j] - want) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("batch", [(), (3,), (400,)])
    def test_pauli_expectations_keep_the_loop_bits(self, n, batch, rng):
        psi = rng.normal(size=batch + (2**n,)) + 1j * rng.normal(size=batch + (2**n,))
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        got = pauli_expectations(psi, n)
        assert got.shape == batch + (n, 3)
        assert got.tobytes() == _reference_pauli_expectations(psi, n).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dense_observables_keep_the_loop_bits(self, n):
        system = DenseLindblad(build_lattice(*_SITES[n]), P_FERRO)
        rho = product_density(plus_x_state(n))
        for _ in range(8):
            rho = system.integrate(rho, 0.5)
            assert system.site_bloch(rho).tobytes() == _reference_site_bloch(rho, n).tobytes()
            xx = system.pair_xx(rho)
            assert xx.shape == (n, n) and xx.tobytes() == _reference_pair_xx(rho, n).tobytes()
            # the exact engines' Sxx reads the matrix in its layout
            want = structure_factor_from_pairs(_reference_pair_xx(rho, n)[None])
            assert structure_factor_from_pairs(xx[None]).tobytes() == want.tobytes()


class TestLindbladRhs:
    def test_up_state_decay_rate(self):
        g = build_lattice(1, 1)
        rho_up = np.diag([1.0, 0.0]).astype(complex)
        rhs = DenseLindblad(g, P_FERRO).rhs(rho_up)
        assert np.trace(SZ @ rhs).real == pytest.approx(-2.0)

    def test_down_state_stationary(self):
        g = build_lattice(1, 1)
        rho_down = np.diag([0.0, 1.0]).astype(complex)
        assert np.abs(DenseLindblad(g, P_FERRO).rhs(rho_down)).max() == 0.0

    def test_trace_preserving(self, rng):
        g = build_lattice(2, 2)
        dim = 16
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert abs(np.trace(DenseLindblad(g, P_FERRO).rhs(rho))) < 1e-12


class TestIntegration:
    def test_single_spin_analytic_decay(self):
        g = build_lattice(1, 1)
        rho = product_density(plus_x_state(1))
        system = DenseLindblad(g, P_FERRO)
        for t in (0.5, 1.0, 2.0):
            rho_t = system.integrate(rho, t)
            assert np.allclose(system.site_bloch(rho_t)[0], single_spin_analytic(t, (1, 0, 0)), atol=1e-8)

    def test_xxz_relaxes_to_all_down(self):
        g = build_lattice(2, 1)
        p = ModelParams(0.9, 0.9, 1.0)
        rho = DenseLindblad(g, p).integrate(product_density(plus_x_state(2)), t=40.0)
        bloch = DenseLindblad(g, p).site_bloch(rho)
        assert np.abs(bloch - np.array([0.0, 0.0, -1.0])).max() < 1e-4
        # pure steady state
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-4)

    def test_unitary_limit_preserves_purity(self):
        g = build_lattice(2, 1)
        p = ModelParams(0.9, 1.2, 1.0, gamma=0.0)
        rho0 = product_density(plus_x_state(2))
        rho = DenseLindblad(g, p).integrate(rho0, t=5.0)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-8)

    def test_density_matrix_invariants_held(self):
        g = build_lattice(2, 2)
        rho = DenseLindblad(g, P_FERRO).integrate(product_density(plus_x_state(4)), t=4.0)
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho)[0] > -1e-8

    @pytest.mark.parametrize("width,height", [(2, 2), (4, 1)])
    def test_unitary_limit_keeps_a_pure_state_positive(self, width, height, rng):
        # at gamma 0, exp(L t) is rho -> U rho U^+, so a pure state's zero
        # eigenvalues stay zero to rounding, far inside the -1e-8 check
        g = build_lattice(width, height)
        system = DenseLindblad(g, ModelParams(0.9, 1.2, 1.0, gamma=0.0))
        rho = product_density(random_product_state(rng, g.n_sites))
        for _ in range(20):
            rho = system.integrate(rho, 1.0)
            assert np.linalg.eigvalsh(rho)[0] > -1e-12

    def test_exact_run_in_the_unitary_limit(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--engine", "exact", "--width", "2", "--height", "2", "--gamma", "0",
                     "--t-total", "2", "--burn-in", "0"]) == 0

    @pytest.mark.parametrize("dt", ["0.01", "0.05"])
    def test_exact_run_matches_single_spin_analytic(self, dt, tmp_path, monkeypatch):
        # the exact engine has no time step: dt sets only its sample grid
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--engine", "exact", "--width", "1", "--height", "1", "--dt", dt,
                     "--t-total", "20", "--burn-in", "0", "--out", "w"]) == 0
        rows = np.loadtxt(tmp_path / "w_series.csv", delimiter=",", skiprows=1)
        assert len(rows) == 21
        assert np.abs(rows[:, 1:4] - single_spin_analytic(rows[:, 0], (1, 0, 0))).max() < 1e-12

    @pytest.mark.parametrize("engine,width,height,refused", [
        pytest.param(DenseLindblad, 3, 2, True, id="exact-3x2"),
        pytest.param(DenseLindblad, 4, 3, True, id="exact-4x3"),
        pytest.param(FullWfmc, 3, 2, False, id="fullwfmc-3x2"),
        pytest.param(FullWfmc, 4, 3, True, id="fullwfmc-4x3"),
    ])
    def test_cap_enforced(self, engine, width, height, refused):
        # the dense superoperator is 4^n x 4^n, so the master equation stops
        # at 5 sites; full-space state vectors go to 10
        if refused:
            with pytest.raises(ConfigError):
                engine(build_lattice(width, height), P_FERRO)
        else:
            assert engine(build_lattice(width, height), P_FERRO).n == width * height


class TestPropagator:
    """The full-space drift steps by RK4's propagator matrix, which must agree
    with the RK4 stage sum it replaces; the master equation steps by its exact
    propagator, which must agree with scipy's expm."""

    @pytest.mark.parametrize("width,height", [(1, 1), (2, 1), (2, 2)])
    def test_integrate_matches_expm(self, width, height):
        # 3.7 is not a whole number of 1.0 check intervals: three whole
        # intervals and one remainder
        g = build_lattice(width, height)
        system = DenseLindblad(g, P_FERRO)
        rho0 = product_density(plus_x_state(g.n_sites))
        got = system.integrate(rho0, 3.7)
        want = (expm(3.7 * system._generator) @ rho0.ravel()).reshape(rho0.shape)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("t", [0.0, -2.0])
    def test_integrate_without_steps_returns_input(self, t):
        system = DenseLindblad(build_lattice(2, 1), P_FERRO)
        rho0 = product_density(plus_x_state(2))
        assert np.array_equal(system.integrate(rho0, t), rho0)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_integrate_refuses_non_finite_horizon(self, t):
        system = DenseLindblad(build_lattice(2, 1), P_FERRO)
        with pytest.raises(ConfigError, match="must be finite"):
            system.integrate(product_density(plus_x_state(2)), t)

    def test_full_drift_matches_rk4_sum(self, rng):
        g = build_lattice(2, 2)
        engine = FullWfmc(g, P_FERRO)
        psi = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)

        def deriv(y):
            return -1j * (y @ engine.h_eff.T)

        got, want = psi, psi
        for _ in range(300):
            got = engine._drift(got, 0.01)
            want = _reference_rk4_combination(deriv, want, 0.01)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("t", [2.5, 0.5])
    def test_corrupted_generator_detected(self, t):
        # an rhs that leaks trace; 0.5 is inside the first check interval, so
        # only the end-of-horizon check point sees it
        class TraceLeak(DenseLindblad):
            def rhs(self, rho):
                return super().rhs(rho) - 1e-3 * rho

        g = build_lattice(2, 1)
        rho0 = product_density(plus_x_state(2))
        DenseLindblad(g, P_FERRO).integrate(rho0, t)
        with pytest.raises(NumericsError, match="trace") as info:
            TraceLeak(g, P_FERRO).integrate(rho0, t)
        assert "dt" not in str(info.value)  # the propagator has no time step to reduce


class TestSingleSpinAnalytic:
    def test_plus_x_at_t2(self):
        out = single_spin_analytic(2.0, (1, 0, 0))
        assert np.allclose(out, [np.exp(-1.0), 0.0, -1.0 + np.exp(-2.0)])

    def test_down_fixed_point(self):
        for t in (0.0, 1.0, 50.0):
            assert np.allclose(single_spin_analytic(t, (0, 0, -1)), [0, 0, -1])

    def test_up_decays_to_down(self):
        assert np.allclose(single_spin_analytic(1e9, (0, 0, 1)), [0, 0, -1])


class TestFullWfmc:
    def test_single_site_matches_manifold_engine(self):
        # with no neighbors the manifold drift is the exact drift; identical
        # streams must give identical trajectories
        g = build_lattice(1, 1)
        traj = TrajectoryConfig(t_total=10.0, seed=42)
        step = StepConfig()
        a = run_trajectory(g, P_FERRO, traj, step)
        b = full_wfmc_trajectory(g, P_FERRO, traj, step)
        assert a.total_jumps == b.total_jumps
        for sa, sb in zip(a.samples, b.samples):
            assert sa.time == sb.time
            assert np.allclose(sa.bloch, sb.bloch, atol=1e-9)
            assert sa.jumps_in_interval == sb.jumps_in_interval

    def test_unitary_limit_no_jumps(self):
        g = build_lattice(2, 1)
        p = ModelParams(0.9, 1.2, 1.0, gamma=0.0)
        res = full_wfmc_trajectory(g, p, TrajectoryConfig(t_total=5.0, seed=3))
        assert res.total_jumps == 0

    def test_jump_operator_collapses_site(self):
        g = build_lattice(2, 1)
        engine = FullWfmc(g, P_FERRO)
        psi = product_state_vector(plus_x_state(2))
        lowered = engine.apply_jump(psi, 0)
        bloch = pauli_expectations(lowered, 2)
        assert np.allclose(bloch[0], [0, 0, -1], atol=1e-12)
        assert np.allclose(bloch[1], [1, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_renormalization_refuses_a_non_finite_row(self, bad):
        # the norm check is state.renormalize's: one row of a batch holding
        # a NaN or an infinite amplitude stops the step
        engine = FullWfmc(build_lattice(2, 1), P_FERRO)
        psi = np.broadcast_to(product_state_vector(plus_x_state(2)), (3, 4)).copy()
        psi[1, 2] = bad
        with pytest.raises(NumericsError):
            engine._renorm(psi)

    def test_ensemble_matches_master_equation(self):
        # compact version of the unraveling-exactness acceptance criterion
        g = build_lattice(2, 1)
        traj = TrajectoryConfig(t_total=3.0, seed=9)
        times, blochs, pairs = full_wfmc_ensemble(g, P_FERRO, traj, StepConfig(), n_traj=1200)
        sys2 = DenseLindblad(g, P_FERRO)
        rho = product_density(plus_x_state(2))
        prev = 0.0
        for t_chk in (1.0, 3.0):
            rho = sys2.integrate(rho, t_chk - prev)
            prev = t_chk
            idx = int(np.argmin(np.abs(times - t_chk)))
            for vals, exact in (
                (blochs[idx, :, 0, 0], sys2.site_bloch(rho)[0, 0]),
                (pairs[idx, :, 0, 1], sys2.pair_xx(rho)[0, 1]),
            ):
                se = vals.std(ddof=1) / np.sqrt(len(vals))
                assert abs(vals.mean() - exact) < 3.5 * se


class _SpyDraws:
    """Stand-in rng: records the size of each draw and returns ones (no
    site jumps), or a zero at the index ``plant`` (that site jumps)."""

    def __init__(self, plant=None):
        self.sizes, self.plant = [], plant

    def random(self, size=None):
        self.sizes.append(size)
        draws = np.ones(size)
        if self.plant is not None:
            draws[self.plant] = 0.0
        return draws


def _unraveled_batch(engine, rows=2):
    """(one-step advance(state, rng), plus_x state of ``rows`` rows, sites)
    of the manifold engine on 3x2 or the full-space engine on 2x2."""
    if engine == "manifold":
        g = build_lattice(3, 2)
        state = np.broadcast_to(plus_x_state(6), (rows, 6, 2)).copy()
        return (lambda a, rng: dynamics.advance(a, g, P_FERRO, StepConfig(), rng)), state, 6
    full = FullWfmc(build_lattice(2, 2), P_FERRO)
    state = np.broadcast_to(product_state_vector(plus_x_state(4)), (rows, 16)).copy()
    return (lambda x, rng: full.advance(x, StepConfig(), rng)), state, 4


class TestUnraveling:
    """Both trajectory engines step by the one rule of dynamics._unravel."""

    @pytest.mark.parametrize("engine", ["manifold", "full-space"])
    def test_one_uniform_per_site_per_step_in_site_order(self, engine):
        # the uniform at (row, site) decides that site of that row, and
        # nothing else is drawn
        advance_once, state, n = _unraveled_batch(engine)
        for row in range(2):
            for site in range(n):
                spy = _SpyDraws(plant=(row, site))
                _, jumped = advance_once(state, spy)
                assert spy.sizes == [(2, n)]
                assert jumped.tolist() == [[row, site]]
        spy = _SpyDraws()
        for _ in range(3):
            state, _ = advance_once(state, spy)
        assert spy.sizes == [(2, n)] * 3

    @pytest.mark.parametrize("engine", ["manifold", "full-space"])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_jump_free_step_returns_the_read_only_empty_view(self, engine, rows):
        advance_once, state, _ = _unraveled_batch(engine, rows)
        if rows == 1:
            state = state[0]  # one state keeps no batch axis
        _, jumped = advance_once(state, _SpyDraws())
        assert jumped.shape == (0, 1 if rows == 1 else 2) and jumped.dtype == np.intp  # (site,) or (row, site)
        assert not jumped.flags.writeable and jumped.base is dynamics._NO_JUMPS


class TestSharedDriver:
    """The oracle engines on gwmc.dynamics.SamplePath against their
    former loops, bit for bit."""

    def test_full_trajectory_matches_reference(self):
        # 2000 steps sampled every 30 leave 20 steps after the last sample;
        # seed 16 jumps in them, so total_jumps must count them
        g = build_lattice(2, 1)
        traj = TrajectoryConfig(t_total=20.0, burn_in=2.0, sample_interval=0.3, seed=16)
        got = full_wfmc_trajectory(g, P_FERRO, traj, StepConfig())
        samples, total = reference_full_wfmc_trajectory(g, P_FERRO, traj, StepConfig())
        _assert_samples_bit_equal(got.samples, samples)
        assert got.total_jumps == total
        assert total > sum(s.jumps_in_interval for s in samples)

    def test_full_ensemble_matches_reference(self):
        g = build_lattice(2, 2)
        traj = TrajectoryConfig(t_total=3.0, sample_interval=0.5, seed=9)
        got = full_wfmc_ensemble(g, P_FERRO, traj, StepConfig(), n_traj=60, stream=2)
        want = reference_full_wfmc_ensemble(g, P_FERRO, traj, StepConfig(), n_traj=60, stream=2)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_full_ensemble_rows_replay_alone(self):
        # row k of an ensemble started at stream 3 is solo trajectory 3 + k,
        # bit for bit, jumps after the last sample included
        g = build_lattice(2, 1)
        traj = TrajectoryConfig(t_total=10.3, sample_interval=1.0, seed=5)
        n, first = 6, 3
        times, blochs, pairs = full_wfmc_ensemble(g, P_FERRO, traj, StepConfig(), n_traj=n, stream=first)
        path = FullWfmc(g, P_FERRO).path(traj, StepConfig(), range(first, first + n))
        jumps = np.array([j for _, _, j in path])
        totals = path.finish()
        for k in range(n):
            solo = full_wfmc_trajectory(g, P_FERRO, traj, StepConfig(), stream=first + k)
            assert [s.time for s in solo.samples] == times.tolist()
            for i, s in enumerate(solo.samples):
                assert s.bloch.tobytes() == blochs[i, k].tobytes()
                assert s.sxx_inst == float(structure_factor_from_pairs(pairs[i, k]))
                assert s.jumps_in_interval == jumps[i, k]
            assert solo.total_jumps == totals[k]
        assert totals.sum() > jumps.sum()

    def test_dense_samples_match_reference(self):
        # 2.5 per sample is longer than integrate's 1.0 check interval, so the
        # verify-and-restore points fall inside each sample interval
        g = build_lattice(2, 1)
        traj = TrajectoryConfig(t_total=10.0, burn_in=1.0, sample_interval=2.5)
        system = DenseLindblad(g, P_FERRO)
        got = list(TrajectoryStream(system.path(traj, StepConfig())))
        _assert_samples_bit_equal(got, reference_dense_samples(system, traj, StepConfig()))

    def test_dense_path_is_a_sample_path(self):
        # the dense engine's maker gives a path of the one loop, with the
        # trajectory engines' length, that never traps
        traj = TrajectoryConfig(t_total=10.0, burn_in=1.0, sample_interval=2.5)
        path = DenseLindblad(build_lattice(2, 1), P_FERRO).path(traj, StepConfig())
        assert isinstance(path, SamplePath)
        assert len(path) == len(list(path)) == 5
        assert path.trapped_at == [None]

    @pytest.mark.parametrize("width,height", [(1, 1), (2, 1), (2, 2)])
    def test_dense_path_observes_bloch_sxx_and_pairs(self, width, height):
        # each sample observes (bloch, sxx, pair_xx) of the path's rho, the
        # layout of a one-row full-space path, bit for bit
        g = build_lattice(width, height)
        system = DenseLindblad(g, P_FERRO)
        path = system.path(TrajectoryConfig(t_total=3.0, sample_interval=0.5), StepConfig())
        for _, (bloch, sxx, xx), _ in path:
            assert xx.shape == (1, g.n_sites, g.n_sites)
            assert xx.tobytes() == system.pair_xx(path.state)[None].tobytes()
            assert bloch.tobytes() == system.site_bloch(path.state)[None].tobytes()
            assert sxx.tobytes() == structure_factor_from_pairs(xx).tobytes()

    def test_full_space_row_sxx_matches_solo(self):
        # each row's exact Sxx in a full-space ensemble observation is its
        # solo trajectory's sxx_inst, bit for bit (a 4-site stack of pair
        # matrices must reduce per matrix as each matrix alone)
        g = build_lattice(2, 2)
        traj = TrajectoryConfig(t_total=4.0, sample_interval=0.5, seed=5)
        n, first = 12, 3
        rows = [sxx for _, (_, sxx, _), _ in FullWfmc(g, P_FERRO).path(traj, StepConfig(), range(first, first + n))]
        for k in range(n):
            solo = full_wfmc_trajectory(g, P_FERRO, traj, StepConfig(), stream=first + k)
            assert [s.sxx_inst for s in solo.samples] == [float(sxx[k]) for sxx in rows]

    def test_one_site_structure_factor_is_zero_on_every_engine(self):
        # one site has no pair: every engine's samples carry Sxx 0, so the
        # estimate is 0 +- 0 (the manifold engine used to raise here)
        g = build_lattice(1, 1)
        traj = TrajectoryConfig(t_total=20.0, burn_in=2.0, seed=4)
        streams = {
            "gutzwiller": run_trajectory(g, P_FERRO, traj).samples,
            "fullwfmc": full_wfmc_trajectory(g, P_FERRO, traj).samples,
            "exact": TrajectoryStream(DenseLindblad(g, P_FERRO).path(traj, StepConfig())),
        }
        for engine, samples in streams.items():
            assert structure_factor(samples) == StructureFactorEstimate(0.0, 0.0, 19), engine


class TestOracleReport:
    def test_passes_for_small_ensembles(self):
        report = oracle_report(2, P_FERRO, t_total=3.0, n_traj=800, seed=7)
        assert report.passed, "\n".join(report.lines())
        names = [c.name for c in report.checks]
        assert names == [
            "single_spin_analytic",
            "unraveling_exactness",
            "xxz_dark_state",
            "manifold_residual_resolved",
        ]

    def test_single_site_report(self):
        report = oracle_report(1, P_FERRO, t_total=2.0, n_traj=500, seed=7)
        assert report.passed
        assert [c.name for c in report.checks] == [
            "single_spin_analytic",
            "unraveling_exactness",
            "xxz_dark_state",
        ]

    def test_2x2_plaquette_report(self):
        report = oracle_report(4, P_FERRO, t_total=3.0, n_traj=600, seed=7)
        assert report.passed, "\n".join(report.lines())

    def test_corrupted_jump_operator_detected(self, corrupt_jumps):
        report = oracle_report(2, P_FERRO, t_total=3.0, n_traj=800, seed=7)
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        assert "unraveling_exactness" in failing

    def test_rejects_unsupported_size(self):
        with pytest.raises(ConfigError):
            oracle_report(3, P_FERRO)

    @pytest.mark.parametrize("gamma", [0.5, 0.2])
    @pytest.mark.parametrize("sites", [1, 2, 4])
    def test_passes_away_from_unit_gamma(self, sites, gamma):
        # the single-spin solution and the dark state's horizon are stated
        # in units of 1/gamma
        report = oracle_report(sites, replace(P_FERRO, gamma=gamma), t_total=3.0, n_traj=800, seed=7)
        assert report.passed, "\n".join(report.lines())

    def test_rejects_zero_gamma(self, monkeypatch):
        # no decay: no dark state, and no spread for the standard errors;
        # refused before any work
        monkeypatch.setattr(oracle, "DenseLindblad", None)
        with pytest.raises(ConfigError, match="gamma > 0"):
            oracle_report(2, replace(P_FERRO, gamma=0.0))

    @pytest.mark.parametrize("t_total,horizon", [(3.0, 2.0), (10.0, 10.0)])
    def test_full_space_ensemble_stops_at_the_last_checkpoint(self, monkeypatch, t_total, horizon):
        # checkpoints are 1, 2, 5 and 10: later samples would never be read
        horizons = []
        path = FullWfmc.path

        def recording(self, traj, *args, **kwargs):
            horizons.append(traj.t_total)
            return path(self, traj, *args, **kwargs)

        monkeypatch.setattr(FullWfmc, "path", recording)
        assert oracle_report(1, P_FERRO, t_total=t_total, n_traj=2, seed=7).checks
        assert horizons == [horizon]
