import numpy as np
import pytest

from conftest import random_product_state
from gwmc.errors import ConfigError
from gwmc.dynamics import ModelParams, StepConfig, TrajectoryConfig, run_trajectory
from gwmc.lattice import build_lattice
from gwmc.oracle import (
    DenseLindblad,
    FullWfmc,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    product_density,
    build_hamiltonian,
    full_wfmc_ensemble,
    full_wfmc_trajectory,
    oracle_report,
    pair_xx_expectations,
    pauli_expectations,
    product_state_vector,
    single_spin_analytic,
    site_operator,
)
from gwmc.state import bloch_vectors, plus_x_state

P_FERRO = ModelParams(0.9, 1.2, 1.0)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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
            rho_t = system.integrate(rho, t, dt=0.002)
            assert np.allclose(system.site_bloch(rho_t)[0], single_spin_analytic(t, (1, 0, 0)), atol=1e-8)

    def test_xxz_relaxes_to_all_down(self):
        g = build_lattice(2, 1)
        p = ModelParams(0.9, 0.9, 1.0)
        rho = DenseLindblad(g, p).integrate(product_density(plus_x_state(2)), t=40.0, dt=0.002)
        bloch = DenseLindblad(g, p).site_bloch(rho)
        assert np.abs(bloch - np.array([0.0, 0.0, -1.0])).max() < 1e-4
        # pure steady state
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-4)

    def test_unitary_limit_preserves_purity(self):
        g = build_lattice(2, 1)
        p = ModelParams(0.9, 1.2, 1.0, gamma=0.0)
        rho0 = product_density(plus_x_state(2))
        rho = DenseLindblad(g, p).integrate(rho0, t=5.0, dt=0.002)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-8)

    def test_density_matrix_invariants_held(self):
        g = build_lattice(2, 2)
        rho = DenseLindblad(g, P_FERRO).integrate(product_density(plus_x_state(4)), t=4.0)
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho)[0] > -1e-8

    def test_cap_enforced(self):
        with pytest.raises(ConfigError):
            DenseLindblad(build_lattice(4, 3), P_FERRO).integrate(np.eye(2**12, dtype=complex) / 2**12, 1.0)


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

    def test_jump_probabilities(self):
        g = build_lattice(2, 1)
        engine = FullWfmc(g, P_FERRO)
        psi = product_state_vector(plus_x_state(2))
        assert np.allclose(engine.jump_probabilities(psi, 0.01), [0.005, 0.005])
        up = np.zeros(4, complex)
        up[0] = 1.0  # both sites up
        assert np.allclose(engine.jump_probabilities(up, 0.01), [0.01, 0.01])

    def test_jump_operator_collapses_site(self):
        g = build_lattice(2, 1)
        engine = FullWfmc(g, P_FERRO)
        psi = product_state_vector(plus_x_state(2))
        lowered = engine.apply_jump(psi, 0)
        bloch = pauli_expectations(lowered, 2)
        assert np.allclose(bloch[0], [0, 0, -1], atol=1e-12)
        assert np.allclose(bloch[1], [1, 0, 0], atol=1e-12)

    def test_ensemble_matches_master_equation(self):
        # compact version of the unraveling-exactness acceptance criterion
        g = build_lattice(2, 1)
        traj = TrajectoryConfig(t_total=3.0, seed=9)
        times, blochs, pairs = full_wfmc_ensemble(g, P_FERRO, traj, StepConfig(), n_traj=1200)
        sys2 = DenseLindblad(g, P_FERRO)
        rho = product_density(plus_x_state(2))
        prev = 0.0
        for t_chk in (1.0, 3.0):
            rho = sys2.integrate(rho, t_chk - prev, dt=0.002)
            prev = t_chk
            idx = int(np.argmin(np.abs(times - t_chk)))
            for vals, exact in (
                (blochs[idx, :, 0, 0], sys2.site_bloch(rho)[0, 0]),
                (pairs[idx, :, 0, 1], sys2.pair_xx(rho)[0, 1]),
            ):
                se = vals.std(ddof=1) / np.sqrt(len(vals))
                assert abs(vals.mean() - exact) < 3.5 * se


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

    def test_corrupted_jump_operator_detected(self):
        report = oracle_report(2, P_FERRO, t_total=3.0, n_traj=800, seed=7, corrupt_jumps=True)
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        assert "unraveling_exactness" in failing

    def test_rejects_unsupported_size(self):
        with pytest.raises(ConfigError):
            oracle_report(3, P_FERRO)
