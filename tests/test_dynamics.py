import numpy as np
import pytest
from scipy import stats

from conftest import random_product_state
from gwmc.errors import ConfigError, NumericsError
from gwmc.dynamics import (
    ModelParams,
    RngStream,
    RowStreams,
    StepConfig,
    TrajectoryConfig,
    advance,
    batch_samples,
    deterministic_step,
    jump_probabilities,
    load_checkpoint,
    mean_fields,
    run_ensemble,
    run_trajectory,
    save_checkpoint,
)
from gwmc.lattice import build_lattice
from gwmc.observables import Accumulator
from gwmc.state import bloch_vectors, down_state, is_dark, plus_x_state, save_state_csv, z2_flip

P_FERRO = ModelParams(jx=0.9, jy=1.2, jz=1.0)


def apply_jump(i: int, amps: np.ndarray) -> np.ndarray:
    """Collapse site i to the down state (0, 1); other sites untouched."""
    u = amps[..., i, 0]
    if np.any(u.real**2 + u.imag**2 == 0.0):
        raise NumericsError(f"jump applied to site {i} with no up-amplitude")
    out = amps.copy()
    out[..., i, 0] = 0.0
    out[..., i, 1] = 1.0
    return out


def local_effective_hamiltonian(b, p: ModelParams) -> np.ndarray:
    """Non-Hermitian 2x2 generator for one site given its mean field (bx,by,bz)."""
    bx, by, bz = float(b[0]), float(b[1]), float(b[2])
    off = p.jx * bx - 1j * p.jy * by
    return np.array(
        [[p.jz * bz - 0.5j * p.gamma, off], [np.conj(off), -p.jz * bz]],
        dtype=np.complex128,
    )


class _FixedDraws:
    """Stand-in rng returning a preset uniform array once."""

    def __init__(self, draws):
        self.draws = np.asarray(draws)

    def random(self, size=None):
        assert size == self.draws.shape
        return self.draws


class TestMeanField:
    def test_all_plus_x_bulk(self):
        g = build_lattice(4, 4)
        b = mean_fields(plus_x_state(16), g)
        assert np.allclose(b, [[4.0, 0.0, 0.0]] * 16, atol=1e-14)

    def test_all_down(self):
        g = build_lattice(4, 4)
        b = mean_fields(down_state(16), g)
        assert np.allclose(b, [[0.0, 0.0, -4.0]] * 16, atol=1e-14)

    def test_single_neighbor_plus_y(self):
        g = build_lattice(2, 1)
        amps = np.array([[1.0, 0.0], [1 / np.sqrt(2), 1j / np.sqrt(2)]], dtype=complex)
        b = mean_fields(amps, g)
        assert np.allclose(b[0], [0.0, 1.0, 0.0], atol=1e-14)

    def test_bound_by_degree(self, rng):
        g = build_lattice(5, 5)
        for _ in range(20):
            b = mean_fields(random_product_state(rng, 25), g)
            assert np.all(np.abs(b) <= g.degree + 1e-12)


class TestLocalHamiltonian:
    def test_pure_decay(self):
        h = local_effective_hamiltonian((0.0, 0.0, 0.0), ModelParams(1, 1, 1, gamma=1.0))
        assert np.allclose(h, [[-0.5j, 0.0], [0.0, 0.0]])

    def test_x_meanfield(self):
        h = local_effective_hamiltonian((4.0, 0.0, 0.0), P_FERRO)
        assert h[0, 1] == pytest.approx(3.6)
        assert h[1, 0] == pytest.approx(3.6)
        assert h[0, 0] == pytest.approx(-0.5j)
        assert h[1, 1] == 0.0

    def test_down_state_eigenvector(self):
        h = local_effective_hamiltonian((0.0, 0.0, -4.0), ModelParams(0.9, 1.2, 1.0))
        assert np.allclose(np.diag(h), [-4.0 - 0.5j, 4.0])
        down = np.array([0.0, 1.0])
        assert np.allclose(h @ down, 4.0 * down)

    def test_matches_vectorized_derivative(self, rng):
        # the batched drift must equal -i h_i psi_i built sitewise
        g = build_lattice(3, 4)
        from gwmc.dynamics import _derivatives

        for _ in range(25):
            amps = random_product_state(rng, 12)
            deriv = _derivatives(amps, g, P_FERRO)
            b = mean_fields(amps, g)
            for i in range(12):
                h = local_effective_hamiltonian(b[i], P_FERRO)
                assert np.allclose(deriv[i], -1j * (h @ amps[i]), atol=1e-13)


class TestDeterministicStep:
    def test_dark_state_exactly_stationary(self):
        g = build_lattice(4, 4)
        amps = down_state(16)
        for _ in range(20):
            amps = deterministic_step(amps, g, P_FERRO, 0.01)
        assert np.allclose(bloch_vectors(amps), [[0, 0, -1]] * 16, atol=1e-12)

    def test_unitary_isotropic_plus_x_stationary(self):
        # gamma = 0 with uniform couplings: each site is aligned with its own
        # mean field, so the drift is a pure phase
        g = build_lattice(4, 4)
        p = ModelParams(0.7, 0.7, 0.7, gamma=0.0)
        amps = plus_x_state(16)
        for _ in range(100):
            amps = deterministic_step(amps, g, p, 0.01)
        assert np.allclose(bloch_vectors(amps), [[1, 0, 0]] * 16, atol=1e-12)

    def test_single_site_no_jump_conditional(self):
        # decoupled site: the conditional no-jump state is (e^{-t/2} u0, d0)
        # renormalized, giving sx = sech(t/2), sz = -tanh(t/2)
        g = build_lattice(1, 1)
        p = ModelParams(0.0, 0.0, 0.0, gamma=1.0)
        amps = plus_x_state(1)
        dt, t = 0.01, 1.0
        for _ in range(int(round(t / dt))):
            amps = deterministic_step(amps, g, p, dt)
        b = bloch_vectors(amps)[0]
        u = np.exp(-0.5 * t) / np.sqrt(2)
        d = 1 / np.sqrt(2)
        expected = np.array([2 * u * d, 0.0, u * u - d * d]) / (u * u + d * d)
        assert np.allclose(b, expected, atol=1e-8)
        assert b[0] == pytest.approx(1.0 / np.cosh(t / 2), abs=1e-8)

    def test_norm_restored(self, rng):
        g = build_lattice(3, 3)
        amps = random_product_state(rng, 9)
        out = deterministic_step(amps, g, P_FERRO, 0.01)
        norm2 = np.abs(out[:, 0]) ** 2 + np.abs(out[:, 1]) ** 2
        assert np.allclose(norm2, 1.0, atol=1e-10)

    @pytest.mark.parametrize("scale", [1e-13, np.nan])
    def test_vanished_norm_raises(self, scale):
        # the norm floor after the RK4 sum is renormalize's: a site whose
        # spinor is below it, or not finite, stops the step
        g = build_lattice(2, 2)
        amps = plus_x_state(4)
        amps[1] *= scale
        with pytest.raises(NumericsError):
            deterministic_step(amps, g, P_FERRO, 0.01)


class TestJumps:
    def test_probability_values(self):
        p = ModelParams(0.9, 1.2, 1.0, gamma=1.0)
        up = np.zeros((1, 2), complex)
        up[0, 0] = 1.0
        assert jump_probabilities(up, p, 0.01)[0] == pytest.approx(0.01)
        assert jump_probabilities(down_state(1), p, 0.01)[0] == 0.0
        assert jump_probabilities(plus_x_state(1), p, 0.01)[0] == pytest.approx(0.005)

    def test_apply_jump(self):
        amps = plus_x_state(4)
        out = apply_jump(2, amps)
        assert out[2, 0] == 0.0 and out[2, 1] == 1.0
        for i in (0, 1, 3):
            assert np.array_equal(out[i], amps[i])
        up = np.zeros((1, 2), complex)
        up[0, 0] = 1.0
        assert np.allclose(apply_jump(0, up), [[0.0, 1.0]])

    def test_jump_on_down_site_rejected(self):
        with pytest.raises(NumericsError):
            apply_jump(0, down_state(3))

    def test_advance_applies_jumps_and_freezes_them(self):
        g = build_lattice(3, 3)
        step = StepConfig(dt=0.01)
        amps = plus_x_state(9)
        draws = np.ones(9)
        draws[[2, 5]] = 0.0  # force exactly these two sites to jump
        out, events = advance(amps, g, P_FERRO, step, _FixedDraws(draws))
        assert sorted(ev[0] for ev in events) == [2, 5]
        b = bloch_vectors(out)
        assert np.allclose(b[[2, 5]], [[0, 0, -1]] * 2, atol=1e-14)
        # non-jumped sites moved
        assert not np.allclose(b[0], [1, 0, 0], atol=1e-6)

    def test_advance_dark_state_fixed_point(self):
        g = build_lattice(4, 4)
        rng = RngStream(1).generator()
        amps = down_state(16)
        for _ in range(50):
            amps, events = advance(amps, g, P_FERRO, StepConfig(), rng)
            assert len(events) == 0
        assert np.allclose(bloch_vectors(amps), [[0, 0, -1]] * 16, atol=1e-12)

    def test_step_ceiling_enforced(self):
        g = build_lattice(2, 2)
        with pytest.raises(ConfigError):
            advance(plus_x_state(4), g, ModelParams(0, 0, 0, gamma=1.0), StepConfig(dt=0.2), RngStream(0).generator())

    def test_empirical_jump_rate(self):
        # pinned up-state sites: per-step jump probability is exactly gamma*dt
        g = build_lattice(40, 40)
        p = ModelParams(0.0, 0.0, 0.0, gamma=1.0)
        step = StepConfig(dt=0.01)
        rng = RngStream(99).generator()
        amps = np.zeros((1600, 2), complex)
        amps[:, 0] = 1.0
        n_steps, events = 200, 0
        for _ in range(n_steps):
            amps, jumped = advance(amps, g, p, step, rng)
            events += len(jumped)
            amps[:, 0], amps[:, 1] = 1.0, 0.0  # re-prepare
        trials = n_steps * 1600
        rate = events / (trials * step.dt)
        sigma = np.sqrt(step.dt * (1 - step.dt) * trials) / (trials * step.dt)
        assert abs(rate - p.gamma) < 3 * sigma

    def test_waiting_times_exponential(self):
        # 1e4 up-prepared decoupled sites; the time to each site's first jump
        # is distributed exactly like the inter-jump law (the up state is
        # memoryless under re-preparation). First-passage sampling avoids the
        # censoring bias of stopping at a global event count. dt is small
        # enough that the geometric staircase sits below the KS resolution.
        g = build_lattice(100, 100)
        p = ModelParams(0.0, 0.0, 0.0, gamma=1.0)
        step = StepConfig(dt=0.002)
        rng = RngStream(4242).generator()
        n = g.n_sites
        amps = np.zeros((n, 2), complex)
        amps[:, 0] = 1.0
        waits = np.zeros(n)
        remaining = n
        t = 0.0
        while remaining and t < 40.0:
            t += step.dt
            amps, jumped = advance(amps, g, p, step, rng)
            for (site,) in jumped:
                waits[site] = t
                remaining -= 1
        assert remaining == 0
        assert abs(waits.mean() - 1.0) < 4.0 / np.sqrt(n)
        result = stats.kstest(waits, "expon", args=(0, 1.0))
        assert result.pvalue > 0.01


class TestZ2Equivariance:
    def test_stepwise_exact(self, rng):
        g = build_lattice(3, 3)
        step = StepConfig(dt=0.01)
        for case in range(100):
            p = ModelParams(*rng.uniform(-2, 2, size=3), gamma=float(rng.uniform(0.2, 2.0)))
            amps_a = random_product_state(rng, 9)
            amps_b = z2_flip(amps_a)
            seed = int(rng.integers(2**32))
            rng_a = RngStream(seed).generator()
            rng_b = RngStream(seed).generator()
            out_a, ev_a = advance(amps_a, g, p, step, rng_a)
            out_b, ev_b = advance(amps_b, g, p, step, rng_b)
            assert np.array_equal(ev_a, ev_b)
            ba, bb = bloch_vectors(out_a), bloch_vectors(out_b)
            assert np.array_equal(bb[:, 0], -ba[:, 0])
            assert np.array_equal(bb[:, 1], -ba[:, 1])
            assert np.array_equal(bb[:, 2], ba[:, 2])

    def test_trajectory_mirrored(self):
        g = build_lattice(4, 4)
        traj = dict(t_total=30.0, sample_interval=1.0, seed=11)
        res_p = run_trajectory(g, P_FERRO, TrajectoryConfig(initial_state="plus_x", **traj))
        res_m = run_trajectory(g, P_FERRO, TrajectoryConfig(initial_state="minus_x", **traj))
        for sp, sm in zip(res_p.samples, res_m.samples):
            assert np.array_equal(sm.bloch[:, 0], -sp.bloch[:, 0])
            assert np.array_equal(sm.bloch[:, 2], sp.bloch[:, 2])


class TestDarkStationarity:
    def test_random_parameters(self, rng):
        g = build_lattice(3, 3)
        for _ in range(100):
            p = ModelParams(*rng.uniform(-3, 3, size=3), gamma=float(rng.uniform(0.1, 3.0)))
            out = deterministic_step(down_state(9), g, p, 0.01)
            assert np.abs(bloch_vectors(out) - np.array([0.0, 0.0, -1.0])).max() < 1e-10


class TestNormPreservation:
    def test_after_advance(self, rng):
        g = build_lattice(4, 4)
        step = StepConfig()
        gen = RngStream(5).generator()
        for _ in range(100):
            amps = random_product_state(rng, 16)
            out, _ = advance(amps, g, P_FERRO, step, gen)
            norm2 = np.abs(out[:, 0]) ** 2 + np.abs(out[:, 1]) ** 2
            assert np.abs(norm2 - 1.0).max() < 1e-10


class TestRunTrajectory:
    def test_xxz_traps(self):
        g = build_lattice(4, 4)
        p = ModelParams(0.9, 0.9, 1.0)
        res = run_trajectory(g, p, TrajectoryConfig(t_total=200.0, seed=3))
        assert res.trapped_at is not None and res.trapped_at < 200.0
        final = res.samples[-1].bloch
        assert np.abs(final[:, :2]).max() < 1e-12

    def test_determinism(self):
        g = build_lattice(3, 3)
        traj = TrajectoryConfig(t_total=20.0, seed=77)
        a = run_trajectory(g, P_FERRO, traj)
        b = run_trajectory(g, P_FERRO, traj)
        assert a.total_jumps == b.total_jumps
        for sa, sb in zip(a.samples, b.samples):
            assert sa.time == sb.time
            assert np.array_equal(sa.bloch, sb.bloch)

    def test_streams_differ(self):
        g = build_lattice(3, 3)
        traj = TrajectoryConfig(t_total=20.0, seed=77)
        a = run_trajectory(g, P_FERRO, traj, stream=0)
        b = run_trajectory(g, P_FERRO, traj, stream=1)
        assert not np.array_equal(a.samples[-1].bloch, b.samples[-1].bloch)

    def test_burn_in_flags(self):
        g = build_lattice(3, 3)
        res = run_trajectory(g, P_FERRO, TrajectoryConfig(t_total=10.0, burn_in=5.0, seed=1))
        for s in res.samples:
            assert s.burn_in == (s.time < 5.0)
        assert len(res.post_burn_in()) == 6  # t = 5..10

    def test_rejects_dark_initial_state(self, tmp_path):
        g = build_lattice(2, 2)
        path = tmp_path / "dark.csv"
        save_state_csv(path, down_state(4))
        with pytest.raises(ConfigError):
            run_trajectory(g, P_FERRO, TrajectoryConfig(t_total=5.0, seed=1, initial_state=str(path)))

    def test_snapshot_initial_state(self, rng, tmp_path):
        g = build_lattice(2, 2)
        amps = random_product_state(rng, 4)
        path = tmp_path / "init.csv"
        save_state_csv(path, amps)
        res = run_trajectory(g, P_FERRO, TrajectoryConfig(t_total=5.0, seed=1, initial_state=str(path)))
        assert np.allclose(res.samples[0].bloch, bloch_vectors(amps), atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrajectoryConfig(t_total=10.0, burn_in=10.0)
        with pytest.raises(ConfigError):
            ModelParams(1, 1, 1, gamma=-0.5)
        with pytest.raises(ConfigError):
            StepConfig(dt=0.0)
        with pytest.raises(ConfigError):
            StepConfig(max_jump_prob=0.7)
        g = build_lattice(2, 2)
        with pytest.raises(ConfigError):
            run_trajectory(g, P_FERRO, TrajectoryConfig(t_total=5.0, sample_interval=0.001), StepConfig(dt=0.01))


class TestBatchSamples:
    def test_row_streams_match_solo_trajectories(self):
        # rows with mixed Jy, each on its own Philox stream: row k must equal
        # solo trajectory k bit for bit, through the trap of the XXZ row
        # (Jy = Jx) and the jumps after the last sample (t_total is off the
        # sampling cadence)
        g = build_lattice(2, 2)
        step = StepConfig(dt=0.05)
        traj = TrajectoryConfig(t_total=60.5, burn_in=0.0, sample_interval=1.0, seed=8)
        params = [ModelParams(0.9, jy, 1.0) for jy in (0.9, 1.2, 2.5)]
        rng = RowStreams(RngStream(traj.seed, k).generator() for k in range(len(params)))
        totals = np.zeros(len(params), dtype=np.int64)
        batch = list(batch_samples(g, params, traj, step, rng, totals))
        solos = [run_trajectory(g, p, traj, step, stream=k) for k, p in enumerate(params)]
        for k, solo in enumerate(solos):
            assert len(solo.samples) == len(batch)
            for sample, (t, bloch, jumps) in zip(solo.samples, batch):
                assert sample.time == t
                assert sample.bloch.tobytes() == bloch[k].tobytes()
                assert sample.jumps_in_interval == jumps[k]
            assert solo.total_jumps == totals[k]
            trapped = [t for t, bloch, _ in batch if is_dark(bloch[k])]
            assert solo.trapped_at == (trapped[0] if trapped else None)
        # the case covers a trapped row, a jumping row and jumps in the tail
        assert solos[0].trapped_at is not None and solos[2].trapped_at is None
        assert solos[2].total_jumps > 0
        assert totals.sum() > sum(int(jumps.sum()) for _, _, jumps in batch)

    def test_rows_share_gamma(self):
        rows = [P_FERRO, ModelParams(0.9, 1.2, 1.0, gamma=0.5)]
        rng = RowStreams(RngStream(1, k).generator() for k in range(2))
        with pytest.raises(ConfigError):
            next(batch_samples(build_lattice(2, 2), rows, TrajectoryConfig(t_total=1.0), StepConfig(), rng))


class TestStepSizeConvergence:
    def test_halving_dt_within_mc_error(self):
        # first-order jump sampling carries an O(gamma dt) weak bias, so the
        # convergence statement is about production estimates: at dt = 0.01
        # the halving shift must sit inside the estimate's own error bar
        from gwmc.observables import structure_factor

        g = build_lattice(4, 4)
        estimates = []
        for dt in (0.01, 0.005):
            traj = TrajectoryConfig(t_total=600.0, burn_in=100.0, seed=21)
            res = run_trajectory(g, P_FERRO, traj, StepConfig(dt=dt))
            est = structure_factor(res.samples)
            estimates.append((est.value, est.standard_error))
        (m1, s1), (m2, s2) = estimates
        assert abs(m1 - m2) < 3.0 * np.hypot(s1, s2)


class TestCheckpoint:
    def test_resume_reproduces_run(self, rng, tmp_path):
        g = build_lattice(3, 3)
        step = StepConfig()
        gen = RngStream(13).generator()
        amps = plus_x_state(9)
        for _ in range(50):
            amps, _ = advance(amps, g, P_FERRO, step, gen)
        acc = Accumulator()
        acc.add("mx", 0.25)
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(prefix, amps, 0.5, gen, acc)

        cont = amps.copy()
        for _ in range(50):
            cont, _ = advance(cont, g, P_FERRO, step, gen)

        amps2, t2, gen2, acc2 = load_checkpoint(prefix)
        assert t2 == 0.5
        assert acc2.mean("mx") == 0.25
        assert np.array_equal(amps2, amps)
        resumed = amps2
        for _ in range(50):
            resumed, _ = advance(resumed, g, P_FERRO, step, gen2)
        assert np.array_equal(bloch_vectors(resumed), bloch_vectors(cont))


class TestEnsemble:
    def test_single_spin_decay(self):
        # J = 0: ensemble averages must follow the analytic decay
        g = build_lattice(1, 1)
        p = ModelParams(0.0, 0.0, 0.0, gamma=1.0)
        traj = TrajectoryConfig(t_total=5.0, seed=8)
        times, blochs = run_ensemble(g, p, traj, StepConfig(), n_traj=2000)
        sz = blochs[:, :, 0, 2]
        sx = blochs[:, :, 0, 0]
        for k, t in enumerate(times):
            se_z = sz[k].std(ddof=1) / np.sqrt(2000) + 1e-12
            se_x = sx[k].std(ddof=1) / np.sqrt(2000) + 1e-12
            assert abs(sz[k].mean() - (-1 + np.exp(-t))) < 3.5 * se_z
            assert abs(sx[k].mean() - np.exp(-t / 2)) < 3.5 * se_x
