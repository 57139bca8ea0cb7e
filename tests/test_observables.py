import numpy as np
import pytest

from conftest import random_product_state
from gwmc.errors import InsufficientDataError
from gwmc.dynamics import ModelParams
from gwmc.lattice import build_lattice, pair_class_index
from gwmc.observables import (
    Accumulator,
    Sample,
    batch_means,
    correlation_profile,
    correlation_series,
    instantaneous_structure_factor,
    magnetization,
    mf_structure_factor,
    mf_transition_point,
    structure_factor,
)
from gwmc.state import bloch_vectors, down_state, plus_x_state, z2_flip


def _bloch_samples(sx_rows, burn_in_flags=None):
    """Wrap per-site sx rows into Samples with sy = sz = 0."""
    samples = []
    for i, row in enumerate(sx_rows):
        bloch = np.zeros((len(row), 3))
        bloch[:, 0] = row
        flag = False if burn_in_flags is None else burn_in_flags[i]
        samples.append(Sample(float(i), bloch, burn_in=flag))
    return samples


def reference_correlation_series(samples, geometry):
    """O(n^2) pair estimator: the outer product of each sample, binned by the
    (n, n) pair-class map."""
    classes, class_id = pair_class_index(geometry)
    counts = np.array([c.pair_count for c in classes], dtype=float)
    valid = class_id.ravel() >= 0
    ids = class_id.ravel()[valid]
    rows = []
    for s in samples:
        if s.burn_in:
            continue
        sx = s.bloch[:, 0]
        outer = (sx[:, None] * sx[None, :]).ravel()[valid]
        rows.append(np.bincount(ids, weights=outer, minlength=len(classes)) / counts)
    return classes, np.asarray(rows)


class TestMagnetization:
    def test_all_plus_x(self):
        assert np.allclose(magnetization(bloch_vectors(plus_x_state(9))), [1, 0, 0])

    def test_all_down(self):
        assert np.allclose(magnetization(bloch_vectors(down_state(9))), [0, 0, -1])

    def test_cancellation(self):
        amps = plus_x_state(8)
        amps[4:] = z2_flip(amps[4:])
        assert np.allclose(magnetization(bloch_vectors(amps)), [0, 0, 0], atol=1e-15)


class TestStructureFactor:
    def test_constant_field_gives_m_squared(self):
        for m in (0.3, -0.8, 1.0):
            samples = _bloch_samples([np.full(16, m)] * 5)
            est = structure_factor(samples)
            assert est.value == pytest.approx(m * m, abs=1e-14)

    def test_random_signs_vanish(self, rng):
        rows = rng.choice([-1.0, 1.0], size=(4000, 16))
        samples = _bloch_samples(rows)
        est = structure_factor(samples)
        assert abs(est.value) < 5 * est.standard_error + 0.01

    def test_pair_sum_fourier_identity(self, rng):
        # O(N^2) pair sum against the |sum|^2 - sum^2 form, random k
        g = build_lattice(5, 4)
        coords = g.site_coords()
        for _ in range(100):
            sx = rng.uniform(-1, 1, size=g.n_sites)
            k = tuple(rng.uniform(-np.pi, np.pi, size=2))
            phases = np.exp(-1j * (coords @ np.array(k)))
            brute = 0.0
            for j in range(g.n_sites):
                for l in range(g.n_sites):
                    if j != l:
                        brute += (phases[j] * np.conj(phases[l]) * sx[j] * sx[l]).real
            brute /= g.n_sites * (g.n_sites - 1)
            fast = instantaneous_structure_factor(sx, k, coords)
            assert fast == pytest.approx(brute, abs=1e-10)

    def test_k0_matches_class_weighted_profile(self, rng):
        # per-sample consistency between the two estimators, exactly
        g = build_lattice(4, 4)
        sx = rng.uniform(-1, 1, size=g.n_sites)
        samples = _bloch_samples([sx, sx])
        est = structure_factor(samples)
        profile = correlation_profile(samples, g)
        counts = np.array([c.pair_count for c in profile.classes], float)
        weighted = (profile.mean * counts).sum() / counts.sum()
        assert est.value == pytest.approx(weighted, abs=1e-12)

    def test_z2_invariance(self, rng):
        g = build_lattice(4, 4)
        states = [random_product_state(rng, 16) for _ in range(6)]
        samples = [Sample(float(i), bloch_vectors(a)) for i, a in enumerate(states)]
        flipped = [Sample(float(i), bloch_vectors(z2_flip(a))) for i, a in enumerate(states)]
        assert structure_factor(samples).value == pytest.approx(
            structure_factor(flipped).value, abs=1e-14
        )
        pa = correlation_profile(samples, g)
        pb = correlation_profile(flipped, g)
        assert np.allclose(pa.mean, pb.mean, atol=1e-14)

    def test_burn_in_excluded(self):
        rows = [np.full(4, 1.0), np.full(4, 1.0), np.full(4, 0.5), np.full(4, 0.5)]
        samples = _bloch_samples(rows, burn_in_flags=[True, True, False, False])
        assert structure_factor(samples).value == pytest.approx(0.25)

    def test_insufficient_data(self):
        samples = _bloch_samples([np.full(4, 1.0)])
        with pytest.raises(InsufficientDataError):
            structure_factor(samples)
        with pytest.raises(InsufficientDataError):
            structure_factor([])


class TestBatchMeans:
    def test_iid_matches_naive_error(self, rng):
        values = rng.normal(size=20_000)
        mean, se = batch_means(values)
        naive = values.std(ddof=1) / np.sqrt(values.size)
        assert mean == pytest.approx(values.mean())
        assert se == pytest.approx(naive, rel=0.5)

    def test_correlated_series_inflates_error(self, rng):
        # AR(1) series: batch means must report a larger error than the
        # iid formula
        n, phi = 20_000, 0.95
        noise = rng.normal(size=n)
        values = np.empty(n)
        values[0] = noise[0]
        for i in range(1, n):
            values[i] = phi * values[i - 1] + noise[i]
        _, se = batch_means(values)
        naive = values.std(ddof=1) / np.sqrt(n)
        assert se > 2 * naive

    def test_short_series(self):
        mean, se = batch_means(np.array([1.0, 2.0, 3.0]))
        assert mean == 2.0
        with pytest.raises(InsufficientDataError):
            batch_means(np.array([1.0]))


class TestCorrelationProfile:
    def test_all_plus_x(self):
        g = build_lattice(4, 4)
        samples = [Sample(0.0, bloch_vectors(plus_x_state(16))), Sample(1.0, bloch_vectors(plus_x_state(16)))]
        profile = correlation_profile(samples, g)
        assert np.allclose(profile.mean, 1.0, atol=1e-14)
        assert np.allclose(profile.stderr, 0.0, atol=1e-14)

    def test_neel_pattern(self):
        g = build_lattice(4, 4)
        idx = np.arange(16)
        parity = ((idx % 4) + (idx // 4)) % 2
        sx = np.where(parity == 0, 1.0, -1.0)
        samples = _bloch_samples([sx, sx])
        profile = correlation_profile(samples, g)
        by_class = {(c.dx, c.dy): profile.mean[i] for i, c in enumerate(profile.classes)}
        assert by_class[(1, 0)] == pytest.approx(-1.0)
        assert by_class[(1, 1)] == pytest.approx(1.0)
        assert by_class[(2, 0)] == pytest.approx(1.0)

    def test_values_bounded(self, rng):
        g = build_lattice(3, 5)
        samples = [Sample(float(i), bloch_vectors(random_product_state(rng, 15))) for i in range(8)]
        profile = correlation_profile(samples, g)
        assert np.all(profile.mean <= 1.0 + 1e-12)
        assert np.all(profile.mean >= -1.0 - 1e-12)

    def test_axis_subset(self):
        g = build_lattice(6, 6)
        samples = [Sample(float(i), bloch_vectors(plus_x_state(36))) for i in range(2)]
        profile = correlation_profile(samples, g)
        axis = [i for i, c in enumerate(profile.classes) if c.is_axis]
        assert {(profile.classes[i].dx, profile.classes[i].dy) for i in axis} == {
            (1, 0), (2, 0), (3, 0)
        }

    @pytest.mark.parametrize("w,h", [(1, 1), (2, 1), (1, 5), (2, 2), (3, 5), (4, 6), (6, 6), (5, 8), (32, 32)])
    def test_series_matches_pair_reference(self, rng, w, h):
        g = build_lattice(w, h)
        flags = [True, True, False, False, True, False, False, False]
        samples = [Sample(float(i), bloch_vectors(random_product_state(rng, g.n_sites)), burn_in=f)
                   for i, f in enumerate(flags)]
        classes, rows = correlation_series(samples, g)
        ref_classes, ref_rows = reference_correlation_series(samples, g)
        assert classes == ref_classes
        assert rows.shape == (5, len(classes))
        assert np.allclose(rows, ref_rows, rtol=0, atol=1e-12)


class TestAccumulator:
    def test_pooled_mean_exact(self, rng):
        values = rng.normal(size=1000)
        whole = Accumulator()
        left, right = Accumulator(), Accumulator()
        for i, v in enumerate(values):
            whole.add("x", v)
            (left if i < 400 else right).add("x", v)
        merged = left.combine(right)
        na, nb = 400, 600
        pooled = (na * left.mean("x") + nb * right.mean("x")) / (na + nb)
        assert merged.mean("x") == pooled
        assert merged.count("x") == whole.count("x")
        assert merged.mean("x") == pytest.approx(whole.mean("x"), abs=1e-12)
        assert merged.variance("x") == pytest.approx(whole.variance("x"), rel=1e-10)

    def test_commutative(self, rng):
        a, b = Accumulator(), Accumulator()
        for v in rng.normal(size=50):
            a.add("x", v)
        for v in rng.normal(size=70):
            b.add("x", v)
        ab, ba = a.combine(b), b.combine(a)
        assert ab.mean("x") == ba.mean("x")
        assert ab.variance("x") == ba.variance("x")

    def test_associative_any_split(self, rng):
        for _ in range(100):
            values = rng.normal(size=int(rng.integers(6, 60)))
            i, j = sorted(rng.integers(1, len(values) - 1, size=2))
            if i == j:
                continue
            parts = [values[:i], values[i:j], values[j:]]
            accs = []
            for part in parts:
                acc = Accumulator()
                for v in part:
                    acc.add("x", v)
                accs.append(acc)
            left = accs[0].combine(accs[1]).combine(accs[2])
            right = accs[0].combine(accs[1].combine(accs[2]))
            assert left.mean("x") == pytest.approx(right.mean("x"), abs=1e-13)
            assert left.variance("x") == pytest.approx(right.variance("x"), rel=1e-10)


class TestMeanFieldClosedForm:
    def test_ferromagnetic_value(self):
        # independent evaluation: q = sqrt(50), S = (1/8)(q/16 - 1) q (0.2 / -0.3)
        q = np.sqrt(50.0)
        expected = 0.125 * (q / 16.0 - 1.0) * q * 0.2 / (0.9 - 1.2)
        assert expected == pytest.approx(0.328838984322, abs=1e-9)
        got = mf_structure_factor(ModelParams(0.9, 1.2, 1.0))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.328839, abs=1e-5)

    def test_domain_boundary_zero(self):
        assert mf_structure_factor(ModelParams(0.9, 1.0, 1.0)) == 0.0

    def test_negative_branch_clamped(self):
        # raw expression at Jy = 1.02 is negative (paramagnetic side)
        assert mf_structure_factor(ModelParams(0.9, 1.02, 1.0)) == 0.0

    def test_degenerate_jx_equals_jy(self):
        assert mf_structure_factor(ModelParams(1.1, 1.1, 1.0)) == 0.0

    def test_continuity_at_transition(self):
        jc = mf_transition_point(0.9, 1.0)
        for eps in (1e-3, 1e-5, 1e-7):
            value = mf_structure_factor(ModelParams(0.9, jc + eps, 1.0))
            assert 0.0 < value < 0.02
        assert mf_structure_factor(ModelParams(0.9, jc - 1e-9, 1.0)) == 0.0

    def test_transition_points(self):
        assert mf_transition_point(0.9, 1.0) == pytest.approx(1.0390625, abs=1e-12)
        assert mf_transition_point(0.5, 1.0) == pytest.approx(1.0078125, abs=1e-12)
        assert mf_transition_point(1.0, 1.0) is None


class TestSweepOverJy:
    def test_positive_only_above_transition(self):
        jc = mf_transition_point(0.9, 1.0)
        grid = np.arange(1.0, 2.5, 0.025)
        values = [mf_structure_factor(ModelParams(0.9, jy, 1.0)) for jy in grid]
        for jy, v in zip(grid, values):
            assert (v > 0) == (jy > jc)
