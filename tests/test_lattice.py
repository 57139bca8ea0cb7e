import numpy as np
import pytest

from gwmc.lattice import (
    bonds,
    build_lattice,
    distance_classes,
    min_image_displacement,
    offset_class_index,
    pair_class_index,
)

SHAPES = [(1, 1), (2, 1), (1, 5), (2, 2), (3, 5), (4, 6), (6, 6), (5, 8)]


def brute_force_classes(g):
    """Class list and (n, n) pair map from min_image_displacement, pair by pair."""
    keys = {}
    for i in range(g.n_sites):
        for j in range(g.n_sites):
            if i != j:
                d = min_image_displacement(g, i, j)
                key = (abs(d.dx), abs(d.dy))
                if g.width == g.height:
                    key = (max(key), min(key))
                keys[i, j] = key
    counts = {}
    for key in keys.values():
        counts[key] = counts.get(key, 0) + 1
    order = sorted(counts, key=lambda k: (float(np.hypot(*k)), *k))
    classes = [(x, y, float(np.hypot(x, y)), counts[x, y]) for x, y in order]
    class_id = np.full((g.n_sites, g.n_sites), -1)
    for (i, j), key in keys.items():
        class_id[i, j] = order.index(key)
    return classes, class_id


class TestBuildLattice:
    def test_4x4_torus_degree(self):
        g = build_lattice(4, 4)
        assert g.n_sites == 16
        assert g.neighbor_table.shape == (16, 4)
        for i in range(16):
            assert len(set(g.neighbor_table[i])) == 4
        assert len(bonds(g)) == 32
        assert not g.degenerate

    def test_2x1_deduplicated(self):
        g = build_lattice(2, 1)
        assert g.neighbor_table.tolist() == [[1], [0]]
        assert bonds(g) == [(0, 1)]
        assert g.degenerate

    def test_6x6_site0_neighbors(self):
        g = build_lattice(6, 6)
        assert g.neighbor_table[0].tolist() == [1, 5, 6, 30]

    def test_adjacency_symmetric(self):
        for w, h in [(3, 3), (4, 6), (2, 2), (5, 3)]:
            g = build_lattice(w, h)
            for i in range(g.n_sites):
                for j in g.neighbor_table[i]:
                    assert i in g.neighbor_table[j]

    def test_bond_count_2n(self):
        for w, h in [(3, 3), (4, 4), (6, 5), (12, 12)]:
            g = build_lattice(w, h)
            assert len(bonds(g)) == 2 * g.n_sites

    @pytest.mark.parametrize("w,h", [(0, 4), (4, 0), (-1, 3), (3, -2)])
    def test_rejects_nonpositive(self, w, h):
        with pytest.raises(ValueError):
            build_lattice(w, h)

    def test_degenerate_flag(self):
        assert build_lattice(2, 5).degenerate
        assert build_lattice(5, 2).degenerate
        assert not build_lattice(3, 3).degenerate


class TestMinImage:
    def test_wrap_last_column(self):
        g = build_lattice(4, 4)
        d = min_image_displacement(g, 0, 3)
        assert (d.dx, d.dy) == (-1, 0)
        assert d.distance == 1.0

    def test_maximal_class_12x12(self):
        g = build_lattice(12, 12)
        d = min_image_displacement(g, 0, 78)  # row 6, col 6
        assert (d.dx, d.dy) == (6, 6)
        assert d.distance == pytest.approx(6 * np.sqrt(2))
        assert d.distance == max(c.distance for c in distance_classes(g))

    def test_self_pair(self):
        g = build_lattice(5, 7)
        d = min_image_displacement(g, 13, 13)
        assert (d.dx, d.dy, d.distance) == (0, 0, 0.0)

    def test_index_bounds(self):
        g = build_lattice(3, 3)
        with pytest.raises(IndexError):
            min_image_displacement(g, 0, 9)

    def test_offsets_in_half_open_box(self, rng):
        for _ in range(100):
            w = int(rng.integers(1, 9))
            h = int(rng.integers(1, 9))
            g = build_lattice(w, h)
            i = int(rng.integers(g.n_sites))
            j = int(rng.integers(g.n_sites))
            d = min_image_displacement(g, i, j)
            assert -w / 2 < d.dx <= w / 2
            assert -h / 2 < d.dy <= h / 2


class TestDistanceClasses:
    def test_4x4_distinct_distances(self):
        got = sorted({c.distance for c in distance_classes(build_lattice(4, 4))})
        expected = [1.0, np.sqrt(2), 2.0, np.sqrt(5), 2 * np.sqrt(2)]
        assert np.allclose(got, sorted(expected))

    def test_2x2_classes(self):
        classes = distance_classes(build_lattice(2, 2))
        assert sorted({c.distance for c in classes}) == pytest.approx([1.0, np.sqrt(2)])
        assert sum(c.pair_count for c in classes) == 12

    def test_nearest_class_count_4n(self):
        for L in (3, 4, 6):
            g = build_lattice(L, L)
            (nearest,) = [c for c in distance_classes(g) if c.distance == 1.0]
            assert nearest.pair_count == 4 * g.n_sites
            assert nearest.is_axis

    def test_pair_counts_sum(self, rng):
        for _ in range(100):
            w = int(rng.integers(3, 9))
            h = int(rng.integers(3, 9))
            g = build_lattice(w, h)
            n = g.n_sites
            assert sum(c.pair_count for c in distance_classes(g)) == n * (n - 1)

    def test_rectangle_keeps_axis_resolution(self):
        # (1,0) and (0,1) are inequivalent unless the lattice is square
        classes = distance_classes(build_lattice(4, 6))
        nearest = [(c.dx, c.dy) for c in classes if c.distance == 1.0]
        assert sorted(nearest) == [(0, 1), (1, 0)]

    def test_translation_invariance(self, rng):
        g = build_lattice(5, 4)
        _, class_id = pair_class_index(g)
        for _ in range(100):
            i, j = rng.integers(g.n_sites, size=2)
            sx, sy = rng.integers(g.width), rng.integers(g.height)

            def shift(site):
                r, c = divmod(int(site), g.width)
                return ((r + sy) % g.height) * g.width + (c + sx) % g.width

            assert class_id[i, j] == class_id[shift(i), shift(j)]

    def test_neighbors_agree_with_distance_one(self):
        for w, h in [(3, 3), (4, 5), (6, 6)]:
            g = build_lattice(w, h)
            for i in range(g.n_sites):
                by_distance = {
                    j
                    for j in range(g.n_sites)
                    if j != i and min_image_displacement(g, i, j).distance == 1.0
                }
                assert by_distance == set(g.neighbor_table[i])

    def test_class_matrix_diagonal_excluded(self):
        g = build_lattice(4, 4)
        classes, class_id = pair_class_index(g)
        assert (np.diag(class_id) == -1).all()
        assert class_id.max() == len(classes) - 1
        counts = np.bincount(class_id[class_id >= 0], minlength=len(classes))
        assert counts.tolist() == [c.pair_count for c in classes]

    @pytest.mark.parametrize("w,h", SHAPES)
    def test_offset_map_matches_brute_force(self, w, h):
        g = build_lattice(w, h)
        expected_classes, expected_id = brute_force_classes(g)
        classes, class_id = pair_class_index(g)
        assert [(c.dx, c.dy, c.distance, c.pair_count) for c in classes] == expected_classes
        assert np.array_equal(class_id, expected_id)
        assert distance_classes(g) == classes
        _, offset_id = offset_class_index(g)
        assert offset_id.shape == (h, w)
        assert offset_id[0, 0] == -1
        assert np.array_equal(class_id[0].reshape(h, w), offset_id)
