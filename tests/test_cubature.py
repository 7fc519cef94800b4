"""Tests for the adaptive tensor Gauss-Kronrod engine."""
import math

import numpy as np
import pytest

from chargelab._cubature import (integrate_1d, integrate_regions,
                                 split_intervals, split_lines)


class TestOneDimensional:
    def test_cubic_exact(self):
        res = integrate_1d(lambda x: x ** 3, 0.0, 1.0, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(0.25, abs=1e-14)

    def test_sine(self):
        res = integrate_1d(np.sin, 0.0, math.pi, 1e-12)
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_kink_with_cut(self):
        fn = lambda x: np.abs(x - 0.3)
        res = integrate_1d(fn, 0.0, 1.0, 1e-12, cuts=[0.3])
        exact = 0.5 * (0.3 ** 2 + 0.7 ** 2)
        assert res.value == pytest.approx(exact, rel=1e-12)

    def test_sqrt_singularity(self):
        res = integrate_1d(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-8,
                           max_evals=500_000)
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-7)
        assert abs(res.value - 2.0) <= 3.0 * res.error + 1e-12

    def test_complex_integrand(self):
        res = integrate_1d(lambda x: np.exp(1j * x), 0.0, 1.0, 1e-12)
        expect = complex(math.sin(1.0), 1.0 - math.cos(1.0))
        assert res.value == pytest.approx(expect, rel=1e-12)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 1.0, 1.0, 1e-6)

    def test_deterministic_bits(self):
        fn = lambda x: np.exp(-x) / (1e-3 + np.abs(x - 0.7))
        a = integrate_1d(fn, 0.0, 1.0, 1e-10)
        b = integrate_1d(fn, 0.0, 1.0, 1e-10)
        assert a.value == b.value
        assert a.error == b.error
        assert a.evals == b.evals


def _tables(specs):
    """(fns, regions) for a list of (fn, row), one family per distinct fn."""
    fns, regions = [], []
    for fn, row in specs:
        if fn not in fns:
            fns.append(fn)
        regions.append((fns.index(fn), row))
    return fns, regions


class TestRegions:
    def test_two_dim_polynomial(self):
        fn = lambda p, rows: p[:, 0] ** 2 * p[:, 1]
        res = integrate_regions([fn], 2, [(0, 0)], 1e-12, 100_000)
        assert res.value == pytest.approx(1.0 / 6.0, abs=1e-13)

    def test_regions_sum(self):
        f1 = lambda p, rows: p[:, 0]
        f2 = lambda p, rows: np.ones(p.shape[0])
        res = integrate_regions([f1, f2], 1, [(0, 0), (1, 0)], 1e-12, 100_000)
        assert res.value == pytest.approx(1.5, abs=1e-13)

    def test_cuts_increase_initial_cells(self):
        # integrate_1d makes one row per piece between its cuts
        fn = lambda x: x
        res = integrate_1d(fn, 0.0, 1.0, 1e-12, cuts=[0.25, 0.5])
        assert res.n_cells == 3
        assert res.value == pytest.approx(0.5, abs=1e-13)
        # cuts outside (a, b), at its ends or within 1e-12 of another cut
        # add no row; the exact integrand keeps the three initial cells
        cuts = [0.5, -0.2, 0.25, 1.0, 0.5 + 1e-13, 0.0, 0.5, 1.5]
        res = integrate_1d(fn, 0.0, 1.0, 1e-12, cuts=cuts)
        assert res.n_cells == 3
        assert res.value == pytest.approx(0.5, abs=1e-13)

    def test_split_intervals_drops_slivers(self):
        # the sliver gap is 1e-12 of each interval's width; nan is no cut
        nan = math.nan
        owner, start, span = split_intervals(
            [-2.0, 0.0, 5.0], [2.0, 1.0, 6.0],
            [[3e-12, 1.0, -2.0 + 2e-12, 1.0 + 3e-12, 2.0 - 3e-12],
             [nan] * 5, [5.5, nan, 5.5 + 5e-13, 7.0, 5.0]])
        assert owner.tolist() == [0, 0, 0, 1, 2, 2]
        assert start.tolist() == [-2.0, 3e-12, 1.0, 0.0, 5.0, 5.5]
        expect = np.concatenate([np.diff([-2.0, 3e-12, 1.0, 2.0]), [1.0],
                                 np.diff([5.0, 5.5, 6.0])])
        np.testing.assert_array_equal(span, expect)

    def test_initial_decomposition_over_budget(self):
        regions = [(0, r) for r in range(200)]
        with pytest.raises(ValueError):
            integrate_regions([lambda p, rows: p[:, 0]], 1, regions, 1e-6,
                              1000)

    def test_empty_region_list(self):
        res = integrate_regions([], 1, [], 1e-6, 1000)
        assert res.value == 0.0 and res.converged

    def test_nonconvergence_reported(self):
        # ~1600 oscillations cannot be resolved by ~130 GK15 cells
        fn = lambda p, rows: np.sin(1e4 * p[:, 0])
        res = integrate_regions([fn], 1, [(0, 0)], 1e-10, 2000)
        assert not res.converged
        assert res.evals <= 2000

    def test_error_is_honest_when_converged(self):
        fn = lambda p, rows: np.exp(p[:, 0]) * np.cos(3.0 * p[:, 1])
        res = integrate_regions([fn], 2, [(0, 0)], 1e-9, 200_000)
        exact = (math.e - 1.0) * math.sin(3.0) / 3.0
        assert res.converged
        assert abs(res.value - exact) <= max(3.0 * res.error, 1e-13)

    def test_equal_errors_split_in_table_order(self):
        # two regions with the same integrand tie on error; the budget
        # (2 initial cells + 2 children, 15 nodes each) allows one split,
        # which must go to the region listed first
        calls = [0, 0]

        def family(k):
            def fn(p, rows):
                calls[k] += 1
                return 1.0 / (1e-3 + p[:, 0] ** 2)
            return fn

        fns = [family(0), family(1)]
        for first, second in ((0, 1), (1, 0)):
            calls[:] = [0, 0]
            res = integrate_regions(fns, 1, [(first, 0), (second, 0)],
                                    1e-14, 60)
            assert not res.converged and res.evals == 60
            assert calls[first] == 2 and calls[second] == 1


class TestFamilies:
    """Regions sharing one row-indexed integrand versus one single-row
    family per region."""

    @staticmethod
    def _table(n, seed=3):
        """(eps, cx, cy, region, start, span): a peak per region, and per
        row its region and axis-0 piece; every third region is two rows,
        split at its own axis-0 position."""
        rng = np.random.default_rng(seed)
        eps, cx, cy, cut = (rng.uniform(1e-3, 1e-1, n),
                            rng.uniform(0.1, 0.9, n),
                            rng.uniform(0.1, 0.9, n),
                            rng.uniform(0.2, 0.8, n))
        rows = []
        for k in range(n):
            edges = [0.0, cut[k], 1.0] if k % 3 == 0 else [0.0, 1.0]
            rows += [(k, a, b - a) for a, b in zip(edges, edges[1:])]
        region, start, span = (np.array(c) for c in zip(*rows))
        return eps, cx, cy, region, start, span

    @staticmethod
    def _peak(x, eps, cx, cy, start, span):
        x0 = start + span * x[:, 0]
        return span / (eps + (x0 - cx) ** 2 + (x[:, 1] - cy) ** 2)

    def _regions(self, table, family, calls=None):
        """(fn, row) per row: rows of `family`, or with `family` None, one
        single-row integrand per row."""
        eps, cx, cy, region, start, span = table
        calls = [] if calls is None else calls
        specs = []
        for r, k in enumerate(region):
            if family is None:
                def fn(x, rows, k=k, r=r):
                    assert not rows.any()
                    calls.append(x.shape[0])
                    return self._peak(x, eps[k], cx[k], cy[k], start[r],
                                      span[r])
                specs.append((fn, 0))
            else:
                specs.append((family, r))
        return specs

    def _family(self, table, calls):
        eps, cx, cy, region, start, span = table

        def fn(x, rows):
            calls.append(rows.size)
            k = region[rows]
            return self._peak(x, eps[k], cx[k], cy[k], start[rows],
                              span[rows])

        return fn

    @staticmethod
    def _integrate(specs):
        fns, regions = _tables(specs)
        return integrate_regions(fns, 2, regions, 1e-8, 2_000_000)

    @staticmethod
    def _same(a, b):
        assert (a.value, a.error, a.evals, a.n_cells, a.converged) == (
            b.value, b.error, b.evals, b.n_cells, b.converged)

    def test_family_is_bit_identical_to_plain_regions(self):
        table = self._table(40)
        calls, plain_calls = [], []
        family = self._integrate(
            self._regions(table, self._family(table, calls)))
        plain = self._integrate(self._regions(table, None, plain_calls))
        self._same(family, plain)
        # the 54 initial cells need more than one bounded call; after that
        # each round makes one call per chunk, not one per region
        assert calls[0] < 54 * 225
        assert len(calls) < len(plain_calls) / 4

    def test_each_point_gets_its_own_row(self):
        n = 100

        def fn(x, rows):
            # one row per cell: rows are constant over each cell's nodes
            per_cell = rows.reshape(-1, 225)
            assert np.all(per_cell == per_cell[:, :1])
            return (rows + 1.0) * np.ones(x.shape[0])

        regions = [(0, k) for k in range(n)]
        res = integrate_regions([fn], 2, regions, 1e-12, 1_000_000)
        # region k integrates the constant k + 1 over the unit square
        assert res.value == pytest.approx(n * (n + 1) / 2, rel=1e-12)

    def test_planar_points_come_in_lines(self):
        # the disc integrands form what depends on the axis-0 coordinate
        # once per line of 15 (split_lines); a call holding anything but
        # whole lines of one axis-0 node and one row would make them
        # integrate the wrong points silently
        table = self._table(40)
        eps, cx, cy, region, start, span = table

        def by_line(x, rows):
            u, v, line_rows = split_lines(x, rows)
            assert np.all(x[:, 0].reshape(-1, 15) == u[:, None])
            assert np.all(rows.reshape(-1, 15) == line_rows[:, None])
            assert np.all(x[:, 1].reshape(-1, 15) == v)
            assert np.all(np.diff(v, axis=1) > 0)
            k, r = region[line_rows][:, None], line_rows[:, None]
            x0 = start[r] + span[r] * u[:, None]
            return span[r] / (eps[k] + (x0 - cx[k]) ** 2 + (v - cy[k]) ** 2)

        lines = self._integrate(self._regions(table, by_line))
        self._same(lines, self._integrate(
            self._regions(table, self._family(table, []))))

    def test_families_and_plain_regions_mixed(self):
        a, b = self._table(12, seed=4), self._table(9, seed=5)
        calls_a, calls_b = [], []
        fam_a = self._regions(a, self._family(a, calls_a))
        fam_b = self._regions(b, self._family(b, calls_b))
        plain_a, plain_b = self._regions(a, None), self._regions(b, None)
        odd = (lambda x, rows: np.exp(x[:, 0] - x[:, 1]), 0)
        mixed = fam_a[:6] + plain_b[:4] + [odd] + fam_b[4:] + plain_a[6:]
        mixed += fam_b[:4] + fam_a[6:]
        reference = plain_a[:6] + plain_b[:4] + [odd] + plain_b[4:]
        reference += plain_a[6:] + plain_b[:4] + plain_a[6:]
        self._same(self._integrate(mixed), self._integrate(reference))
        assert calls_a and calls_b
