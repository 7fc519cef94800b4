"""Adaptive tensor-product Gauss-Kronrod cubature over mapped unit boxes.

Internal engine. Every region is one row of a *family*: regions that differ
only in their parameters share one vectorized integrand over [0,1]^dim,
called as `fn(x, rows)`, where `rows[i]` is the row of point `x[i]`'s region
in a parameter table the integrand closes over, and returning one value per
point in any shape that holds them in order. The values already include
the geometric Jacobian of whatever map produced them. A caller describes its
regions as a table of (family index, row) pairs and nothing else: a region
that must start split (at a kink of its integrand, say) is several rows, one
per piece, and a lone region is a one-row family. `integrate_regions` starts
every region as one cell and runs one global refinement loop over all of
them at once, bisecting the worst cells along their worst axis until the
summed Kronrod-vs-Gauss error estimate meets the relative tolerance (or
falls to the absolute floor _ABS_FLOOR) or the evaluation budget runs out.
`split_intervals` cuts intervals into such pieces. Deterministic: cell
ordering, tie-breaking and summation order are fixed functions of the inputs.
Cells keep their creation order, and that order breaks ties between equal
errors: the older cell is split first.

Cells are evaluated family by family, one integrand call per bounded chunk
of cells, so a decomposition into hundreds of small regions costs a handful
of calls rather than one call per region. Each cell's values do not depend
on which other cells share its call. In 2-D a cell's 225 nodes come as 15
lines of 15 that share their axis-0 coordinate; `split_lines` hands an
integrand those lines, so it computes what depends on that coordinate once
per line.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["CubatureResult", "integrate_regions", "integrate_1d",
           "split_intervals", "split_lines"]

# 15-point Kronrod extension of 7-point Gauss on [-1, 1] (QUADPACK dqk15).
_XGK_HALF = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
])
_WGK_HALF = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG_HALF = np.array([  # weights for Gauss nodes +-xgk[1], +-xgk[3], +-xgk[5], xgk[7]
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])          # 15 ascending
WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
WG_PADDED = np.zeros(15)
# Gauss-7 nodes sit at the odd Kronrod indices after sorting
WG_PADDED[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

_UNIT = 0.5 * (XGK + 1.0)  # nodes mapped to [0, 1]

# points per integrand call (at least one cell's worth: 18 cells of 225
# nodes in 2-D); bounds the working set of a family call, which may span
# thousands of cells
_CALL_POINTS = 1 << 12
# refinement rounds of `integrate_regions` before it stops unconverged
_MAX_ROUNDS = 200
# summed error at or below which any integral counts as converged
_ABS_FLOOR = 1e-14


@lru_cache(maxsize=8)
def _tensor_tables(dim):
    """(nodes01 (D, P), weight matrix (1+D, P)) for the D-fold tensor rule.

    Node j is nodes01[:, j], the last axis fastest (see `split_lines`).
    """
    grids = np.meshgrid(*([_UNIT] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=0)
    wk = np.ones(1)
    for _ in range(dim):
        wk = np.multiply.outer(wk, WGK).ravel()
    rows = [wk]
    for d in range(dim):
        w = np.ones(1)
        for j in range(dim):
            w = np.multiply.outer(w, WG_PADDED if j == d else WGK).ravel()
        rows.append(w)
    return nodes, np.stack(rows, axis=0)


@dataclass
class CubatureResult:
    value: complex
    error: float
    evals: int
    converged: bool
    n_cells: int


def split_intervals(lo, hi, cuts):
    """Pieces of each interval [lo_i, hi_i] between its cuts `cuts[i]`.

    `cuts` is (intervals, c), nan where an interval has fewer than c cuts.
    A cut within 1e-12 of the interval's width of either end or of the
    cut below it is dropped, so no piece is a sliver. Returns (interval,
    start, span) per piece: intervals in order, each one's pieces
    ascending.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    cuts = np.asarray(cuts, dtype=float).reshape(lo.size, -1)
    gap = (1e-12 * (hi - lo))[:, None]
    # a cut outside the interval's open inside (or nan) sinks to lo, where
    # the gap test below drops it
    inside = (cuts - lo[:, None] > gap) & (hi[:, None] - cuts > gap)
    edges = np.sort(np.column_stack([lo, np.where(inside, cuts, lo[:, None]),
                                     hi]), axis=1)
    keep = np.ones(edges.shape, dtype=bool)
    keep[:, 1:] = np.diff(edges, axis=1) > gap
    owner, edge = np.nonzero(keep)[0], edges[keep]
    same = owner[1:] == owner[:-1]
    return owner[:-1][same], edge[:-1][same], np.diff(edge)[same]


def split_lines(x, rows):
    """A 2-D call's points as the lines of 15 that share an axis-0 node.

    `_evaluate` lays every cell out as 15 lines of 15 nodes, axis 1
    fastest, so along a line the axis-0 coordinate and the row are
    constant. Returns the per-line axis-0 coordinates (lines,), the axis-1
    coordinates (lines, 15) and the per-line rows (lines,).
    """
    return x[::15, 0], x[:, 1].reshape(-1, 15), rows[::15]


def _evaluate(fns, owner, lo, hi):
    """Tensor GK on each cell. Returns (values, per-axis errors, evals).

    Cell i is in row `owner[i, 1]` of the family integrand `fns[owner[i, 0]]`.
    """
    m = owner.shape[0]
    dim = lo.shape[1]
    nodes, wmat = _tensor_tables(dim)
    p = nodes.shape[1]
    vals = np.zeros(m, dtype=complex)
    errd = np.zeros((m, dim))
    chunk = max(1, _CALL_POINTS // p)
    cell_fam = owner[:, 0]
    order = np.argsort(cell_fam, kind="stable")
    starts = np.flatnonzero(np.diff(cell_fam[order])) + 1
    for sel in np.split(order, starts):
        fn = fns[cell_fam[sel[0]]]
        for c0 in range(0, sel.size, chunk):
            cells = sel[c0:c0 + chunk]
            base = lo[cells]
            span = hi[cells] - base
            # component-major: one row of span * node + lo per axis, cell
            # by cell, handed over as the (points, dim) view
            cols = np.empty((dim, cells.size, p))
            for d in range(dim):
                np.multiply(span[:, d, None], nodes[d], out=cols[d])
                cols[d] += base[:, d, None]
            raw = fn(cols.reshape(dim, -1).T, np.repeat(owner[cells, 1], p))
            v = np.asarray(raw).reshape(cells.size, p)
            scale = np.prod(span * 0.5, axis=1)
            # row 0 -> Kronrod value, row 1+d -> Gauss along axis d.
            # Contract with a broadcast sum rather than matmul: BLAS reduction
            # order can vary with thread count, and results must not.
            cont = np.sum(v[:, None, :] * wmat[None, :, :], axis=2)
            vals[cells] = cont[:, 0] * scale
            errd[cells] = np.abs(cont[:, 1:] - cont[:, [0]]) * scale[:, None]
    return vals, errd, m * p


def integrate_regions(fns, dim, regions, rel_tol, max_evals):
    """Globally adaptive cubature across the regions of several families.

    Region r is row `regions[r, 1]` of the family integrand
    `fns[regions[r, 0]]` over [0,1]^dim, which is only ever called on
    strictly interior points; each region starts as one cell. Returns a
    CubatureResult whose `error` is the summed Kronrod-Gauss discrepancy (a
    conservative estimate, not a rigorous bound).
    """
    owner = np.asarray(regions, dtype=np.int64).reshape(-1, 2)
    n = owner.shape[0]
    if not n:
        return CubatureResult(0.0, 0.0, 0, True, 0)
    lo = np.zeros((n, dim))
    hi = np.ones((n, dim))

    p = 15 ** dim
    if n * p > max_evals:
        raise ValueError(
            f"max_evals={max_evals} cannot cover the initial decomposition "
            f"({n} cells x {p} nodes); raise max_evals"
        )
    vals, errd, evals = _evaluate(fns, owner, lo, hi)

    # Cells sit in creation order: regions in table order, then each
    # round's survivors in order with its children appended. So a stable
    # sort by error breaks ties between equal errors oldest first.
    for rounds in range(_MAX_ROUNDS + 1):
        errs = errd.sum(axis=1)
        total = vals.sum()
        err_tot = float(errs.sum())
        converged = err_tot <= max(rel_tol * abs(total), _ABS_FLOOR)
        if converged or rounds == _MAX_ROUNDS:
            break
        # split the cells carrying the bulk of the error, biggest first,
        # as many as the budget allows
        order = np.argsort(-errs, kind="stable")
        cum = np.cumsum(errs[order])
        n_split = min(int(np.searchsorted(cum, 0.6 * err_tot)) + 1, 1024,
                      order.size, (max_evals - evals) // (2 * p))
        if n_split == 0:
            break
        pick = order[:n_split]
        axes = np.argmax(errd[pick], axis=1)
        # children: the picked cells twice, halved at the midpoint of the
        # worst axis (the first copy below it, the second above)
        c_owner, c_lo, c_hi = (np.tile(a[pick], (2, 1))
                               for a in (owner, lo, hi))
        rows = np.arange(n_split)
        c_hi[rows, axes] = c_lo[n_split + rows, axes] = (
            0.5 * (lo[pick, axes] + hi[pick, axes]))
        c_vals, c_errd, ev = _evaluate(fns, c_owner, c_lo, c_hi)
        evals += ev
        keep = np.ones(owner.shape[0], dtype=bool)
        keep[pick] = False
        cells = (owner, lo, hi, vals, errd)
        children = (c_owner, c_lo, c_hi, c_vals, c_errd)
        owner, lo, hi, vals, errd = (np.concatenate([a[keep], b])
                                     for a, b in zip(cells, children))

    value = complex(total) if total.imag != 0.0 else float(total.real)
    return CubatureResult(value, err_tot, int(evals), bool(converged),
                          int(owner.shape[0]))


def integrate_1d(fn, a, b, rel_tol, max_evals=200_000, cuts=None):
    """Adaptive GK15 of a vectorized scalar/complex integrand over [a, b],
    one row per piece between `cuts` (see `split_intervals`)."""
    if b - a <= 0:
        raise ValueError("need b > a")
    _, start, span = split_intervals([a], [b], [] if cuts is None else cuts)

    def mapped(pts, rows):
        return fn(start[rows] + span[rows] * pts[:, 0]) * span[rows]

    regions = [(0, r) for r in range(start.size)]
    return integrate_regions([mapped], 1, regions, rel_tol, max_evals)
