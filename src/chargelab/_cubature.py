"""Adaptive tensor-product Gauss-Kronrod cubature over mapped unit boxes.

Internal engine. A `Region` is one row of a *family*: regions that differ
only in their parameters share one vectorized integrand over [0,1]^D, called
as `fn(x, rows)`, where `rows[i]` is the row of point `x[i]`'s region in a
parameter table the integrand closes over. The values already include the
geometric Jacobian of whatever map produced them. A region on its own is a
one-row family (row 0). `integrate_regions` runs one global refinement loop
over every region at once, bisecting the worst cells along their worst axis
until the summed Kronrod-vs-Gauss error estimate meets the relative tolerance
or the evaluation budget runs out. Deterministic: cell ordering, tie-breaking
and summation order are fixed functions of the inputs.

Cells are evaluated family by family, one integrand call per bounded chunk
of cells, so a decomposition into hundreds of small regions costs a handful
of calls rather than one call per region. Each cell's values do not depend
on which other cells share its call.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Region", "CubatureResult", "integrate_regions", "integrate_1d"]

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

# points per integrand call (at least one cell's worth, 15^3 in 3-D); bounds
# the working set of a family call, which may span thousands of cells
_CALL_POINTS = 1 << 12


@lru_cache(maxsize=8)
def _tensor_tables(dim):
    """(nodes01 (P, D), weight matrix (1+D, P)) for the D-fold tensor rule."""
    grids = np.meshgrid(*([_UNIT] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
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


class Region:
    """Row `row` of the family of regions sharing the integrand `fn`.

    `fn(x, rows)` maps an (m, dim) array of region coordinates and the (m,)
    family rows of their regions to (m,) values that include all Jacobian
    factors. It is only ever called on strictly interior points of
    [0,1]^dim. `cuts` gives optional mandatory initial cuts per axis.
    """

    __slots__ = ("fn", "dim", "cuts", "row")

    def __init__(self, fn, dim, cuts=None, row=0):
        self.fn = fn
        self.dim = int(dim)
        self.cuts = [np.asarray(c, dtype=float) if c is not None else None
                     for c in (cuts or [None] * self.dim)]
        if len(self.cuts) != self.dim:
            raise ValueError("cuts must supply one (possibly None) array per axis")
        if int(row) < 0:
            raise ValueError("a family row must be non-negative")
        self.row = int(row)


@dataclass
class CubatureResult:
    value: complex
    error: float
    evals: int
    converged: bool
    n_cells: int


def _initial_boxes(region):
    if all(c is None or c.size == 0 for c in region.cuts):
        return np.zeros((1, region.dim)), np.ones((1, region.dim))
    edges = []
    for d in range(region.dim):
        cuts = region.cuts[d]
        if cuts is None or cuts.size == 0:
            edges.append(np.array([0.0, 1.0]))
        else:
            interior = np.unique(np.clip(cuts, 0.0, 1.0))
            interior = interior[(interior > 1e-12) & (interior < 1.0 - 1e-12)]
            # drop near-duplicate cuts
            if interior.size > 1:
                keep = np.concatenate([[True], np.diff(interior) > 1e-12])
                interior = interior[keep]
            edges.append(np.concatenate([[0.0], interior, [1.0]]))
    mesh = np.meshgrid(*[np.arange(e.size - 1) for e in edges], indexing="ij")
    idx = np.stack([m.ravel() for m in mesh], axis=1)
    lo = np.stack([edges[d][idx[:, d]] for d in range(region.dim)], axis=1)
    hi = np.stack([edges[d][idx[:, d] + 1] for d in range(region.dim)], axis=1)
    return lo, hi


def _evaluate(fns, fam, rows, rids, lo, hi):
    """Tensor GK on each cell. Returns (values, per-axis errors, evals).

    Region r is row `rows[r]` of the family integrand `fns[fam[r]]`.
    """
    m = rids.shape[0]
    dim = lo.shape[1]
    nodes, wmat = _tensor_tables(dim)
    p = nodes.shape[0]
    vals = np.zeros(m, dtype=complex)
    errd = np.zeros((m, dim))
    chunk = max(1, _CALL_POINTS // p)
    cell_fam = fam[rids]
    order = np.argsort(cell_fam, kind="stable")
    starts = np.flatnonzero(np.diff(cell_fam[order])) + 1
    for sel in np.split(order, starts):
        fn = fns[cell_fam[sel[0]]]
        for c0 in range(0, sel.size, chunk):
            cells = sel[c0:c0 + chunk]
            span = hi[cells] - lo[cells]
            pts = lo[cells][:, None, :] + span[:, None, :] * nodes[None, :, :]
            x = pts.reshape(-1, dim)
            raw = fn(x, np.repeat(rows[rids[cells]], p))
            v = np.asarray(raw).reshape(cells.size, p)
            scale = np.prod(span * 0.5, axis=1)
            # row 0 -> Kronrod value, row 1+d -> Gauss along axis d.
            # Contract with a broadcast sum rather than matmul: BLAS reduction
            # order can vary with thread count, and results must not.
            cont = np.sum(v[:, None, :] * wmat[None, :, :], axis=2)
            vals[cells] = cont[:, 0] * scale
            errd[cells] = np.abs(cont[:, 1:] - cont[:, [0]]) * scale[:, None]
    return vals, errd, m * p


def integrate_regions(regions, rel_tol, max_evals, abs_floor=1e-14, max_rounds=200):
    """Globally adaptive cubature across heterogeneous mapped regions.

    All regions must share one dimension. Returns a CubatureResult whose
    `error` is the summed Kronrod-Gauss discrepancy (a conservative estimate,
    not a rigorous bound).
    """
    if not regions:
        return CubatureResult(0.0, 0.0, 0, True, 0)
    dim = regions[0].dim
    if any(r.dim != dim for r in regions):
        raise ValueError("all regions in one call must share a dimension")

    groups = {}
    fam = np.array([groups.setdefault(r.fn, len(groups)) for r in regions])
    fns = list(groups)
    rows = np.array([r.row for r in regions])
    rid_list, lo_list, hi_list = [], [], []
    for rid, region in enumerate(regions):
        lo, hi = _initial_boxes(region)
        rid_list.append(np.full(lo.shape[0], rid, dtype=np.int64))
        lo_list.append(lo)
        hi_list.append(hi)
    rids = np.concatenate(rid_list)
    lo = np.vstack(lo_list)
    hi = np.vstack(hi_list)
    birth = np.arange(rids.size, dtype=np.int64)
    next_birth = rids.size

    p = 15 ** dim
    if (rids.size * p) > max_evals:
        raise ValueError(
            f"max_evals={max_evals} cannot cover the initial decomposition "
            f"({rids.size} cells x {p} nodes); raise max_evals"
        )
    vals, errd, evals = _evaluate(fns, fam, rows, rids, lo, hi)
    errs = errd.sum(axis=1)

    converged = False
    for _ in range(max_rounds):
        total = vals.sum()
        err_tot = float(errs.sum())
        if err_tot <= max(rel_tol * abs(total), abs_floor):
            converged = True
            break
        # split the cells carrying the bulk of the error, biggest first
        sortidx = np.lexsort((birth, -errs))
        cum = np.cumsum(errs[sortidx])
        n_split = int(np.searchsorted(cum, 0.6 * err_tot)) + 1
        n_split = min(n_split, 1024, sortidx.size)
        if evals + 2 * n_split * p > max_evals:
            n_split = max(0, (max_evals - evals) // (2 * p))
            if n_split == 0:
                break
        pick = sortidx[:n_split]
        axes = np.argmax(errd[pick], axis=1)
        mid = 0.5 * (lo[pick, axes] + hi[pick, axes])
        lo_a, hi_a = lo[pick].copy(), hi[pick].copy()
        hi_a[np.arange(n_split), axes] = mid
        lo_b, hi_b = lo[pick].copy(), hi[pick].copy()
        lo_b[np.arange(n_split), axes] = mid
        child_r = np.concatenate([rids[pick], rids[pick]])
        child_lo = np.vstack([lo_a, lo_b])
        child_hi = np.vstack([hi_a, hi_b])
        child_birth = np.arange(next_birth, next_birth + 2 * n_split, dtype=np.int64)
        next_birth += 2 * n_split

        cvals, cerrd, ev = _evaluate(fns, fam, rows, child_r, child_lo,
                                     child_hi)
        evals += ev
        keep = np.ones(rids.size, dtype=bool)
        keep[pick] = False
        rids = np.concatenate([rids[keep], child_r])
        lo = np.vstack([lo[keep], child_lo])
        hi = np.vstack([hi[keep], child_hi])
        vals = np.concatenate([vals[keep], cvals])
        errd = np.vstack([errd[keep], cerrd])
        errs = errd.sum(axis=1)
        birth = np.concatenate([birth[keep], child_birth])

    total = vals.sum()
    err_tot = float(errs.sum())
    if not converged:
        converged = err_tot <= max(rel_tol * abs(total), abs_floor)
    value = complex(total) if total.imag != 0.0 else float(total.real)
    return CubatureResult(value, err_tot, int(evals), bool(converged), int(rids.size))


def integrate_1d(fn, a, b, rel_tol, max_evals=200_000, cuts=None):
    """Adaptive GK15 of a vectorized scalar/complex integrand over [a, b]."""
    width = b - a
    if width <= 0:
        raise ValueError("need b > a")

    def mapped(pts, rows):
        return fn(a + width * pts[:, 0]) * width

    region_cuts = None
    if cuts is not None:
        region_cuts = [(np.asarray(cuts, dtype=float) - a) / width]
    return integrate_regions([Region(mapped, 1, region_cuts)], rel_tol,
                             max_evals)
