"""Uniform 2D grids, fields, and the quadratures everything else leans on.

A Grid2D is a node lattice: nx-by-ny points with spacing h, the node
(i, j) sitting at origin + (i*h, j*h).  Each node owns the h-by-h cell
centered on it, so cell areas tile the plane and ball integrals can use
exact cell/disk intersection areas on the rim.  Fields store one value
per node, shape (nx, ny), values[i, j] = f(x_i, y_j).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._util import atomic_write_text
from .errors import BallOutsideDomain, InputInvalid, PointOutsideDomain

# slack for "is this point inside" checks, relative to h
_EDGE_EPS = 1e-9


@dataclass(frozen=True)
class Grid2D:
    """Uniform node lattice with spacing h and lower-left node at origin."""

    nx: int
    ny: int
    h: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        try:
            operator.index(self.nx), operator.index(self.ny)
        except TypeError:
            raise TypeError(f"grid nx, ny must be integers, got {self.nx!r}, {self.ny!r}") from None
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"grid needs nx, ny >= 3, got ({self.nx}, {self.ny})")
        if not (0.0 < self.h < math.inf):
            raise ValueError(f"grid spacing must be positive and finite, got {self.h}")
        if not all(map(math.isfinite, self.extent)):
            raise ValueError(f"grid origin and extent must be finite, got {self.extent}")

    @property
    def x(self) -> np.ndarray:
        return self.origin[0] + self.h * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray:
        return self.origin[1] + self.h * np.arange(self.ny)

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) of the node lattice."""
        ox, oy = self.origin
        return (ox, ox + (self.nx - 1) * self.h, oy, oy + (self.ny - 1) * self.h)

    @property
    def center(self) -> tuple[float, float]:
        xmin, xmax, ymin, ymax = self.extent
        return (0.5 * (xmin + xmax), 0.5 * (ymin + ymax))

    def meshgrid(self):
        return np.meshgrid(self.x, self.y, indexing="ij")


def square_grid(half_width: float, n: int) -> Grid2D:
    """n-by-n grid covering [-half_width, half_width]^2."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    h = 2.0 * half_width / (n - 1)
    return Grid2D(n, n, h, (-half_width, -half_width))


@dataclass
class Field:
    """Scalar samples on a Grid2D; values[i, j] = f(x_i, y_j).

    values may be a read-only view, such as the broadcast row of an
    x-axis profile extension, and need not be C-contiguous.  No library
    code writes into a Field's values; a caller who needs to write
    copies them first."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        if not np.all(np.isfinite(_distinct(self.values))):
            raise ValueError("field values must be finite")

    @classmethod
    def from_function(cls, grid: Grid2D, fn) -> "Field":
        X, Y = grid.meshgrid()
        return cls(grid, np.asarray(fn(X, Y), dtype=float))

    @classmethod
    def zeros(cls, grid: Grid2D) -> "Field":
        return cls(grid, np.zeros((grid.nx, grid.ny)))


@dataclass
class VectorField:
    """Componentwise samples of a vector field on a Grid2D.  A component
    may be a read-only broadcast view, as zeros along a broadcast axis
    are; no library code writes into one."""

    grid: Grid2D
    vx: np.ndarray
    vy: np.ndarray

    def magnitude_squared(self) -> np.ndarray:
        return self.vx * self.vx + self.vy * self.vy


# ---------------------------------------------------------------------------
# directions and differencing, for every module; interpolation


def _unit(direction, name: str = "direction") -> tuple[float, float]:
    """direction / |direction| by math.hypot; a NaN, infinite or zero
    direction (a NaN norm fails both tests) raises a ValueError naming it."""
    dx, dy = float(direction[0]), float(direction[1])
    norm = math.hypot(dx, dy)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"{name} must be a finite, nonzero vector, got ({dx}, {dy})")
    return dx / norm, dy / norm


def _distinct(a: np.ndarray) -> np.ndarray:
    """a with every broadcast (zero-stride) axis cut to its first entry."""
    return a[tuple(slice(None) if s else slice(1) for s in a.strides)]


def _diff_axis(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative along `axis`: centered inside,
    one-sided three-point at both ends (exact on quadratics), in the
    difference form (4(t1 - t0) - (t2 - t0)) / 2h and its mirror, which
    gives exactly +0.0 on constants.  So a broadcast a has one rule: its
    distinct entries are differenced and the result broadcast back
    read-only, a view of zeros along a broadcast axis."""
    d = _distinct(a)
    if d.shape[axis] < a.shape[axis]:
        return np.broadcast_to(np.zeros_like(d), a.shape)
    out = np.empty_like(d)
    # views with `axis` first; writing o writes out
    t, o = np.moveaxis(d, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(t[2:], t[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * h
    o[0] = (4.0 * (t[1] - t[0]) - (t[2] - t[0])) / (2.0 * h)
    o[-1] = ((t[-3] - t[-1]) - 4.0 * (t[-2] - t[-1])) / (2.0 * h)
    return out if d.shape == a.shape else np.broadcast_to(out, a.shape)


def gradient(f: Field) -> VectorField:
    """Discrete gradient, second order including the boundary rows; a
    broadcast f.values gives read-only views, of zeros along its broadcast axis."""
    h = f.grid.h
    return VectorField(f.grid, _diff_axis(f.values, h, 0), _diff_axis(f.values, h, 1))


def _stencil(g: Grid2D, pts: np.ndarray):
    """Bilinear stencil of the points (N, 2): the lower-left corner nodes
    (i, j) and the offsets (tx, ty) in [0, 1] inside their cells."""
    # a NaN passes every extent comparison, so it is rejected here
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    xmin, xmax, ymin, ymax = g.extent
    px, py = pts[:, 0], pts[:, 1]
    # an empty point set has no extent to check
    if px.size and not _box_inside(g, px.min(), px.max(), py.min(), py.max()):
        k = int(np.argmax(np.maximum.reduce([xmin - px, px - xmax, ymin - py, py - ymax])))
        raise PointOutsideDomain(
            f"point ({px[k]:.6g}, {py[k]:.6g}) outside grid extent "
            f"[{xmin:.6g}, {xmax:.6g}] x [{ymin:.6g}, {ymax:.6g}]"
        )
    sx = np.clip((px - xmin) / g.h, 0.0, g.nx - 1.0)
    sy = np.clip((py - ymin) / g.h, 0.0, g.ny - 1.0)
    i = np.minimum(sx.astype(np.intp), g.nx - 2)
    j = np.minimum(sy.astype(np.intp), g.ny - 2)
    return i, j, sx - i, sy - j


def _bilinear(at, i, j, tx, ty) -> np.ndarray:
    """Bilinear combination of the node values at(i, j) of a stencil."""
    return (
        at(i, j) * (1 - tx) * (1 - ty)
        + at(i + 1, j) * tx * (1 - ty)
        + at(i, j + 1) * (1 - tx) * ty
        + at(i + 1, j + 1) * tx * ty
    )


def interpolate(f: Field, points) -> np.ndarray | float:
    """Bilinear interpolation at one point (2,) or many (N, 2)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != 2:
        raise ValueError(f"points must have shape (2,) or (N, 2), got {pts.shape}")
    single = pts.ndim == 1
    v = f.values
    out = _bilinear(lambda i, j: v[i, j], *_stencil(f.grid, np.atleast_2d(pts)))
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# ball quadrature with exact rim geometry


# math.atan2 element by element: np.arctan2 may differ from it in the
# last bit (SIMD builds), and the rim areas must not depend on the build
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _disk_rect_areas(r: float, ax, bx, ay, by) -> np.ndarray:
    """Exact areas of the rectangles [ax,bx] x [ay,by] intersected with
    the disk |p| <= r, for arrays of corners.

    Each row's x-range is cut at its ends and wherever the circle crosses
    the lines y = ay, y = by: at most 6 cuts, padded with +inf and
    sorted.  Between consecutive cuts the top and the bottom edge each
    follow either the circle or a rectangle side, so each of the <= 5
    pieces is an arc-antiderivative difference or a width times a side.
    Pieces are added in cut order, as a per-rectangle loop would.  The
    antiderivative is a function of the clipped cut alone, and rim cells
    with one node abscissa share their x-edges (with one ordinate, their
    circle crossings), so it is evaluated once per distinct clipped cut
    and gathered back: the same floats from far fewer math.atan2 calls."""
    ax = np.maximum(ax, -r)
    bx = np.minimum(bx, r)
    live = (bx > ax) & (by > ay) & (by > -r) & (ay < r)
    cuts = np.full((ax.size, 6), np.inf)
    cuts[:, 0], cuts[:, 1] = ax, bx
    col = 2
    for yy in (ay, by):
        t = r * r - yy * yy
        s = np.sqrt(np.maximum(t, 0.0))
        # t == 0: the circle is tangent to the edge line; cutting at the
        # tangent point keeps each piece's midpoint off the edge line
        for c in (-s, s):
            cuts[:, col] = np.where((t >= 0.0) & (ax < c) & (c < bx), c, np.inf)
            col += 1
    cuts.sort(axis=1)
    # antiderivative of sqrt(r^2 - x^2), once per distinct clipped cut;
    # (r - x)(r + x) and atan2 stay accurate as x -> +-r, where
    # r^2 - x^2 cancels and asin(x/r) is ill-conditioned
    fin = np.isfinite(cuts)
    x, back = np.unique(np.minimum(np.maximum(cuts[fin], -r), r), return_inverse=True)
    s = np.sqrt((r - x) * (r + x))
    anti = np.full(cuts.shape, np.nan)
    anti[fin] = (0.5 * (x * s + r * r * _atan2(x, s).astype(float)))[back]
    area = np.zeros(ax.size)
    with np.errstate(invalid="ignore"):
        for k in range(5):
            p, q = cuts[:, k], cuts[:, k + 1]
            width = q - p
            xm = 0.5 * (p + q)
            gm = np.sqrt(np.maximum(r * r - xm * xm, 0.0))
            top = np.minimum(by, gm)
            bot = np.maximum(ay, -gm)
            arc = anti[:, k + 1] - anti[:, k]
            piece_top = np.where(gm < by, arc, by * width)
            piece_bot = np.where(-gm > ay, -arc, ay * width)
            ok = live & fin[:, k + 1] & (width > 0.0) & (top > bot)
            area = np.where(ok, area + (piece_top - piece_bot), area)
    return area


def disk_rect_area(r: float, ax: float, bx: float, ay: float, by: float) -> float:
    """Exact area of [ax,bx] x [ay,by] intersected with the disk |p| <= r.

    A one-rectangle call of the vectorised rim kernel that ball_weights
    uses; math.atan2 per element keeps its floats those of a scalar
    evaluation."""
    return float(_disk_rect_areas(r, *np.array([[ax], [bx], [ay], [by]], dtype=float))[0])


def _box_inside(g: Grid2D, xlo, xhi, ylo, yhi) -> bool:
    """Whether [xlo, xhi] x [ylo, yhi] lies inside the grid extent, up to
    a slack of _EDGE_EPS h; a NaN bound compares as inside."""
    xmin, xmax, ymin, ymax = g.extent
    eps = _EDGE_EPS * g.h
    return not (xlo < xmin - eps or xhi > xmax + eps or ylo < ymin - eps or yhi > ymax + eps)


def _require_ball_inside(g: Grid2D, center, r: float) -> tuple[float, float]:
    """The one check of a ball; returns the (cx, cy) every ball and shell
    computation reads.  A center that is not two finite coordinates, or
    r <= 0, raises ValueError; a ball outside the grid BallOutsideDomain."""
    c = np.asarray(center, dtype=float)
    if c.shape != (2,) or not np.all(np.isfinite(c)):
        raise ValueError(f"ball center must be two finite coordinates, got {center!r}")
    cx, cy = float(c[0]), float(c[1])
    if not (r > 0.0):
        raise ValueError(f"ball radius must be positive, got {r}")
    if not _box_inside(g, cx - r, cx + r, cy - r, cy + r):
        xmin, xmax, ymin, ymax = g.extent
        raise BallOutsideDomain(
            f"ball B_{r:.6g}(({cx:.6g}, {cy:.6g})) exceeds grid extent "
            f"[{xmin:.6g}, {xmax:.6g}] x [{ymin:.6g}, {ymax:.6g}]"
        )
    return cx, cy


def _ball_slices(g: Grid2D, center, r: float) -> tuple[tuple[float, float], slice, slice]:
    """The checked center (cx, cy) and the node slices of the subwindow
    that holds B_r(center) plus one cell, clipped to the grid; the ball
    must lie inside the grid.  The window of a smaller radius about the
    same center is a subwindow."""
    cx, cy = _require_ball_inside(g, center, r)
    h = g.h
    xmin, _, ymin, _ = g.extent
    pad = r + h
    i0 = max(int(math.floor((cx - pad - xmin) / h)), 0)
    i1 = min(int(math.ceil((cx + pad - xmin) / h)) + 1, g.nx)
    j0 = max(int(math.floor((cy - pad - ymin) / h)), 0)
    j1 = min(int(math.ceil((cy + pad - ymin) / h)) + 1, g.ny)
    return (cx, cy), slice(i0, i1), slice(j0, j1)


def ball_weights(g: Grid2D, center, r: float):
    """Quadrature weights for the disk B_r(center).

    Returns (islice, jslice, w): w[i, j] is the exact area of cell
    (i, j)'s h-by-h square intersected with the disk, nonzero only on
    the returned subwindow.  Monotone in r cell by cell.

    A cell whose node lies at distance d <= r - h/√2 is whole (h²);
    one with r - h/√2 < d < r + h/√2 is a rim cell and gets its area
    from one vectorised _disk_rect_areas call, which repeats a per-cell
    loop's float operations in the same order and calls math.atan2 per
    element, so the weights do not depend on numpy's SIMD arctan2.

    Only a band of cells is classified by that test.  In each row the
    columns with |y| <= sqrt((r - h/√2)² - x²) - h are whole and those
    with |y| >= sqrt((r + h/√2)² - x²) + h are empty, with a margin of
    about h²/(2r) in d, far above the rounding of np.hypot; d is
    computed, and compared as above, only on the cells in between.

    This is the full row range of the one weights kernel,
    _ball_weights(g, center, r, rows), which returns the same triple
    for the subwindow's rows that lie in the grid rows `rows` alone
    (an empty islice where there are none).  Every step above is per
    row, and the rim areas are a function of each clipped cut alone, so
    its rows are those of the full call bit for bit.
    """
    return _ball_weights(g, center, r, slice(0, g.nx))


def _ball_weights(g: Grid2D, center, r: float, rows: slice):
    """ball_weights on the subwindow's rows in rows.start..rows.stop-1."""
    (cx, cy), isl, jsl = _ball_slices(g, center, r)
    i0 = max(isl.start, rows.start)
    isl = slice(i0, max(min(isl.stop, rows.stop), i0))
    h = g.h
    xs = g.x[isl] - cx
    ys = g.y[jsl] - cy
    half_diag = h * math.sqrt(0.5)
    r_in, r_out = r - half_diag, r + half_diag
    n, m = xs.size, ys.size
    x2 = xs * xs
    a = np.sqrt(np.maximum(r_in * r_in - x2, 0.0)) - h
    b = np.sqrt(np.maximum(r_out * r_out - x2, 0.0)) + h
    # each row's columns [lo_out, lo_in) [lo_in, hi_in) [hi_in, hi_out):
    # |y| < b, then |y| <= a (none when a <= 0); a node on |y| = a or b
    # may land on either side, as both sides are safe
    edges = np.searchsorted(ys, np.array((-b, -a, a, b)))
    lo_in, hi_in = edges[1], edges[2]
    np.maximum(hi_in, lo_in, out=hi_in)
    # each row is a run of zeros, h² on [lo_in, hi_in), then zeros
    fill = np.zeros((n, 3))
    fill[:, 1] = h * h
    w = np.repeat(fill, np.array((lo_in, hi_in - lo_in, m - hi_in)).T.ravel())
    w = w.reshape(n, m)
    # the band, [lo_out, lo_in) and [hi_in, hi_out) of every row, as
    # flat indices
    edges += np.arange(0, n * m, m)
    starts = edges[0::2].T.ravel()
    counts = edges[1::2].T.ravel() - starts
    flat = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    i, j = np.divmod(flat, m)
    d = np.hypot(xs[i], ys[j])
    w.flat[flat[d <= r_in]] = h * h
    rim = (d > r_in) & (d < r_out)
    i, j = i[rim], j[rim]
    dx, dy = xs[i], ys[j]
    w[i, j] = _disk_rect_areas(r, dx - h / 2, dx + h / 2, dy - h / 2, dy + h / 2)
    return isl, jsl, w


@dataclass(frozen=True)
class Window:
    """A rectangular node window isl x jsl of a grid, for densities built
    from field values and gradients on the window alone.

    grad() differences a full-grid array on the window plus a one-node
    halo.  The halo is clipped at the grid edge, where gradient's
    one-sided stencil applies, so each window node gets the same float
    as gradient(); that stencil needs the window to span at least two
    nodes along an axis where it touches the grid edge.  integral() is
    the one ball sum, over the part of the ball in the window's rows;
    ball_integral is integral() on the whole grid.
    grad()'s components may be read-only views, of zeros along a
    broadcast axis, as gradient()'s may.
    """

    grid: Grid2D
    isl: slice
    jsl: slice

    @classmethod
    def ball(cls, g: Grid2D, center, r: float) -> "Window":
        """The window of B_r(center); it holds every B_s(center), s <= r."""
        return cls(g, *_ball_slices(g, center, r)[1:])

    def _halo(self):
        """The grid slices of the window plus its halo, and the window's
        slices within them."""
        i0, j0 = max(self.isl.start - 1, 0), max(self.jsl.start - 1, 0)
        i1, j1 = min(self.isl.stop + 1, self.grid.nx), min(self.jsl.stop + 1, self.grid.ny)
        keep = (
            slice(self.isl.start - i0, self.isl.stop - i0),
            slice(self.jsl.start - j0, self.jsl.stop - j0),
        )
        return (slice(i0, i1), slice(j0, j1)), keep

    def _diff(self, ext: np.ndarray, keep) -> tuple[np.ndarray, np.ndarray]:
        h = self.grid.h
        return _diff_axis(ext, h, 0)[keep], _diff_axis(ext, h, 1)[keep]

    def grad(
        self, a: np.ndarray, minus: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradient on the window of the full-grid array a, or of a - minus,
        which is then formed on the window plus halo only (elementwise, so
        the same floats as differencing the full-grid a - minus)."""
        halo, keep = self._halo()
        return self._diff(a[halo] if minus is None else a[halo] - minus[halo], keep)

    def grad_zero_off(self, a: np.ndarray, minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """grad() of the full-grid array that is a - minus on the window
        and 0 off it, from a and minus given on the window alone."""
        halo, keep = self._halo()
        ext = np.zeros((halo[0].stop - halo[0].start, halo[1].stop - halo[1].start))
        np.subtract(a, minus, out=ext[keep])
        return self._diff(ext, keep)

    def _part(self, dens: np.ndarray, weights) -> np.ndarray:
        """dens, given on this window, on the subwindow of the
        ball_weights triple (isl, jsl, w)."""
        isl, jsl, w = weights
        i = isl.start - self.isl.start
        j = jsl.start - self.jsl.start
        return dens[i : i + w.shape[0], j : j + w.shape[1]]

    def integral(self, dens: np.ndarray, center, r: float) -> float:
        """Integral over B_r(center) of a density given on this window,
        whose columns must hold the ball's window; over the ball's cells
        in the window's rows only, 0.0 if there are none.  The density is
        multiplied into the weights, built for this one sum: the floats
        of the temporary dens * w, so the same sum, with no such
        temporary."""
        weights = _ball_weights(self.grid, center, r, self.isl)
        w = weights[2]
        return float(np.sum(np.multiply(self._part(dens, weights), w, out=w)))

    def weighted_sum(self, dens: np.ndarray, weights) -> float:
        """integral() with the ball_weights triple (isl, jsl, w) given;
        callers reuse it, so w is left as it is."""
        return float(np.sum(self._part(dens, weights) * weights[2]))


def ball_integral(f: Field, center, r: float) -> float:
    """Integral of f over B_r(center): cell-value times exact cell area."""
    return Window(f.grid, slice(0, f.grid.nx), slice(0, f.grid.ny)).integral(f.values, center, r)


def _shell(g: Grid2D, at, center, r: float) -> float:
    """Trapezoid rule on the circle for the field whose node values are
    at(i, j); only the bilinear stencil nodes are read."""
    cx, cy = _require_ball_inside(g, center, r)
    # m is a multiple of 4 so quarter-turn rotations sample congruent node sets
    m = max(128, 4 * int(math.ceil(4.0 * math.pi * r / g.h)))
    theta = 2.0 * math.pi * np.arange(m) / m
    pts = np.column_stack((cx + r * np.cos(theta), cy + r * np.sin(theta)))
    vals = _bilinear(at, *_stencil(g, pts))
    return float(r * np.sum(vals) * (2.0 * math.pi / m))


def shell_integral(f: Field, center, r: float) -> float:
    """Line integral of f over the circle of radius r around center.

    Trapezoid rule over m = max(128, 4·ceil(4πr/h)) equispaced points,
    values by bilinear interpolation; returns r * sum(f(theta_k)) * (2*pi/m).
    """
    v = f.values
    return _shell(f.grid, lambda i, j: v[i, j], center, r)


def shell_sq_integral(u: Field, v: Field, center, r: float) -> float:
    """shell_integral of u² + v², squaring only the stencil nodes; the
    same float as shell_integral of the full-grid u² + v²."""
    uu, vv = u.values, v.values
    return _shell(u.grid, lambda i, j: uu[i, j] ** 2 + vv[i, j] ** 2, center, r)


# ---------------------------------------------------------------------------
# field snapshots

_HEADER = "# nx,ny,h,ox,oy"


def field_to_csv(f: Field) -> str:
    """Serialize a field; 17 significant digits round-trip float64 exactly."""
    g = f.grid
    lines = [_HEADER, f"# {g.nx},{g.ny},{g.h:.17g},{g.origin[0]:.17g},{g.origin[1]:.17g}"]
    lines += [",".join(f"{v:.17g}" for v in row) for row in f.values]
    return "\n".join(lines) + "\n"


def write_field(f: Field, path) -> None:
    """Write a field snapshot atomically (temp file + rename)."""
    atomic_write_text(path, field_to_csv(f))


def field_from_csv(text: str) -> Field:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("#") or not lines[1].startswith("#"):
        raise ValueError("field snapshot must start with the two '#' header lines")
    meta = lines[1].lstrip("#").strip().split(",")
    if len(meta) != 5:
        raise ValueError(f"malformed field header: {lines[1]!r}")
    nx, ny = int(meta[0]), int(meta[1])
    h, ox, oy = float(meta[2]), float(meta[3]), float(meta[4])
    rows = lines[2:]
    if len(rows) != nx:
        raise ValueError(f"expected {nx} data rows, found {len(rows)}")
    values = np.array([[float(tok) for tok in row.split(",")] for row in rows])
    if values.shape != (nx, ny):
        raise ValueError(f"expected {ny} columns per row, got shape {values.shape}")
    return Field(Grid2D(nx, ny, h, (ox, oy)), values)


def read_field(path) -> Field:
    """Read a snapshot; an unreadable, malformed or non-finite one raises
    InputInvalid."""
    try:
        with open(path) as fh:
            return field_from_csv(fh.read())
    except (OSError, ValueError) as e:
        raise InputInvalid(path, str(e)) from e
