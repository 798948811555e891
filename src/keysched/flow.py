"""Dense optical flow and the per-frame motion score built on it.

The estimator is a classical pyramidal Horn-Schunck solver: coarse-to-fine
over a blurred 2x-decimated pyramid, one backward warp per level, and Jacobi
iterations of the regularized brightness-constancy update at each level. It
is deterministic and tuned for motion-magnitude ranking rather than
benchmark endpoint accuracy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, TooShortError, TooSmallError, as_index
from .ingest import Frame, FrameSequence
from .motion import MotionCurve, STAGE_RAW

# classical smoothness weight assumes 0..255 intensities; pixels here are
# unit-range, so the solver rescales alpha by 1/255 internally
DEFAULT_ALPHA = 15.0
DEFAULT_ITERATIONS = 100
DEFAULT_PYRAMID_LEVELS = 3
DEFAULT_CONVERGENCE_EPS = 1e-4

MIN_COARSE_SIZE = 8

# weighted neighbor average used by the Jacobi update
_AVG_KERNEL = np.array(
    [[1 / 12, 1 / 6, 1 / 12], [1 / 6, 0.0, 1 / 6], [1 / 12, 1 / 6, 1 / 12]]
)
_BLUR_KERNEL = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0


@dataclass
class FlowField:
    """Per-pixel displacement in pixels/frame; u horizontal, v vertical."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.u.ndim != 2 or self.u.shape != self.v.shape:
            raise InvariantViolationError("u and v must be 2-D arrays of identical shape")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise InvariantViolationError("flow components must be finite")

    @property
    def height(self) -> int:
        return self.u.shape[0]

    @property
    def width(self) -> int:
        return self.u.shape[1]


@dataclass
class FlowParams:
    alpha: float = DEFAULT_ALPHA
    iterations: int = DEFAULT_ITERATIONS
    pyramid_levels: int = DEFAULT_PYRAMID_LEVELS
    convergence_eps: float = DEFAULT_CONVERGENCE_EPS

    def __post_init__(self):
        self.iterations = as_index(self.iterations, "iterations", lo=1)
        self.pyramid_levels = as_index(self.pyramid_levels, "pyramid_levels", lo=1)
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise InvariantViolationError("alpha must be finite and > 0")
        if not (math.isfinite(self.convergence_eps) and self.convergence_eps >= 0):
            raise InvariantViolationError("convergence_eps must be finite and >= 0")


def _conv3(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """3x3 convolution with replicate borders."""
    p = np.pad(x, 1, mode="edge")
    out = np.zeros_like(x)
    h, w = x.shape
    for dy in range(3):
        for dx in range(3):
            k = kernel[dy, dx]
            if k:
                out += k * p[dy:dy + h, dx:dx + w]
    return out


def _gradients(img: np.ndarray):
    """Central differences over a replicate-padded image."""
    p = np.pad(img, 1, mode="edge")
    ix = (p[1:-1, 2:] - p[1:-1, :-2]) / 2.0
    iy = (p[2:, 1:-1] - p[:-2, 1:-1]) / 2.0
    return ix, iy


def _bilinear_sample(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample img at fractional coordinates, clamping to the border."""
    h, w = img.shape
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    top = img[y0, x0] * (1.0 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1.0 - fx) + img[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def _resize_bilinear(img: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    h, w = shape
    sh, sw = img.shape
    gx, gy = np.meshgrid(np.linspace(0.0, sw - 1.0, w), np.linspace(0.0, sh - 1.0, h))
    return _bilinear_sample(img, gx, gy)


def _downsample(img: np.ndarray) -> np.ndarray:
    return _conv3(img, _BLUR_KERNEL)[::2, ::2]


def _linearize(a: np.ndarray, b: np.ndarray, u: np.ndarray, v: np.ndarray,
               grid: np.ndarray, alpha: float):
    """Warp b by the current flow; return the gradients of the mean image,
    the temporal difference and the Jacobi denominator. ``grid`` is the
    level's ``np.indices`` in float64: row, then column coordinates."""
    gy, gx = grid
    b_warped = _bilinear_sample(b, gx + u, gy + v)
    avg = (a + b_warped) / 2.0
    ix, iy = _gradients(avg)
    it = b_warped - a
    denom = alpha ** 2 + ix ** 2 + iy ** 2
    return ix, iy, it, denom


def _solve_level(a: np.ndarray, b: np.ndarray, u: np.ndarray, v: np.ndarray,
                 grid: np.ndarray, alpha: float, iterations: int, eps: float):
    """Warp b by the current flow, then Jacobi-iterate the increment.

    The increment (du, dv) lives as one (2, h, w) array in the interior of a
    replicate-padded (2, h + 2, w + 2) grid; two such grids swap roles each
    iteration, so the loop allocates nothing. The update runs on the flat
    span from the first to the last interior pixel, where each 3x3 tap is a
    constant offset and every operation is one contiguous pass. The border
    pixels inside that span get values nothing reads before the replicate
    refresh overwrites them. Each interior value goes through the float
    operations of one ``np.pad`` convolution per component, in the same
    order, so the result is bit-identical to that form.
    """
    h, w = a.shape
    row = w + 2
    start, size = row + 1, (h - 1) * row + w
    # ix, iy, it, denom laid out like the grid; border 1.0 in denom keeps
    # the discarded border values finite
    terms = np.zeros((4, h + 2, row))
    terms[3] = 1.0
    terms[:, 1:-1, 1:-1] = _linearize(a, b, u, v, grid, alpha)
    terms = terms.reshape(4, -1)[:, start:start + size]
    grad, it, denom = terms[:2], terms[2], terms[3]
    cur, nxt = np.zeros((2, h + 2, row)), np.zeros((2, h + 2, row))
    # the padded increment times each distinct nonzero weight, and the taps
    # in the row-major (dy, dx) order the convolution sums them in
    weighted = {k: np.empty((2, (h + 2) * row)) for k in np.unique(_AVG_KERNEL) if k}
    taps = [weighted[k][:, dy * row + dx:dy * row + dx + size]
            for (dy, dx), k in np.ndenumerate(_AVG_KERNEL) if k]
    bar = np.empty((2, size))
    tmp = np.empty((2, size))
    shared = np.empty(size)
    diff = tmp[:, :h * w].reshape(2, h, w)  # tmp is free once nxt is written
    sums = np.empty(2)
    for _ in range(iterations):
        for k, out in weighted.items():
            np.multiply(cur.reshape(2, -1), k, out=out)
        bar.fill(0.0)
        for tap in taps:
            bar += tap
        np.multiply(grad, bar, out=tmp)
        np.add(tmp[0], tmp[1], out=shared)
        shared += it
        shared /= denom
        np.multiply(grad, shared, out=tmp)
        np.subtract(bar, tmp, out=nxt.reshape(2, -1)[:, start:start + size])
        np.subtract(nxt[:, 1:-1, 1:-1], cur[:, 1:-1, 1:-1], out=diff)
        np.abs(diff, out=diff)
        # larger per-component mean of |new - old|; each row reduces in the
        # same pairwise order as np.mean of that component alone
        np.add.reduce(diff.reshape(2, -1), axis=1, out=sums)
        delta = float(sums.max()) / (h * w)
        nxt[:, 0, 1:-1] = nxt[:, 1, 1:-1]
        nxt[:, -1, 1:-1] = nxt[:, -2, 1:-1]
        nxt[:, :, 0] = nxt[:, :, 1]
        nxt[:, :, -1] = nxt[:, :, -2]
        cur, nxt = nxt, cur
        if delta < eps:
            break
    return u + cur[0, 1:-1, 1:-1], v + cur[1, 1:-1, 1:-1]


def _pair_flows(seq: FrameSequence, params: FlowParams) -> Iterator[FlowField]:
    """Coarse-to-fine flow of each consecutive frame pair, in order.

    The sequence already holds frames of one size; the coarsest level is
    checked once, before any solve. Each frame's pyramid is built once; only
    the previous frame's stays live while the next pair is solved. The pixel
    grid of each level is built once, from the first frame's pyramid.
    """
    h, w = seq.height, seq.width
    levels = params.pyramid_levels
    coarse_h, coarse_w = h >> (levels - 1), w >> (levels - 1)
    if coarse_h < MIN_COARSE_SIZE or coarse_w < MIN_COARSE_SIZE:
        raise TooSmallError(
            f"{h}x{w} leaves {coarse_h}x{coarse_w} at the coarsest of "
            f"{levels} levels (need >= {MIN_COARSE_SIZE})"
        )
    alpha = params.alpha / 255.0
    prev = grids = None
    for frame in seq.frames:
        pyr = [frame.pixels]
        for _ in range(levels - 1):
            pyr.append(_downsample(pyr[-1]))
        if prev is None:
            grids = [np.indices(p.shape, dtype=np.float64) for p in pyr]
        else:
            u = np.zeros_like(pyr[-1])
            v = np.zeros_like(pyr[-1])
            for level in range(levels - 1, -1, -1):
                if level != levels - 1:
                    ch, cw = u.shape
                    fh, fw = pyr[level].shape
                    u = _resize_bilinear(u, (fh, fw)) * (fw / cw)
                    v = _resize_bilinear(v, (fh, fw)) * (fh / ch)
                u, v = _solve_level(
                    prev[level], pyr[level], u, v, grids[level],
                    alpha, params.iterations, params.convergence_eps,
                )
            yield FlowField(u=u, v=v)
        prev = pyr


def estimate_flow(a: Frame, b: Frame, params: FlowParams | None = None) -> FlowField:
    """Dense flow from frame a to frame b, coarse-to-fine.

    The returned (u, v) displace content of ``a`` onto ``b``: content moving
    one pixel right yields u near +1.
    """
    return next(_pair_flows(FrameSequence([a, b]), params or FlowParams()))


def motion_score(flow: FlowField, normalize: bool = True) -> float:
    """Sum of |u| + |v| over all pixels; mean per pixel when ``normalize``."""
    total = float(np.sum(np.abs(flow.u)) + np.sum(np.abs(flow.v)))
    if normalize:
        total /= flow.height * flow.width
    return total


def motion_curve(
    seq: FrameSequence,
    params: FlowParams | None = None,
    normalize: bool = True,
) -> MotionCurve:
    """Motion score of each consecutive frame pair, one entry per frame.

    Entry t scores the transition t -> t+1; the final entry duplicates its
    predecessor so every frame index carries a score. Pairs are solved
    serially, so each frame's pyramid is built once.
    """
    total = len(seq)
    if total < 2:
        raise TooShortError(f"need at least 2 frames, got {total}")
    values = [motion_score(f, normalize=normalize)
              for f in _pair_flows(seq, params or FlowParams())]
    values.append(values[-1])
    return MotionCurve(np.array(values), stage=STAGE_RAW)
