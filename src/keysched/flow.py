"""Dense optical flow and the per-frame motion score built on it.

The estimator is a classical pyramidal Horn-Schunck solver: coarse-to-fine
over a blurred 2x-decimated pyramid, one backward warp per level, and Jacobi
iterations of the regularized brightness-constancy update at each level. It
is deterministic and tuned for motion-magnitude ranking rather than
benchmark endpoint accuracy.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (InvariantViolationError, KeyschedError, TooShortError, TooSmallError,
                     as_floats, as_index)
from .ingest import Frame, FrameSequence, FrameSource
from .motion import MotionCurve, STAGE_RAW

# classical smoothness weight assumes 0..255 intensities; pixels here are
# unit-range, so the solver rescales alpha by 1/255 internally
DEFAULT_ALPHA = 15.0
DEFAULT_ITERATIONS = 100
DEFAULT_PYRAMID_LEVELS = 3
DEFAULT_CONVERGENCE_EPS = 1e-4

MIN_COARSE_SIZE = 8
# the least alpha with 1 / (alpha / 255) ** 2 finite: on a flat region the
# Jacobi step divides the temporal difference, up to 1, by that square
MIN_ALPHA = 255.0 / np.sqrt(np.finfo(np.float64).max)

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
        self.u, self.v = as_floats(self.u, "u", 2), as_floats(self.v, "v", 2)
        if self.u.shape != self.v.shape:
            raise InvariantViolationError("u and v must be 2-D arrays of identical shape")

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
        self.alpha = float(as_floats(self.alpha, "alpha", lo=MIN_ALPHA))
        self.convergence_eps = float(as_floats(self.convergence_eps, "convergence_eps", lo=0.0))


def _bilinear_sample(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample img (one plane or a stack of planes over its last two axes) at
    fractional coordinates, clamping to the border; xs and ys broadcast.

    Each corner is one ``take`` through the flat index row * w + column,
    which costs less than indexing with the two coordinate arrays.
    """
    h, w = img.shape[-2:]
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    planes = img.reshape(*img.shape[:-2], h * w)
    r0, r1 = y0 * w, y1 * w  # flat offsets of the rows above and below
    top = planes.take(r0 + x0, axis=-1) * (1.0 - fx) + planes.take(r0 + x1, axis=-1) * fx
    bot = planes.take(r1 + x0, axis=-1) * (1.0 - fx) + planes.take(r1 + x1, axis=-1) * fx
    return top * (1.0 - fy) + bot * fy


def _downsample(img: np.ndarray) -> np.ndarray:
    """Blur with replicate borders and keep every second row and column;
    only the kept pixels are blurred."""
    p = np.pad(img, 1, mode="edge")
    h, w = img.shape
    out = np.zeros(((h + 1) // 2, (w + 1) // 2))
    for (dy, dx), k in np.ndenumerate(_BLUR_KERNEL):
        out += k * p[dy:dy + h:2, dx:dx + w:2]
    return out


def _solve_level(a: np.ndarray, b: np.ndarray, uv: np.ndarray, alpha: float,
                 iterations: int, eps: float) -> np.ndarray:
    """Warp b by the current flow, then Jacobi-iterate the increment.

    The warp, the gradients of the mean image, the temporal difference and
    the Jacobi denominator are written straight into the interiors of the
    ``terms`` grids. du and dv live in the interiors of two replicate-padded
    (h + 2, w + 2) grids placed back to back in one flat buffer; two such
    buffers swap roles each iteration, so the loop allocates nothing. Each
    tap, product and difference is one contiguous pass over the run from
    du's first interior pixel to dv's last, where each 3x3 tap is a
    constant offset.
    The taps are summed into the next buffer's run, which sheds the data
    term in place; the 1/12-weighted buffer, dead once summed, holds that
    term (the shared term in its u span), then |new - old|. Border pixels
    in the run hold finite values until the replicate refresh. Each interior
    value goes through the float operations of one ``np.pad`` convolution
    per component, in order, bar the sum's 0.0 start: ``0.0 + t`` differs
    from ``t`` only for a tap t = -0.0, the underflow of a weighted negative
    subnormal, and then only in a zero's sign, which the scores' ``abs`` drops.
    """
    h, w = a.shape
    row = w + 2
    grid = (h + 2) * row
    # du's first interior pixel, one component's interior span, and the run
    # over both interiors
    start, size = row + 1, (h - 1) * row + w
    span = grid + size
    # ix, iy, it, denom laid out as four grids; border 1.0 in denom keeps
    # the discarded border values finite
    terms = np.zeros((4, h + 2, row))
    terms[3] = 1.0
    ix_in, iy_in, it_in, denom_in = terms[:, 1:-1, 1:-1]
    warped = _bilinear_sample(b, np.arange(w, dtype=np.float64) + uv[0],
                              np.arange(h, dtype=np.float64)[:, None] + uv[1])
    p = np.pad((a + warped) / 2.0, 1, mode="edge")
    np.subtract(p[1:-1, 2:], p[1:-1, :-2], out=ix_in)
    np.subtract(p[2:, 1:-1], p[:-2, 1:-1], out=iy_in)
    terms[:2, 1:-1, 1:-1] /= 2.0
    np.subtract(warped, a, out=it_in)
    np.add(alpha ** 2 + ix_in ** 2, iy_in ** 2, out=denom_in)
    terms = terms.reshape(-1)[start:]
    grad, it, denom = terms[:span], terms[2 * grid:][:size], terms[3 * grid:][:size]
    # the padded increment times each distinct nonzero weight, and the taps
    # in the row-major (dy, dx) order the convolution sums them in
    weighted = {k: np.empty(2 * grid) for k in np.unique(_AVG_KERNEL) if k}
    taps = [weighted[k][dy * row + dx:dy * row + dx + span]
            for (dy, dx), k in np.ndenumerate(_AVG_KERNEL) if k]
    tmp = weighted[_AVG_KERNEL[0, 0]][:span]
    tmp_u, tmp_v, grad_u, grad_v = tmp[:size], tmp[grid:], grad[:size], grad[grid:]
    diff_rows = tmp[:2 * h * w].reshape(2, -1)
    diff = diff_rows.reshape(2, h, w)
    sums = np.empty(2)

    def views(flat):
        """The buffer, its run, its interiors, and (border, source) pairs."""
        g = flat.reshape(2, h + 2, row)
        edges = [(g[:, 0, 1:-1], g[:, 1, 1:-1]), (g[:, -1, 1:-1], g[:, -2, 1:-1]),
                 (g[:, :, 0], g[:, :, 1]), (g[:, :, -1], g[:, :, -2])]
        return flat, flat[start:start + span], g[:, 1:-1, 1:-1], edges

    first, second = views(np.zeros(2 * grid)), views(np.zeros(2 * grid))
    parities = [(first, second), (second, first)]
    for step in range(iterations):
        (cur, _, cur_in, _), (_, nxt_run, nxt_in, edges) = parities[step & 1]
        for k, buf in weighted.items():
            np.multiply(cur, k, out=buf)
        np.add(taps[0], taps[1], out=nxt_run)
        for tap in taps[2:]:
            nxt_run += tap
        np.multiply(grad, nxt_run, out=tmp)
        tmp_u += tmp_v
        tmp_u += it
        tmp_u /= denom
        np.multiply(grad_v, tmp_u, out=tmp_v)
        tmp_u *= grad_u
        nxt_run -= tmp
        np.subtract(nxt_in, cur_in, out=diff)
        np.abs(diff_rows, out=diff_rows)
        # larger per-component mean of |new - old|; each row reduces in the
        # same pairwise order as np.mean of that component alone
        np.add.reduce(diff_rows, axis=1, out=sums)
        delta = float(sums.max()) / (h * w)
        for border, source in edges:
            border[...] = source
        if delta < eps:
            break
    return uv + nxt_in


def _pyramid_pairs(seq: FrameSequence | FrameSource, frames: range,
                   levels: int) -> Iterator[tuple[list, list]]:
    """The pyramids of each consecutive pair of the frames ``frames`` of
    ``seq``, in order.

    ``seq[i]`` is frame i, held in memory or read as the pairs are taken.
    The coarsest level, whose sides ``_downsample`` rounds up, is checked
    once from the shared size, before any frame is read. Each frame is read
    once and its pyramid built once, and the generator keeps only the latest
    pyramid between pairs.
    """
    h, w = seq.height, seq.width
    coarse_h, coarse_w = -(-h >> (levels - 1)), -(-w >> (levels - 1))
    if coarse_h < MIN_COARSE_SIZE or coarse_w < MIN_COARSE_SIZE:
        raise TooSmallError(
            f"{h}x{w} leaves {coarse_h}x{coarse_w} at the coarsest of "
            f"{levels} levels (need >= {MIN_COARSE_SIZE})"
        )
    prev = None
    for i in frames:
        pyr = [seq[i].pixels]
        for _ in range(levels - 1):
            pyr.append(_downsample(pyr[-1]))
        if prev is not None:
            yield prev, pyr
        prev = pyr


def _solve_pair(prev: list, pyr: list, params: FlowParams) -> FlowField:
    """Coarse-to-fine flow from the frame of pyramid ``prev`` to that of
    ``pyr``: one (2, h, w) array of (u, v), from the coarsest level to the
    finest."""
    alpha = params.alpha / 255.0
    levels = len(pyr)
    uv = np.zeros((2, *pyr[-1].shape))
    for level in range(levels - 1, -1, -1):
        if level != levels - 1:
            _, ch, cw = uv.shape
            fh, fw = pyr[level].shape
            uv = _bilinear_sample(uv, np.linspace(0.0, cw - 1.0, fw),
                                  np.linspace(0.0, ch - 1.0, fh)[:, None])
            uv *= np.array([fw / cw, fh / ch])[:, None, None]
        uv = _solve_level(prev[level], pyr[level], uv, alpha,
                          params.iterations, params.convergence_eps)
    return FlowField(u=uv[0], v=uv[1])


def estimate_flow(a: Frame, b: Frame, params: FlowParams | None = None) -> FlowField:
    """Dense flow from frame a to frame b, coarse-to-fine.

    The returned (u, v) displace content of ``a`` onto ``b``: content moving
    one pixel right yields u near +1.
    """
    params = params or FlowParams()
    pair = next(_pyramid_pairs(FrameSequence([a, b]), range(2), params.pyramid_levels))
    return _solve_pair(*pair, params)


def motion_score(flow: FlowField, normalize: bool = True) -> float:
    """Sum of |u| + |v| over all pixels; mean per pixel when ``normalize``."""
    total = float(np.sum(np.abs(flow.u)) + np.sum(np.abs(flow.v)))
    if normalize:
        total /= flow.height * flow.width
    return total


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _range_scores(seq: FrameSequence | FrameSource, frames: range, params: FlowParams,
                  normalize: bool) -> list[float]:
    """The score of each consecutive pair of the frames ``frames`` of ``seq``,
    in order, up to the first failure."""
    scores = []
    for pair in _pyramid_pairs(seq, frames, params.pyramid_levels):
        scores.append(motion_score(_solve_pair(*pair, params), normalize=normalize))
        del pair  # hold no spent pyramid while the next one is built
    return scores


def _fork_range(seq: FrameSequence | FrameSource, frames: range, params: FlowParams,
                normalize: bool) -> tuple[int, int]:
    """Start a child that scores the pairs of the frames ``frames`` of
    ``seq``; return its pid and the read end of the pipe where it sends
    ``(scores, error)`` as a pickle."""
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns on a fork from a process with OS threads, and
        # NumPy's OpenBLAS starts one at import. The child calls no BLAS and
        # takes no lock that another thread can hold.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    try:  # the child: every path ends in os._exit, so nothing of the parent's runs on
        os.close(read)
        try:
            result = _range_scores(seq, frames, params, normalize), None
        except BaseException as exc:
            result = None, exc
        try:
            data = pickle.dumps(result)
            pickle.loads(data)
        except Exception:  # only an error can fail to pickle; scores always do
            exc = result[1]
            data = pickle.dumps((None, KeyschedError(
                f"flow worker raised {type(exc).__qualname__}, which does not pickle: {exc}")))
        with open(write, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def motion_curve(
    seq: FrameSequence | FrameSource,
    params: FlowParams | None = None,
    normalize: bool = True,
) -> MotionCurve:
    """Motion score of each consecutive frame pair, one entry per frame.

    Entry t scores the transition t -> t+1; the final entry duplicates its
    predecessor so every frame index carries a score.

    The pairs are split into ``min(usable CPUs, pairs)`` contiguous ranges of
    frame indices, where neighbouring ranges share one boundary frame; each
    range reads its frames as ``seq[i]``, so each frame is read once per
    range that holds it and its pyramid built once per range. The calling
    process solves the first range; each other range goes to one
    ``os.fork()`` child, which sends its scores back through a pipe. Pairs
    are independent, so the bytes do not depend on the range count. A range
    keeps at most two pyramids live, so peak memory does not grow with the
    length of a ``FrameSource``. Where ``os.fork`` is missing, or where
    the process runs other Python threads (forking there is unsafe), the
    calling thread solves all pairs as one range.

    Each range stops at its first failure, and the error of the lowest range
    that failed is raised: the error one range would raise. Every child is
    killed, if it still runs, and reaped before this returns or raises.
    """
    total = len(seq)
    if total < 2:
        raise TooShortError(f"need at least 2 frames, got {total}")
    params = params or FlowParams()
    ranges = min(_usable_cpus(), total - 1)
    if not hasattr(os, "fork") or threading.active_count() > 1:
        ranges = 1
    # range k solves pairs bounds[k] to bounds[k + 1] - 1, whose last frame is bounds[k + 1]
    bounds = [(total - 1) * k // ranges for k in range(ranges + 1)]
    workers = []  # (pid, pipe) of each child, in range order
    try:
        for a, b in zip(bounds[1:], bounds[2:]):
            workers.append(_fork_range(seq, range(a, b + 1), params, normalize))
        values = _range_scores(seq, range(bounds[1] + 1), params, normalize)
        for pid, pipe in workers:
            with open(pipe, "rb", closefd=False) as fh:
                data = fh.read()
            if not data:
                raise KeyschedError(f"flow worker {pid} ended without a result")
            scores, error = pickle.loads(data)
            if error is not None:
                raise error
            values += scores
    finally:
        for pid, pipe in workers:
            os.close(pipe)
            os.kill(pid, signal.SIGKILL)  # no effect on a child that has exited
            os.waitpid(pid, 0)
    values.append(values[-1])
    return MotionCurve(np.array(values), stage=STAGE_RAW)
