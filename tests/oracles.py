"""Independent reference implementations used to cross-check the library.

Everything here is written for clarity over speed: direct definitions,
explicit slices, and exhaustive enumeration. None of it calls back into the
code paths it verifies.
"""

import math

import numpy as np


def translated_texture(height=64, width=64, period=16.0):
    """Smooth periodic texture plus exact 1-px right/down circular shifts."""
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    base = 0.5 + 0.2 * np.sin(2 * np.pi * xx / period) + 0.2 * np.sin(2 * np.pi * yy / period)
    return base, np.roll(base, 1, axis=1), np.roll(base, 1, axis=0)


def plateau_peaks_oracle(x):
    """Strict local maxima; a flat run counts once at its leftmost index."""
    n = len(x)
    peaks = []
    for i in range(1, n - 1):
        if not x[i - 1] < x[i]:
            continue
        after = next((x[j] for j in range(i + 1, n) if x[j] != x[i]), None)
        if after is not None and after < x[i]:
            peaks.append(i)
    return peaks


def prominence_oracle(x, i):
    """Height above the higher of the two saddles toward higher terrain."""
    h = x[i]
    higher_left = [j for j in range(i) if x[j] > h]
    lo = max(higher_left) + 1 if higher_left else 0
    left_base = min(x[lo:i + 1])
    higher_right = [j for j in range(i + 1, len(x)) if x[j] > h]
    hi = min(higher_right) if higher_right else len(x)
    right_base = min(x[i:hi])
    return h - max(left_base, right_base)


def detect_peaks_oracle(x, min_distance=5, min_prominence=0.1):
    """Full detection pipeline rebuilt from the definitions above."""
    survivors = [i for i in plateau_peaks_oracle(x)
                 if prominence_oracle(x, i) >= min_prominence]
    kept = []
    for i in sorted(survivors, key=lambda i: (-x[i], i)):
        if min((abs(i - k) for k in kept), default=min_distance) >= min_distance:
            kept.append(i)
    return sorted(kept)


def max_matching_oracle(gt, pred, threshold, strict=False):
    """Exhaustive search over all one-to-one assignments."""

    def ok(g, p):
        d = abs(g - p)
        return d < threshold if strict else d <= threshold

    best = 0

    def rec(i, used, count):
        nonlocal best
        if count + (len(gt) - i) <= best:
            return
        if i == len(gt):
            best = max(best, count)
            return
        rec(i + 1, used, count)
        for j in range(len(pred)):
            if not used >> j & 1 and ok(gt[i], pred[j]):
                rec(i + 1, used | (1 << j), count + 1)

    rec(0, 0, 0)
    return best


def mel_band_oracle(freq, n_mels=128, fmax=8000.0):
    """Band whose area-normalized triangle is strongest at ``freq``."""

    def hz_to_mel(f):
        return f * 3.0 / 200.0 if f < 1000.0 else \
            15.0 + math.log(f / 1000.0) / (math.log(6.4) / 27.0)

    def mel_to_hz(m):
        return m * 200.0 / 3.0 if m < 15.0 else \
            1000.0 * math.exp((math.log(6.4) / 27.0) * (m - 15.0))

    pts = [mel_to_hz(m) for m in np.linspace(hz_to_mel(0.0), hz_to_mel(fmax), n_mels + 2)]
    best, best_w = -1, -1.0
    for i in range(n_mels):
        lo, mid, hi = pts[i], pts[i + 1], pts[i + 2]
        w = max(0.0, min((freq - lo) / (mid - lo), (hi - freq) / (hi - mid)))
        w *= 2.0 / (hi - lo)
        if w > best_w:
            best, best_w = i, w
    return best


# Horn-Schunck level solve in its direct form: separate (du, dv) arrays, one
# np.pad and a fresh accumulator per component and iteration.
# flow._solve_level must match it bit for bit.
AVG_KERNEL = np.array(
    [[1 / 12, 1 / 6, 1 / 12], [1 / 6, 0.0, 1 / 6], [1 / 12, 1 / 6, 1 / 12]]
)


def conv3_oracle(x, kernel):
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


def gradients_oracle(img):
    """Central differences over a replicate-padded image."""
    p = np.pad(img, 1, mode="edge")
    ix = (p[1:-1, 2:] - p[1:-1, :-2]) / 2.0
    iy = (p[2:, 1:-1] - p[:-2, 1:-1]) / 2.0
    return ix, iy


def bilinear_sample_oracle(img, xs, ys):
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


def solve_level_oracle(a, b, u, v, alpha, iterations, eps):
    """Warp b by the current flow, then Jacobi-iterate the increment."""
    h, w = a.shape
    gy, gx = np.mgrid[0:h, 0:w].astype(np.float64)
    b_warped = bilinear_sample_oracle(b, gx + u, gy + v)
    avg = (a + b_warped) / 2.0
    ix, iy = gradients_oracle(avg)
    it = b_warped - a
    denom = alpha ** 2 + ix ** 2 + iy ** 2
    du = np.zeros_like(u)
    dv = np.zeros_like(v)
    for _ in range(iterations):
        ubar = conv3_oracle(du, AVG_KERNEL)
        vbar = conv3_oracle(dv, AVG_KERNEL)
        shared = (ix * ubar + iy * vbar + it) / denom
        ndu = ubar - ix * shared
        ndv = vbar - iy * shared
        delta = max(float(np.mean(np.abs(ndu - du))), float(np.mean(np.abs(ndv - dv))))
        du, dv = ndu, ndv
        if delta < eps:
            break
    return u + du, v + dv


def hs_energy_oracle(a, b_warped, u, v, alpha):
    """Discrete Horn-Schunck energy of an increment (u, v) at one level.

    The brightness-constancy residual is linearized around the warped second
    frame; smoothness uses forward differences.
    """
    avg = (a + b_warped) / 2.0
    ix, iy = gradients_oracle(avg)
    it = b_warped - a
    data = (ix * u + iy * v + it) ** 2
    smooth = np.zeros_like(u)
    smooth[:, :-1] += np.diff(u, axis=1) ** 2 + np.diff(v, axis=1) ** 2
    smooth[:-1, :] += np.diff(u, axis=0) ** 2 + np.diff(v, axis=0) ** 2
    return float(np.sum(data) + alpha ** 2 * np.sum(smooth))
