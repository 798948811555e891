"""Differential check of extrema detection against SciPy on plateau-free curves.

Selection takes its peaks and valleys from ``motion.detect_extrema``, so that
detection is checked here against ``scipy.signal``, valleys as the peaks of
``-values``. SciPy applies its distance filter before prominence and keysched
applies prominence first, so the comparisons use ``min_distance=1``, where
thinning keeps everything. Plateaus are left to ``tests/oracles.py``.
"""

import numpy as np
import pytest

from keysched import motion

signal = pytest.importorskip("scipy.signal")


def plateau_free_curves():
    """One seeded normalized curve per length 3..400, with a prominence threshold."""
    rng = np.random.default_rng(400)
    for n in range(3, 401):
        curve = motion.normalize(motion.MotionCurve(rng.random(n)))
        assert np.all(np.diff(curve.values) != 0)
        yield curve, float(rng.uniform(0.0, 0.6))


def heavy_tailed_curves():
    """Like ``plateau_free_curves`` for lengths 3..1999, most values crowded near 0.

    Some values lie below half an ulp of 1.0, where ``1.0 - x`` rounds to 1.0,
    so an affinely negated curve would merge them into plateaus; the others
    lose their low bits in that subtraction.
    """
    rng = np.random.default_rng(1999)
    for n in range(3, 2000):
        curve = motion.normalize(motion.MotionCurve(rng.random(n) ** 8))
        assert np.all(np.diff(curve.values) != 0)
        yield curve, float(rng.uniform(0.0, 0.6))


def test_detect_peaks_matches_find_peaks():
    for curve, p in plateau_free_curves():
        ours = motion.detect_peaks(curve, min_distance=1, min_prominence=p)
        theirs = signal.find_peaks(curve.values, prominence=p)[0]
        assert ours == theirs.tolist(), (len(curve), p)


def test_prominences_match_exactly_on_every_local_maximum():
    for curve, _ in plateau_free_curves():
        maxima = signal.find_peaks(curve.values)[0]
        ours = motion.peak_prominences(curve, maxima.tolist())
        theirs = signal.peak_prominences(curve.values, maxima)[0]
        assert ours == theirs.tolist(), len(curve)


@pytest.mark.parametrize("curves", [plateau_free_curves, heavy_tailed_curves])
def test_detect_valleys_matches_find_peaks_on_negated_curve(curves):
    for curve, p in curves():
        ours = motion.detect_valleys(curve, min_distance=1, min_prominence=p)
        theirs = signal.find_peaks(-curve.values, prominence=p)[0]
        assert ours == theirs.tolist(), (len(curve), p)
