"""Differential check of peak detection against SciPy on plateau-free curves.

Selection takes its peaks and valleys from ``motion.detect_extrema``, so that
detection is checked here against ``scipy.signal``. SciPy applies its distance
filter before prominence and keysched applies prominence first, so the peak
comparison uses ``min_distance=1``, where thinning keeps everything. Plateaus
are left to ``tests/oracles.py``.
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
