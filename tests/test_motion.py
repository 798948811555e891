import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from keysched import errors, motion
from oracles import (
    detect_peaks_oracle,
    peaks_sorted_list_oracle,
    plateau_peaks_oracle,
    prominence_oracle,
    run_prominences_oracle,
)


def normalized(values):
    return motion.MotionCurve(np.asarray(values, dtype=float), stage=motion.STAGE_NORMALIZED)


def bumpy_curve(total=48, bumps=((10, 1.0), (30, 1.0))):
    x = np.zeros(total)
    for idx, height in bumps:
        x[idx] = height
    return normalized(x)


curve_values = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=3, max_size=96,
)


class TestSmooth:
    def test_constant_preserved(self):
        curve = motion.MotionCurve(np.full(10, 3.5))
        assert np.array_equal(motion.smooth(curve).values, np.full(10, 3.5))

    def test_boundary_truncation_hand_values(self):
        curve = motion.MotionCurve(np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        out = motion.smooth(curve, window=5)
        assert np.allclose(out.values, [1 / 3, 1 / 4, 1 / 5, 1 / 4, 1 / 3])
        assert out.stage == motion.STAGE_SMOOTHED

    def test_even_window_rejected(self):
        with pytest.raises(errors.InvalidWindowError):
            motion.smooth(motion.MotionCurve(np.ones(5)), window=4)
        with pytest.raises(errors.InvalidWindowError):
            motion.smooth(motion.MotionCurve(np.ones(5)), window=0)

    def test_window_one_is_identity(self):
        values = np.array([1.0, 5.0, 2.0])
        assert np.array_equal(motion.smooth(motion.MotionCurve(values), 1).values, values)

    def test_sum_past_the_float_range_is_taken_scaled(self):
        x = np.array([1e308, 1e308, 1e308, 0.0, 1e308])
        out = motion.smooth(motion.MotionCurve(x)).values
        assert np.allclose(out, [1e308, 7.5e307, 8e307, 7.5e307, 1e308 / 1.5], rtol=1e-15, atol=0)
        # 2**3 >= 5 values, and scaling by a power of two is exact
        assert out.tobytes() == (motion.smooth(motion.MotionCurve(x / 8)).values * 8).tobytes()
        # five values near the float maximum need all of 2**3: their sum / 2**2 overflows
        near_max = motion.smooth(motion.MotionCurve(np.full(5, 1.7e308)), 3).values
        assert np.allclose(near_max, 1.7e308, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("top, n, window", [
        (sys.float_info.max, 4, 1),
        (np.nextafter(sys.float_info.max, 0), 8, 3),
    ])
    def test_scaled_mean_stays_within_the_float_range(self, top, n, window):
        # a mean of rounded scaled prefix sums can land above max / 2**k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = motion.smooth(motion.MotionCurve(np.full(n, top)), window).values
        assert np.all(np.isfinite(out)) and np.all(out <= top)

    @pytest.mark.parametrize("window", [10**20 + 1, 10**400 + 1])
    def test_window_past_int64_averages_whole_curve(self, window):
        curve = motion.MotionCurve(np.random.default_rng(3).random(9))
        whole = motion.smooth(curve, 2 * len(curve) + 1).values
        assert motion.smooth(curve, window).values.tobytes() == whole.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(values=curve_values)
    def test_matches_direct_truncated_mean(self, values):
        out = motion.smooth(motion.MotionCurve(np.array(values)), 5).values
        for i in range(len(values)):
            window = values[max(0, i - 2):min(len(values), i + 3)]
            assert out[i] == pytest.approx(sum(window) / len(window), rel=1e-12, abs=1e-12)


class TestNormalize:
    def test_hand_values(self):
        out = motion.normalize(motion.MotionCurve(np.array([2.0, 4.0, 6.0])))
        assert np.array_equal(out.values, [0.0, 0.5, 1.0])
        assert out.stage == motion.STAGE_NORMALIZED

    def test_constant_maps_to_zeros(self):
        out = motion.normalize(motion.MotionCurve(np.full(7, 9.0)))
        assert np.array_equal(out.values, np.zeros(7))

    def test_range_below_floor_is_flat(self):
        tiny = motion.normalize(motion.MotionCurve(np.array([0.0, 1.4e-45, 0.0])))
        assert np.array_equal(tiny.values, np.zeros(3))
        at_floor = motion.normalize(motion.MotionCurve(np.array([0.0, motion.FLAT_RANGE, 0.0])))
        assert np.array_equal(at_floor.values, [0.0, 1.0, 0.0])

    def test_fixed_point(self):
        values = np.array([0.0, 0.25, 1.0])
        out = motion.normalize(motion.MotionCurve(values))
        assert np.array_equal(out.values, values)

    @settings(max_examples=100, deadline=None)
    @given(values=curve_values)
    def test_idempotent(self, values):
        once = motion.normalize(motion.MotionCurve(np.array(values)))
        twice = motion.normalize(once)
        assert np.array_equal(once.values, twice.values)


class TestDetectPeaks:
    def test_isolated_bumps(self):
        assert motion.detect_peaks(bumpy_curve()) == [10, 30]

    def test_min_distance_suppression(self):
        curve = bumpy_curve(bumps=((10, 1.0), (13, 0.8)))
        assert motion.detect_peaks(curve) == [10]

    @pytest.mark.parametrize("peaks, valleys", [
        pytest.param([-1, 4], [], id="negative-peak"),
        pytest.param([], [7, 3], id="unsorted-valleys"),
        pytest.param([4, 4], [], id="duplicate-peaks"),
    ])
    def test_extrema_rejects_bad_indices(self, peaks, valleys):
        with pytest.raises(errors.InvariantViolationError):
            motion.Extrema(peaks=peaks, valleys=valleys)

    def test_extrema_rejects_prominence_count(self):
        with pytest.raises(errors.InvariantViolationError):
            motion.Extrema(peaks=[2, 4], prominences=[0.5])

    def test_extrema_equality_includes_prominences(self):
        assert motion.Extrema(peaks=[2], prominences=[0.5]) != motion.Extrema(peaks=[2])
        assert (motion.Extrema(peaks=[2], prominences=[0.5])
                != motion.Extrema(peaks=[2], prominences=[0.25]))

    def test_flat_curve_has_no_peaks(self):
        assert motion.detect_peaks(normalized(np.zeros(20))) == []

    def test_plateau_reports_leftmost(self):
        x = np.zeros(20)
        x[8:12] = 1.0
        assert motion.detect_peaks(normalized(x)) == [8]

    def test_endpoint_runs_are_not_peaks(self):
        rising = normalized(np.linspace(0, 1, 20))
        assert motion.detect_peaks(rising) == []

    def test_prominence_threshold(self):
        x = np.zeros(30)
        x[10] = 1.0
        x[20] = 0.05  # below the 0.1 prominence floor
        assert motion.detect_peaks(normalized(x)) == [10]

    def test_requires_normalized(self):
        with pytest.raises(errors.NotNormalizedError):
            motion.detect_peaks(motion.MotionCurve(np.zeros(10)))

    @settings(max_examples=150, deadline=None)
    @given(values=curve_values)
    def test_matches_bruteforce_oracle(self, values):
        curve = motion.normalize(motion.MotionCurve(np.array(values)))
        ours = motion.detect_peaks(curve)
        assert ours == detect_peaks_oracle(curve.values.tolist())

    @settings(max_examples=100, deadline=None)
    @given(values=curve_values)
    def test_returned_peaks_satisfy_constraints(self, values):
        curve = motion.normalize(motion.MotionCurve(np.array(values)))
        peaks = motion.detect_peaks(curve)
        x = curve.values.tolist()
        for p in peaks:
            assert prominence_oracle(x, p) >= motion.DEFAULT_MIN_PROMINENCE
        for a, b in zip(peaks, peaks[1:]):
            assert b - a >= motion.DEFAULT_MIN_DISTANCE

    @settings(max_examples=100, deadline=None)
    @given(values=curve_values,
           scale=st.floats(min_value=0.1, max_value=50.0),
           offset=st.floats(min_value=0.0, max_value=20.0))
    @example(values=[0.0, 1.4e-45, 0.0], scale=1.0, offset=1.0)
    def test_invariant_under_positive_affine_transform(self, values, scale, offset):
        raw = np.array(values)
        moved = raw * scale + offset
        # Rounding ``raw * scale + offset`` can move the range across
        # FLAT_RANGE or make two neighbours equal; the input is then another
        # curve. A flat curve has no peaks whatever its neighbour order.
        flat = np.ptp(raw) < motion.FLAT_RANGE
        assume(flat == (np.ptp(moved) < motion.FLAT_RANGE))
        if not flat:
            assume(np.array_equal(np.sign(np.diff(raw)), np.sign(np.diff(moved))))
        plain = motion.detect_peaks(motion.normalize(motion.MotionCurve(raw)))
        mapped = motion.detect_peaks(motion.normalize(motion.MotionCurve(moved)))
        assert plain == mapped

    def test_transform_that_merges_neighbours_reports_the_plateau(self):
        raw = np.array([0.0, 99.99999999999999, 100.0, 0.0])
        assert motion.detect_peaks(motion.normalize(motion.MotionCurve(raw))) == [2]
        moved = raw * 0.1
        assert moved[1] == moved[2]
        assert motion.detect_peaks(motion.normalize(motion.MotionCurve(moved))) == [1]


class TestDetectValleys:
    def test_negated_bumps(self):
        x = 1.0 - bumpy_curve().values
        assert motion.detect_valleys(normalized(x)) == [10, 30]

    def test_v_shaped_dip(self):
        x = np.ones(41)
        x[14:27] = np.abs(np.arange(-6, 7)) / 6.0
        assert motion.detect_valleys(normalized(x)) == [20]

    def test_monotone_curve_has_no_valleys(self):
        assert motion.detect_valleys(normalized(np.linspace(0, 1, 30))) == []

    @settings(max_examples=150, deadline=None)
    @given(values=curve_values)
    # 1.0 - 1.5e-157 rounds to 1.0, so an affinely negated curve puts the valley at 1
    @example(values=[1.0, 1.547698698760985e-157, 0.0, 1.0])
    def test_duality_with_peaks(self, values):
        curve = motion.normalize(motion.MotionCurve(np.array(values)))
        assert motion.detect_valleys(curve) == detect_peaks_oracle((-curve.values).tolist())


class TestPeakProminences:
    def test_matches_oracle_on_random_indices(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = rng.random(rng.integers(3, 60))
            curve = motion.normalize(motion.MotionCurve(x))
            indices = list(range(len(curve)))
            ours = motion.peak_prominences(curve, indices)
            theirs = [prominence_oracle(curve.values.tolist(), i) for i in indices]
            assert ours == theirs

    def test_out_of_range_rejected(self):
        with pytest.raises(errors.InvariantViolationError):
            motion.peak_prominences(normalized(np.zeros(5)), [5])


class TestLocalMaximaAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(values=curve_values)
    def test_plateau_handling(self, values):
        first, (runs, _, prom), (vruns, _, vprom) = motion._prominences(np.array(values))
        assert first[runs[prom > 0]].tolist() == plateau_peaks_oracle(values)
        assert first[vruns[vprom > 0]].tolist() == plateau_peaks_oracle([-v for v in values])


# integer-valued and 2-decimal curves: long plateaus and exact ties
plateau_values = st.one_of(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=96),
    st.lists(st.integers(min_value=0, max_value=100).map(lambda k: k / 100),
             min_size=1, max_size=96),
)


class TestExactAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(values=plateau_values)
    # 1.0 - 0.1 rounds, so on the affinely negated curve the valley's prominence
    # of exactly 0.1 fell just below min_prominence=0.1
    @example(values=[1.0, 0.0, 0.1])
    def test_prominences_and_extrema_on_plateau_curves(self, values):
        curve = motion.normalize(motion.MotionCurve(np.array(values, dtype=float)))
        x = curve.values.tolist()
        indices = list(range(len(x)))
        assert motion.peak_prominences(curve, indices) == [prominence_oracle(x, i) for i in indices]
        negated = (-curve.values).tolist()
        for min_distance in (0, 1, 3, 5, 50):
            for min_prominence in (0.0, 0.1, 0.5):
                assert motion.detect_peaks(curve, min_distance, min_prominence) == \
                    detect_peaks_oracle(x, min_distance, min_prominence)
                assert motion.detect_valleys(curve, min_distance, min_prominence) == \
                    detect_peaks_oracle(negated, min_distance, min_prominence)
                extrema = motion.detect_extrema(curve, min_distance, min_prominence)
                assert extrema.prominences == [prominence_oracle(x, i) for i in extrema.peaks]

    @pytest.mark.parametrize("heights", [
        pytest.param(np.arange(1, 4001), id="ascending"),
        pytest.param(np.arange(4000, 0, -1), id="descending"),
        pytest.param(np.abs(np.arange(-2000, 2000)) + 1, id="v-shaped"),
    ])
    def test_sawtooth_is_linear(self, heights):
        # every walk outward from a tooth crosses all lower teeth: quadratic for
        # a per-peak walk; and a peeling round drops one tooth, so the stack
        # finishes nearly all of them
        x = np.zeros(8000)
        x[1::2] = heights
        curve = motion.normalize(motion.MotionCurve(x))
        indices = list(range(x.size))
        start = time.perf_counter()
        extrema = motion.detect_extrema(curve)
        proms = motion.peak_prominences(curve, indices)
        elapsed = time.perf_counter() - start
        v = curve.values.tolist()
        assert extrema.peaks == detect_peaks_oracle(v)
        assert extrema.valleys == detect_peaks_oracle((-curve.values).tolist())
        assert proms == [prominence_oracle(v, i) for i in indices]
        assert elapsed < 2.0


def teeth(heights):
    """Zero-separated teeth of the given heights, starting and ending on a zero."""
    x = np.zeros(2 * len(heights) + 1)
    x[1::2] = heights
    return x.tolist()


def seeded_curve(kind, size, seed):
    rng = np.random.default_rng(seed)
    if kind == "integers":
        return rng.integers(0, 6, size).astype(float)
    if kind == "cents":
        return rng.integers(0, 101, size) / 100
    return rng.random(size)


# long enough for both the peeling rounds and the stack remainder to run
long_curves = st.one_of(
    plateau_values,
    st.builds(seeded_curve, st.sampled_from(["integers", "cents", "floats"]),
              st.integers(min_value=1, max_value=4000), st.integers(0, 2**32 - 1)),
)


class TestPeelingAgainstStackOracle:
    @settings(max_examples=100, deadline=None)
    @given(values=long_curves)
    @example(values=[0.0, 1.0, 2.0])
    @example(values=[0.0, 1.0, 0.0])
    @example(values=[0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    @example(values=teeth(range(1, 301)))
    @example(values=teeth(range(300, 0, -1)))
    @example(values=teeth(np.abs(np.arange(-150, 150)) + 1))
    def test_bytes_match_stack_oracle(self, values):
        x = np.asarray(values, dtype=float)
        first, *halves = motion._prominences(x)
        oracle_first = run_prominences_oracle(x)[0]
        assert first.tobytes() == oracle_first.tobytes()
        for side, (runs, _, half_prom) in zip((x, -x), halves):
            prom = np.zeros(first.size)
            prom[runs] = half_prom
            assert prom.tobytes() == run_prominences_oracle(side)[1].tobytes()
        curve = motion.normalize(motion.MotionCurve(x))
        y = curve.values
        y_first, y_prom = run_prominences_oracle(y)
        per_index = np.repeat(y_prom, np.diff(np.append(y_first, y.size)))
        ours = motion.peak_prominences(curve, list(range(y.size)))
        assert np.array(ours).tobytes() == per_index.tobytes()
        for min_prominence in (0.0, motion.DEFAULT_MIN_PROMINENCE, 0.3):
            extrema = motion.detect_extrema(curve, motion.DEFAULT_MIN_DISTANCE, min_prominence)
            peaks, proms = peaks_sorted_list_oracle(y, motion.DEFAULT_MIN_DISTANCE, min_prominence)
            valleys = peaks_sorted_list_oracle(-y, motion.DEFAULT_MIN_DISTANCE, min_prominence)[0]
            assert (extrema.peaks, extrema.valleys) == (peaks, valleys)
            assert np.array(extrema.prominences).tobytes() == np.array(proms).tobytes()


def assert_prune_exact(x, min_prominence):
    """``_prominences`` against the stack oracle: every peak above the floor
    rule gets its exact prominence, and only peaks whose height above the
    floor rounds below ``min_prominence`` get 0, when their prominence is
    below it too."""
    x = np.asarray(x, dtype=float)
    first, *halves = motion._prominences(x, min_prominence)
    oracle_first = run_prominences_oracle(x)[0]
    assert first.tobytes() == oracle_first.tobytes()
    for side, (runs, heights, prom) in zip((x, -x), halves):
        exact = run_prominences_oracle(side)[1]
        assert runs.tolist() == np.flatnonzero(exact > 0).tolist()
        assert heights.tobytes() == side[first[runs]].tobytes()
        exact = exact[runs]
        pruned = heights - side.min() < min_prominence
        assert prom[~pruned].tobytes() == exact[~pruned].tobytes()
        assert not prom[pruned].any()
        assert (exact[pruned] < min_prominence).all()
    return halves


def floor_and_peak():
    """A floor in [0.25, 0.5] and a height in (floor, 2 * floor], two ulps or
    more apart; their difference is exact (Sterbenz), and so is it one ulp off."""
    return st.floats(0.25, 0.5).flatmap(lambda lo: st.tuples(st.just(lo), st.floats(
        lo, 2 * lo).filter(lambda h: lo < np.nextafter(h, -np.inf) and np.nextafter(lo, np.inf) < h)))


class TestFloorPrune:
    @settings(max_examples=100, deadline=None)
    @given(pair=floor_and_peak(), count=st.integers(0, 200))
    def test_peak_at_the_boundary_is_kept_and_one_ulp_below_dropped(self, pair, count):
        lo, h = pair
        min_prominence = h - lo
        below = np.nextafter(h, -np.inf)
        # low teeth, under the floor rule, before and between the two peaks
        low_teeth = [lo, lo + min_prominence / 4] * count
        x = np.array(low_teeth + [lo, h] + low_teeth + [lo, below, lo])
        (runs, _, prom), _ = assert_prune_exact(x, min_prominence)
        first = motion._prominences(x)[0]
        at = dict(zip(first[runs].tolist(), prom.tolist()))
        assert at[2 * count + 1] == min_prominence
        assert at[x.size - 2] == 0.0
        assert motion.peak_prominences(motion.MotionCurve(x), [x.size - 2]) == [below - lo]

    @settings(max_examples=100, deadline=None)
    @given(pair=floor_and_peak())
    def test_valley_at_the_boundary_is_kept_and_one_ulp_above_dropped(self, pair):
        lo, hi = pair
        min_prominence = hi - lo  # the valley at lo stands that high over -hi on -x
        above = np.nextafter(lo, np.inf)
        x = np.array([hi, lo, hi, above, hi])
        _, (runs, _, prom) = assert_prune_exact(x, min_prominence)
        assert runs.tolist() == [1, 3]
        assert prom.tolist() == [min_prominence, 0.0]

    @settings(max_examples=100, deadline=None)
    @given(gaps=st.lists(st.floats(0.05, 0.2), min_size=1, max_size=300),
           kept=st.floats(0.6, 0.9), min_prominence=st.floats(0.3, 0.5))
    def test_kept_peak_sees_its_higher_peak_across_dropped_ones(self, gaps, kept, min_prominence):
        # 1.0, then teeth of height 0.25 (pruned) over the given gaps, then the
        # kept peak, whose left base is the lowest of those gaps; the floor 0
        # is the right end
        x = [0.0, 1.0]
        for g in gaps:
            x += [g, 0.25]
        x += [gaps[-1] / 2, kept, 0.0]
        (_, _, prom), _ = assert_prune_exact(x, min_prominence)
        assert prom[-1] == kept - min(gaps[-1] / 2, *gaps)
        assert np.count_nonzero(prom) == 2

    @settings(max_examples=100, deadline=None)
    @given(values=long_curves)
    def test_out_of_range_prunes_everything_and_zero_nothing(self, values):
        x = np.asarray(values, dtype=float)
        for _, _, prom in assert_prune_exact(x, np.ptp(x) + 0.5):
            assert not prom.any()
        for _, _, prom in assert_prune_exact(x, 0.0):
            assert (prom > 0).all()
        curve = motion.normalize(motion.MotionCurve(x))
        assert motion.detect_extrema(curve, 1, 1.5) == motion.Extrema(prominences=[])

    @settings(max_examples=150, deadline=None)
    @given(values=plateau_values, min_prominence=st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    @example(values=[0], min_prominence=0.1)
    @example(values=[0, 1], min_prominence=0.1)
    @example(values=[3, 3], min_prominence=0.0)
    def test_plateaus_and_short_curves(self, values, min_prominence):
        assert_prune_exact(values, min_prominence)
        curve = motion.normalize(motion.MotionCurve(np.array(values, dtype=float)))
        x = curve.values.tolist()
        extrema = motion.detect_extrema(curve, 1, min_prominence)
        assert extrema.peaks == detect_peaks_oracle(x, 1, min_prominence)
        assert extrema.valleys == detect_peaks_oracle([-v for v in x], 1, min_prominence)
        if len(values) < 3:
            assert extrema == motion.Extrema(prominences=[])


def smoothed_noise(size, seed):
    """Seeded uniform noise, smoothed and normalized as ``select`` prepares a curve."""
    raw = motion.MotionCurve(np.random.default_rng(seed).random(size))
    return motion.normalize(motion.smooth(raw, motion.DEFAULT_SMOOTH_WINDOW)).values


class TestDistanceFilterAgainstSortedList:
    @settings(max_examples=100, deadline=None)
    @given(values=st.builds(smoothed_noise, st.integers(1, 5000), st.integers(0, 2**32 - 1)),
           distance=st.sampled_from([0, 1, 2, 5, 50, 500, 10**30]),
           prominence=st.sampled_from([0.0, 0.1]))
    @example(values=[0, 1, 0, 0, 1, 0], distance=3, prominence=0.1)  # equal peaks d apart
    @example(values=[0, 1, 0, 0, 1, 0], distance=4, prominence=0.1)  # the tie: lower index
    @example(values=[0, 0.5, 0, 1, 0, 0.7, 0], distance=7, prominence=0.0)  # d >= n
    @example(values=[0, 0.5, 1], distance=5, prominence=0.0)  # no candidates
    @example(values=teeth([1, 2] * 20), distance=5, prominence=0.1)  # ties an unstable sort moves
    def test_peaks_match_oracle(self, values, distance, prominence):
        x = np.asarray(values, dtype=float)
        first, *halves = motion._prominences(x, prominence)
        for side, half in zip((x, -x), halves):
            peaks, prominences = motion._peaks(first, half, distance, prominence)
            assert (peaks.dtype, prominences.dtype) == (np.int64, np.float64)
            assert (peaks.tolist(), prominences.tolist()) == \
                peaks_sorted_list_oracle(side, distance, prominence)

    def test_huge_distance_keeps_only_the_top_extrema(self):
        x = np.zeros(48)
        x[[10, 20, 30, 40]] = 0.6, 0.3, 1.0, 0.8
        assert motion.detect_extrema(normalized(x), 10**30) == \
            motion.Extrema(peaks=[30], valleys=[11], prominences=[1.0])
