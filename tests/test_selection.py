import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keysched import errors, motion, selection


def normalized(values):
    return motion.MotionCurve(np.asarray(values, dtype=float), stage=motion.STAGE_NORMALIZED)


def flat_curve(total):
    return normalized(np.zeros(total))


def two_peak_curve(total=48):
    """Plateau at 0.5 with peaks at 10/30 and the deepest dip at 20."""
    x = np.full(total, 0.5)
    x[10] = 1.0
    x[30] = 1.0
    x[20] = 0.0
    return normalized(x)


def two_dip_curve():
    """two_peak_curve plus a shallow dip at 15 beside the deepest one at 20."""
    x = two_peak_curve().values.copy()
    x[15] = 0.3
    return normalized(x)


def burst_curve(total=2400, bursts=8, seed=2400):
    """Smoothed, normalized noise plus Gaussian bursts: many peaks and valleys."""
    rng = np.random.default_rng(seed)
    t = np.arange(total)
    centres = np.sort(rng.choice(total, bursts, replace=False))
    raw = 0.05 * rng.random(total) + np.exp(-(((t[:, None] - centres) / 20.0) ** 2)).sum(axis=1)
    return motion.normalize(motion.smooth(motion.MotionCurve(raw)))


class TestValleyBetween:
    def test_argmin_tiebreak_on_flat_inside(self):
        curve = normalized([0.0] * 10 + [1.0] + [0.0] * 19 + [1.0] + [0.0] * 17)
        assert selection.valley_between(curve, motion.Extrema(), 10, 30) == 11

    def test_detected_valley_preferred(self):
        curve = two_peak_curve()
        assert selection.valley_between(curve, motion.detect_extrema(curve), 10, 30) == 20

    def test_no_valley_inside_falls_back_to_argmin(self):
        assert selection.valley_between(two_dip_curve(), motion.Extrema(), 10, 30) == 20
        outside = motion.Extrema(valleys=[5, 30, 40])
        assert selection.valley_between(two_dip_curve(), outside, 10, 30) == 20

    def test_callers_valleys_are_the_candidates(self):
        curve = two_dip_curve()
        assert selection.valley_between(curve, motion.Extrema(valleys=[15]), 10, 30) == 15
        assert selection.valley_between(curve, motion.Extrema(valleys=[15, 20]), 10, 30) == 20

    def test_empty_open_interval(self):
        curve = two_peak_curve()
        assert selection.valley_between(curve, motion.detect_extrema(curve), 10, 11) is None

    def test_bad_interval(self):
        curve = two_peak_curve()
        with pytest.raises(errors.BadIntervalError):
            selection.valley_between(curve, motion.detect_extrema(curve), 30, 10)

    def test_matches_filtering_every_detected_valley(self):
        """Bisecting the sorted valley list picks what a full scan would."""
        rng = np.random.default_rng(11)
        for _ in range(40):
            total = int(rng.integers(8, 300))
            curve = motion.normalize(motion.MotionCurve(rng.random(total)))
            extrema = motion.detect_extrema(curve, int(rng.integers(1, 6)), 0.05)
            p1, p2 = sorted(int(i) for i in rng.choice(total, 2, replace=False))
            x = curve.values
            inside = [v for v in extrema.valleys if p1 < v < p2] or range(p1 + 1, p2)
            expected = min(inside, key=lambda v: (x[v], v)) if p2 - p1 >= 2 else None
            assert selection.valley_between(curve, extrema, p1, p2) == expected


    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_argmin_matches_the_key_min_on_tied_values(self, data):
        values = data.draw(st.lists(st.integers(0, 3), min_size=3, max_size=60))
        curve = normalized([v / 3 for v in values])
        total = len(values)
        valleys = sorted(data.draw(st.lists(st.integers(0, total - 1), unique=True)))
        p1 = data.draw(st.integers(0, total - 2))
        p2 = data.draw(st.integers(p1 + 1, total - 1))
        inside = [v for v in valleys if p1 < v < p2] or range(p1 + 1, p2)
        x = curve.values
        expected = min(inside, key=lambda v: (x[v], v)) if p2 - p1 >= 2 else None
        assert selection.valley_between(curve, motion.Extrema(valleys=valleys), p1, p2) == expected


class TestChoosePeaks:
    def test_fewer_than_limit_returns_all(self):
        assert selection.choose_peaks([5, 9], [0.3, 0.2], 5) == [5, 9]

    def test_prominence_ranking_with_tie(self):
        out = selection.choose_peaks([10, 30, 40], [0.9, 0.5, 0.5], 2)
        assert out == [10, 30]

    def test_seeded_random_is_deterministic(self):
        params = selection.SelectionParams(target_count=4,
                                           mode=selection.MODE_SEEDED_RANDOM, seed=99)
        peaks = list(range(0, 40, 4))
        proms = [0.5] * len(peaks)
        first = selection.choose_peaks(peaks, proms, 3, params)
        second = selection.choose_peaks(peaks, proms, 3, params)
        assert first == second
        assert len(first) == 3
        assert first == sorted(first)

    def test_different_seeds_can_differ(self):
        peaks = list(range(0, 60, 3))
        proms = [0.5] * len(peaks)
        draws = {
            tuple(selection.choose_peaks(
                peaks, proms, 4,
                selection.SelectionParams(4, selection.MODE_SEEDED_RANDOM, seed)))
            for seed in range(8)
        }
        assert len(draws) > 1

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_lexsort_matches_the_key_sort_on_tied_prominences(self, data):
        peaks = data.draw(st.lists(st.integers(0, 1000) | st.integers(2**63, 2**70),
                                   unique=True, max_size=60))
        proms = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                                   min_size=len(peaks), max_size=len(peaks)))
        limit = data.draw(st.integers(0, len(peaks) + 2))
        ranked = sorted(range(len(peaks)), key=lambda i: (-proms[i], peaks[i]))
        assert selection.choose_peaks(peaks, proms, limit) == sorted(peaks[i] for i in ranked[:limit])


class TestSelectKeyframes:
    def test_flat_curve_uniform_schedule(self):
        sched = selection.select_keyframes(flat_curve(48), motion.Extrema(),
                                           selection.SelectionParams(12))
        assert sched.keyframes == list(range(0, 48, 4))
        assert sched.peaks_used == [] and sched.valleys_used == []
        assert sched.fill == list(range(4, 48, 4))

    def test_two_peak_walkthrough(self):
        curve = two_peak_curve()
        extrema = motion.Extrema(peaks=[10, 30],
                                 valleys=motion.detect_valleys(curve))
        sched = selection.select_keyframes(curve, extrema, selection.SelectionParams(12))
        assert sched.keyframes == [0, 3, 7, 10, 13, 17, 20, 25, 30, 35, 39, 44]
        assert sched.peaks_used == [10, 30]
        assert sched.valleys_used == [20]

    def test_valleys_come_from_the_callers_extrema(self):
        extrema = motion.Extrema(peaks=[10, 30], valleys=[15])
        sched = selection.select_keyframes(two_dip_curve(), extrema,
                                           selection.SelectionParams(12))
        assert sched.valleys_used == [15]
        assert 15 in sched.keyframes

    def test_no_valley_redetection(self, monkeypatch):
        curve = burst_curve()
        extrema = motion.detect_extrema(curve)

        def no_detection(*args, **kwargs):
            raise AssertionError("valleys detected again during selection")

        monkeypatch.setattr(motion, "detect_valleys", no_detection)
        monkeypatch.setattr(selection, "detect_valleys", no_detection)
        sched = selection.select_keyframes(curve, extrema, selection.SelectionParams(24))
        assert len(sched.keyframes) == 24
        assert sched.valleys_used
        assert set(sched.valleys_used) <= set(extrema.valleys)

    def test_prominences_come_from_the_callers_extrema(self, monkeypatch):
        curve = burst_curve()
        extrema = motion.detect_extrema(curve)
        bare = motion.Extrema(peaks=extrema.peaks, valleys=extrema.valleys)
        expected = selection.select_keyframes(curve, bare, selection.SelectionParams(24))

        def no_pass(*args, **kwargs):
            raise AssertionError("prominences computed again during selection")

        monkeypatch.setattr(selection, "peak_prominences", no_pass)
        sched = selection.select_keyframes(curve, extrema, selection.SelectionParams(24))
        assert sched == expected
        assert sched.peaks_used

    def test_given_prominences_rank_the_peaks(self):
        x = two_peak_curve().values.copy()
        x[30] = 0.8
        curve = normalized(x)
        params = selection.SelectionParams(4)
        bare = motion.Extrema(peaks=[10, 30])
        assert selection.select_keyframes(curve, bare, params).peaks_used == [10]
        given = motion.Extrema(peaks=[10, 30], prominences=[0.1, 0.9])
        assert selection.select_keyframes(curve, given, params).peaks_used == [30]

    def test_invalid_k(self):
        with pytest.raises(errors.InvalidKError):
            selection.select_keyframes(flat_curve(48), motion.Extrema(),
                                       selection.SelectionParams(48))
        with pytest.raises(errors.InvalidKError):
            selection.SelectionParams(1)

    @pytest.mark.parametrize("fields", [
        pytest.param(dict(keyframes=[2, 5], peaks_used=[2, 5]), id="no-frame-0"),
        pytest.param(dict(keyframes=[0, 5], peaks_used=[5], fill=[5]), id="overlapping"),
        pytest.param(dict(keyframes=[0, 3, 5], peaks_used=[5]), id="uncovered"),
        pytest.param(dict(keyframes=[0, 5], peaks_used=[5, 5]), id="repeated"),
    ])
    def test_schedule_invariants(self, fields):
        with pytest.raises(errors.InvariantViolationError):
            selection.KeyframeSchedule(total_frames=8, **fields)

    def test_extrema_out_of_range(self):
        with pytest.raises(errors.InconsistentExtremaError):
            selection.select_keyframes(flat_curve(48), motion.Extrema(peaks=[50]),
                                       selection.SelectionParams(12))

    def test_minimal_k_two(self):
        sched = selection.select_keyframes(flat_curve(48), motion.Extrema(),
                                           selection.SelectionParams(2))
        assert sched.keyframes == [0, 24]

    def test_chosen_extrema_always_kept(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            total = int(rng.integers(16, 80))
            curve = motion.normalize(motion.MotionCurve(rng.random(total)))
            extrema = motion.detect_extrema(curve)
            t_k = int(rng.integers(2, min(16, total - 1) + 1))
            sched = selection.select_keyframes(curve, extrema,
                                               selection.SelectionParams(t_k))
            for p in sched.peaks_used:
                assert p in sched.keyframes
            for v in sched.valleys_used:
                assert v in sched.keyframes

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_cardinality_property(self, data):
        total = data.draw(st.integers(min_value=13, max_value=96))
        t_k = data.draw(st.integers(min_value=2, max_value=min(24, total - 1)))
        values = data.draw(st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=total, max_size=total))
        curve = motion.normalize(motion.smooth(motion.MotionCurve(np.array(values))))
        extrema = motion.detect_extrema(curve)
        sched = selection.select_keyframes(curve, extrema, selection.SelectionParams(t_k))
        assert len(sched.keyframes) == t_k
        assert sched.keyframes[0] == 0
        assert all(b > a for a, b in zip(sched.keyframes, sched.keyframes[1:]))
        assert all(0 <= i < total for i in sched.keyframes)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_flat_divisible_equals_uniform_stride(self, data):
        t_k = data.draw(st.integers(min_value=2, max_value=24))
        multiple = data.draw(st.integers(min_value=2, max_value=8))
        total = t_k * multiple
        sched = selection.select_keyframes(flat_curve(total), motion.Extrema(),
                                           selection.SelectionParams(t_k))
        assert sched.keyframes == list(range(0, total, total // t_k))


class TestLargestRemainder:
    def test_exact_division_has_no_remainder(self):
        assert selection._largest_remainder([10, 10, 10], 6) == [2, 2, 2]

    def test_remainder_to_largest_fractions(self):
        # ideal shares 1.636, 1.636, 1.636, 3.091 -> floors 1,1,1,3, ties to low index
        assert selection._largest_remainder([9, 9, 9, 17], 8) == [2, 2, 1, 3]

    def test_allocation_sums_to_total(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            weights = [int(w) for w in rng.integers(0, 12, n)]
            if sum(weights) == 0:
                continue
            total = int(rng.integers(0, sum(weights) + 1))
            alloc = selection._largest_remainder(weights, total)
            assert sum(alloc) == total
            assert all(0 <= a <= w for a, w in zip(alloc, weights))

    @pytest.mark.parametrize("weights", [[1], [0, 5], [3, 0, 4, 9]])
    def test_zero_total_gives_zeros(self, weights):
        assert selection._largest_remainder(weights, 0) == [0] * len(weights)

    def test_zero_weight_slot_gets_nothing(self):
        assert selection._largest_remainder([0, 5], 3) == [0, 3]

    @pytest.mark.parametrize("weights, total", [([2, 3], 6), ([0, 0], 1), ([4], -1)])
    def test_total_outside_zero_to_weight_sum_rejected(self, weights, total):
        with pytest.raises(errors.InvariantViolationError):
            selection._largest_remainder(weights, total)


class TestPlaceInGap:
    @pytest.mark.parametrize("a", [0, 1000])
    def test_distinct_and_strictly_inside_for_every_small_gap(self, a):
        for span in range(1, 41):
            for count in range(span):
                placed = selection._place_in_gap(a, a + span, count)
                assert len(set(placed)) == count
                assert all(a < i < a + span for i in placed)

    def test_rounds_half_up(self):
        # ideal offsets 2.5, 5.0, 7.5
        assert selection._place_in_gap(0, 10, 3) == [3, 5, 8]


class TestSplitMix:
    def test_known_sequence_is_stable(self):
        state = 0
        outputs = []
        for _ in range(3):
            state, z = selection._splitmix64(state)
            outputs.append(z)
        # frozen from the reference SplitMix64 constants
        assert outputs == [16294208416658607535, 7960286522194355700, 487617019471545679]
