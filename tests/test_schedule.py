import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keysched import audiofeat, errors, schedule
from keysched.selection import KeyframeSchedule
from oracles import freenoise_windows_oracle


def make_schedule(total, keyframes):
    return KeyframeSchedule(total_frames=total, keyframes=keyframes,
                            fill=[i for i in keyframes if i != 0])


class TestInterpolationLayout:
    def test_two_keyframe_placement(self):
        sched = make_schedule(8, [0, 4])
        layout = schedule.interpolation_layout(np.array([[1.0], [2.0]]), sched)
        assert layout.mask.tolist() == [1, 0, 0, 0, 1, 0, 0, 0]
        assert layout.features[0, 0] == 1.0 and layout.features[4, 0] == 2.0
        others = np.delete(layout.features, [0, 4], axis=0)
        assert np.all(others == 0.0)

    def test_full_coverage_is_identity(self):
        sched = make_schedule(4, [0, 1, 2, 3])
        feats = np.arange(8.0).reshape(4, 2)
        layout = schedule.interpolation_layout(feats, sched)
        assert np.all(layout.mask == 1)
        assert np.array_equal(layout.features, feats)

    def test_count_mismatch(self):
        with pytest.raises(errors.CountMismatchError):
            schedule.interpolation_layout(np.zeros((3, 2)), make_schedule(8, [0, 4]))

    def test_unmasked_rows_exactly_zero(self):
        rng = np.random.default_rng(2)
        sched = make_schedule(16, [0, 3, 9, 15])
        layout = schedule.interpolation_layout(rng.standard_normal((4, 5)), sched)
        assert np.sum(np.abs(layout.features[layout.mask == 0])) == 0.0

    def test_gather_roundtrip(self):
        rng = np.random.default_rng(4)
        sched = make_schedule(20, [0, 2, 7, 13, 19])
        feats = rng.standard_normal((5, 3))
        layout = schedule.interpolation_layout(feats, sched)
        back = audiofeat.gather_keyframe_rows(layout.features, sched)
        assert np.array_equal(back, feats)


class TestFirstFrameLayout:
    def test_repetition(self):
        layout = schedule.firstframe_layout(np.array([[7.0]]), 12)
        assert layout.features.shape == (12, 1)
        assert np.all(layout.features == 7.0)
        assert np.all(layout.mask == 1)

    def test_single_frame(self):
        layout = schedule.firstframe_layout(np.array([[1.0, 2.0]]), 1)
        assert np.array_equal(layout.features, [[1.0, 2.0]])

    def test_multi_row_rejected(self):
        with pytest.raises(errors.ShapeMismatchError):
            schedule.firstframe_layout(np.zeros((2, 2)), 4)


class TestFreenoiseWindows:
    def test_48_12_6(self):
        plan = schedule.freenoise_windows(48, 12, 6)
        assert plan.windows == [(s, s + 12) for s in range(0, 42, 6)]
        assert len(plan.windows) == 7

    def test_single_window(self):
        assert schedule.freenoise_windows(12, 12, 6).windows == [(0, 12)]

    def test_clamped_tail(self):
        plan = schedule.freenoise_windows(50, 12, 6)
        assert plan.windows[:-1] == [(s, s + 12) for s in range(0, 42, 6)]
        assert plan.windows[-1] == (38, 50)

    def test_bad_geometry(self):
        with pytest.raises(errors.BadGeometryError):
            schedule.freenoise_windows(48, 6, 12)
        with pytest.raises(errors.BadGeometryError):
            schedule.freenoise_windows(8, 12, 6)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_coverage_and_overlap(self, data):
        total = data.draw(st.integers(min_value=1, max_value=200))
        window = data.draw(st.integers(min_value=1, max_value=total))
        stride = data.draw(st.integers(min_value=1, max_value=window))
        plan = schedule.freenoise_windows(total, window, stride)
        assert plan.windows == freenoise_windows_oracle(total, window, stride)
        covered = set()
        for s, e in plan.windows:
            assert e - s == window
            covered.update(range(s, e))
        assert covered == set(range(total))
        # non-clamped consecutive pairs overlap by window - stride
        for (s1, e1), (s2, e2) in zip(plan.windows, plan.windows[1:]):
            if s2 - s1 == stride:
                assert e1 - s2 == window - stride

    def test_window_count_cap(self):
        cap = schedule.MAX_WINDOWS
        assert len(schedule.WindowPlan(cap, 1, 1).windows) == cap
        assert len(schedule.WindowPlan(12 + (cap - 1) * 6, 12, 6).windows) == cap
        with pytest.raises(errors.BadGeometryError, match=f"makes {cap + 1} windows"):
            schedule.WindowPlan(cap + 1, 1, 1)
        # a clamped tail window is one past the cap
        with pytest.raises(errors.BadGeometryError, match=f"makes {cap + 1} windows"):
            schedule.WindowPlan(12 + (cap - 1) * 6 + 1, 12, 6)

    def test_to_dict_shape(self):
        d = schedule.freenoise_windows(48, 12, 6).to_dict()
        assert d["windows"][0] == [0, 12]
        assert d["total_frames"] == 48


class TestLayoutSerialization:
    def test_condition_layout_to_dict(self):
        layout = schedule.interpolation_layout(
            np.array([[1.0], [2.0]]), make_schedule(4, [0, 2]))
        d = layout.to_dict()
        assert d["mask"] == [1, 0, 1, 0]
        assert d["features"] == [[1.0], [0.0], [2.0], [0.0]]
        assert d["total_frames"] == 4

    @pytest.mark.parametrize("mask", [[True, False], [1.0, 0.0], np.array([1, 0], np.uint8)],
                             ids=["bool", "float", "uint8"])
    def test_real_zero_one_masks_load_as_int64(self, mask):
        layout = schedule.ConditionLayout(mask, [[2.0], [0.0]])
        assert layout.mask.dtype == np.int64
        assert layout.to_dict()["mask"] == [1, 0]


class TestFrameIndexEmbedding:
    def test_index_zero(self):
        assert np.array_equal(schedule.frame_index_embedding([0], 4)[0],
                              [0.0, 1.0, 0.0, 1.0])

    def test_rows_pairwise_distinct(self):
        emb = schedule.frame_index_embedding(range(48), 64)
        dists = np.linalg.norm(emb[:, None, :] - emb[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 1e-6

    def test_odd_dim_rejected(self):
        with pytest.raises(errors.OddDimError):
            schedule.frame_index_embedding([0], 3)

    def test_negative_index_rejected(self):
        with pytest.raises(errors.InvariantViolationError):
            schedule.frame_index_embedding([-1], 4)

    @settings(max_examples=80, deadline=None)
    @given(indices=st.lists(st.integers(min_value=0, max_value=10000),
                            min_size=1, max_size=16),
           half=st.integers(min_value=1, max_value=32))
    def test_row_norm_is_half_channels(self, indices, half):
        channels = 2 * half
        emb = schedule.frame_index_embedding(indices, channels)
        norms = np.sum(emb ** 2, axis=1)
        assert np.allclose(norms, channels / 2, rtol=1e-12, atol=1e-9)
