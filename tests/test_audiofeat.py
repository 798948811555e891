import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keysched import audiofeat, errors
from keysched.ingest import AudioClip
from keysched.selection import KeyframeSchedule
from oracles import interp_pos_embeddings_oracle, mel_band_oracle

GOLDEN_MEL = Path(__file__).parent / "golden" / "mel.json"
# the last kept window ends at sample 31 600
FRAMED_SAMPLES = audiofeat.WINDOW_SIZE + (audiofeat.TARGET_FRAMES - 1) * audiofeat.HOP_SIZE


def tone_clip(freq=1000.0, seconds=2.0, rate=16000):
    t = np.arange(int(seconds * rate)) / rate
    return AudioClip(samples=0.9 * np.sin(2 * np.pi * freq * t), sample_rate=rate)


def seeded_clip(n_samples, seed=None):
    """Two tones plus uniform noise, seeded by the length unless given."""
    rng = np.random.default_rng(n_samples if seed is None else seed)
    t = np.arange(n_samples) / 16000.0
    samples = (0.4 * np.sin(2 * np.pi * 440.0 * t) + 0.3 * np.sin(2 * np.pi * 2500.0 * t)
               + 0.2 * rng.uniform(-1.0, 1.0, n_samples))
    return AudioClip(samples=samples, sample_rate=16000)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestMelSpectrogram:
    def test_two_second_clip_shape(self):
        spec = audiofeat.mel_spectrogram(tone_clip())
        assert spec.values.shape == (128, 196)
        assert spec.bands == 128 and spec.frames == 196

    def test_silence_is_all_zero(self):
        clip = AudioClip(samples=np.zeros(32000), sample_rate=16000)
        assert np.all(audiofeat.mel_spectrogram(clip).values == 0.0)

    def test_short_clip_zero_padded(self):
        clip = AudioClip(samples=0.5 * np.ones(8000), sample_rate=16000)
        spec = audiofeat.mel_spectrogram(clip)
        assert spec.values.shape == (128, 196)
        raw_frames = (8000 - 400) // 160 + 1
        assert np.all(spec.values[:, raw_frames:] == 0.0)

    def test_tone_argmax_band_matches_oracle_in_every_frame(self):
        spec = audiofeat.mel_spectrogram(tone_clip(1000.0))
        expected = mel_band_oracle(1000.0)
        assert np.all(spec.values.argmax(axis=0) == expected)

    def test_wrong_rate_rejected(self):
        clip = AudioClip(samples=np.zeros(1000), sample_rate=44100)
        with pytest.raises(errors.WrongSampleRateError):
            audiofeat.mel_spectrogram(clip)

    def test_sub_window_clip_rejected(self):
        clip = AudioClip(samples=np.zeros(399), sample_rate=16000)
        with pytest.raises(errors.ClipTooShortError):
            audiofeat.mel_spectrogram(clip)

    @settings(max_examples=25, deadline=None)
    @given(extra=st.integers(min_value=1, max_value=200_000),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_long_clip_equals_its_framed_prefix(self, extra, seed):
        # only the first 31 600 samples reach a kept window, so nothing past
        # them may move a value, not even by BLAS blocking
        clip = seeded_clip(FRAMED_SAMPLES + extra, seed)
        prefix = AudioClip(samples=clip.samples[:FRAMED_SAMPLES], sample_rate=16000)
        full = audiofeat.mel_spectrogram(clip).values
        assert np.array_equal(full, audiofeat.mel_spectrogram(prefix).values)


class TestMelGoldens:
    """Bytes pinned by ``tests/golden/mel.json``. A moved CSV hash is a
    numeric change to report, not a golden to recapture."""

    golden = json.loads(GOLDEN_MEL.read_text())

    def test_filterbank_bytes_match_golden(self):
        assert sha256(audiofeat.mel_filterbank().tobytes()) == self.golden["filterbank"]

    @pytest.mark.parametrize("n_samples", [400, 16_000, 31_600, 31_601, 96_000, 960_000])
    def test_csv_bytes_match_golden(self, n_samples):
        text = audiofeat.mel_csv_text(audiofeat.mel_spectrogram(seeded_clip(n_samples)))
        assert sha256(text.encode("ascii")) == self.golden["mel_csv"][str(n_samples)]


class TestMelFilterbank:
    def test_every_filter_captures_some_bin(self):
        bank = audiofeat.mel_filterbank()
        assert np.all(bank.sum(axis=1) > 0.0)

    def test_interior_bins_are_tiled(self):
        # bins strictly inside (0, 8000); DC sits exactly on the first
        # triangle's zero-weight edge and the 8 kHz bin on the last one's
        bank = audiofeat.mel_filterbank()
        coverage = bank.sum(axis=0)
        assert np.all(coverage[1:-1] > 0.0)

    def test_filters_are_nonnegative(self):
        assert np.all(audiofeat.mel_filterbank() >= 0.0)


class TestPatchTokenCount:
    def test_reference_stride_counts(self):
        assert audiofeat.patch_token_count(196, 16, 10) == 19
        assert audiofeat.patch_token_count(196, 16, 4) == 46

    def test_single_patch(self):
        assert audiofeat.patch_token_count(16, 16, 4) == 1

    @pytest.mark.parametrize("kernel", [0, -5])
    def test_kernel_below_one_rejected(self, kernel):
        with pytest.raises(errors.InvariantViolationError):
            audiofeat.patch_token_count(196, kernel, 1)

    def test_kernel_too_large(self):
        with pytest.raises(errors.KernelTooLargeError):
            audiofeat.patch_token_count(8, 16, 4)

    @settings(max_examples=100, deadline=None)
    @given(t_a=st.integers(min_value=16, max_value=512),
           kernel=st.integers(min_value=1, max_value=16),
           stride=st.integers(min_value=1, max_value=16))
    def test_monotonicity(self, t_a, kernel, stride):
        base = audiofeat.patch_token_count(t_a, kernel, stride)
        assert audiofeat.patch_token_count(t_a + 1, kernel, stride) >= base
        assert audiofeat.patch_token_count(t_a, kernel, stride + 1) <= base
        if kernel + 1 <= t_a:
            assert audiofeat.patch_token_count(t_a, kernel + 1, stride) <= base


class TestInterpPosEmbeddings:
    def test_identity_when_length_unchanged(self):
        emb = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(audiofeat.interp_pos_embeddings(emb, 4), emb)

    def test_midpoint_insertion(self):
        out = audiofeat.interp_pos_embeddings(np.array([[0.0], [2.0]]), 3)
        assert np.array_equal(out, [[0.0], [1.0], [2.0]])

    def test_single_row_broadcasts(self):
        out = audiofeat.interp_pos_embeddings(np.array([[3.0, 4.0]]), 5)
        assert np.array_equal(out, np.tile([3.0, 4.0], (5, 1)))

    def test_endpoints_preserved_exactly(self):
        rng = np.random.default_rng(5)
        emb = rng.standard_normal((7, 4))
        for n_new in (2, 3, 9, 20):
            out = audiofeat.interp_pos_embeddings(emb, n_new)
            assert np.array_equal(out[0], emb[0])
            assert np.array_equal(out[-1], emb[-1])
        # a single target row collapses to the first source row
        assert np.array_equal(audiofeat.interp_pos_embeddings(emb, 1), emb[[0]])

    def test_monotone_channels_stay_monotone(self):
        emb = np.cumsum(np.abs(np.random.default_rng(6).standard_normal((6, 3))), axis=0)
        out = audiofeat.interp_pos_embeddings(emb, 11)
        assert np.all(np.diff(out, axis=0) >= -1e-12)

    def test_down_up_roundtrip_recovers_endpoints(self):
        rng = np.random.default_rng(9)
        emb = rng.standard_normal((9, 2))
        back = audiofeat.interp_pos_embeddings(
            audiofeat.interp_pos_embeddings(emb, 25), 9)
        assert np.allclose(back[0], emb[0]) and np.allclose(back[-1], emb[-1])

    def test_up_down_roundtrip_recovers_interior(self):
        # upsampling to 2N-1 keeps every source position on the new grid, so
        # the round trip reproduces interior rows to float precision
        rng = np.random.default_rng(10)
        emb = rng.standard_normal((6, 3))
        back = audiofeat.interp_pos_embeddings(
            audiofeat.interp_pos_embeddings(emb, 11), 6)
        assert np.allclose(back, emb, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 24), n_new=st.integers(1, 64), channels=st.integers(1, 6),
           data=st.data())
    def test_bytes_match_per_channel_interp(self, rows, n_new, channels, data):
        values = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=rows * channels,
                                    max_size=rows * channels))
        emb = np.array(values).reshape(rows, channels)
        ours = audiofeat.interp_pos_embeddings(emb, n_new)
        assert ours.tobytes() == interp_pos_embeddings_oracle(emb, n_new).tobytes()

    @pytest.mark.parametrize("n_new", [1, 2, 3])
    def test_negative_zero_rows_kept(self, n_new):
        emb = np.array([[-0.0, 1.0], [0.0, -0.0]])
        ours = audiofeat.interp_pos_embeddings(emb, n_new)
        assert ours.tobytes() == interp_pos_embeddings_oracle(emb, n_new).tobytes()


class TestSegmentFeatures:
    def test_identity_mapping(self):
        mat = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(audiofeat.segment_features(mat, 4), mat)

    def test_endpoint_mapping_46_to_48(self):
        mat = np.arange(46.0)[:, None]
        out = audiofeat.segment_features(mat, 48)
        assert out[0, 0] == 0.0
        assert out[47, 0] == 45.0

    def test_single_token_broadcast(self):
        mat = np.array([[7.0, 8.0]])
        out = audiofeat.segment_features(mat, 6)
        assert np.array_equal(out, np.tile([7.0, 8.0], (6, 1)))

    def test_single_step_takes_first_row(self):
        mat = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(audiofeat.segment_features(mat, 1), mat[[0]])

    @pytest.mark.parametrize("time_steps", [1, 4, 7])
    def test_result_is_a_new_array(self, time_steps):
        mat = np.arange(8.0).reshape(4, 2)
        out = audiofeat.segment_features(mat, time_steps)
        out[...] = -1.0
        assert np.array_equal(mat, np.arange(8.0).reshape(4, 2))


class TestGatherKeyframeRows:
    def test_full_range_identity(self):
        mat = np.arange(12.0).reshape(6, 2)
        sched = KeyframeSchedule(total_frames=6, keyframes=list(range(6)),
                                 fill=list(range(1, 6)))
        assert np.array_equal(audiofeat.gather_keyframe_rows(mat, sched), mat)

    def test_picked_rows(self):
        mat = np.arange(6.0)[:, None]
        out = audiofeat.gather_keyframe_rows(mat, [0, 2, 5])
        assert np.array_equal(out, [[0.0], [2.0], [5.0]])

    def test_out_of_range(self):
        with pytest.raises(errors.IndexOutOfRangeError):
            audiofeat.gather_keyframe_rows(np.zeros((6, 1)), [6])

    @pytest.mark.parametrize("indices", [[], [3], list(range(6)), [5, 0, 5]])
    def test_result_is_a_new_array(self, indices):
        mat = np.arange(12.0).reshape(6, 2)
        out = audiofeat.gather_keyframe_rows(mat, indices)
        out[...] = -1.0
        assert np.array_equal(mat, np.arange(12.0).reshape(6, 2))


class TestL1Loss:
    def test_equal_inputs_give_zero(self):
        mat = np.random.default_rng(1).standard_normal((3, 4))
        assert audiofeat.l1_loss(mat, mat) == 0.0

    def test_hand_value(self):
        assert audiofeat.l1_loss(np.array([[0.0, 2.0]]), np.array([[1.0, 0.0]])) == 1.5

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatchError):
            audiofeat.l1_loss(np.zeros((2, 3)), np.zeros((3, 2)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_symmetry_and_scaling(self, data):
        rows = data.draw(st.integers(min_value=1, max_value=5))
        cols = data.draw(st.integers(min_value=1, max_value=5))
        flat = st.floats(min_value=-100, max_value=100, allow_nan=False)
        a = np.array(data.draw(st.lists(flat, min_size=rows * cols,
                                        max_size=rows * cols))).reshape(rows, cols)
        b = np.array(data.draw(st.lists(flat, min_size=rows * cols,
                                        max_size=rows * cols))).reshape(rows, cols)
        assert audiofeat.l1_loss(a, b) == audiofeat.l1_loss(b, a)
        assert audiofeat.l1_loss(a, b) >= 0.0
        assert audiofeat.l1_loss(2 * a, 2 * b) == pytest.approx(
            2 * audiofeat.l1_loss(a, b), rel=1e-12)
