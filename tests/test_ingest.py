import pickle
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import write_pgm, write_wav
from keysched import errors, evaluate, ingest
from keysched.motion import MotionCurve
from keysched.selection import KeyframeSchedule
from oracles import read_pgm_oracle, read_scores_csv_oracle


def make_pgm_bytes(width, height, payload, maxval=255, magic=b"P5"):
    header = magic + f"\n{width} {height}\n{maxval}\n".encode()
    return header + payload


# header separators: whitespace bytes and '#' comments running to the end of the line
PGM_SPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
PGM_COMMENT = st.binary(max_size=8).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
PGM_GAP = st.lists(st.one_of(PGM_SPACE, PGM_COMMENT), max_size=4).map(b"".join)


class TestReadPgm:
    def test_pixels_are_exactly_byte_over_255(self, tmp_path):
        payload = bytes(range(12))
        path = tmp_path / "a.pgm"
        path.write_bytes(make_pgm_bytes(4, 3, payload))
        frame = ingest.read_pgm(path)
        assert frame.height == 3 and frame.width == 4
        expected = np.array([b / 255 for b in payload]).reshape(3, 4)
        assert np.array_equal(frame.pixels, expected)

    def test_comment_lines_in_header(self, tmp_path):
        data = b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255])
        path = tmp_path / "c.pgm"
        path.write_bytes(data)
        frame = ingest.read_pgm(path)
        assert frame.pixels[1, 1] == 1.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(make_pgm_bytes(2, 2, bytes(4), magic=b"P2"))
        with pytest.raises(errors.MalformedPgmError):
            ingest.read_pgm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(make_pgm_bytes(2, 2, bytes(4), maxval=65535))
        with pytest.raises(errors.MalformedPgmError):
            ingest.read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(make_pgm_bytes(4, 4, bytes(3)))
        with pytest.raises(errors.MalformedPgmError):
            ingest.read_pgm(path)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_tokenizer_oracle(self, data, tmp_path_factory):
        width, height = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))

        def number(n):
            return b"0" * data.draw(st.integers(0, 2)) + str(n).encode()

        header = b"P5" + data.draw(st.lists(st.one_of(PGM_SPACE, PGM_COMMENT), min_size=1)
                                   .map(b"".join))
        for n in (width, height):
            header += number(n) + data.draw(PGM_SPACE) + data.draw(PGM_GAP)
        header += number(255) + data.draw(PGM_SPACE)
        payload = data.draw(st.binary(min_size=width * height, max_size=width * height + 3))
        path = tmp_path_factory.mktemp("pgm") / "h.pgm"
        path.write_bytes(header + payload)
        frame = ingest.read_pgm(path)
        assert frame.pixels.tobytes() == read_pgm_oracle(path).pixels.tobytes()

    @pytest.mark.parametrize("data", [
        pytest.param(make_pgm_bytes("+3", 2, bytes(6)), id="signed-width"),
        pytest.param(make_pgm_bytes(3, 2, bytes(6), maxval="25_5"), id="underscore-maxval"),
        pytest.param(b"P53 2\n255\n" + bytes(6), id="digit-after-magic"),
    ])
    def test_tightened_header_rejected(self, data, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(data)
        read_pgm_oracle(path)  # the byte tokenizer accepted it
        with pytest.raises(errors.MalformedPgmError):
            ingest.read_pgm(path)

    def test_write_read_roundtrip(self, tmp_path):
        pixels = np.linspace(0, 1, 30).reshape(5, 6)
        frame = ingest.Frame(5, 6, np.rint(pixels * 255) / 255)
        write_pgm(frame, tmp_path / "rt.pgm")
        back = ingest.read_pgm(tmp_path / "rt.pgm")
        assert np.array_equal(back.pixels, frame.pixels)


class TestLoadFrameSequence:
    def test_filename_order_and_shape(self, pgm_dir):
        seq = ingest.load_frame_sequence(pgm_dir, fps=24.0)
        assert len(seq) == 16
        assert seq.height == 32 and seq.width == 48
        # the square moves right over time, so later frames differ
        assert not np.array_equal(seq.frames[0].pixels, seq.frames[1].pixels)

    def test_single_frame(self, tmp_path):
        (tmp_path / "only.pgm").write_bytes(make_pgm_bytes(2, 2, bytes(4)))
        seq = ingest.load_frame_sequence(tmp_path)
        assert len(seq) == 1

    def test_empty_directory(self, tmp_path):
        with pytest.raises(errors.EmptyDirectoryError):
            ingest.load_frame_sequence(tmp_path)

    def test_dimension_mismatch(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(make_pgm_bytes(4, 3, bytes(12)))
        (tmp_path / "b.pgm").write_bytes(make_pgm_bytes(2, 2, bytes(4)))
        with pytest.raises(errors.DimensionMismatchError):
            ingest.load_frame_sequence(tmp_path)


def make_wav_bytes(samples, rate=16000, channels=1, bits=16, audio_format=1):
    body = b"".join(struct.pack("<h", s) for s in samples)
    out = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    out += b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, channels, rate,
                                 rate * channels * bits // 8, channels * bits // 8, bits)
    out += b"data" + struct.pack("<I", len(body)) + body
    return out


class TestLoadWav:
    def test_two_second_clip(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(make_wav_bytes([0] * 32000))
        clip = ingest.load_wav(path)
        assert len(clip) == 32000 and clip.sample_rate == 16000

    def test_scaling_is_over_32768(self, tmp_path):
        path = tmp_path / "s.wav"
        path.write_bytes(make_wav_bytes([-32768, 0, 16384, 32767]))
        clip = ingest.load_wav(path)
        assert np.array_equal(clip.samples, np.array([-1.0, 0.0, 0.5, 32767 / 32768]))

    def test_all_zero_payload(self, tmp_path):
        path = tmp_path / "z.wav"
        path.write_bytes(make_wav_bytes([0] * 100))
        assert np.all(ingest.load_wav(path).samples == 0.0)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        path.write_bytes(make_wav_bytes([0, 0], channels=2))
        with pytest.raises(errors.UnsupportedChannelsError):
            ingest.load_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "f.wav"
        path.write_bytes(make_wav_bytes([0, 0], audio_format=3))
        with pytest.raises(errors.UnsupportedEncodingError):
            ingest.load_wav(path)

    def test_strict_rate(self, tmp_path):
        # the 16 kHz rule belongs to audiofeat.mel_spectrogram; loading
        # passes any rate through
        path = tmp_path / "r.wav"
        path.write_bytes(make_wav_bytes([0, 0], rate=44100))
        assert ingest.load_wav(path).sample_rate == 44100

    def test_wav_writer_roundtrip(self, tmp_path):
        clip = ingest.AudioClip(samples=np.array([0.0, 0.25, -0.5]), sample_rate=16000)
        write_wav(clip, tmp_path / "w.wav")
        back = ingest.load_wav(tmp_path / "w.wav")
        assert np.allclose(back.samples, clip.samples, atol=1 / 32768)


class TestScoresCsv:
    def test_roundtrip(self, tmp_path):
        curve = MotionCurve(np.array([0.0, 0.5, 1.0]))
        ingest.write_scores_csv(curve, tmp_path / "s.csv")
        back = ingest.read_scores_csv(tmp_path / "s.csv")
        assert np.array_equal(back.values, curve.values)

    def test_missing_header(self, tmp_path):
        (tmp_path / "h.csv").write_text("0,0.5\n")
        with pytest.raises(errors.ParseError):
            ingest.read_scores_csv(tmp_path / "h.csv")

    def test_scientific_notation(self, tmp_path):
        (tmp_path / "e.csv").write_text("index,score\n0,1e-3\n")
        assert ingest.read_scores_csv(tmp_path / "e.csv").values[0] == 0.001

    def test_bad_row(self, tmp_path):
        (tmp_path / "b.csv").write_text("index,score\n0,0.5,9\n")
        with pytest.raises(errors.ParseError):
            ingest.read_scores_csv(tmp_path / "b.csv")

    def test_index_gap_rejected(self, tmp_path):
        (tmp_path / "g.csv").write_text("index,score\n0,0.5\n2,0.5\n")
        with pytest.raises(errors.ParseError):
            ingest.read_scores_csv(tmp_path / "g.csv")

    def test_negative_score_rejected(self, tmp_path):
        (tmp_path / "neg.csv").write_text("index,score\n0,-1.0\n")
        with pytest.raises(errors.InvariantViolationError):
            ingest.read_scores_csv(tmp_path / "neg.csv")

    @pytest.mark.parametrize("text", [
        pytest.param("index,score\n0,0_5\n", id="underscore-score"),
        pytest.param("\nindex,score\n0,0.5\n", id="blank-line-before-header"),
        pytest.param("\r\n\r\nindex,score\r\n0,0.5\r\n", id="crlf-blank-lines-before-header"),
    ])
    def test_tightened_input_rejected(self, text, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        read_scores_csv_oracle(path)  # the per-row loop accepted it
        with pytest.raises(errors.ParseError):
            ingest.read_scores_csv(path)

    @pytest.mark.parametrize("text", ["index,score\n", "index,score\n\n\n", "index,score\n \t\n"])
    def test_blank_body_rejected_without_warning(self, text, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.ParseError):
                ingest.read_scores_csv(path)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(min_value=0.0, allow_infinity=False),
                                   st.sampled_from(["{!r}", "{:.9f}", "{:e}"]),
                                   st.sampled_from(["", " ", "  "]),
                                   st.sampled_from(["", " ", "  "])),
                         min_size=1, max_size=32),
           eol=st.sampled_from(["\n", "\r\n"]))
    def test_matches_row_loop_oracle(self, rows, eol, tmp_path_factory):
        lines = [ingest.CSV_HEADER] + [f"{lead}{i}{trail},{lead}{fmt.format(v)}{trail}"
                                       for i, (v, fmt, lead, trail) in enumerate(rows)]
        path = tmp_path_factory.mktemp("csv") / "any.csv"
        path.write_bytes((eol.join(lines) + eol).encode())
        back = ingest.read_scores_csv(path)
        assert back.values.tobytes() == read_scores_csv_oracle(path).values.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                           min_size=1, max_size=64))
    def test_roundtrip_to_nine_decimals(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "rt.csv"
        ingest.write_scores_csv(MotionCurve(np.array(values)), path)
        back = ingest.read_scores_csv(path)
        # the file holds each value rounded to 9 decimals; above 2**18 the float
        # nearest that decimal can sit one ulp further than 5e-10 from the value
        assert back.values.tolist() == [float(f"{v:.9f}") for v in values]
        v = np.array(values)
        assert np.all(np.abs(back.values - v) <= 5e-10 + np.spacing(v))


# values a fixed-point formatter gets wrong first: exact and near ties at d
# places, signed zeros, subnormals, integers past 2**52, overflow and non-finite
def near_tie(k, d):
    return (k + 0.5) / 10 ** d


FIXED_VALUES = st.one_of(
    st.floats(),
    st.floats(min_value=0.0, max_value=1e4),
    st.builds(near_tie, st.integers(0, 10 ** 12), st.sampled_from([2, 9])),
)


class TestFixedText:
    """``fixed_text`` against ``format(x, f".{d}f")``, value by value."""

    @settings(max_examples=400, deadline=None)
    @given(x=FIXED_VALUES, d=st.sampled_from([2, 9]))
    @example(x=0.125, d=2)
    @example(x=0.375, d=2)
    @example(x=near_tie(12345, 2), d=2)
    @example(x=near_tie(267, 2), d=2)
    @example(x=near_tie(123456789, 9), d=9)
    @example(x=near_tie(1, 9), d=9)
    @example(x=-0.0, d=2)
    @example(x=-0.0, d=9)
    @example(x=-0.001, d=2)
    @example(x=-1.5, d=9)
    @example(x=5e-324, d=9)
    @example(x=2.2250738585072009e-308, d=2)
    @example(x=2.0 ** 53, d=2)
    @example(x=2.0 ** 52 / 100 - 0.25, d=2)
    @example(x=1e300, d=9)
    @example(x=1.7976931348623157e308, d=2)
    @example(x=float("inf"), d=2)
    @example(x=float("-inf"), d=9)
    @example(x=float("nan"), d=9)
    @example(x=struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0], d=2)  # signaling
    def test_value_matches_format(self, x, d):
        assert ingest.fixed_text([[x]], d) == format(x, f".{d}f") + "\n"

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 5), data=st.data(),
           end=st.sampled_from(["\n", " "]))
    def test_table_matches_format(self, rows, cols, data, end):
        table = data.draw(st.lists(st.lists(FIXED_VALUES, min_size=cols, max_size=cols),
                                   min_size=rows, max_size=rows))
        decimals = data.draw(st.one_of(st.sampled_from([0, 2, 9]),
                                       st.lists(st.sampled_from([0, 2, 9]),
                                                min_size=cols, max_size=cols)))
        places = np.broadcast_to(decimals, cols).tolist()
        want = "".join(",".join(format(v, f".{d}f") for v, d in zip(row, places)) + end
                       for row in table)
        assert ingest.fixed_text(table, decimals, end=end) == want


class TestScheduleJson:
    def test_roundtrip(self, tmp_path):
        sched = KeyframeSchedule(
            total_frames=48,
            keyframes=list(range(0, 48, 4)),
            peaks_used=[8, 20],
            valleys_used=[12],
            fill=[4, 16, 24, 28, 32, 36, 40, 44],
        )
        ingest.write_schedule_json(sched, tmp_path / "s.json")
        back = ingest.read_schedule_json(tmp_path / "s.json")
        assert back == sched

    def test_out_of_range_keyframe(self, tmp_path):
        (tmp_path / "o.json").write_text(
            '{"total_frames": 48, "keyframes": [0, 48], "peaks": [48], '
            '"valleys": [], "fill": []}'
        )
        with pytest.raises(errors.InvariantViolationError):
            ingest.read_schedule_json(tmp_path / "o.json")

    def test_duplicates_rejected(self, tmp_path):
        (tmp_path / "d.json").write_text(
            '{"total_frames": 8, "keyframes": [0, 4, 4], "peaks": [4], '
            '"valleys": [], "fill": [4]}'
        )
        with pytest.raises(errors.InvariantViolationError):
            ingest.read_schedule_json(tmp_path / "d.json")

    def test_not_json(self, tmp_path):
        (tmp_path / "x.json").write_text("not json")
        with pytest.raises(errors.ParseError):
            ingest.read_schedule_json(tmp_path / "x.json")

    def test_non_integer_index_rejected(self, tmp_path):
        (tmp_path / "n.json").write_text(
            '{"total_frames": 8, "keyframes": [0, "x"], "peaks": [], '
            '"valleys": [], "fill": []}'
        )
        with pytest.raises(errors.ParseError):
            ingest.read_schedule_json(tmp_path / "n.json")

    @pytest.mark.parametrize("payload", [
        pytest.param('{"total_frames": 8.9, "keyframes": [0, 3.7], "peaks": [3.2], '
                     '"valleys": [], "fill": []}', id="floats"),
        pytest.param('{"total_frames": true, "keyframes": [0]}', id="bool-total"),
        pytest.param('{"total_frames": 8, "keyframes": [0, true], "fill": [true]}',
                     id="bool-index"),
        pytest.param('{"total_frames": 8, "keyframes": "05", "fill": [5]}', id="string-array"),
        pytest.param('{"total_frames": 8, "keyframes": {"0": 1, "5": 1}, "fill": [5]}',
                     id="object-array"),
        pytest.param('{"total_frames": 8, "keyframes": [0, 5], "fill": "5"}',
                     id="string-provenance"),
        pytest.param('[0, 3]', id="top-level-array"),
        pytest.param('{"total_frames": 8}', id="no-keyframes"),
    ])
    def test_schema_breaking_payload_rejected(self, payload, tmp_path):
        (tmp_path / "s.json").write_text(payload)
        with pytest.raises(errors.ParseError):
            ingest.read_schedule_json(tmp_path / "s.json")

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_roundtrip_random_schedules(self, data, tmp_path_factory):
        total = data.draw(st.integers(min_value=4, max_value=64))
        others = data.draw(st.lists(st.integers(min_value=1, max_value=total - 1),
                                    unique=True, min_size=1, max_size=total - 1))
        buckets = {0: [], 1: [], 2: []}
        for idx in others:
            buckets[data.draw(st.integers(min_value=0, max_value=2))].append(idx)
        sched = KeyframeSchedule(
            total_frames=total,
            keyframes=sorted([0] + others),
            peaks_used=buckets[0],
            valleys_used=buckets[1],
            fill=buckets[2],
        )
        path = tmp_path_factory.mktemp("json") / "rt.json"
        ingest.write_schedule_json(sched, path)
        assert ingest.read_schedule_json(path) == sched


# schedule payloads the JSON parser itself rejects: nesting past the recursion
# limit, and an integer literal past Python's int-string digit limit
DEEP_NESTING = b"[" * 100000
LONG_INTEGER = b'{"total_frames": ' + b"9" * 5000 + b', "keyframes": [0]}'


def _splice(seed, cut, edits):
    """``seed`` truncated at ``cut``, then each chunk written over it at its offset."""
    data = bytearray(seed[:cut])
    for pos, chunk in edits:
        pos = min(pos, len(data))
        data[pos:pos + len(chunk)] = chunk
    return bytes(data)


def fuzzed(seed):
    """Arbitrary bytes, or a valid file truncated and overwritten in places."""
    edits = st.lists(st.tuples(st.integers(0, len(seed)), st.binary(min_size=1, max_size=8)),
                     max_size=4)
    return st.one_of(st.binary(max_size=256),
                     st.builds(_splice, st.just(seed), st.integers(0, len(seed)), edits))


class TestReadersFuzz:
    """Whatever the bytes, a reader returns or raises a KeyschedError."""

    def check(self, reader, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "input"
        path.write_bytes(data)
        try:
            reader(path)
        except errors.KeyschedError:
            pass

    def check_against(self, oracle, reader, data, tightened, tmp_path_factory):
        """The reader fails where the oracle fails, with the same error class.

        Where the oracle loads, the reader loads the same bytes, or rejects
        an input that ``tightened`` flags as outside its stricter grammar.
        """
        path = tmp_path_factory.mktemp("fuzz") / "input"
        path.write_bytes(data)
        try:
            expected = oracle(path)
        except errors.KeyschedError as exc:
            with pytest.raises(type(exc)):
                reader(path)
            return
        try:
            loaded = reader(path)
        except errors.IngestError:
            assert tightened(data)
            return
        assert pickle.dumps(loaded) == pickle.dumps(expected)  # fields and array bytes

    @settings(max_examples=200, deadline=None)
    @given(data=fuzzed(make_pgm_bytes(3, 2, bytes(range(0, 60, 10)))))
    @example(data=make_pgm_bytes("+3", 2, bytes(6)))
    @example(data=make_pgm_bytes(3, 2, bytes(6), maxval="25_5"))
    @example(data=b"P53 2\n255\n" + bytes(6))
    @example(data=make_pgm_bytes("9" * 5000, 2, bytes(4)))
    def test_read_pgm(self, data, tmp_path_factory):
        self.check_against(read_pgm_oracle, ingest.read_pgm, data,
                           lambda d: d[2:3].isdigit() or b"+" in d or b"_" in d,
                           tmp_path_factory)

    @settings(max_examples=200, deadline=None)
    @given(data=fuzzed(make_wav_bytes([0, 1000, -1000, 32767, -32768])))
    def test_load_wav(self, data, tmp_path_factory):
        self.check(ingest.load_wav, data, tmp_path_factory)

    @settings(max_examples=200, deadline=None)
    @given(data=fuzzed(b"index,score\n0,0.25\n1,1e-3\n"))
    @example(data=b"index,score\n0,0_5\n")
    @example(data=b"\nindex,score\n0,0.5\n")
    @example(data=b"index,score\n \n\n")
    @example(data=b"index,score\n0,\x1c0.5\n")
    def test_read_scores_csv(self, data, tmp_path_factory):
        self.check_against(read_scores_csv_oracle, ingest.read_scores_csv, data,
                           lambda d: b"_" in d or d[:1] in (b"\n", b"\r"),
                           tmp_path_factory)

    @settings(max_examples=200, deadline=None)
    @given(data=fuzzed(b'{"total_frames": 8, "keyframes": [0, 3, 7], "peaks": [3], '
                       b'"valleys": [], "fill": [7]}'))
    @example(data=DEEP_NESTING)
    @example(data=LONG_INTEGER)
    def test_read_schedule_json(self, data, tmp_path_factory):
        self.check(ingest.read_schedule_json, data, tmp_path_factory)

    @settings(max_examples=200, deadline=None)
    @given(data=fuzzed(b"gt:10;20 pred:13\ngt: pred:4;5\n"))
    def test_read_keypoint_instances(self, data, tmp_path_factory):
        self.check(evaluate.read_keypoint_instances, data, tmp_path_factory)
