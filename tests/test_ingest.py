import hashlib
import math
import pickle
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_pgm_bytes, make_wav_bytes, write_pgm, write_wav
from keysched import audiofeat, errors, evaluate, ingest, motion, plot
from keysched.motion import MotionCurve
from keysched.selection import KeyframeSchedule, SelectionParams, select_keyframes
from oracles import load_wav_oracle, read_pgm_oracle, read_scores_csv_oracle


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
        frame = ingest.Frame(np.rint(pixels * 255) / 255)
        write_pgm(frame, tmp_path / "rt.pgm")
        back = ingest.read_pgm(tmp_path / "rt.pgm")
        assert np.array_equal(back.pixels, frame.pixels)


class TestLoadFrameSequence:
    def test_filename_order_and_shape(self, pgm_dir):
        seq = ingest.load_frame_sequence(pgm_dir)
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


class TestFrameSource:
    def test_keeps_paths_and_size(self, pgm_dir):
        source = ingest.FrameSource(pgm_dir)
        assert len(source) == 16
        assert (source.height, source.width) == (32, 48)
        assert source.paths == sorted(pgm_dir.iterdir())

    @pytest.mark.parametrize("payload, error", [
        (make_pgm_bytes(48, 16, bytes(48 * 16)), errors.DimensionMismatchError),
        (make_pgm_bytes(48, 32, bytes(10)), errors.MalformedPgmError),
    ])
    def test_frame_changed_after_check(self, pgm_dir, payload, error):
        source = ingest.FrameSource(pgm_dir)
        (pgm_dir / "frame_0003.pgm").write_bytes(payload)
        frames = iter(source)
        for _ in range(3):
            next(frames)
        with pytest.raises(error):
            next(frames)

    def test_index_reads_only_its_path(self, pgm_dir, monkeypatch):
        source = ingest.FrameSource(pgm_dir)
        read, read_pgm = [], ingest.read_pgm
        monkeypatch.setattr(ingest, "read_pgm", lambda path: read.append(path) or read_pgm(path))
        frame = source[5]
        assert read == [source.paths[5]]
        assert frame.pixels.tobytes() == read_pgm(source.paths[5]).pixels.tobytes()

    def test_index_names_the_frame_changed_after_construction(self, pgm_dir):
        source = ingest.FrameSource(pgm_dir)
        (pgm_dir / "frame_0007.pgm").write_bytes(make_pgm_bytes(24, 32, bytes(24 * 32)))
        assert source[6].height == source[8].height == 32  # its neighbours still read
        with pytest.raises(errors.DimensionMismatchError, match="^frame 7 is 32x24, expected"):
            source[7]


def test_frame_sequence_index_is_not_checked_again(pgm_dir, monkeypatch):
    seq = ingest.load_frame_sequence(pgm_dir)
    monkeypatch.setattr(ingest, "_check_size", lambda *args: pytest.fail("checked again"))
    assert all(seq[i] is frame for i, frame in enumerate(seq.frames))


def wav_chunk(chunk_id, body, size=None):
    """One RIFF chunk: id, size (``len(body)`` unless given), body and pad byte."""
    size = len(body) if size is None else size
    return chunk_id + struct.pack("<I", size) + body + b"\0" * (len(body) & 1)


def riff(*chunks):
    """A RIFF/WAVE file holding the chunks in order."""
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


FMT_PCM16 = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
PCM5 = struct.pack("<5h", 0, 1000, -1000, 32767, -32768)


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


# a body in the layout scores_csv_text writes: "<index>,<whole>.<d digits>\n"
# rows with one d for all, and at most 15 digits in each number
FIXED_ROW = re.compile(r"([0-9]+),([0-9]+)\.([0-9]+)")


def in_fixed_point_layout(body: str) -> bool:
    rows = [FIXED_ROW.fullmatch(line) for line in body.split("\n")[:-1]]
    return (body.endswith("\n") and all(rows) and len({len(m[3]) for m in rows}) == 1
            and all(len(m[1]) <= 15 and len(m[2]) + len(m[3]) <= 15 for m in rows))


# rows of u * 10**e written with {:.Nf}: one N from 1 to 15 for the file, and
# whole parts of 1 to 15 digits, so some files have more than 15 digits a number
fixed_point_bodies = st.integers(1, 15).flatmap(lambda places: st.lists(
    st.tuples(st.integers(0, 15), st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=40,
).map(lambda rows: "".join(f"{i},{u * 10.0 ** e:.{places}f}\n" for i, (e, u) in enumerate(rows))))


class TestScoresCsv:
    def test_roundtrip(self, tmp_path):
        curve = MotionCurve(np.array([0.0, 0.5, 1.0]))
        ingest.write_scores_csv(curve, tmp_path / "s.csv")
        back = ingest.read_scores_csv(tmp_path / "s.csv")
        assert np.array_equal(back.values, curve.values)

    def test_text_is_pinned(self):
        """1 001 rows, so index widths 1 to 4, with 9-decimal ties, scores past
        2**52 / 10**9, a subnormal and 0.0. The hash is of the text that the
        vectorized ``fixed_text`` writer gave for this curve."""
        rng = np.random.default_rng(25)
        values = rng.uniform(0.0, 20.0, 1001)
        values[::7] = (rng.integers(0, 10 ** 9, values[::7].size) + 0.5) / 1e9
        values[[3, 500, 777]] = 2.0 ** 52 / 1e9 + 0.25, 1e7 + 1 / 3, 123456789.125
        values[[10, 11, 1000]] = 5e-324, 0.0, 0.0
        text = ingest.scores_csv_text(MotionCurve(values))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8b3a80182850543503e92af831a31c2ed3179580c68f788093be018771544948")

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

    @settings(max_examples=200, deadline=None)
    @given(body=fixed_point_bodies)
    @example(body="0,123456789.012345\n1,0.000001\n")  # 15 digits: exact path
    @example(body="0,1234567890.123456\n")  # 16 digits
    @example(body="0000000000000000,0.5\n")  # a 16-digit index
    @example(body="0,0.5\n1,1e-3\n2,0.25\n")  # an exponent
    @example(body="0,2.5E3\n1,1.0e0\n")  # exponents with no sign, after d = 3 places
    @example(body="0,0.5\n1,0.25\n")  # d differs between rows
    @example(body="0,0.50\n1,0.25")  # no final newline
    def test_fixed_point_layout_matches_row_loop_oracle(self, body, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "fixed.csv"
        path.write_text(ingest.CSV_HEADER + "\n" + body)
        assert (ingest._fixed_point_rows(body.encode()) is not None) == in_fixed_point_layout(body)
        back = ingest.read_scores_csv(path)
        assert back.values.tobytes() == read_scores_csv_oracle(path).values.tobytes()

    def test_written_file_is_read_without_loadtxt(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        # below 10**5 a 9-decimal score has at most 14 digits
        curve = MotionCurve(rng.random(2000) * 10.0 ** rng.integers(0, 6, 2000))
        path = tmp_path / "w.csv"
        ingest.write_scores_csv(curve, path)

        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called on a file in the writer's layout")

        monkeypatch.setattr(np, "loadtxt", refuse)
        back = ingest.read_scores_csv(path)
        assert back.values.tobytes() == read_scores_csv_oracle(path).values.tobytes()

    def test_crlf_copy_of_written_file_reads_the_same_floats(self, tmp_path, monkeypatch):
        """The copy goes through np.loadtxt, the file through the vectorized pass,
        and neither read runs that pass more than once."""
        rng = np.random.default_rng(6)
        curve = MotionCurve(rng.random(2000) * 10.0 ** rng.integers(0, 6, 2000))
        path, copy, spaced = tmp_path / "w.csv", tmp_path / "crlf.csv", tmp_path / "spaced.csv"
        ingest.write_scores_csv(curve, path)
        copy.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        # the exact header, then rows with a space after the comma
        header, _, body = path.read_bytes().partition(b"\n")
        spaced.write_bytes(header + b"\n" + body.replace(b",", b", "))
        calls, fixed_point_rows = [], ingest._fixed_point_rows

        def counted(body):
            calls.append(body)
            return fixed_point_rows(body)

        monkeypatch.setattr(ingest, "_fixed_point_rows", counted)
        backs = {}
        for p in (path, copy, spaced):
            calls.clear()
            backs[p] = ingest.read_scores_csv(p).values.tobytes()
            assert len(calls) <= 1, p.name
        assert backs[copy] == backs[path] == backs[spaced]

    def test_written_file_is_read_from_its_bytes_once(self, tmp_path, monkeypatch):
        path = tmp_path / "w.csv"
        ingest.write_scores_csv(MotionCurve([0.0, 0.5, 1.25]), path)
        reads, read_bytes = [], Path.read_bytes

        def counted(self):
            reads.append(self)
            return read_bytes(self)

        def refuse(*args, **kwargs):
            raise AssertionError("a file in the writer's layout was read again as text")

        monkeypatch.setattr(Path, "read_bytes", counted)
        monkeypatch.setattr(ingest, "_read_text", refuse)
        assert ingest.read_scores_csv(path).values.tolist() == [0.0, 0.5, 1.25]
        assert reads == [path]

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


def fast_values(d):
    """Values the digit matrix writes: finite, >= 0, no tie, below 2**52 / 10**d."""
    def fast(v):
        y = v * 10.0 ** d
        return math.copysign(1.0, v) > 0 and y < 2.0 ** 52 and y - math.floor(y) != 0.5
    top = 2.0 ** 52 / 10 ** d
    return st.one_of(st.floats(0.0, top), st.floats(0.0, min(top, 1e4))).filter(fast)


@st.composite
def fixed_tables(draw):
    """1-12 rows of 1-5 values and one d for every column: FIXED_VALUES, or
    in about half the tables only values the digit matrix writes, since one
    other value sends the whole table to ``format``."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    d = draw(st.sampled_from([1, 2, 9, 18]))
    values = draw(st.sampled_from([FIXED_VALUES, fast_values(d)]))
    table = draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    return table, d


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
    @given(case=fixed_tables(), end=st.sampled_from(["\n", " "]))
    # one integer digit in every column: no byte dropped, no mask
    @example(case=([[0.5, 9.25, 0.0], [1.0, 3.141592653589793, 9.999999999]], 9), end="\n")
    @example(case=([[0.5, 9.25], [1.0, 0.0]], 2), end=" ")
    # the same tables with one value of two integer digits, or a d of 1
    @example(case=([[0.5, 9.25, 0.0], [10.0, 3.141592653589793, 9.999999999]], 9), end="\n")
    @example(case=([[0.5, 9.25], [1.0, 0.0]], 1), end=" ")
    # a tie at d = 2 sends an otherwise mask-free table down the slow path
    @example(case=([[0.5, 0.125], [1.0, 0.0]], 2), end="\n")
    def test_table_matches_format(self, case, end):
        table, d = case
        want = "".join(",".join(format(v, f".{d}f") for v in row) + end for row in table)
        assert ingest.fixed_text(table, d, end=end) == want

    SPECIALS = [0.125, near_tie(123456789, 9), -0.0, -1.5, float("inf"), 0.375,
                near_tie(12345, 2), float("-inf"), -0.0, 2.0 ** 53]

    @pytest.mark.parametrize("rows", [4095, 4096, 4097, 8193])
    def test_row_blocks_match_format(self, rows):
        """Rows formatted in separate blocks, at the plot's d = 2 and the
        mel's d = 9, in three tables: one with no tie, signed or non-finite
        value, so every block goes through the digit matrix; one with such
        values only in its last block, which ``format`` writes after matrix
        blocks; and one with them on both sides of each block boundary."""
        block = ingest.FIXED_BLOCK_ROWS
        assert block == 4096
        rng = np.random.default_rng(rows)
        edges = [r for b in range(block, rows + block, block)
                 for r in range(b - 2, b + 2) if r < rows]
        last = [r for r in edges if r >= (rows - 1) // block * block]
        for special_rows in ([], last, edges):
            table = rng.uniform(0.0, 1000.0, (rows, 2))
            for k, r in enumerate(special_rows):
                table[r] = self.SPECIALS[k % 10], self.SPECIALS[(k + 3) % 10]
            for d in (2, 9):
                got = ingest.fixed_text(table, d).split("\n")
                assert got.pop() == ""
                assert [row.split(",") for row in got] == [
                    [format(x, f".{d}f") for x in row] for row in table.tolist()]

    EDGES = [9, 10, 255, 256, 65535, 65536, 2 ** 32 - 1, 2 ** 32]

    @pytest.mark.parametrize("d", [1, 2, 9, 18])
    def test_narrow_dtype_edges_match_format(self, d, monkeypatch):
        """Whole parts and fractions on each side of the edges where the
        narrowest dtype of ``put_digits`` changes (uint8, uint16, uint32,
        uint64), and values just under 2**52 / 10**d, all written by the digit
        matrix. The largest entry of a table picks the dtype, so each table's
        largest whole part or fraction sits on one edge."""
        scale = 10 ** d
        tables = []
        for edge in self.EDGES:
            if (edge + 1) * scale < 2 ** 52:  # whole parts edge - 1 and edge, fractions at both ends
                tables.append([[edge + (scale - 1) / scale, edge - 1 + 1 / scale], [float(edge), 0.0]])
            if edge < scale:  # a fraction of edge units, and whole part 0
                tables.append([[edge / scale, 1 / scale], [0.0, (edge - 1) / scale]])
        top = 2.0 ** 52 / scale
        near_top = []
        while len(near_top) < 4:
            top = np.nextafter(top, 0.0)
            y = top * scale
            if y < 2.0 ** 52 and y - math.floor(y) != 0.5:
                near_top.append(float(top))
        tables.append([near_top[:2], near_top[2:]])
        wants = ["".join(",".join(format(v, f".{d}f") for v in row) + "\n" for row in table)
                 for table in tables]

        def no_format(*args):
            raise AssertionError("fixed_text called format")

        monkeypatch.setattr(ingest, "format", no_format, raising=False)
        assert [ingest.fixed_text(table, d) for table in tables] == wants

    def test_mel_and_plot_never_reach_format(self, monkeypatch):
        """A seeded 128 x 196 mel and the tables of a 24 000-point plot hold
        no value the digit matrix cannot write, so no block goes to ``format``."""
        rng = np.random.default_rng(5)
        mel = audiofeat.mel_spectrogram(ingest.AudioClip(rng.uniform(-1.0, 1.0, 32000)))
        want = "".join(",".join(format(v, ".9f") for v in row) + "\n"
                       for row in mel.values.tolist())
        curve = motion.normalize(motion.smooth(MotionCurve(rng.uniform(0.0, 1.0, 24000))))
        extrema = motion.detect_extrema(curve)
        spec = plot.PlotSpec(1200, 400, curve, extrema,
                             select_keyframes(curve, extrema, SelectionParams(24)))

        def no_format(*args):
            raise AssertionError("fixed_text called format")

        monkeypatch.setattr(ingest, "format", no_format, raising=False)
        assert audiofeat.mel_csv_text(mel) == want
        assert plot.render_plot(spec).count("<polyline") == 1


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

    def test_repeated_provenance_rejected(self, tmp_path):
        (tmp_path / "r.json").write_text(
            '{"total_frames": 8, "keyframes": [0, 5], "peaks": [5, 5], '
            '"valleys": [], "fill": []}'
        )
        with pytest.raises(errors.InvariantViolationError):
            ingest.read_schedule_json(tmp_path / "r.json")

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
    @given(data=fuzzed(make_wav_bytes([0, 1000, -1000, 32767, -32768])), n=st.integers(1, 8))
    @example(data=riff(wav_chunk(b"LIST", b"INFOisft"), wav_chunk(b"fmt ", FMT_PCM16),
                       wav_chunk(b"data", PCM5)), n=3)  # a chunk before fmt
    @example(data=riff(wav_chunk(b"fmt ", FMT_PCM16), wav_chunk(b"data", PCM5),
                       wav_chunk(b"data", PCM5[:4])), n=3)  # two data chunks: the last wins
    @example(data=riff(wav_chunk(b"fmt ", FMT_PCM16), wav_chunk(b"junk", b"odd"),
                       wav_chunk(b"data", PCM5[:7])), n=8)  # odd sizes: pad byte, odd data
    @example(data=riff(wav_chunk(b"fmt ", FMT_PCM16), wav_chunk(b"data", PCM5, size=1000)),
             n=8)  # a data size past the end of the file
    @example(data=riff(wav_chunk(b"fmt ", FMT_PCM16), wav_chunk(b"data", PCM5, size=1000)),
             n=2)
    @example(data=riff(wav_chunk(b"fmt ", FMT_PCM16[:14]), wav_chunk(b"data", PCM5)),
             n=1)  # a short fmt
    @example(data=riff(wav_chunk(b"fmt ", FMT_PCM16[:10], size=16)), n=1)  # fmt cut by the end
    def test_load_wav_prefix_matches_whole_read(self, data, n, tmp_path_factory):
        """``load_wav`` returns the clip the whole-file reader returns, and with
        ``max_samples=n`` that clip's first n samples; or both raise its error
        class and message."""
        path = tmp_path_factory.mktemp("fuzz") / "input.wav"
        path.write_bytes(data)
        try:
            whole = load_wav_oracle(path)
        except errors.KeyschedError as exc:
            for limit in (None, n):
                with pytest.raises(errors.KeyschedError) as raised:
                    ingest.load_wav(path, max_samples=limit)
                assert (raised.type, str(raised.value)) == (type(exc), str(exc))
            return
        assert pickle.dumps(ingest.load_wav(path)) == pickle.dumps(whole)
        prefix = ingest.load_wav(path, max_samples=n)
        assert prefix.sample_rate == whole.sample_rate
        assert prefix.samples.tobytes() == whole.samples[:n].tobytes()

    @settings(max_examples=400, deadline=None)
    @given(data=st.one_of(fuzzed(b"index,score\n0,0.25\n1,1e-3\n"),
                          fuzzed(b"index,score\n0,0.250\n1,17.125\n2,3.000\n")))
    @example(data=b"index,score\n0,0_5\n")
    @example(data=b"\nindex,score\n0,0.5\n")
    @example(data=b"index,score\n \n\n")
    @example(data=b"index,score\n0,\x1c0.5\n")
    @example(data=b"index,score\n0,0.5\n1")  # digits after the last newline
    # the writer's layout, then a byte that sends the file to the text path
    @example(data=b"index,score\n0,0.250000000\n1,17.125000000\n\xff")
    @example(data=b"index,score\n0,0.250000000\n1,17.125000000\n\x1c")
    @example(data=b"index,score\n0,0.250000000\n1,17.125000000\n\r")
    @example(data=b"index,\xffscore\n0,0.250000000\n")
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
