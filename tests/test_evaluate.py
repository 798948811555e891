import numpy as np
import pytest

from keysched import errors, evaluate
from oracles import max_matching_oracle


class TestMatchKeypoints:
    def test_identical_lists_fully_match(self):
        assert evaluate.match_keypoints([3, 9, 17], [3, 9, 17], 0) == 3

    def test_spec_walkthrough(self):
        assert evaluate.match_keypoints([5, 20], [6, 40], 3) == 1

    def test_one_prediction_cannot_match_twice(self):
        assert evaluate.match_keypoints([10, 12], [11], 1) == 1

    def test_strict_excludes_boundary(self):
        assert evaluate.match_keypoints([10], [13], 3) == 1
        assert evaluate.match_keypoints([10], [13], 3, strict=True) == 0

    def test_empty_sides(self):
        assert evaluate.match_keypoints([], [1, 2], 3) == 0
        assert evaluate.match_keypoints([1, 2], [], 3) == 0

    def test_matches_bruteforce_on_random_instances(self):
        # unsorted lists with duplicates, integer and half-integer thresholds,
        # inclusive and strict
        rng = np.random.default_rng(77)
        for _ in range(600):
            gt = rng.integers(0, 48, rng.integers(0, 7)).tolist()
            pred = rng.integers(0, 48, rng.integers(0, 7)).tolist()
            t = int(rng.integers(0, 16)) / 2
            strict = bool(rng.integers(0, 2))
            assert evaluate.match_keypoints(gt, pred, t, strict=strict) == \
                max_matching_oracle(gt, pred, t, strict=strict)

    @pytest.mark.parametrize("threshold", [float("nan"), -0.5])
    def test_nan_or_negative_threshold_rejected(self, threshold):
        with pytest.raises(errors.InvariantViolationError):
            evaluate.match_keypoints([1], [1], threshold)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(78)
        for _ in range(50):
            gt = sorted(rng.integers(0, 48, 5).tolist())
            pred = sorted(rng.integers(0, 48, 5).tolist())
            counts = [evaluate.match_keypoints(gt, pred, t) for t in range(0, 10)]
            assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestAveragePrecision:
    def test_perfect_match_is_one(self):
        instances = [evaluate.KeypointInstance(gt=[1, 5], pred=[1, 5]),
                     evaluate.KeypointInstance(gt=[9], pred=[9])]
        assert evaluate.average_precision(instances, 0) == 1.0

    def test_mean_of_fractions(self):
        instances = [evaluate.KeypointInstance(gt=[5, 20], pred=[6, 40]),
                     evaluate.KeypointInstance(gt=[7], pred=[7])]
        assert evaluate.average_precision(instances, 3) == 0.75

    def test_empty_gt_instances_skipped(self):
        instances = [evaluate.KeypointInstance(gt=[], pred=[4]),
                     evaluate.KeypointInstance(gt=[5], pred=[5])]
        assert evaluate.average_precision(instances, 1) == 1.0

    def test_no_valid_instances(self):
        with pytest.raises(errors.NoValidInstancesError):
            evaluate.average_precision([evaluate.KeypointInstance(gt=[], pred=[1])], 3)

    def test_order_invariance(self):
        rng = np.random.default_rng(79)
        instances = [
            evaluate.KeypointInstance(
                gt=sorted(rng.integers(0, 48, 4).tolist()),
                pred=sorted(rng.integers(0, 48, 4).tolist()))
            for _ in range(10)
        ]
        forward = evaluate.average_precision(instances, 3)
        backward = evaluate.average_precision(list(reversed(instances)), 3)
        assert forward == backward

    def test_bounded_by_unit_interval(self):
        rng = np.random.default_rng(80)
        instances = [
            evaluate.KeypointInstance(
                gt=sorted(rng.integers(0, 48, rng.integers(1, 6)).tolist()),
                pred=sorted(rng.integers(0, 48, rng.integers(0, 6)).tolist()))
            for _ in range(20)
        ]
        assert 0.0 <= evaluate.average_precision(instances, 2) <= 1.0


class TestIntensityBuckets:
    def test_fifteen_classes_split_five_each(self):
        means = {f"class{i:02d}": float(i) for i in range(15)}
        buckets = evaluate.intensity_buckets(means)
        assert len(buckets.subtle) == len(buckets.moderate) == len(buckets.intense) == 5
        assert buckets.subtle == [f"class{i:02d}" for i in range(5)]
        assert buckets.intense == [f"class{i:02d}" for i in range(10, 15)]

    def test_three_classes_one_per_bucket(self):
        buckets = evaluate.intensity_buckets({"a": 1.0, "b": 2.0, "c": 3.0})
        assert (buckets.subtle, buckets.moderate, buckets.intense) == (["a"], ["b"], ["c"])

    def test_tie_broken_lexicographically(self):
        buckets = evaluate.intensity_buckets({"b": 1.0, "a": 1.0, "c": 2.0})
        assert buckets.subtle == ["a"]
        assert buckets.moderate == ["b"]
        assert buckets.intense == ["c"]

    def test_not_divisible_by_three(self):
        with pytest.raises(errors.NotDivisibleByThreeError):
            evaluate.intensity_buckets({"a": 1.0, "b": 2.0})

    def test_partition_property(self):
        means = {f"k{i}": float((i * 7) % 12) for i in range(12)}
        buckets = evaluate.intensity_buckets(means)
        combined = buckets.subtle + buckets.moderate + buckets.intense
        assert sorted(combined) == sorted(means)
        assert len(set(combined)) == len(combined)


class TestKeypointCsv:
    def test_parse_lines(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("gt:5;20 pred:6;40\ngt:7 pred:\n\n")
        instances = evaluate.read_keypoint_instances(path)
        assert instances[0].gt == [5, 20] and instances[0].pred == [6, 40]
        assert instances[1].gt == [7] and instances[1].pred == []

    def test_spaces_and_tabs_separate_fields(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("\tgt:5;20  \tpred:6 \n \t\n")
        instances = evaluate.read_keypoint_instances(path)
        assert len(instances) == 1
        assert instances[0].gt == [5, 20] and instances[0].pred == [6]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("gt:5;x pred:1\n")
        with pytest.raises(errors.ParseError):
            evaluate.read_keypoint_instances(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("gt:5\n")
        with pytest.raises(errors.ParseError):
            evaluate.read_keypoint_instances(path)

    @pytest.mark.parametrize("line", [
        pytest.param("gt:1_0;20 pred:10;20", id="underscore"),
        pytest.param("gt:10;+20 pred:10;20", id="sign"),
        pytest.param("gt:10;20 pred:10;;20", id="empty-item"),
        # str.split() and str.splitlines() take these separator bytes for
        # whitespace and line breaks
        pytest.param("gt:10\x1fpred:10", id="unit-separator"),
        pytest.param("gt:10 pred:10\x1cgt:1 pred:1", id="file-separator"),
    ])
    def test_indices_are_unsigned_ascii_decimals(self, line, tmp_path):
        # int() would read '1_0' and '+20' as 10 and 20
        path = tmp_path / "inst.txt"
        path.write_text(line + "\n")
        with pytest.raises(errors.ParseError):
            evaluate.read_keypoint_instances(path)

    def test_index_past_digit_limit(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("gt:" + "9" * 5000 + " pred:1\n")
        with pytest.raises(errors.ParseError):
            evaluate.read_keypoint_instances(path)
