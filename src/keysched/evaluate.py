"""Keyframe-localization evaluation.

match_keypoints() computes an exact maximum one-to-one matching between
ground-truth and predicted indices under a distance threshold, so the
precision metric does not depend on input order. average_precision() is the
mean per-instance matched fraction. intensity_buckets() splits classes into
equal subtle/moderate/intense terciles by mean motion score.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    InvariantViolationError,
    NotDivisibleByThreeError,
    NoValidInstancesError,
    ParseError,
    as_floats,
    as_indices,
)
from .ingest import _read_text


@dataclass
class KeypointInstance:
    """Ground-truth and predicted keypoint indices for one clip."""

    gt: list[int]
    pred: list[int]

    def __post_init__(self):
        self.gt = sorted(as_indices(self.gt, "gt"))
        self.pred = sorted(as_indices(self.pred, "pred"))


@dataclass
class IntensityBuckets:
    """Class names split into three equal motion-intensity tiers."""

    subtle: list[str]
    moderate: list[str]
    intense: list[str]


def match_keypoints(gt: list[int], pred: list[int], threshold: float,
                    strict: bool = False) -> int:
    """Size of the maximum one-to-one matching within the distance threshold.

    A pair (g, p) is admissible when |g - p| <= threshold, or strictly below
    it with ``strict``. Every g admits an interval of one width around it, so
    one sweep over both sorted lists that pairs each g with the lowest
    unmatched admissible p finds a maximum matching, in linear time after
    the sort.
    """
    if not threshold >= 0:
        raise InvariantViolationError(f"threshold must be >= 0, got {threshold}")

    def admissible(g: int, p: int) -> bool:
        d = abs(g - p)
        return d < threshold if strict else d <= threshold

    pred = sorted(pred)
    matched = j = 0
    for g in sorted(gt):
        # a p below g that g cannot reach is out of reach of every later g
        while j < len(pred) and pred[j] < g and not admissible(g, pred[j]):
            j += 1
        if j < len(pred) and admissible(g, pred[j]):
            matched += 1
            j += 1
    return matched


def average_precision(instances: list[KeypointInstance], threshold: float,
                      strict: bool = False) -> float:
    """Mean matched fraction over instances that carry ground truth."""
    fractions = []
    for inst in instances:
        if not inst.gt:
            continue
        n = match_keypoints(inst.gt, inst.pred, threshold, strict=strict)
        fractions.append(n / len(inst.gt))
    if not fractions:
        raise NoValidInstancesError("no instance has ground-truth keypoints")
    return sum(fractions) / len(fractions)


def intensity_buckets(class_means: dict[str, float]) -> IntensityBuckets:
    """Tercile split by ascending mean score, score ties by class name; each
    mean must be a finite real, since a NaN leaves the ranking without an order."""
    if not class_means or len(class_means) % 3 != 0:
        raise NotDivisibleByThreeError(
            f"need a class count divisible by 3, got {len(class_means)}"
        )
    # one scalar check per class, so a bool among floats is refused too
    means = {name: float(as_floats(mean, f"mean of class {name!r}"))
             for name, mean in class_means.items()}
    ranked = sorted(means, key=lambda name: (means[name], name))
    third = len(ranked) // 3
    return IntensityBuckets(
        subtle=ranked[:third],
        moderate=ranked[third:2 * third],
        intense=ranked[2 * third:],
    )


# "gt:LIST pred:LIST" between spaces or tabs; a LIST is empty or unsigned ASCII
# decimals joined by ';', with no sign, underscore or empty item
_LIST = r"((?:[0-9]+(?:;[0-9]+)*)?)"
_INSTANCE = re.compile(rf"[ \t]*gt:{_LIST}[ \t]+pred:{_LIST}[ \t]*")


def read_keypoint_instances(path: str | Path) -> list[KeypointInstance]:
    """Parse instance lines of the form ``gt:i1;i2 pred:j1;j2``; blank lines are skipped."""
    instances = []
    for line_no, line in enumerate(_read_text(path, "ascii").split("\n"), start=1):
        if not line.strip(" \t"):
            continue
        match = _INSTANCE.fullmatch(line)
        if match is None:
            raise ParseError(f"{path}: line {line_no}: expected 'gt:i;j pred:k;l'")
        try:
            gt, pred = ([int(i) for i in field.split(";") if i] for field in match.groups())
        except ValueError as exc:  # a number past Python's int-string digit limit
            raise ParseError(f"{path}: line {line_no}: {exc}") from exc
        instances.append(KeypointInstance(gt=gt, pred=pred))
    return instances
