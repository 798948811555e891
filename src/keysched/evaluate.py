"""Keyframe-localization evaluation.

match_keypoints() computes an exact maximum one-to-one matching between
ground-truth and predicted indices under a distance threshold, so the
precision metric does not depend on input order. average_precision() is the
mean per-instance matched fraction. intensity_buckets() splits classes into
equal subtle/moderate/intense terciles by mean motion score.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import (
    InvariantViolationError,
    NotDivisibleByThreeError,
    NoValidInstancesError,
    ParseError,
)
from .ingest import _read_text


@dataclass
class KeypointInstance:
    """Ground-truth and predicted keypoint indices for one clip."""

    gt: list[int]
    pred: list[int]

    def __post_init__(self):
        self.gt = sorted(int(i) for i in self.gt)
        self.pred = sorted(int(i) for i in self.pred)
        if any(i < 0 for i in self.gt + self.pred):
            raise InvariantViolationError("keypoint indices must be >= 0")


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
    it with ``strict``. Solved exactly with augmenting paths; instances are
    small enough that the quadratic behavior never matters.
    """
    if threshold < 0:
        raise InvariantViolationError("threshold must be >= 0")

    def admissible(g: int, p: int) -> bool:
        d = abs(g - p)
        return d < threshold if strict else d <= threshold

    edges = [[p for p, pv in enumerate(pred) if admissible(gv, pv)] for gv in gt]
    owner = [-1] * len(pred)

    def augment(g: int, seen: list[bool]) -> bool:
        for p in edges[g]:
            if not seen[p]:
                seen[p] = True
                if owner[p] == -1 or augment(owner[p], seen):
                    owner[p] = g
                    return True
        return False

    matched = 0
    for g in range(len(gt)):
        if augment(g, [False] * len(pred)):
            matched += 1
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
    """Tercile split by ascending mean score, score ties by class name."""
    if not class_means or len(class_means) % 3 != 0:
        raise NotDivisibleByThreeError(
            f"need a class count divisible by 3, got {len(class_means)}"
        )
    ranked = sorted(class_means, key=lambda name: (class_means[name], name))
    third = len(ranked) // 3
    return IntensityBuckets(
        subtle=ranked[:third],
        moderate=ranked[third:2 * third],
        intense=ranked[2 * third:],
    )


def _parse_index_list(token: str, label: str, line_no: int) -> list[int]:
    if not token.startswith(label + ":"):
        raise ParseError(f"line {line_no}: expected '{label}:' field")
    body = token[len(label) + 1:]
    if not body:
        return []
    try:
        return [int(part) for part in body.split(";")]
    except ValueError as exc:
        raise ParseError(f"line {line_no}: {exc}") from exc


def read_keypoint_instances(path: str | Path) -> list[KeypointInstance]:
    """Parse instance lines of the form ``gt:i1;i2 pred:j1;j2``."""
    instances = []
    for line_no, line in enumerate(_read_text(path, "ascii").splitlines()):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {line_no}: expected two fields, got {len(parts)}")
        gt = _parse_index_list(parts[0], "gt", line_no)
        pred = _parse_index_list(parts[1], "pred", line_no)
        instances.append(KeypointInstance(gt=gt, pred=pred))
    return instances
