"""Pick the best frame for mask prompting by scoring keypoint poses.

Each frame's 2D joints are scored against ideal joint angles: for every
joint triple whose three keypoints are confidently detected, the deviation
|angle - target| accumulates into the score and the triple counts as a
visible part. The selected frame maximizes visible parts, breaking ties by
lower score and then by earlier frame index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_CONF_THRESHOLD = 0.3


@dataclass(frozen=True)
class KeypointFrame:
    """Named 2D joints with detection confidence for one frame."""

    frame_index: int
    joints: dict[str, tuple[float, float, float]]  # name -> (x, y, confidence)

    def __post_init__(self):
        for name, (x, y, conf) in self.joints.items():
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"joint {name!r} has non-finite coordinates")
            if not 0.0 <= conf <= 1.0:
                raise ValueError(f"joint {name!r} confidence {conf} outside [0, 1]")


@dataclass(frozen=True)
class JointTripleSpec:
    """A joint triple (A, B, C) and the ideal angle at vertex B, in degrees."""

    name: str
    triple: tuple[str, str, str]
    target_angle: float

    def __post_init__(self):
        if not 0.0 < self.target_angle <= 180.0:
            raise ValueError(f"target angle must lie in (0, 180], got {self.target_angle}")


# A straightened, open pose scores best: arms extended along the shoulder
# line and a vertical torso make every listed angle 180 degrees. The table
# is overridable (the CLI accepts a JSON spec file).
DEFAULT_JOINT_TRIPLES = (
    JointTripleSpec("left_shoulder", ("neck", "left_shoulder", "left_elbow"), 180.0),
    JointTripleSpec("right_shoulder", ("neck", "right_shoulder", "right_elbow"), 180.0),
    JointTripleSpec("left_elbow", ("left_shoulder", "left_elbow", "left_wrist"), 180.0),
    JointTripleSpec("right_elbow", ("right_shoulder", "right_elbow", "right_wrist"), 180.0),
    JointTripleSpec("left_hip", ("neck", "left_hip", "left_knee"), 180.0),
    JointTripleSpec("right_hip", ("neck", "right_hip", "right_knee"), 180.0),
)


def calculate_angle(a, b, c) -> float:
    """Angle at vertex b between rays b->a and b->c, in degrees within [0, 180]."""
    bax, bay = a[0] - b[0], a[1] - b[1]
    bcx, bcy = c[0] - b[0], c[1] - b[1]
    norm_ba = math.hypot(bax, bay)
    norm_bc = math.hypot(bcx, bcy)
    if norm_ba == 0.0 or norm_bc == 0.0:
        raise ValueError("angle undefined: a ray endpoint coincides with the vertex")
    # normalize each ray separately: the product of two tiny norms can
    # underflow to zero even when both norms are representable
    cosine = (bax / norm_ba) * (bcx / norm_bc) + (bay / norm_ba) * (bcy / norm_bc)
    return math.degrees(math.acos(max(-1.0, min(1.0, cosine))))


def perfect_pose_score(frame: KeypointFrame, specs=DEFAULT_JOINT_TRIPLES,
                       conf_threshold: float = DEFAULT_CONF_THRESHOLD):
    """(score, visible_parts) for one frame.

    A triple contributes only when all three joints are present with
    confidence >= conf_threshold, which must lie in [0, 1], and the angle
    is well defined; missing joints count as confidence 0.
    """
    if not specs:
        raise ValueError("need at least one joint triple spec")
    if not 0.0 <= conf_threshold <= 1.0:
        raise ValueError(f"confidence threshold {conf_threshold} outside [0, 1]")
    score = 0.0
    visible = 0
    for spec in specs:
        points = []
        for joint in spec.triple:
            entry = frame.joints.get(joint)
            if entry is None or entry[2] < conf_threshold:
                break
            points.append(entry)
        else:
            a, b, c = points
            try:
                angle = calculate_angle(a, b, c)
            except ValueError:
                continue  # degenerate geometry: not a visible part
            score += abs(angle - spec.target_angle)
            visible += 1
    return score, visible


def pose_select(rows) -> int:
    """The frame index of the ``score_table`` row with the most visible
    parts; ties broken by lower score, then by smaller frame index."""
    if not rows:
        raise ValueError("no frames to select from")
    return min(rows, key=lambda row: (-row[2], row[1], row[0]))[0]


def select_best_frame(frames, specs=DEFAULT_JOINT_TRIPLES,
                      conf_threshold: float = DEFAULT_CONF_THRESHOLD) -> int:
    """``pose_select`` over the ``score_table`` of ``frames``."""
    return pose_select(score_table(frames, specs, conf_threshold))


def score_table(frames, specs=DEFAULT_JOINT_TRIPLES,
                conf_threshold: float = DEFAULT_CONF_THRESHOLD):
    """[(frame_index, score, visible_parts)] in input order, for reporting."""
    return [
        (frame.frame_index, *perfect_pose_score(frame, specs, conf_threshold))
        for frame in frames
    ]
