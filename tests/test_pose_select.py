import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcache.pose_select import (
    DEFAULT_JOINT_TRIPLES,
    JointTripleSpec,
    KeypointFrame,
    calculate_angle,
    perfect_pose_score,
    pose_select,
    score_table,
    select_best_frame,
)

SPEC2 = (
    JointTripleSpec("a", ("p", "q", "r"), 180.0),
    JointTripleSpec("b", ("q", "r", "s"), 180.0),
)


def frame(idx, **joints):
    return KeypointFrame(frame_index=idx, joints=joints)


class TestCalculateAngle:
    def test_collinear_opposite_is_180(self):
        assert calculate_angle((1, 0), (0, 0), (-1, 0)) == pytest.approx(180.0)

    def test_perpendicular_is_90(self):
        assert calculate_angle((1, 0), (0, 0), (0, 1)) == pytest.approx(90.0)

    def test_diagonal_is_45(self):
        assert calculate_angle((1, 0), (0, 0), (1, 1)) == pytest.approx(45.0)

    def test_zero_length_ray_rejected(self):
        with pytest.raises(ValueError):
            calculate_angle((0, 0), (0, 0), (1, 1))

    @given(ax=st.floats(-50, 50), ay=st.floats(-50, 50),
           cx=st.floats(-50, 50), cy=st.floats(-50, 50))
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, ax, ay, cx, cy):
        if (ax, ay) == (0.0, 0.0) or (cx, cy) == (0.0, 0.0):
            return
        assert calculate_angle((ax, ay), (0, 0), (cx, cy)) == pytest.approx(
            calculate_angle((cx, cy), (0, 0), (ax, ay)), abs=1e-9)

    @given(angle=st.floats(0, 2 * math.pi), scale=st.floats(0.05, 40.0),
           tx=st.floats(-100, 100), ty=st.floats(-100, 100))
    @settings(max_examples=150, deadline=None)
    def test_similarity_transform_invariance(self, angle, scale, tx, ty):
        pts = [(1.3, 0.2), (0.1, -0.4), (-0.8, 1.1)]
        base = calculate_angle(*pts)
        cos_a, sin_a = math.cos(angle), math.sin(angle)

        def tf(p):
            x, y = p
            return (scale * (cos_a * x - sin_a * y) + tx,
                    scale * (sin_a * x + cos_a * y) + ty)

        assert calculate_angle(*map(tf, pts)) == pytest.approx(base, abs=1e-6)


class TestPerfectPoseScore:
    def test_all_angles_on_target(self):
        f = frame(0, p=(0, 0, 1.0), q=(1, 0, 1.0), r=(2, 0, 1.0), s=(3, 0, 1.0))
        score, visible = perfect_pose_score(f, SPEC2)
        assert score == pytest.approx(0.0, abs=1e-9)
        assert visible == 2

    def test_single_right_angle_scores_ninety(self):
        f = frame(0, p=(0, 1, 1.0), q=(0, 0, 1.0), r=(1, 0, 1.0))
        score, visible = perfect_pose_score(f, SPEC2[:1])
        assert score == pytest.approx(90.0)
        assert visible == 1

    def test_low_confidence_joints_not_counted(self):
        f = frame(0, p=(0, 0, 0.1), q=(1, 0, 0.2), r=(2, 0, 0.1), s=(3, 0, 0.0))
        assert perfect_pose_score(f, SPEC2) == (0.0, 0)

    def test_missing_joint_treated_as_invisible(self):
        f = frame(0, p=(0, 0, 1.0), q=(1, 0, 1.0))  # r, s absent
        assert perfect_pose_score(f, SPEC2) == (0.0, 0)

    def test_degenerate_triple_not_visible(self):
        f = frame(0, p=(1, 1, 1.0), q=(1, 1, 1.0), r=(2, 0, 1.0), s=(3, 0, 1.0))
        score, visible = perfect_pose_score(f, SPEC2[:1])
        assert (score, visible) == (0.0, 0)

    def test_score_monotone_as_angle_approaches_target(self):
        far = frame(0, p=(0, 1, 1.0), q=(0, 0, 1.0), r=(1, 0, 1.0))        # 90
        near = frame(0, p=(-1, 0.2, 1.0), q=(0, 0, 1.0), r=(1, 0, 1.0))    # ~169
        s_far, _ = perfect_pose_score(far, SPEC2[:1])
        s_near, _ = perfect_pose_score(near, SPEC2[:1])
        assert s_near < s_far

    def test_default_specs_nonempty_and_named(self):
        assert len(DEFAULT_JOINT_TRIPLES) >= 6
        names = {s.name for s in DEFAULT_JOINT_TRIPLES}
        assert "left_shoulder" in names and "right_elbow" in names

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            perfect_pose_score(frame(0), ())

    @pytest.mark.parametrize("threshold", [float("nan"), -1.0, -1e-9, 1.5, float("inf")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # at a threshold of nan or -1, joints of confidence 0 read as visible
        unseen = frame(0, p=(0, 0, 0.0), q=(1, 0, 0.0), r=(2, 0, 0.0))
        for score in (lambda: perfect_pose_score(unseen, SPEC2, threshold),
                      lambda: score_table([unseen], SPEC2, threshold)):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                score()

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_bounds_accepted(self, threshold):
        seen = frame(0, p=(0, 0, 1.0), q=(1, 0, 1.0), r=(2, 0, 1.0))
        assert perfect_pose_score(seen, SPEC2[:1], threshold) == (0.0, 1)


class TestSelectBestFrame:
    def test_visibility_dominates_score(self):
        # (visible=2, score=50ish) must beat (visible=1, score=0)
        worse_score = frame(0, p=(0, 1, 1.0), q=(0, 0, 1.0), r=(1, 0, 1.0),
                            s=(2, -1, 1.0))
        perfect_but_partial = frame(1, p=(0, 0, 1.0), q=(1, 0, 1.0), r=(2, 0, 1.0))
        assert select_best_frame([perfect_but_partial, worse_score], SPEC2) == 0

    def test_equal_visibility_lower_score_wins(self):
        score30 = frame(3, p=(-1, 0.55, 1.0), q=(0, 0, 1.0), r=(1, 0, 1.0))
        score10 = frame(7, p=(-1, 0.17, 1.0), q=(0, 0, 1.0), r=(1, 0, 1.0))
        assert select_best_frame([score30, score10], SPEC2[:1]) == 7
        assert select_best_frame([score10, score30], SPEC2[:1]) == 7

    def test_singleton(self):
        only = frame(42, p=(0, 1, 1.0), q=(0, 0, 1.0), r=(1, 0, 1.0))
        assert select_best_frame([only], SPEC2[:1]) == 42

    def test_exact_tie_breaks_on_frame_index(self):
        a = frame(9, p=(0, 0, 1.0), q=(1, 0, 1.0), r=(2, 0, 1.0))
        b = frame(4, p=(0, 0, 1.0), q=(1, 0, 1.0), r=(2, 0, 1.0))
        assert select_best_frame([a, b], SPEC2[:1]) == 4
        assert select_best_frame([b, a], SPEC2[:1]) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best_frame([], SPEC2)
        with pytest.raises(ValueError, match="no frames"):
            pose_select([])

    def test_pose_select_orders_score_table_rows(self):
        # most visible parts, then lower score, then smaller frame index
        rows = [(3, 0.0, 1), (8, 5.0, 2), (6, 1.0, 2), (2, 1.0, 2)]
        assert pose_select(rows) == 2
        assert pose_select(rows[:2]) == 8

    def test_confidence_bounds_validated(self):
        with pytest.raises(ValueError):
            frame(0, p=(0, 0, 1.5))

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValueError):
            frame(0, p=(float("nan"), 0, 1.0))
