"""Long-video diffusion inference scheduling: shifted non-overlapping
chunks with deep-feature caching and masked temporal attention, benchmarked
against the overlap/averaging baseline."""

from .cache import FeatureCache, build_mask
from .denoiser import OracleDenoiser, ToyDenoiser, ToyDenoiserConfig, assemble_input
from .diffusion import LatentVideo, NoiseSchedule, ddim_step, make_schedule
from .metrics import flicker_index, ssim, video_ssim
from .numerics import MaskVariant
from .pose_select import (
    DEFAULT_JOINT_TRIPLES,
    JointTripleSpec,
    KeypointFrame,
    calculate_angle,
    perfect_pose_score,
    select_best_frame,
)
from .scheduler import (
    Chunk,
    ChunkMode,
    ChunkPlan,
    Conditions,
    EngineConfig,
    RunStats,
    aggregate_overlaps,
    build_plans,
    run_inference,
    synthesize_conditions,
)

__version__ = "0.1.0"
