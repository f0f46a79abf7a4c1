"""quadstage: software stack for a quadruped-leg-driven 6-DoF motion stage.

Trajectory generation, parallel-leg inverse kinematics, a deterministic
joint-tracking simulator, and post-processing that reconstructs the stage
pose from joint angles and scores tracking accuracy.
"""

from .config import (
    Config,
    ConfigError,
    config_hash,
    default_config,
    dumps_config,
    load_config,
    loads_config,
    write_config,
)
from .geometry import (
    DegenerateInputError,
    GimbalLockWarning,
    ParallelLinesError,
    align_vectors,
    euler_to_rotation,
    line_closest_midpoint,
    rotation_to_euler,
)
from .kinematics import (
    BallPivotError,
    LegGeometry,
    PlatformGeometry,
    PlatformPose,
    UnreachableError,
    WorkspaceLimits,
    WorkspaceViolationError,
    leg_fk,
    leg_ik,
    leg_jacobian,
    pivot_angles_deg,
    platform_corners,
    solve_platform_ik,
    workspace_check,
)
from .postprocess import (
    FilterParams,
    JointRmse,
    PoseSeries,
    RmseReport,
    butterworth_filter,
    differentiate,
    filter_series,
    joint_rmse,
    reconstruct_pose,
    reconstruct_series,
    rmse_report,
)
from .simenv import (
    ActuatorParams,
    SimLog,
    SimParams,
    SimState,
    SimulationUnstableError,
    gravity_torque,
    pd_control,
    run_sim,
    sim_step,
)
from .trajectory import (
    CircularParams,
    SineParams,
    TrajectoryBoundsWarning,
    gen_arbitrary,
    gen_circular,
    gen_sine,
    gen_step,
)

__version__ = "0.1.0"
