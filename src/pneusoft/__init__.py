"""Design and simulation toolkit for single-chamber pneumatic soft
actuators: hyperelastic finite elements with follower pressure loads,
parametric actuator meshing, on-off pneumatic control loops and
reduced-order models of the robots built from the actuators."""

__version__ = "0.1.0"

from .geometry import ActuatorSpec, generate_mesh
from .material import (
    HyperelasticParams,
    InvalidDeformation,
    calibrate_c10,
    cauchy_stress,
    strain_energy,
)
from .mesh import Mesh, MeshFormatError, load_mesh, mesh_quality, save_mesh
from .fea import LoadCase, Solution, SolveError, solve
from .pneumatics import (
    BathPlant,
    DeadbandController,
    DutyCycleController,
    PneumaticPlant,
    ThermostatController,
    cycle_amplitude,
    run_bath,
    run_control,
)
from .robots import (
    EarthwormParams,
    GripperParams,
    QuadrupedParams,
    earthworm_speed,
    gripper_can_hold,
    gripper_min_pressure_kpa,
    quadruped_speed,
)

__all__ = [
    "ActuatorSpec",
    "BathPlant",
    "DeadbandController",
    "DutyCycleController",
    "EarthwormParams",
    "GripperParams",
    "HyperelasticParams",
    "InvalidDeformation",
    "LoadCase",
    "Mesh",
    "MeshFormatError",
    "PneumaticPlant",
    "QuadrupedParams",
    "Solution",
    "SolveError",
    "ThermostatController",
    "__version__",
    "calibrate_c10",
    "cauchy_stress",
    "cycle_amplitude",
    "earthworm_speed",
    "generate_mesh",
    "gripper_can_hold",
    "gripper_min_pressure_kpa",
    "load_mesh",
    "mesh_quality",
    "quadruped_speed",
    "run_bath",
    "run_control",
    "save_mesh",
    "solve",
    "strain_energy",
]
