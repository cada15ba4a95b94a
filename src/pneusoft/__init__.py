"""Design and simulation toolkit for single-chamber pneumatic soft
actuators: hyperelastic finite elements with follower pressure loads,
parametric actuator meshing, on-off pneumatic control loops and
reduced-order models of the robots built from the actuators.

Each part is a submodule, imported as such: ``from pneusoft import fea``
then ``fea.solve``."""

__version__ = "0.1.0"
