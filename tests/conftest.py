"""Shared fixtures, mesh helpers and the acceptance-criteria summary.

Acceptance tests register one PASS/FAIL line per criterion; the lines
are printed in a dedicated section after the pytest summary so the
whole gate is readable at a glance even when output capture is on.
"""

import warnings

import numpy as np
import pytest

from pneusoft import geometry
from pneusoft import mesh as meshmod

ACCEPTANCE_LINES = {}


def record_criterion(index, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES[index] = f"{status}  criterion {index:2d} [{name}] {detail}"


def pytest_runtest_logreport(report):
    # a criterion test that crashes before recording still gets a line
    if report.when != "call" or not report.failed:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    try:
        index = int(name.split("_")[2])
    except ValueError:
        return
    if index not in ACCEPTANCE_LINES:
        ACCEPTANCE_LINES[index] = (f"FAIL  criterion {index:2d} [{name}] "
                                   f"crashed before reporting")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for index in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[index])


def coarse_mesh(kind, element_size, **kwargs):
    """Generate a mesh, silencing the coarse-element warning."""
    spec = geometry.ActuatorSpec(kind=kind, element_size=element_size,
                                 **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return geometry.generate_mesh(spec)


def with_orphan_node(mesh):
    """Copy of ``mesh`` with one extra node that no element uses."""
    nodes = np.vstack([mesh.nodes, mesh.nodes.max(axis=0) + 5.0])
    return meshmod.Mesh(nodes=nodes, tets=mesh.tets,
                        node_sets=mesh.node_sets, face_sets=mesh.face_sets)


def rotation(axis, angle_rad):
    """Rotation matrix about a 3-vector axis (Rodrigues form)."""
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    kx = np.array([[0.0, -k[2], k[1]],
                   [k[2], 0.0, -k[0]],
                   [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle_rad) * kx \
        + (1.0 - np.cos(angle_rad)) * (kx @ kx)


def lagrangian_tensor(cinv, moduli):
    """The full (..., 3, 3, 3, 3) tensor 2 dS/dC built from the C^-1 and
    the moduli (a, b, c) that ``material.lagrangian_tangent`` returns."""
    a, b, c = (np.asarray(m)[..., None, None, None, None] for m in moduli)
    ct_x_ct = np.einsum("...ij,...kl->...ijkl", cinv, cinv)
    ct_o_ct = 0.5 * (np.einsum("...ik,...jl->...ijkl", cinv, cinv)
                     + np.einsum("...il,...jk->...ijkl", cinv, cinv))
    eye_x_ct = np.einsum("ij,...kl->...ijkl", np.eye(3), cinv)
    ct_x_eye = np.einsum("...ij,kl->...ijkl", cinv, np.eye(3))
    return a * ct_x_ct - b * (eye_x_ct + ct_x_eye) + c * ct_o_ct


@pytest.fixture(scope="session")
def small_cube():
    # 2x2x2 cells, 48 tets; small enough for dense eigenvalue work
    return geometry.generate_mesh(
        geometry.ActuatorSpec(kind="cube", element_size=0.5))


@pytest.fixture(scope="session")
def pocket_coarse():
    return coarse_mesh("pocket", 2.5)
