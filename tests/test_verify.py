"""The one runner behind ``pneusoft verify`` and the checks it holds."""

import time

import pytest

from pneusoft import config, fea, verify


def test_crashed_check_fails_with_its_time_and_exception(monkeypatch):
    def crash(cfg):
        time.sleep(0.05)
        raise ZeroDivisionError

    monkeypatch.setitem(verify.CHECKS, "patch", crash)
    monkeypatch.setitem(verify.CHECKS, "closed-cavity",
                        lambda cfg: (True, "ran"))
    crashed, later = verify.run_checks(["patch", "closed-cavity"])
    assert (crashed.name, crashed.passed) == ("patch", False)
    assert crashed.detail == "crashed: ZeroDivisionError"
    assert crashed.elapsed_s >= 0.05
    # one crash hides no later check
    assert (later.name, later.passed, later.detail) == ("closed-cavity",
                                                        True, "ran")


def test_crash_detail_keeps_the_message(monkeypatch):
    monkeypatch.setitem(verify.CHECKS, "patch", lambda cfg: 1 / 0)
    (result,) = verify.run_checks(["patch"])
    assert result.detail == "crashed: ZeroDivisionError: division by zero"


def test_unknown_check_is_refused_before_any_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.CHECKS, "patch",
                        lambda cfg: ran.append(cfg) or (True, ""))
    known = ", ".join(verify.CHECKS)
    with pytest.raises(KeyError, match=f"unknown check 'nope'; known: {known}"):
        verify.run_checks(["patch", "nope"])
    assert ran == []


def test_runner_hands_every_check_the_defaults(monkeypatch):
    seen = []
    for name in list(verify.CHECKS):
        monkeypatch.setitem(verify.CHECKS, name,
                            lambda cfg: seen.append(cfg) or (1, "ok"))
    results = verify.run_checks(verify.FULL_CHECKS)
    assert [r.name for r in results] == list(verify.CHECKS)
    assert all(r.passed is True for r in results)
    assert seen == [config.defaults()] * len(verify.CHECKS)
    assert verify.QUICK_CHECKS == verify.FULL_CHECKS[:4]


def test_cylinder_check_solves_the_configured_material(monkeypatch):
    cfg = config.defaults()
    cfg["material.kappa_ratio"] = 3000.0
    seen = []

    def spy(mesh, params, case, prescribed=None):
        seen.append(params)
        raise RuntimeError("no solve")

    monkeypatch.setattr(fea, "solve", spy)
    (result,) = verify.run_checks(["cylinder"], cfg)
    assert [p.kappa for p in seen] == [3000.0 * cfg["material.c10_mpa"]]
    assert result.detail == "crashed: RuntimeError: no solve"
