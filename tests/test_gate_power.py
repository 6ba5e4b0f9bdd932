"""Each claim verdict must fail on a known-wrong model.

One row per (study config, mutation, verdict that must fail).  A mutation
scales one coefficient of one march, by a monkeypatch of the row solver the
study marches or of the one-way model table, and leaves the other march as
it is.  `a` is the factor of the u_t u_tt term ((gamma - 1)/c^2 for
Kuznetsov, (gamma + 1)/c^2 for Westervelt), `b_grad` the weight of the
Kuznetsov gradient term (2) and `a_nl` the NPE nonlinearity.

The size is set by the claim, not tuned to the run: a relative error delta
in an O(eps) term of a model moves its solution by O(delta eps t), a gap of
slope 1 in eps against the floor of 1.8, so a claim of order eps^2 must see
a 10% error.  Halving the gradient term (`b_grad` = 1 instead of 2) is a
wrong model of the same order.

Median slopes measured on the acceptance configs (floor 1.8; unmutated
kuznetsov-westervelt 1.947, kuznetsov-npe 1.946, ns-kuznetsov 2.633):

    study                 mutation             median slope
    kuznetsov-westervelt  Westervelt a x 1.1   1.066
    kuznetsov-westervelt  Kuznetsov a x 1.1    1.622
    kuznetsov-npe         NPE a_nl x 1.1       0.964
    kuznetsov-npe         Kuznetsov a x 1.1    1.240
    ns-kuznetsov          Kuznetsov b_grad = 1 1.608

A blind spot, asserted neither way: on the viscous ns-kuznetsov config,
Kuznetsov `a` x 1.1 passes both verdicts (median slope 2.492 at the
studies' step; 2.570, horizon slope 1.932 at a quarter of it), because
nu = 1 damps the harmonics the nonlinearity makes.  The horizon slope
there is the least-squares slope of each member's error at its own
horizon.  It is a property of the viscous setting; the inviscid sweep with
a horizon-slope verdict is where this mutation must fail.
"""

import pytest
from test_acceptance import NS_KUZ_CFG, PAIRWISE_CFG

from nlparax import experiments
from nlparax.experiments import ExperimentConfig, scaling_study
from nlparax.models import oneway, waves
from nlparax.models.base import ModelKind


def _kuznetsov(monkeypatch, a=1.0, b_grad=2.0):
    monkeypatch.setattr(experiments, "solve_kuznetsov_rows", lambda rows: (
        waves._wave_rows(rows, ModelKind.KUZNETSOV, "u0 and u1",
                         lambda coeff: a * coeff.alpha, b_grad)))


def _westervelt(monkeypatch, a):
    monkeypatch.setattr(experiments, "solve_westervelt_rows", lambda rows: (
        waves._wave_rows(rows, ModelKind.WESTERVELT, "Pi0 and Pi1",
                         lambda coeff: a * (coeff.gamma + 1.0) / coeff.c**2,
                         0.0)))


def _npe(monkeypatch, a_nl):
    axis, coefficients = oneway._MODELS[ModelKind.NPE]

    def scaled(coeff, eps):
        nl, *rest = coefficients(coeff, eps)
        return (a_nl * nl, *rest)

    monkeypatch.setitem(oneway._MODELS, ModelKind.NPE, (axis, scaled))


@pytest.mark.parametrize("config, mutate, criterion", [
    (dict(PAIRWISE_CFG, pair="kuznetsov-westervelt"),
     lambda mp: _westervelt(mp, a=1.1), "eps-scaling-slope"),
    (dict(PAIRWISE_CFG, pair="kuznetsov-westervelt"),
     lambda mp: _kuznetsov(mp, a=1.1), "eps-scaling-slope"),
    (dict(PAIRWISE_CFG, pair="kuznetsov-npe"),
     lambda mp: _npe(mp, a_nl=1.1), "eps-scaling-slope"),
    (dict(PAIRWISE_CFG, pair="kuznetsov-npe"),
     lambda mp: _kuznetsov(mp, a=1.1), "eps-scaling-slope"),
    (NS_KUZ_CFG, lambda mp: _kuznetsov(mp, b_grad=1.0), "eps-scaling-slope"),
], ids=["westervelt-a", "kuznetsov-westervelt-kuznetsov-a", "npe-a_nl",
        "kuznetsov-npe-kuznetsov-a", "ns-kuznetsov-b_grad"])
def test_a_wrong_model_fails_its_verdict(monkeypatch, config, mutate,
                                         criterion):
    mutate(monkeypatch)
    report = scaling_study(ExperimentConfig(**config))
    assert all(s["status"] == "ok" for s in report.series)
    (verdict,) = [v for v in report.verdicts if v["criterion"] == criterion]
    assert not verdict["passed"], verdict
