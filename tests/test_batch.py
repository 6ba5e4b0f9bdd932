"""A sweep marches its eps members as the rows of one batch.  Each row
must be its member's march alone, byte for byte, whatever the other rows
do: longer or shorter horizons, other samples, or a failure."""

import numpy as np
import pytest

from nlparax import (
    Axis,
    Field,
    FlowState,
    Frame,
    Grid,
    ModelCoefficients,
    StepControl,
)
from nlparax.flow import solve_flow, solve_flow_rows
from nlparax.models import HyperbolicityLost, PositivityLost, SolverError
from nlparax.models.oneway import solve_npe, solve_npe_rows
from nlparax.models.waves import (
    solve_kuznetsov,
    solve_kuznetsov_rows,
    solve_westervelt,
    solve_westervelt_rows,
)

EPS = (0.04, 0.02, 0.01)


def _line(name="x1", frame=Frame.PHYSICAL, n=32):
    return Grid((Axis(name, 2 * np.pi, n),), frame)


def _coeff(eps, nu=0.3):
    return ModelCoefficients(c=1.0, rho0=1.0, gamma=1.4, nu=nu, eps=eps)


def _wave_rows():
    g = _line()
    x = g.mesh()[0]
    u0 = Field(g, 0.5 * np.sin(x))
    # horizons 0.02/eps: the rows take 20, 40 and 80 steps and retire one
    # after another, with 3, 4 and 6 samples
    return [(_coeff(eps), u0, Field(g, -0.5 * np.cos(x) * (1 + eps)),
             0.02 / eps, StepControl(step=0.05, substeps=2),
             2 + round(0.04 / eps)) for eps in EPS]


def _flow_rows():
    g = _line()
    x = g.mesh()[0]
    rows = []
    for eps in EPS:
        init = FlowState.from_primitive(
            Field(g, 1.0 + eps * np.sin(x)),
            Field(g, (eps * np.cos(x))[..., None], 1))
        rows.append((_coeff(eps), init, 0.02 / eps,
                     StepControl(step=0.05, substeps=2), 3))
    return rows


def _npe_rows():
    g = _line("z", Frame.NPE)
    z = g.mesh()[0]
    xi0 = Field(g, 0.5 * np.sin(z))
    # NPE's step scales with eps
    return [(_coeff(eps), xi0, 2.0 * eps, StepControl(step=0.1 * eps), 4)
            for eps in EPS]


def _bytes(result):
    """Every time and array of a trajectory as bytes."""
    out = []
    for sample in result:
        if isinstance(sample, tuple):  # flow: (t, FlowState)
            t, U = sample
            arrays = (U.rho.values, U.momentum.values)
        else:
            t = sample.evol
            arrays = (sample.primary.values,) + (
                () if sample.velocity is None else (sample.velocity.values,))
        out.append((np.float64(t).tobytes(),
                    tuple(a.tobytes() for a in arrays)))
    return out


@pytest.mark.parametrize("rows, solve_rows, solve", [
    (_wave_rows, solve_kuznetsov_rows, solve_kuznetsov),
    (_wave_rows, solve_westervelt_rows, solve_westervelt),
    (_flow_rows, solve_flow_rows, solve_flow),
    (_npe_rows, solve_npe_rows, solve_npe),
], ids=["kuznetsov", "westervelt", "flow", "npe"])
def test_each_row_of_a_batched_march_is_its_member_alone(rows, solve_rows,
                                                         solve):
    rows = rows()
    batched = solve_rows(rows)
    assert len(batched) == len(rows)
    for row, result in zip(rows, batched):
        assert not isinstance(result, SolverError)
        assert _bytes(result) == _bytes(solve(*row))
    # the rows retire at their own horizons: samples differ in number and
    # in the final time
    assert len({result[-1][0] if isinstance(result[-1], tuple)
                else result[-1].evol for result in batched}) == len(rows)


def _failure_of(solve, row):
    with pytest.raises(SolverError) as info:
        solve(*row)
    return type(info.value), str(info.value)


def test_a_row_that_loses_hyperbolicity_fails_alone():
    # the middle member's factor 1 - eps*a*w crosses zero at step 8, inside
    # its stage; the others march on to their horizons
    coeff = ModelCoefficients(c=1.3, rho0=0.9, gamma=1.4, nu=0.2, eps=0.05)
    g = _line()
    x = g.mesh()[0]
    rows = [(coeff, Field(g, amp * np.sin(x)), Field(g, amp * np.cos(x)),
             5.0, StepControl(step=0.05), 5) for amp in (0.5, 40.0, 1.0)]
    ok, lost, also_ok = solve_kuznetsov_rows(rows)
    assert isinstance(lost, HyperbolicityLost)
    assert (type(lost), str(lost)) == _failure_of(solve_kuznetsov, rows[1])
    assert "at step 8:" in str(lost)
    for row, result in ((rows[0], ok), (rows[2], also_ok)):
        assert _bytes(result) == _bytes(solve_kuznetsov(*row))
        assert result[-1].evol == 5.0


def test_a_row_that_loses_positivity_fails_alone():
    # a strong compression wave with a coarse step drives rho below zero in
    # one row; the gentle rows around it finish
    g = _line()
    x = g.mesh()[0]
    coeff = _coeff(0.5, nu=0.0)

    def row(amp, speed):
        return (coeff, FlowState.from_primitive(
            Field(g, 1.0 + amp * np.sin(x)),
            Field(g, (speed * np.cos(x))[..., None], 1)),
            5.0, StepControl(step=0.05), 3)

    rows = [row(0.01, 0.01), row(0.9, 2.0), row(0.02, 0.02)]
    ok, lost, also_ok = solve_flow_rows(rows)
    assert isinstance(lost, PositivityLost)
    assert (type(lost), str(lost)) == _failure_of(solve_flow, rows[1])
    for r, result in ((rows[0], ok), (rows[2], also_ok)):
        assert _bytes(result) == _bytes(solve_flow(*r))


def test_rows_of_one_march_differ_in_eps_only():
    rows = _wave_rows()
    coeff, *rest = rows[1]
    other = ModelCoefficients(c=1.0, rho0=1.0, gamma=1.4, nu=0.2,
                              eps=coeff.eps)
    with pytest.raises(ValueError, match="differ in eps only"):
        solve_kuznetsov_rows([rows[0], (other, *rest)])
    g = _line(n=16)
    with pytest.raises(ValueError, match="share one grid"):
        solve_kuznetsov_rows([rows[0], (coeff, Field.zeros(g),
                                        Field.zeros(g), *rest[2:])])
