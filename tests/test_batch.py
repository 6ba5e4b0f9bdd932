"""A sweep marches its eps members as the rows of one batch.  Each row
must be its member's march alone, byte for byte, whatever the other rows
do: longer or shorter horizons, other samples, or a failure.  The stepper
of a march is built for its rows: each multiplier of a row is that of a
stepper built for the row alone, and a march holds one stepper."""

import gc
import tracemalloc

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
from nlparax.flow import _FlowStepper, solve_flow, solve_flow_rows
from nlparax.models import HyperbolicityLost, PositivityLost, SolverError
from nlparax.models.base import Work, _transform
from nlparax.models.oneway import _OneWayStepper, solve_npe, solve_npe_rows
from nlparax.models.waves import (
    _WaveStepper,
    solve_kuznetsov,
    solve_kuznetsov_rows,
    solve_westervelt,
    solve_westervelt_rows,
)
from nlparax import spectral
from nlparax.spectral import Spectral

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


@pytest.mark.parametrize("solve_rows", [
    solve_kuznetsov_rows, solve_westervelt_rows, solve_flow_rows,
    solve_npe_rows,
], ids=["kuznetsov", "westervelt", "flow", "npe"])
def test_a_march_of_no_rows_returns_no_rows(solve_rows):
    assert solve_rows([]) == []


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


def test_a_row_that_loses_positivity_mid_step_names_the_stage():
    # the middle member's midpoint density goes below zero before any full
    # step's does; its message names that stage's time, half a step after
    # step 102, and the row's own minimum, and the other rows, with other
    # step sizes, finish
    g = _line()
    x = g.mesh()[0]
    coeff = _coeff(0.5, nu=0.0)

    def row(amp, speed, step):
        return (coeff, FlowState.from_primitive(
            Field(g, 1.0 + amp * np.sin(x)),
            Field(g, (speed * np.cos(x))[..., None], 1)),
            5.0, StepControl(step=step), 3)

    rows = [row(0.01, 0.01, 0.05), row(0.99, 1.0, 0.02),
            row(0.02, 0.02, 0.04)]
    ok, lost, also_ok = solve_flow_rows(rows)
    assert (type(lost), str(lost)) == _failure_of(solve_flow, rows[1])
    assert str(lost) == ("density positivity lost during midpoint stage at "
                         "t = 2.05 (min rho = -2.548e-02)")
    for r, result in ((rows[0], ok), (rows[2], also_ok)):
        assert _bytes(result) == _bytes(solve_flow(*r))


def _stepper_builders(line=False):
    """stepper class -> build(eps, dt) of a stepper for the rows of those
    eps values and step sizes, whose multipliers all depend on them, on a
    2D grid or, when line is true, on a 1D one"""
    g = Grid((Axis("x1", 2 * np.pi, 16),) if line else
             (Axis("x1", 2 * np.pi, 16), Axis("x2", 3.0, 8)))
    kzk = Grid((Axis("tau", 2 * np.pi, 16),) if line else
               (Axis("tau", 2 * np.pi, 16), Axis("y1", 3.0, 8)), Frame.KZK)
    sp, sp_kzk, coeff = Spectral(g), Spectral(kzk), _coeff(0.01)
    source_h = sp_kzk.fft(np.cos(sum(kzk.mesh())))
    return {
        _WaveStepper: lambda eps, dt: _WaveStepper(
            sp, coeff, eps, dt, coeff.alpha, 2.0),
        _FlowStepper: lambda eps, dt: _FlowStepper(sp, coeff, eps, dt),
        _OneWayStepper: lambda eps, dt: _OneWayStepper(
            sp_kzk, "tau", 0.7, 0.05, -0.6, dt, [2.0 * e for e in eps],
            source_h),
    }


def _same_but_rows(value, alone, r: int, name: str, contents=True) -> None:
    """value, an attribute of a stepper of the rows EPS, is alone, that of
    a stepper of row r alone, but for its member axis: the one axis, if
    any, where value has len(EPS) entries and alone has 1, whose row r is
    alone's row, bit for bit (when contents is true)."""
    if isinstance(value, np.ndarray):
        axes = [i for i, (a, b) in enumerate(zip(value.shape, alone.shape))
                if a != b]
        assert value.ndim == alone.ndim and len(axes) <= 1, name
        if axes:
            assert (value.shape[axes[0]], alone.shape[axes[0]]) == (
                len(EPS), 1), name
            value, alone = value.take(r, axes[0]), alone.take(0, axes[0])
        assert not contents or value.tobytes() == alone.tobytes(), name
    elif isinstance(value, (list, tuple)):  # symbols per axis, constants
        assert len(value) == len(alone), name
        for part, part_alone in zip(value, alone):
            _same_but_rows(part, part_alone, r, name, contents)
    elif isinstance(value, Work):
        # arrays that a step writes before it reads them, which hold no
        # row's state between steps: only their shapes are a row's
        assert vars(value).keys() == vars(alone).keys(), name
        for part, array in vars(value).items():
            _same_but_rows(array, vars(alone)[part], r, f"{name}.{part}",
                           contents=False)
    else:
        assert value is alone or value == alone, name


@pytest.mark.parametrize("cls, line", [
    (_WaveStepper, False), (_FlowStepper, False), (_OneWayStepper, False),
    (_WaveStepper, True), (_FlowStepper, True), (_OneWayStepper, True),
], ids=["wave", "flow", "oneway", "wave-1d", "flow-1d", "oneway-1d"])
def test_each_row_of_a_stepper_is_that_row_alone(cls, line):
    # an array with a member axis has len(EPS) entries on it; row r of it
    # must be the array of a stepper built for row r alone, bit for bit,
    # and every other attribute the same as that stepper's.  On a 1D grid
    # each multiplier has the full shape of the arrays it multiplies, and
    # the step's Work arrays are allocated; on more axes they are None.
    build = _stepper_builders(line)[cls]
    dts = (0.01, 0.008, 0.005)
    rows = build(EPS, dts)
    work = [a is not None for a in vars(rows.work).values()]
    assert work and set(work) == {line}
    for r in range(len(EPS)):
        alone = vars(build(EPS[r:r + 1], dts[r:r + 1]))
        assert vars(rows).keys() == alone.keys()
        for name, value in vars(rows).items():
            if name == "dt":  # the flow stepper's, for its messages
                assert (value[r], len(value)) == (alone[name][0], len(EPS))
            else:
                _same_but_rows(value, alone[name], r, name)


@pytest.mark.parametrize("cls", [_WaveStepper, _FlowStepper, _OneWayStepper],
                         ids=["wave", "flow", "oneway"])
def test_the_rows_of_a_batch_share_every_kernel_call(monkeypatch, cls):
    # on a 2D grid the spectral core transforms the member rows of a stack
    # with one pocketfft kernel call per axis, so a step of three rows makes
    # as many kernel calls as a step of one
    build = _stepper_builders()[cls]
    calls = []
    for name in ("_rfft", "_fft", "_ifft", "_irfft"):
        def counted(*args, _op=getattr(spectral, name), **kw):
            calls.append(_op)
            return _op(*args, **kw)
        monkeypatch.setattr(spectral, name, counted)
    dts, steps = (0.01, 0.008, 0.005), []
    for rows in (1, 3):
        stepper = build(EPS[:rows], dts[:rows])
        sp = stepper.sp
        profile = np.stack([0.5 * np.sin(sum(sp.grid.mesh()) + e)
                            for e in EPS[:rows]])
        state = {_WaveStepper: (profile, -np.roll(profile, 3, axis=-1)),
                 _FlowStepper: (1.0 + 0.1 * profile,
                                0.1 * np.stack([profile] * 2)),
                 _OneWayStepper: (profile - profile.mean(axis=1,
                                                         keepdims=True),)}
        carried = _transform(stepper, state[cls], sp.fft)
        calls.clear()
        stepper.step(carried, 1)
        steps.append(len(calls))
    assert steps[0] > 0 and steps[1] == steps[0]


def _line_steppers(points: int) -> dict:
    """stepper class -> (a stepper of the rows EPS on a 1D grid of that
    many points, the carried arrays that it steps from)"""
    g = _line(n=points)
    x = g.mesh()[0]
    sp, coeff, dts = Spectral(g), _coeff(0.01), (0.01, 0.008, 0.005)
    rows = np.stack([0.5 * np.sin(x + e) for e in EPS])
    built = {
        _WaveStepper: (_WaveStepper(sp, coeff, EPS, dts, coeff.alpha, 2.0),
                       (rows, -np.roll(rows, 3, axis=-1))),
        _FlowStepper: (_FlowStepper(sp, coeff, EPS, dts),
                       (1.0 + 0.1 * rows, 0.1 * rows[np.newaxis])),
        _OneWayStepper: (_OneWayStepper(sp, "x1", 0.7, 0.05, 0.0, dts,
                                        [2.0 * e for e in EPS],
                                        sp.fft(np.cos(x))), (rows,)),
    }
    return {cls: (stepper, _transform(stepper, state, sp.fft))
            for cls, (stepper, state) in built.items()}


@pytest.mark.parametrize("cls", [_WaveStepper, _FlowStepper, _OneWayStepper],
                         ids=["wave", "flow", "oneway"])
def test_a_1d_step_keeps_no_state_in_its_work_arrays(cls):
    # a step writes every Work array before it reads it: with each one
    # spoiled by NaN before every step, the steps give the same bits
    stepper, carried = _line_steppers(64)[cls]
    spoiled, spoiled_carried = _line_steppers(64)[cls]
    for n in range(1, 4):
        for array in vars(spoiled.work).values():
            array.fill(np.nan)
        carried = stepper.step(carried, n)
        spoiled_carried = spoiled.step(spoiled_carried, n)
        assert [a.tobytes() for a in carried] == [
            a.tobytes() for a in spoiled_carried]


@pytest.mark.parametrize("cls", [_WaveStepper, _FlowStepper, _OneWayStepper],
                         ids=["wave", "flow", "oneway"])
def test_a_1d_step_allocates_only_what_it_returns(cls):
    # after a warm step, a 1D step allocates the carried arrays it returns
    # and nothing else of its size: every other array it writes is one of
    # its Work arrays.  numpy's own bookkeeping within one call (iterators,
    # reductions, the kernels' core dimensions) peaks near 1.5 KB; the
    # smallest array of the step at 256 points takes 6 KB.
    stepper, carried = _line_steppers(256)[cls]
    carried = stepper.step(carried, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        carried = stepper.step(carried, 2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in carried)
    assert peak - returned < min(a.nbytes for a in carried) / 2


@pytest.mark.parametrize("cls, rows, solve_rows", [
    (_WaveStepper, _wave_rows, solve_kuznetsov_rows),
    (_FlowStepper, _flow_rows, solve_flow_rows),
    (_OneWayStepper, _npe_rows, solve_npe_rows),
], ids=["wave", "flow", "oneway"])
def test_a_march_holds_one_stepper(monkeypatch, cls, rows, solve_rows):
    # the stepper is built for the rows a march steps and again for those
    # that remain, each multiplier held once: no stepper per row, and no
    # copy of one
    live = []
    step = cls.step

    def counted(self, carried, n):
        live.append(sum(isinstance(o, cls) for o in gc.get_objects()))
        return step(self, carried, n)

    monkeypatch.setattr(cls, "step", counted)
    gc.collect()
    solve_rows(rows())
    assert live and set(live) == {1}
