import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlparax
from nlparax import (
    Axis,
    Field,
    Frame,
    Grid,
    ModelCoefficients,
    StepControl,
    solve_kzk,
    solve_npe,
)
from nlparax import spectral
from nlparax.flow import _FlowStepper
from nlparax.models.base import _transform, march
from nlparax.models.oneway import _OneWayStepper
from nlparax.models.waves import _WaveStepper
from nlparax.spectral import Spectral, require_mean_zero


def _grid1d(n=64, L=2 * np.pi, name="x1"):
    return Grid((Axis(name, L, n),), Frame.PHYSICAL)


def _samples(grid, evol, state):
    """A march's sample as it is: (evol, state arrays)."""
    return evol, state


def _row(coeff, grid, state, nsteps, n_samples, dt):
    """A march row of nsteps steps of size dt."""
    span = nsteps * dt
    return (coeff, grid, state, span, StepControl(step=span,
                                                  substeps=nsteps),
            n_samples)


modes = st.lists(
    st.tuples(st.integers(min_value=1, max_value=8),
              st.floats(-2.0, 2.0),
              st.floats(0.0, 6.0)),
    min_size=1, max_size=5,
)


def _synth(x, L, terms):
    out = np.zeros_like(x)
    for k, a, ph in terms:
        out += a * np.sin(2 * np.pi * k * x / L + ph)
    return out


def test_single_mode_derivative_exact():
    n, L = 64, 5.0
    g = _grid1d(n, L)
    x = g.mesh()[0]
    df = Spectral(g).d(np.sin(2 * np.pi * 3 * x / L), "x1")
    exact = (2 * np.pi * 3 / L) * np.cos(2 * np.pi * 3 * x / L)
    assert np.abs(df - exact).max() < 1e-12


@settings(deadline=None, max_examples=40)
@given(terms=modes)
def test_derivative_is_linear(terms):
    n, L = 64, 3.0
    x = L * np.arange(n) / n
    f = _synth(x, L, terms)
    g = np.cos(2 * np.pi * x / L)
    sp = Spectral(_grid1d(n, L))
    lhs = sp.d(f + 2.5 * g, 0)
    rhs = sp.d(f, 0) + 2.5 * sp.d(g, 0)
    assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(lhs).max())


@settings(deadline=None, max_examples=40)
@given(terms=modes)
def test_antideriv_inverts_deriv_on_mean_zero(terms):
    n, L = 128, 2 * np.pi
    x = L * np.arange(n) / n
    sp = Spectral(_grid1d(n, L))
    f = sp.mean_zero(_synth(x, L, terms), 0)
    back = sp.inv(sp.d(f, 0), 0)
    # antideriv returns the mean-zero primitive, f is already mean-zero
    assert np.abs(back - f).max() < 1e-10 * max(1.0, np.abs(f).max())


def test_antideriv_output_is_mean_zero(rng):
    n, L = 96, 4.0
    sp = Spectral(_grid1d(n, L))
    f = sp.mean_zero(rng.standard_normal(n), 0)
    F = sp.inv(f, 0)
    assert abs(F.mean()) < 1e-13


def test_require_mean_zero_rejects_nonzero_mean():
    g = _grid1d(32)
    f = Field(g, np.ones(32))
    with pytest.raises(ValueError):
        require_mean_zero(f, "x1")


def test_one_mean_zero_precondition():
    # the precondition and both one-way solvers refuse a line mean of 1e-3
    # with one message that names the axis and the largest mean
    ctl = StepControl(step=0.1)
    for frame, ax in ((Frame.KZK, "tau"), (Frame.NPE, "z")):
        g = Grid((Axis(ax, 2 * np.pi, 32), Axis("y1", 2.0, 8)), frame)
        s = g.mesh()[0]
        f = Field(g, np.sin(s) + np.where(np.arange(8) == 3, 1e-3, 0.0))
        solve = solve_kzk if frame is Frame.KZK else solve_npe
        message = (f"profile must be mean-zero along '{ax}': largest line "
                   r"mean is 1\.000e-03")
        for refuse in (lambda: require_mean_zero(f, ax),
                       lambda: solve(ModelCoefficients(), f, 1.0, ctl)):
            with pytest.raises(ValueError, match=message):
                refuse()


def test_nyquist_mode_zeroed_for_odd_order():
    n, L = 32, 2 * np.pi
    x = L * np.arange(n) / n
    f = np.cos(np.pi * n / L * x)  # pure Nyquist mode
    df = Spectral(_grid1d(n, L)).d(f, 0, order=1)
    assert np.abs(df).max() < 1e-12


def test_whole_grid_symbols():
    # i*k zeroes the Nyquist mode on every axis, as `d` does; `keep` is the
    # 2/3 mask of `dealias` in the layout of `fft`, whole or along one axis
    g = Grid((Axis("x1", 2 * np.pi, 8), Axis("x2", 2 * np.pi, 6)))
    sp = Spectral(g)
    ik1, ik2 = sp.ik
    assert np.allclose(ik1[:, 0], 1j * np.array([0, 1, 2, 3, 0, -3, -2, -1]))
    assert np.allclose(ik2[0], 1j * np.array([0, 1, 2, 0]))
    keep1 = np.array([1, 1, 1, 0, 0, 0, 1, 1])[:, None]
    keep2 = np.array([1, 1, 1, 0])[None, :]
    assert np.array_equal(sp.keep("x1"), keep1)
    assert np.array_equal(sp.keep(), keep1 * keep2)
    bounded = Grid((Axis("x1", 2 * np.pi, 8),
                    Axis("t", 1.0, 5, periodic=False)))
    with pytest.raises(ValueError, match="axis 't' is not periodic"):
        Spectral(bounded).keep("x1")


def _plane_wave(grid, modes):
    """cos(2 pi sum_i m_i x_i / L_i) for integer modes m_i."""
    phase = sum(2 * np.pi * m * x / a.length
                for m, x, a in zip(modes, grid.mesh(), grid.axes))
    return np.cos(phase)


def test_dealias_without_a_periodic_axis_returns_its_input():
    v = np.arange(5.0)
    grid = Grid((Axis("t", 1.0, 5, periodic=False),))
    assert Spectral(grid).dealias(v) is v


def test_dealias_cutoff(rng):
    # the 2/3 rule keeps exactly the modes with |k_i| <= N_i // 3 on every
    # axis and drops the rest
    n, L = 48, 2 * np.pi
    x = L * np.arange(n) / n
    kept = np.sin((n // 3 - 1) * x)
    dropped = np.sin((n // 3 + 2) * x)
    out = Spectral(_grid1d(n, L)).dealias(kept + dropped)
    assert np.abs(out - kept).max() < 1e-12

    for shape in [(12, 18), (12, 6, 10)]:
        grid = Grid(tuple(Axis(f"x{i + 1}", 1.0 + i, n)
                          for i, n in enumerate(shape)))
        sp = Spectral(grid)
        # oracle: the full complex spectrum, masked
        v = rng.standard_normal(shape)
        k = np.meshgrid(*[np.abs(np.fft.fftfreq(n, 1.0 / n)) for n in shape],
                        indexing="ij")
        keep = np.all([ki <= n // 3 for ki, n in zip(k, shape)], axis=0)
        expect = np.fft.ifftn(np.fft.fftn(v) * keep).real
        assert np.abs(sp.dealias(v) - expect).max() < 1e-12

        # the mode at index N - N//3 of the first axis (a negative frequency
        # in its full-fft ordering) stays; a mode just past the cutoff on any
        # one axis goes
        cut = [n // 3 for n in shape]
        kept = _plane_wave(grid, [-cut[0]] + cut[1:])
        for i in range(len(shape)):
            modes = [1] * len(shape)
            modes[i] = -(cut[i] + 1) if i == 0 else cut[i] + 1
            out = sp.dealias(kept + _plane_wave(grid, modes))
            assert np.abs(out - kept).max() < 1e-12


def test_wavenumbers_rfft_ordering():
    k, = Spectral(_grid1d(16, 2 * np.pi)).k
    assert k.shape == (9,)
    assert k[0] == 0.0
    assert np.allclose(k, np.arange(9))  # L = 2*pi gives integer wavenumbers
    # full-fft ordering on a non-last axis, rfft ordering on the last
    g = Grid((Axis("x1", 2 * np.pi, 8), Axis("x2", 2 * np.pi, 8)))
    k1, k2 = Spectral(g).k
    assert k1.shape == (8, 1) and k2.shape == (1, 5)
    assert np.allclose(k1[:, 0], [0, 1, 2, 3, -4, -3, -2, -1])
    assert np.allclose(k2[0], np.arange(5))


def test_mean_zero_removes_the_line_means():
    g = Grid((Axis("tau", 2 * np.pi, 32), Axis("y1", 2.0, 8)), Frame.KZK)
    T, Y = g.mesh()
    f = np.sin(T) + 0.7 * Y
    means = f - Spectral(g).mean_zero(f, "tau")
    assert np.allclose(means, 0.7 * Y, atol=1e-12)


def test_project_mean_zero_idempotent(rng):
    sp = Spectral(_grid1d(64))
    p = sp.mean_zero(rng.standard_normal(64) + 3.0, "x1")
    assert abs(p.mean()) < 1e-13
    p2 = sp.mean_zero(p, "x1")
    assert np.abs(p2 - p).max() < 1e-14


@settings(deadline=None, max_examples=25)
@given(terms=modes)
def test_parseval_l2_norm(terms):
    n, L = 128, 2 * np.pi
    g = _grid1d(n, L)
    x = g.mesh()[0]
    v = _synth(x, L, terms)
    f = Field(g, v)
    fh = np.fft.rfft(v) / n
    w = np.full(fh.size, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    fourier = np.sqrt(L * np.sum(w * np.abs(fh) ** 2))
    assert f.l2_norm() == pytest.approx(fourier, rel=1e-12, abs=1e-12)


def _periodic_grid(*points):
    return Grid(tuple(Axis(f"x{i + 1}", 2 * np.pi, n)
                      for i, n in enumerate(points)))


@pytest.mark.parametrize("points", [(64,), (32, 16), (8, 6, 4)],
                         ids=["64", "32x16", "8x6x4"])
def test_batched_transforms_equal_one_at_a_time(rng, points):
    # a block whose leading axes are rows comes back as each row's own
    # transform, bit for bit
    sp = Spectral(_periodic_grid(*points))
    block = rng.standard_normal((2, 3, *points))
    spectra = sp.fft(block)
    assert spectra.shape == (2, 3, *sp.fft(block[0, 0]).shape)
    rows = spectra.reshape(-1, *spectra.shape[2:])
    for row, vh in zip(block.reshape(-1, *points), rows, strict=True):
        assert np.array_equal(vh, sp.fft(row))
    back = sp.ifft(spectra)
    assert back.shape == block.shape
    for vh, v in zip(rows, back.reshape(-1, *points), strict=True):
        assert np.array_equal(v, sp.ifft(vh))


def test_one_numpy_call_per_transform_on_a_1d_grid(monkeypatch):
    # on one axis a block of any number of rows is one numpy.fft call, so
    # every spectral-core call of a 1D stepper is one numpy call
    numpy_calls, core_calls = [], []
    for name in ("rfft", "irfft", "fft", "ifft"):
        def counted(*args, _op=getattr(np.fft, name), _name=name, **kw):
            numpy_calls.append(_name)
            return _op(*args, **kw)
        monkeypatch.setattr(np.fft, name, counted)
    for name in ("_forward", "_inverse"):
        def counted(*args, _op=getattr(spectral, name), _name=name):
            core_calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(spectral, name, counted)

    sp = Spectral(_grid1d(64))
    for lead in [(), (1,), (5,), (2, 3)]:
        numpy_calls.clear()
        vh = sp.fft(np.ones((*lead, 64)))
        sp.ifft(vh)
        assert numpy_calls == ["rfft", "irfft"], lead

    coeff = ModelCoefficients(nu=0.2, eps=0.05)
    g = _grid1d(64)
    npe = Grid((Axis("z", 2 * np.pi, 64),), Frame.NPE)
    u = 0.01 * np.cos(g.mesh()[0])
    builds = {
        "kuznetsov": (lambda sp, co, eps, dt: _WaveStepper(
                          sp, co, eps, dt, co.alpha, 2.0), g, (u, u)),
        "westervelt": (lambda sp, co, eps, dt: _WaveStepper(
                           sp, co, eps, dt, 2.4, 0.0), g, (u, u)),
        "flow": (_FlowStepper, g, (1.0 + u, u[np.newaxis])),
        "npe": (lambda sp, co, eps, dt: _OneWayStepper(
                    sp, "z", 1.0, 0.1, 0.5, dt, [0.0], None), npe, (u,)),
    }
    for label, (build, grid, state) in builds.items():
        numpy_calls.clear()
        core_calls.clear()
        march(build, [_row(coeff, grid, state, 3, 2, 0.01)], label,
              _samples)
        assert len(numpy_calls) == len(core_calls) > 0, label


@pytest.mark.parametrize("points", [(32, 16), (8, 6, 4)])
def test_multi_axis_transforms_equal_rfftn(rng, points):
    sp = Spectral(_periodic_grid(*points))
    axes = tuple(range(-len(points), 0))
    v = rng.standard_normal((2, *points))
    vh = sp.fft(v)
    assert np.array_equal(vh, np.fft.rfftn(v, axes=axes))
    assert np.array_equal(sp.ifft(vh), np.fft.irfftn(vh, s=points, axes=axes))


def test_only_spectral_calls_numpy_fft():
    # every transform goes through the one spectral core
    src = Path(nlparax.__file__).parent
    offenders = sorted(
        str(p.relative_to(src)) for p in src.rglob("*.py")
        if p.name != "spectral.py"
        and re.search(r"\b(np|numpy)\.fft\b", p.read_text()))
    assert offenders == []


@pytest.mark.parametrize("shape", [(64,), (32, 16), (8, 6, 10), (3, 32)],
                         ids=["1d", "2d", "3d", "1d-stacked"])
def test_health_norm_of_a_spectrum_is_the_physical_norm(shape, rng):
    # the march checks carried spectra by Parseval's sum in the layout of
    # fft; a leading axis is a stack of components
    axes = shape[1:] if shape == (3, 32) else shape
    sp = Spectral(Grid(tuple(Axis(f"x{i + 1}", 1.0 + i, n)
                             for i, n in enumerate(axes))))
    v = rng.standard_normal(shape)
    physical = sp.sum_sq(v)
    assert physical == pytest.approx(float(np.sum(v * v)), rel=1e-14)
    assert abs(sp.sum_sq(sp.fft(v)) - physical) <= 1e-12 * physical


def test_fft_calls_per_step_are_pinned(monkeypatch):
    # each stepper transforms once per stage and carries its spectra from
    # step to step; a transform added back to a step shows up here.  The
    # rows of a batch share every call: three members cost what one does,
    # and building the stepper again for the rows that remain costs none.
    calls = []
    for name in ("_forward", "_inverse"):
        def counted(*args, _op=getattr(spectral, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(spectral, name, counted)

    g1 = _grid1d(64)
    g2 = Grid((Axis("x1", 2 * np.pi, 32), Axis("x2", 2 * np.pi, 16)))
    kzk = Grid((Axis("tau", 2 * np.pi, 32), Axis("y1", 2.0, 16)), Frame.KZK)
    npe = Grid((Axis("z", 2 * np.pi, 64),), Frame.NPE)

    def smooth(g):
        return 0.01 * np.cos(sum(g.mesh()))

    # each case: (its grid, build, its coefficients, the state of one
    # member), where build(sp, coeff, eps, dt) makes the stepper for the
    # rows of the given eps and step sizes, as a march does
    def wave(g, a_local, b_grad):
        return (g, lambda sp, coeff, eps, dt: _WaveStepper(
                    sp, coeff, eps, dt, a_local, b_grad),
                ModelCoefficients(nu=0.2), (smooth(g), smooth(g)))

    def flow(g, nu):
        return (g, _FlowStepper, ModelCoefficients(nu=nu),
                (1.0 + smooth(g), np.stack([smooth(g) for _ in g.axes])))

    def oneway(g, ax, source=None):
        # the fixed source is transformed once, before the march
        source_h = None if source is None else Spectral(g).fft(source)
        return (g, lambda sp, coeff, eps, dt: _OneWayStepper(
                    sp, ax, 1.0, 0.1, 0.5, dt, [2.0 * e for e in eps],
                    source_h),
                ModelCoefficients(nu=0.2), (smooth(g),))

    alpha = ModelCoefficients().alpha
    budget = {
        "kuznetsov 1d": (wave(g1, alpha, 2.0), 8),
        "kuznetsov 2d": (wave(g2, alpha, 2.0), 8),
        "westervelt 1d": (wave(g1, 2.4, 0.0), 4),
        "westervelt 2d": (wave(g2, 2.4, 0.0), 4),
        "flow 1d": (flow(g1, 0.2), 8),
        "flow 1d inviscid": (flow(g1, 0.0), 8),
        "flow 2d": (flow(g2, 0.2), 8),
        "flow 2d inviscid": (flow(g2, 0.0), 8),
        "npe 1d": (oneway(npe, "z"), 4),
        "kzk 2d": (oneway(kzk, "tau"), 4),
        "kzk 2d with source": (oneway(kzk, "tau", smooth(kzk)), 4),
    }
    eps, dt = (0.05, 0.04, 0.03), (0.01, 0.008, 0.006)
    for label, ((grid, build, coeff, state), expect) in budget.items():
        sp = Spectral(grid)
        stepper = build(sp, coeff, eps[:1], dt[:1])
        # one member row, on the axis before the grid's; the march's
        # transform to the carried state and back is one call each way
        row = -len(grid.shape) - 1
        calls.clear()
        carried = _transform(stepper, tuple(np.expand_dims(a, row)
                                            for a in state), sp.fft)
        assert calls == ["_forward"], label
        calls.clear()
        stepper.step(carried, 1)
        assert len(calls) == expect, label
        calls.clear()
        _transform(stepper, carried, sp.ifft)
        assert calls == ["_inverse"], label
        # a march: one forward call to start, the steps, and one inverse
        # call per step that samples a row, the initial state being given;
        # as much for one member as for three.  The last march's rows
        # retire after 6, 4 and 2 steps, and the stepper is built again for
        # the rows that remain.
        for rows, sample_steps in (([(6, 3)], 2), ([(6, 3)] * 3, 2),
                                   ([(6, 3), (4, 3), (2, 2)], 4)):
            built = []

            def counted(sp, coeff, row_eps, row_dt):
                built.append(list(row_eps))
                return build(sp, coeff, row_eps, row_dt)

            calls.clear()
            marched = march(counted, [
                _row(replace(coeff, eps=eps[i]), grid, state, nsteps, n,
                     dt[i]) for i, (nsteps, n) in enumerate(rows)],
                label, _samples)
            assert len(calls) == 1 + 6 * expect + sample_steps, label
            assert [len(samples) for samples in marched] == [
                n for _, n in rows], label
        assert built == [list(eps), list(eps[:2]), list(eps[:1])], label
