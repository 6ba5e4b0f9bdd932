import math
import re
from dataclasses import replace

import numpy as np
import pytest

from nlparax import (
    Axis,
    Field,
    FlowState,
    Frame,
    Grid,
    ModelCoefficients,
    ModelKind,
    StepControl,
    solve_flow,
    solve_kuznetsov,
    solve_kzk,
    solve_npe,
    solve_westervelt,
)
from nlparax.models import base
from nlparax.models.base import (
    HyperbolicityLost,
    SolverDiverged,
    SolverError,
    SolverNaN,
    check_health,
    march,
    only_row,
    resolve_steps,
)
from nlparax.models.oneway import _OneWayStepper
from nlparax.models.waves import _WaveStepper
from nlparax.spectral import Spectral


def _damped_mode_exact(coeff, k, t):
    """Two-root solution of w'' + eps*nu/rho0 k^2 w' + c^2 k^2 w = 0 with
    w(0)=1, w'(0)=0."""
    a = coeff.eps * coeff.nu / coeff.rho0 * k**2
    b = coeff.c**2 * k**2
    disc = complex(a * a - 4.0 * b)
    lp = 0.5 * (-a + np.sqrt(disc))
    lm = 0.5 * (-a - np.sqrt(disc))
    A = -lm / (lp - lm)
    B = lp / (lp - lm)
    return float(np.real(A * np.exp(lp * t) + B * np.exp(lm * t)))


def _grid1d(n=64, L=2 * np.pi):
    return Grid((Axis("x1", L, n),), Frame.PHYSICAL)


def test_coefficient_validation():
    with pytest.raises(ValueError):
        ModelCoefficients(c=-1.0, rho0=1.0, gamma=1.4, nu=0.1, eps=0.1)
    with pytest.raises(ValueError):
        ModelCoefficients(c=1.0, rho0=1.0, gamma=1.0, nu=0.1, eps=0.1)
    with pytest.raises(ValueError):
        ModelCoefficients(c=1.0, rho0=1.0, gamma=1.4, nu=0.1, eps=1.0)
    with pytest.raises(ValueError):
        StepControl(step=0.0)


@pytest.mark.parametrize("field", ["c", "rho0", "gamma", "nu", "eps"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coefficients_refuse_non_finite_values(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ModelCoefficients(**{field: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_control_refuses_a_non_finite_step(bad):
    with pytest.raises(ValueError, match="^step must be finite"):
        StepControl(step=bad)


@pytest.mark.parametrize("span, step", [
    (1.0, 1e-320),    # span / step overflows to inf
    (1e308, 0.005),   # so does a huge span
    (np.nan, 0.1),
    (1e19, 1.0),      # finite, but no index holds that many steps
])
def test_resolve_steps_refuses_a_count_that_does_not_fit(span, step):
    message = re.escape(f"span {span!r} with step {step!r}")
    with pytest.raises(ValueError, match=message):
        resolve_steps(span, StepControl(step=step))


def _march_to(model, coeff, span):
    ctl = StepControl(step=0.1)
    if model in ("kzk", "npe"):
        lead = "tau" if model == "kzk" else "z"
        f = Field.zeros(Grid((Axis(lead, 2 * np.pi, 16),), Frame(model)))
        return (solve_kzk if model == "kzk" else solve_npe)(coeff, f, span,
                                                            ctl)
    g = _grid1d(16)
    if model == "flow":
        return solve_flow(coeff, FlowState.from_primitive(
            Field(g, np.ones(16)), Field.zeros(g, 1)), span, ctl)
    solver = solve_kuznetsov if model == "kuznetsov" else solve_westervelt
    return solver(coeff, Field.zeros(g), Field.zeros(g), span, ctl)


@pytest.mark.parametrize("span", [0.0, -1.0])
@pytest.mark.parametrize("model", ["kuznetsov", "westervelt", "kzk", "npe",
                                   "flow"])
def test_every_solver_refuses_a_span_that_is_not_positive(coeff, model, span):
    # a negative span would march backwards, and a zero one take a zero step
    with pytest.raises(ValueError, match=re.escape(f"span {span!r} must be")):
        _march_to(model, coeff, span)


def test_kuznetsov_damped_mode(coeff):
    g = _grid1d()
    x = g.mesh()[0]
    amp, k = 1e-6, 3.0
    u0 = Field(g, amp * np.sin(k * x))
    u1 = Field.zeros(g)
    t_end = 1.0
    out = solve_kuznetsov(coeff, u0, u1, t_end, StepControl(step=0.01))[-1]
    exact = amp * _damped_mode_exact(coeff, k, t_end) * np.sin(k * x)
    assert np.abs(out.primary.scalar - exact).max() / amp < 1e-6
    assert out.evol == pytest.approx(t_end)


def test_westervelt_damped_mode(coeff):
    g = _grid1d()
    x = g.mesh()[0]
    amp, k = 1e-6, 2.0
    out = solve_westervelt(coeff, Field(g, amp * np.sin(k * x)),
                           Field.zeros(g), 0.8, StepControl(step=0.01))[-1]
    exact = amp * _damped_mode_exact(coeff, k, 0.8) * np.sin(k * x)
    assert np.abs(out.primary.scalar - exact).max() / amp < 1e-6


def _samples(grid, evol, state):
    """A march's sample as it is: (evol, state arrays)."""
    return evol, state


def _row(coeff, grid, state, nsteps, n_samples, dt=0.01):
    """A march row of nsteps steps of size dt."""
    span = nsteps * dt
    return (coeff, grid, state, span, StepControl(step=span,
                                                  substeps=nsteps),
            n_samples)


def _wave_build(a_local, b_grad):
    """The march's build of a _WaveStepper with the given nonlinear
    coefficients (a_local for u_t u_tt, b_grad for grad u . grad u_t)."""
    return lambda sp, coeff, eps, dt: _WaveStepper(sp, coeff, eps, dt,
                                                   a_local, b_grad)


def _wave_march(coeff, u0, u1, t_end, step, a_local, b_grad):
    """End state of a _WaveStepper march with the given nonlinear
    coefficients."""
    (out,) = march(_wave_build(a_local, b_grad),
                   [(coeff, u0.grid, (u0.scalar, u1.scalar), t_end,
                     StepControl(step=step), 2)], "kuznetsov", _samples)
    return out[-1]


def test_nonlinearity_switch_all_off_is_linear(coeff):
    g = _grid1d()
    x = g.mesh()[0]
    u0 = Field(g, 0.3 * np.sin(x))
    u1 = Field(g, -coeff.c * 0.3 * np.cos(x))
    _, (u, _) = _wave_march(replace(coeff, nu=0.0), u0, u1, 0.5, 0.005,
                            0.0, 0.0)
    # undamped wave equation: exact d'Alembert mode solution
    A = 0.3 * np.cos(coeff.c * 0.5)
    B = -0.3 * np.sin(coeff.c * 0.5)
    exact = A * np.sin(x) + B * np.cos(x)
    assert np.abs(u - exact).max() < 1e-9


def test_nonlinearity_switch_terms_matter(coeff):
    g = _grid1d()
    x = g.mesh()[0]
    u0 = Field(g, 0.3 * np.sin(x))
    u1 = Field(g, -coeff.c * 0.3 * np.cos(x))
    full = solve_kuznetsov(coeff, u0, u1, 0.5,
                           StepControl(step=0.005))[-1].primary.scalar
    # each term off in turn: the u_t u_tt term, the gradient term, viscosity
    for name, co, a_local, b_grad in [
            ("local", coeff, 0.0, 2.0),
            ("gradient", coeff, coeff.alpha, 0.0),
            ("viscosity", replace(coeff, nu=0.0), coeff.alpha, 2.0)]:
        _, (part, _) = _wave_march(co, u0, u1, 0.5, 0.005, a_local, b_grad)
        assert np.abs(part - full).max() > 1e-8, name


def test_kuznetsov_rejects_grid_mismatch(coeff):
    u0 = Field.zeros(_grid1d(64))
    u1 = Field.zeros(_grid1d(32))
    with pytest.raises(ValueError):
        solve_kuznetsov(coeff, u0, u1, 1.0, StepControl(step=0.1))


def test_kuznetsov_diverges_loudly(coeff):
    # 1 - eps*a*u_t is negative from the start
    g = _grid1d(32)
    x = g.mesh()[0]
    u0 = Field(g, 1e3 * np.sin(x))
    u1 = Field(g, 1e3 * np.cos(x))
    with pytest.raises(HyperbolicityLost, match="at step 1:"):
        solve_kuznetsov(coeff, u0, u1, 5.0, StepControl(step=0.5))


def test_lost_hyperbolicity_names_the_step_and_the_value(coeff):
    # the factor starts positive and crosses zero at step 8, where the march
    # used to run on until its norm blew up at step 18
    g = _grid1d(32)
    x = g.mesh()[0]
    u0 = Field(g, 40 * np.sin(x))
    u1 = Field(g, 40 * np.cos(x))
    with pytest.raises(HyperbolicityLost,
                       match=r"at step 8: min\(1 - eps\*a\*w\) = -1\.2"):
        solve_kuznetsov(coeff, u0, u1, 5.0, StepControl(step=0.05))


@pytest.mark.parametrize("bad, error, message", [
    (np.nan, SolverNaN, "non-finite values during probe step 3"),
    (np.inf, SolverNaN, "non-finite values during probe step 3"),
    (-np.inf, SolverNaN, "non-finite values during probe step 3"),
    # finite, but its square overflows the sum of squares
    (1e200, SolverDiverged,
     "norm inf exceeds 1e6 x initial (1.000e+00) during probe step 3"),
    (1e7, SolverDiverged,
     "norm 1.000e+07 exceeds 1e6 x initial (1.000e+00) during probe step 3"),
], ids=["nan", "inf", "-inf", "overflow", "diverged"])
def test_check_health_tells_non_finite_from_divergence(bad, error, message):
    # a spectrum is judged by the norm of the array it is the spectrum of
    sp = Spectral(_grid1d(64))
    values = np.zeros(64)
    check_health(values, 1.0, "probe", 3, sp)
    check_health(sp.fft(values), 1.0, "probe", 3, sp)
    values[17] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = sp.fft(values)
    for form in (values, spectrum):
        with np.errstate(over="ignore"), pytest.raises(error) as info:
            check_health(form, 1.0, "probe", 3, sp)
        assert str(info.value) == message


def _exact_health(values, initial_norm, where, step, sp):
    """The health check as it was before its one-reduction bound: the
    grid's sum of squares, then the finiteness scan where that sum is not
    finite."""
    sq = sp.sum_sq(values)
    if not math.isfinite(sq) and not np.all(np.isfinite(values)):
        raise SolverNaN(f"non-finite values during {where} step {step}")
    norm = math.sqrt(sq)
    if norm > 1e6 * max(initial_norm, 1e-300):
        raise SolverDiverged(
            f"norm {norm:.3e} exceeds 1e6 x initial ({initial_norm:.3e}) "
            f"during {where} step {step}")


def _outcome(check, values, initial_norm, sp):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            check(values, initial_norm, "probe", 3, sp)
    except SolverError as err:
        return type(err), str(err)
    return None


# leading (stacking) axes and grid points
_HEALTH_SHAPES = {"1d": ((), (64,)), "2d": ((), (32, 16)),
                  "3d": ((), (8, 6, 10)), "stacked": ((3,), (32,))}


@pytest.mark.parametrize("lead, points", _HEALTH_SHAPES.values(),
                         ids=_HEALTH_SHAPES.keys())
def test_health_bound_raises_exactly_where_the_exact_check_does(lead, points,
                                                                rng):
    # the bound counts every mode of a spectrum twice, so it may only send a
    # borderline array on to the exact check, never pass one that fails it
    sp = Spectral(Grid(tuple(Axis(f"x{i + 1}", 1.0 + i, n)
                             for i, n in enumerate(points))))
    shape = lead + points
    smooth = rng.standard_normal(shape)
    flat = np.full(shape, 0.7)  # all in mode 0, which the bound doubles
    probes = []
    for v in (smooth, flat):
        for form in (v, sp.fft(v)):
            exact = math.sqrt(sp.sum_sq(form))
            bound = math.sqrt(sp.sum_sq_bound(form))
            # norms within 1e-12 of the threshold on both sides, and
            # thresholds between the exact norm and the bound
            for ref in (exact, bound, 0.5 * (exact + bound)):
                for rel in (-1e-12, -1e-13, -1e-15, 0.0, 1e-15, 1e-13,
                            1e-12):
                    probes.append((form, ref / 1e6 * (1.0 + rel)))
    for bad in (np.nan, np.inf, -np.inf, 1e200, 1e160):
        v = smooth.copy()
        v.flat[17] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            spectrum = sp.fft(v)
        for form in (v, spectrum):
            probes += [(form, 1.0), (form, np.inf)]
        # a non-finite imaginary part alone
        spectrum = sp.fft(smooth)
        spectrum.flat[5] = complex(1.0, bad)
        probes += [(spectrum, 1.0), (spectrum, np.inf)]
    raised = 0
    for form, initial_norm in probes:
        expect = _outcome(_exact_health, form, initial_norm, sp)
        assert _outcome(check_health, form, initial_norm, sp) == expect
        raised += expect is not None
    # both outcomes are covered on every shape
    assert 0 < raised < len(probes)


def _row_by_row(carried, live, label, n, sp):
    """The march's health check as it was before its batched bound:
    check_health on every component of every carried array of each row."""
    ndim, failed = len(sp.shape), {}
    for r, row in enumerate(live):
        try:
            for a in carried:
                part = base._row(a, r, ndim)
                for comp in part.reshape(-1, *part.shape[-ndim:]):
                    check_health(comp, row.ref_norm, label, n, sp)
        except SolverError as exc:
            failed[r] = exc
    return failed


@pytest.mark.parametrize("lead, points", _HEALTH_SHAPES.values(),
                         ids=_HEALTH_SHAPES.keys())
def test_batched_health_check_fails_exactly_the_rows_each_check_does(
        monkeypatch, lead, points, rng):
    # three rows of different reference norms, carried as a real array and
    # as a spectrum; one row is moved to within 1e-12 of its limit on both
    # sides, or given a non-finite or overflowing entry
    sp = Spectral(Grid(tuple(Axis(f"x{i + 1}", 1.0 + i, n)
                             for i, n in enumerate(points))))
    ref_norms = (1.0, 1e-3, 2.0)
    live = [base._Row(r, 10, set(), ref, base._batch_limit(ref), 0.1, 0.01)
            for r, ref in enumerate(ref_norms)]
    # every component of every row of unit norm
    healthy = rng.standard_normal((3,) + lead + points)
    grid_axes = tuple(range(-len(points), 0))
    healthy /= np.sqrt(np.sum(healthy**2, axis=grid_axes, keepdims=True))
    probes = [healthy]
    for r in range(3):
        for rel in (-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9):
            # the others at rest too, so that one row makes the whole sum
            for others in (healthy, np.zeros_like(healthy)):
                v = others.copy()
                v[r] = healthy[r] * 1e6 * ref_norms[r] * (1.0 + rel)
                probes.append(v)
        for bad in (np.nan, np.inf, 1e200):
            v = healthy.copy()
            v[r].flat[5] = bad
            probes.append(v)
    checks = []
    monkeypatch.setattr(base, "check_health",
                        lambda *args: checks.append(1) or check_health(*args))
    raised = 0
    for v in probes:
        stacked = np.moveaxis(v, 0, len(lead))  # rows before the grid's axes
        with np.errstate(over="ignore", invalid="ignore"):
            forms = (stacked, sp.fft(stacked))
        for carried in ((forms[0],), (forms[1],), forms):
            with np.errstate(over="ignore", invalid="ignore"):
                expect = {r: (type(e), str(e)) for r, e in _row_by_row(
                    carried, live, "probe", 3, sp).items()}
                del checks[:]
                got = base._unhealthy(carried, live, "probe", 3, sp)
            assert {r: (type(e), str(e)) for r, e in got.items()} == expect
            raised += bool(expect)
            if v is healthy:  # one reduction per array, no per-row check
                assert checks == []
    # both outcomes are covered on every shape
    assert 0 < raised < 3 * len(probes)


def test_forced_march_from_rest_is_not_divergence(coeff):
    # the forcing alone moves the state off zero; the reference counts what
    # it can add over the march next to the initial norm
    g = Grid((Axis("tau", 2 * np.pi, 16), Axis("y1", 2.0, 8)), Frame.KZK)
    tau, y = g.mesh()
    source = np.sin(tau) * np.exp(-y**2)
    sp = Spectral(g)
    source_h = sp.fft(source)

    def forced(sp, _coeff, _eps, dt):
        return _OneWayStepper(sp, "tau", 1.0, 0.1, 0.05, dt, [0.3], source_h)

    rows = [_row(coeff, g, (np.zeros(g.shape),), 20, 3)]
    (out,) = march(forced, rows, "kzk", _samples)
    final = out[-1][1][0]
    assert np.all(np.isfinite(final)) and np.max(np.abs(final)) > 0.0
    # a state that grows past 1e6 x that reference still fails, and the
    # message reports the reference
    reference = 20 * 0.01 * math.sqrt(
        sp.sum_sq(forced(sp, coeff, [coeff.eps], [0.01]).forcing))
    with pytest.raises(SolverDiverged,
                       match=rf"initial \({reference:.3e}\) during kzk "
                             r"step 7$"):
        only_row(march(lambda *args: _Burst(forced(*args), 7), rows, "kzk",
                       _samples))


class _Burst:
    """A forced one-way stepper whose carried spectrum jumps by 1e12 at one
    step."""

    def __init__(self, stepper, at):
        self.inner, self.at = stepper, at
        self.forcing = stepper.forcing

    def step(self, carried, n):
        (vh,) = self.inner.step(carried, n)
        return (vh * 1e12,) if n == self.at else (vh,)


class _Poisoned:
    """A stepper that puts a NaN into one mode of its carried spectrum u
    at one step."""

    def __init__(self, stepper, at):
        self.inner, self.at = stepper, at

    def step(self, carried, n):
        uh, wh = self.inner.step(carried, n)
        if n == self.at:
            uh = uh.copy()
            uh[..., 5] = np.nan
        return uh, wh


def test_nan_in_a_carried_spectrum_names_the_step(coeff):
    g = _grid1d(32)
    x = g.mesh()[0]
    wave = _wave_build(coeff.alpha, 2.0)
    with pytest.raises(SolverNaN) as info:
        only_row(march(lambda *args: _Poisoned(wave(*args), 7),
                       [_row(coeff, g, (0.1 * np.sin(x), -0.1 * np.cos(x)),
                             20, 2)], "kuznetsov", _samples))
    assert str(info.value) == "non-finite values during kuznetsov step 7"


def test_kuznetsov_sampling(coeff):
    g = _grid1d(32)
    u0 = Field(g, 1e-3 * np.sin(g.mesh()[0]))
    states = solve_kuznetsov(coeff, u0, Field.zeros(g), 1.0,
                             StepControl(step=0.01), n_samples=11)
    assert len(states) == 11
    assert np.allclose(np.diff([s.evol for s in states]), 0.1)
    assert all(s.model is ModelKind.KUZNETSOV for s in states)
    assert all(s.velocity is not None for s in states)


def test_kzk_mode_decay(coeff):
    g = Grid((Axis("tau", 2 * np.pi, 64), Axis("y1", 2 * np.pi, 16)),
             Frame.KZK)
    T, Y = g.mesh()
    amp, ktau, ky = 1e-5, 2.0, 3.0
    I0 = Field(g, amp * np.cos(ktau * T) * np.cos(ky * Y))
    z_end = 0.5
    out = solve_kzk(coeff, I0, z_end, StepControl(step=z_end / 400))[-1]
    lam = (-coeff.nu * ktau**2 / (2 * coeff.c**3 * coeff.rho0)
           + 1j * coeff.c * ky**2 / (2 * ktau))
    exact = amp * np.real(np.exp(lam * z_end) * np.exp(1j * ktau * T)) \
        * np.cos(ky * Y)
    assert np.abs(out.primary.scalar - exact).max() / amp < 1e-4


def test_npe_mode_decay(coeff):
    g = Grid((Axis("z", 2 * np.pi, 64),), Frame.NPE)
    z = g.mesh()[0]
    amp, kz = 1e-5, 2.0
    xi0 = Field(g, amp * np.cos(kz * z))
    tau_end = 0.5
    out = solve_npe(coeff, xi0, tau_end, StepControl(step=tau_end / 400))[-1]
    rate = -coeff.nu * kz**2 / (2 * coeff.rho0)
    exact = amp * np.exp(rate * tau_end) * np.cos(kz * z)
    assert np.abs(out.primary.scalar - exact).max() / amp < 1e-4


@pytest.mark.parametrize("shape, bad", [
    ((1, 16), 0.0), ((32, 1), 0.0), ((16,), 0.0), ((32, 16), np.nan),
    ((32, 16), np.inf), ((32, 16), 1j),
], ids=["row", "column", "1d", "nan", "inf", "complex"])
def test_kzk_refuses_a_source_that_is_not_a_finite_grid_array(coeff, shape,
                                                              bad):
    # a row or column used to broadcast into a forcing the caller did not
    # give, a 1D source to fail with an IndexError, a NaN one to stop the
    # march at step 1 and a complex one to fail in the real transform
    g = Grid((Axis("tau", 2 * np.pi, 32), Axis("y1", 2.0, 16)), Frame.KZK)
    tau, _y = np.broadcast_arrays(*g.mesh())
    I0 = Field(g, 0.01 * np.sin(tau))
    source = np.ones(shape, dtype=type(bad))
    source.flat[3] = bad
    with pytest.raises(ValueError, match=re.escape(
            f"source of shape {shape} must be a finite real array of the "
            "grid's shape (32, 16)")):
        solve_kzk(coeff, I0, 1.0, StepControl(step=0.1), source=source)


def _one_row_solves(coeff):
    """Each solver of one member, as a function of its n_samples."""
    g = _grid1d(16)
    x = g.mesh()[0]
    u = Field(g, 0.01 * np.sin(x))
    ctl = StepControl(step=0.1)
    kzk = Grid((Axis("tau", 2 * np.pi, 16),), Frame.KZK)
    npe = Grid((Axis("z", 2 * np.pi, 16),), Frame.NPE)
    init = FlowState.from_primitive(Field(g, 1.0 + 0.01 * np.sin(x)),
                                    Field(g, (0.01 * np.cos(x))[..., None],
                                          1))
    return {
        "kuznetsov": lambda n: solve_kuznetsov(coeff, u, u, 1.0, ctl, n),
        "westervelt": lambda n: solve_westervelt(coeff, u, u, 1.0, ctl, n),
        "kzk": lambda n: solve_kzk(coeff, Field(kzk, u.scalar), 1.0, ctl,
                                   n_samples=n),
        "npe": lambda n: solve_npe(coeff, Field(npe, u.scalar), 1.0, ctl,
                                   n),
        "flow": lambda n: solve_flow(coeff, init, 1.0, ctl, n),
    }


@pytest.mark.parametrize("solver", ["kuznetsov", "westervelt", "kzk", "npe",
                                    "flow"])
def test_every_solver_refuses_fewer_than_two_samples(coeff, monkeypatch,
                                                     solver):
    solve = _one_row_solves(coeff)[solver]
    assert len(solve(2)) == 2
    # refused before any work: the march builds no Spectral and no stepper
    def no_work(grid):
        raise AssertionError("the march started")

    monkeypatch.setattr(base, "Spectral", no_work)
    for n in (0, 1, -5):
        with pytest.raises(ValueError,
                           match=rf"^n_samples {n} must be >= 2$"):
            solve(n)


@pytest.mark.parametrize("solver", ["kuznetsov", "westervelt", "kzk", "npe",
                                    "flow"])
def test_every_solver_refuses_a_sample_count_that_is_not_an_integer(
        coeff, monkeypatch, solver):
    solve = _one_row_solves(coeff)[solver]
    assert len(solve(3.0)) == 3  # an integral float runs as its integer

    def no_work(grid):
        raise AssertionError("the march started")

    monkeypatch.setattr(base, "Spectral", no_work)
    for n in (2.5, True, math.nan, math.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"n_samples {n!r} must be an integer")):
            solve(n)


def test_oneway_rejects_nonzero_mean(coeff):
    g = Grid((Axis("tau", 2 * np.pi, 32),), Frame.KZK)
    I0 = Field(g, 1.0 + np.sin(g.mesh()[0]))
    with pytest.raises(ValueError):
        solve_kzk(coeff, I0, 1.0, StepControl(step=0.01))


def test_oneway_preserves_zero_mean(coeff):
    g = Grid((Axis("tau", 2 * np.pi, 64),), Frame.KZK)
    t = g.mesh()[0]
    I0 = Field(g, 0.3 * np.sin(t) + 0.1 * np.sin(2 * t + 0.4))
    states = solve_kzk(coeff, I0, 1.0, StepControl(step=0.002), n_samples=11)
    for s in states:
        assert abs(np.mean(s.primary.scalar)) <= 1e-12


def test_strang_self_convergence(coeff):
    # moderate amplitude so the splitting error is visible; the linear part
    # is advanced exactly, so convergence is measured against a fine-step
    # reference rather than a closed form
    g = _grid1d()
    x = g.mesh()[0]
    u0 = Field(g, 0.2 * np.sin(x))
    u1 = Field(g, -coeff.c * 0.2 * np.cos(x))
    ref = solve_kuznetsov(coeff, u0, u1, 1.0,
                          StepControl(step=1.0 / 1600))[-1].primary.scalar
    errs = [np.abs(solve_kuznetsov(coeff, u0, u1, 1.0,
                                   StepControl(step=1.0 / n))[-1]
                   .primary.scalar - ref).max()
            for n in (25, 50, 100)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.9


def test_march_takes_at_most_one_sample_per_step(coeff):
    g = _grid1d(16)
    x = g.mesh()[0]
    state = (0.1 * np.sin(x), -0.1 * np.cos(x))
    nsteps = 5
    every, beyond = (march(_wave_build(coeff.alpha, 2.0),
                           [_row(coeff, g, state, nsteps, n)], "kuznetsov",
                           _samples)[0]
                     for n in (nsteps + 1, nsteps + 7))
    assert len(every) == nsteps + 1
    for (t, a), (s, b) in zip(every, beyond, strict=True):
        assert t == s
        assert all(np.array_equal(p, q) for p, q in zip(a, b, strict=True))
