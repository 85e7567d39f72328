"""Invariants of the solver that hold without a stored reference.

Each property compares runs of the solver with each other, never with the
code's own past answers: the run of reflected data is the reflected run, a
power-of-two scaling of the problem scales every number of the run
exactly, and diffusion alone keeps the trapezoid mass.  The data are an
asymmetric raised-cosine bump with flat ends; the draws are derandomized
and small (n <= 51).
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from memheat.coeffs import ZERO, CoefficientSpec
from memheat.pde_core import InitialSpec, Scenario, SolverControls, run

_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

_NODES = st.integers(11, 51)
# a bump on [left, left + width] inside [0.2, 0.7], so that at least three
# nodes at either end are flat, and centred left of the middle
_BUMP = st.tuples(st.floats(0.0, 1.0), st.floats(0.1, 1.0),
                  st.floats(0.2, 0.25), st.floats(0.3, 0.45))
# amplitudes of 0 or at least 1e-3 keep every product of a short run normal
_AMPLITUDE = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def _coefficients(draw, amplitude=_AMPLITUDE):
    a = draw(amplitude)
    if draw(st.booleans()):
        return CoefficientSpec.constant(a)
    return CoefficientSpec.power(a, draw(st.floats(0.5, 3.0)))


def _bump(n, bump):
    """base + height (1 - cos(2 pi s)) / 2 on n nodes of [0, 1], with s
    running from 0 to 1 across [left, left + width] and clamped outside."""
    base, height, left, width = bump
    s = np.clip((np.linspace(0.0, 1.0, n) - left) / width, 0.0, 1.0)
    return base + height * (1.0 - np.cos(2.0 * np.pi * s)) / 2.0


def _scenario(p, q, c, k, u0, t_max=0.2, threshold=1e10, **ctrl):
    return Scenario(length=1.0, p=p, q=q, c=c, k=k,
                    u0=InitialSpec("tabulated", tuple(u0.tolist())),
                    controls=SolverControls(n_nodes=len(u0), t_max=t_max,
                                            blowup_threshold=threshold,
                                            snapshot_every=t_max / 4, **ctrl))


def _relative(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(a))), 1e-300)


@_SETTINGS
@given(n=_NODES, bump=_BUMP, p=st.sampled_from([1.0, 1.5, 2.0]),
       q=st.sampled_from([1.0, 1.5, 2.0]), c=_coefficients(),
       k=_coefficients(st.floats(0.25, 2.0)))
def test_the_run_of_reflected_data_is_the_reflected_run(n, bump, p, q, c, k):
    u0 = _bump(n, bump)
    direct = run(_scenario(p, q, c, k, u0))
    mirror = run(_scenario(p, q, c, k, u0[::-1]))
    assert mirror.status == direct.status
    assert [t for t, _ in mirror.snapshots] == [t for t, _ in direct.snapshots]
    for (_, u), (_, v) in zip(direct.snapshots, mirror.snapshots):
        assert _relative(u, v[::-1]) <= 1e-12
    a, b = direct.trace, mirror.trace
    assert b.t.tolist() == a.t.tolist()
    assert _relative(a.M_left, b.M_right) <= 1e-12
    assert _relative(a.M_right, b.M_left) <= 1e-12
    assert _relative(a.sup_norm, b.sup_norm) <= 1e-12


@_SETTINGS
@given(n=_NODES, bump=_BUMP, pq=st.sampled_from([1.0, 2.0]),
       c=_coefficients(), k=_coefficients())
def test_a_power_of_two_scaling_is_exact(n, bump, pq, c, k):
    # u -> 2u solves the problem with c and k scaled by 2^(1-p) and
    # 2^(1-q), so every number of the run scales by a power of two, and the
    # steps, whose rates do not change, are the same
    u0 = _bump(n, bump)
    f = 2.0 ** (1.0 - pq)
    one = run(_scenario(pq, pq, c, k, u0))
    two = run(_scenario(pq, pq, replace(c, amplitude=f * c.amplitude),
                        replace(k, amplitude=f * k.amplitude), 2.0 * u0,
                        threshold=2e10))
    assert (two.status, two.steps) == (one.status, one.steps)
    for (t1, u1), (t2, u2) in zip(one.snapshots, two.snapshots, strict=True):
        assert t2 == t1
        assert u2.tolist() == (2.0 * u1).tolist()
    a, b = one.trace, two.trace
    assert b.t.tolist() == a.t.tolist() and b.dt.tolist() == a.dt.tolist()
    for col, factor in (("sup_norm", 2.0), ("mass_w", 2.0),
                        ("M_left", 2.0 ** pq), ("M_right", 2.0 ** pq)):
        assert getattr(b, col).tolist() == (factor * getattr(a, col)).tolist(), col


@_SETTINGS
@given(n=_NODES, bump=_BUMP)
def test_diffusion_alone_keeps_the_trapezoid_mass(n, bump):
    out = run(_scenario(2.0, 2.0, ZERO, ZERO, _bump(n, bump), t_max=1.0))
    assert out.steps >= 500
    mass = out.trace.mass_w
    assert float(np.max(np.abs(mass - mass[0]))) <= 1e-12 * mass[0]
