"""Property tests of the constraint solver and the exact force.

Examples are derandomized and no example database is kept, so every run
draws the same inputs and writes nothing. Temperatures are drawn
log-uniform through their decimal exponent. The module is skipped where
hypothesis is not installed.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from boxforce import SweepConfig, ThermoPoint, WellSide, net_force, solve_alpha, sweep  # noqa: E402
from boxforce.occupancy import DEFAULT_TOL  # noqa: E402

from _oracles import mp_delta_f  # noqa: E402

_sides = st.sampled_from([WellSide.PLUS, WellSide.MINUS])
_n = st.integers(min_value=1, max_value=10_000)
_log_t = st.floats(min_value=-3.0, max_value=6.0)
# slack for comparing two converged roots: each is off by at most tol * N / |S'|,
# and |S'| >= max(N, N_1^2) with N_1 ~ 1/x bounds that by tol * sqrt(N) relative
# to x, 1e-10 at N = 1e4
_ROOT_SLACK = 1e-10


def _examples(count: int):
    return hypothesis.settings(max_examples=count, deadline=None, derandomize=True, database=None)


@_examples(40)
@hypothesis.given(side=_sides, n=_n, log_t=_log_t)
def test_residual_within_tolerance(side, n, log_t):
    solution = solve_alpha(side, ThermoPoint(n, 10.0**log_t))
    assert solution.residual <= DEFAULT_TOL * n
    assert solution.shifted_alpha > 0.0


@_examples(30)
@hypothesis.given(side=_sides, n=_n, log_t=_log_t, log_ratio=st.floats(min_value=0.0, max_value=2.0))
def test_shifted_alpha_increases_with_t(side, n, log_t, log_ratio):
    cold = solve_alpha(side, ThermoPoint(n, 10.0**log_t)).shifted_alpha
    hot = solve_alpha(side, ThermoPoint(n, 10.0 ** (log_t + log_ratio))).shifted_alpha
    assert cold <= hot * (1.0 + _ROOT_SLACK)


@_examples(30)
@hypothesis.given(side=_sides, n=_n, extra=st.integers(min_value=0, max_value=10_000), log_t=_log_t)
def test_shifted_alpha_decreases_with_n(side, n, extra, log_t):
    t = 10.0**log_t
    few = solve_alpha(side, ThermoPoint(n, t)).shifted_alpha
    many = solve_alpha(side, ThermoPoint(n + extra, t)).shifted_alpha
    assert many <= few * (1.0 + _ROOT_SLACK)


@_examples(15)
@hypothesis.given(
    n=st.integers(min_value=1, max_value=10_000),
    log_t=st.floats(min_value=-3.0, max_value=4.0),
    points=st.integers(min_value=1, max_value=6),
)
def test_sweep_rows_match_net_force(n, log_t, points):
    t_min = 10.0**log_t
    config = SweepConfig(n_particles=n, t_min=t_min, t_max=100.0 * t_min, grid_points=points)
    for row in sweep(config):
        pair = net_force(ThermoPoint(n, row.t))
        scale = max(pair.f_plus, pair.f_minus)
        assert row.status == "ok"
        assert row.f_plus == pytest.approx(pair.f_plus, rel=1e-12)
        assert row.f_minus == pytest.approx(pair.f_minus, rel=1e-12)
        assert abs(row.delta_f - pair.delta_f) <= 1e-12 * scale


@_examples(6)
@hypothesis.given(n=st.integers(min_value=1, max_value=100), t=st.floats(min_value=0.05, max_value=10.0))
def test_agrees_with_mp_oracle(n, t):
    exact = float(mp_delta_f(n, t))
    assert net_force(ThermoPoint(n, t)).delta_f == pytest.approx(exact, rel=1e-10)
