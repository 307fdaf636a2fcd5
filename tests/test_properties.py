"""Property tests of the constraint solver and the exact force.

Examples are derandomized and no example database is kept, so every run
draws the same inputs and writes nothing. Temperatures are drawn
log-uniform through their decimal exponent. The module is skipped where
hypothesis is not installed.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from boxforce import SweepConfig, ThermoPoint, WellSide, net_force, occupancy, solve_alpha, sweep  # noqa: E402
from boxforce.occupancy import _TILE, DEFAULT_TOL  # noqa: E402
from boxforce.spectrum import level_gap  # noqa: E402

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


@_examples(40)
@hypothesis.given(
    log_n=st.floats(min_value=0.0, max_value=8.0),
    log_t=st.lists(st.floats(min_value=-2.0, max_value=12.0), min_size=1, max_size=8),
    log_gap=st.floats(min_value=-8.0, max_value=-1.0),
)
# a pair astride SPLIT_FLOOR's t = 409.6, the lower on its levels and the upper split (the row at 1e6 sends
# the call's wide rows to the split kernel)
@hypothesis.example(log_n=0.0, log_t=[math.log10(409.5), 6.0], log_gap=-3.0)
def test_each_wells_force_rises_with_t(log_n, log_t, log_gap):
    # at fixed N a well's energy f = sum_n e_n N_n rises with t (its heat
    # capacity is positive), on both routes and across the seams between
    # them. The t are drawn log-uniform, each with a neighbour a relative gap
    # 10^log_gap above it, and each well solves them all in one call. A root
    # within tol N particles moves f by at most tol N times the mean energy
    # of the particles it adds, below e_1 + t
    n = round(10.0**log_n)
    t = 10.0 ** np.array(log_t)
    t = np.sort(np.concatenate((t, t * (1.0 + 10.0**log_gap))))
    for side in (WellSide.PLUS, WellSide.MINUS):
        solved = occupancy.solve_rows([side] * len(t), n, 1.0 / t)
        assert solved.converged.all()
        slack = DEFAULT_TOL * n * (side.ground_energy + t[1:])
        assert (solved.force[1:] >= solved.force[:-1] - slack).all()


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


@_examples(30)
@hypothesis.given(n=_n, log_t=st.floats(min_value=-3.0, max_value=math.log10(0.3)))
def test_delta_f_tends_to_three_quarters_n(n, log_t):
    # delta_f(t -> 0) = 3N/4; the first excited levels move it by 3 exp(-3/t) - 2 exp(-2/t)
    t = 10.0**log_t
    deviation = abs(net_force(ThermoPoint(n, t)).delta_f - 0.75 * n)
    assert deviation <= 3.0 * math.exp(-2.0 / t) + 1e-12 * n


@_examples(40)
@hypothesis.given(
    count=st.integers(min_value=1, max_value=600),
    log_t_min=st.floats(min_value=-3.0, max_value=math.log10(409.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_level_plans_hold_each_rows_own_gaps(count, log_t_min, seed):
    # any set of rows under SPLIT_FLOOR's t = 409.6, wells in any order, is
    # laid out in level plans: each row's run is level_gap's gaps of n =
    # 1..its cutoff and their bases b (e_n - e_1), value for value, and a plan
    # passes _TILE levels only if it holds a single row. The rows are drawn
    # from the seed, log-uniform in t above 10^log_t_min, which lets a draw
    # hold enough levels for several plans
    rng = np.random.default_rng(seed)
    plus = rng.random(count) < 0.5
    b = 10.0 ** -rng.uniform(log_t_min, math.log10(409.0), count)
    c = np.where(plus, WellSide.PLUS.offset, WellSide.MINUS.offset)
    levels = occupancy._cutoff(b)
    seen = []
    for kernel, plan, on in occupancy._routes(c, b, levels, 1.0):
        assert kernel is occupancy._level_sums
        base, gap, counts, starts, _ = plan
        assert gap.size <= _TILE or len(on) == 1
        assert counts.tolist() == levels[on].tolist()
        for row, start, run_levels in zip(on.tolist(), starts.tolist(), counts.tolist()):
            run = slice(start, start + run_levels)
            expected = level_gap(WellSide.PLUS if plus[row] else WellSide.MINUS, np.arange(1.0, run_levels + 1.0))
            assert gap[run].tolist() == expected.tolist()
            assert base[run].tolist() == (b[row] * expected).tolist()
        seen += on.tolist()
    assert sorted(seen) == list(range(count))
