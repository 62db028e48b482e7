"""The one-pass log-log interpolation against numpy.interp.

Curve.alphas_at caches the knot logs per curve and interpolates a whole
grid in one pass.  The reference is the per-query computation it
replaced (oracles.loglog_interp).
"""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import LIBM_LOG, loglog_interp
from plateforces.exclusion import Curve

@st.composite
def curves_and_grids(draw):
    """A strictly increasing prior and an ascending grid that holds every
    knot (both domain ends included), points between knots and points
    outside the domain."""
    lambdas = sorted(
        draw(
            st.lists(
                st.floats(min_value=1e-12, max_value=1e6), min_size=2, max_size=40, unique=True
            )
        )
    )
    alphas = draw(
        st.lists(
            st.floats(min_value=1e-30, max_value=1e30),
            min_size=len(lambdas),
            max_size=len(lambdas),
        )
    )
    inside = draw(st.lists(st.floats(min_value=lambdas[0], max_value=lambdas[-1]), max_size=60))
    outside = [
        lambdas[0] / 2,
        math.nextafter(lambdas[0], 0.0),
        math.nextafter(lambdas[-1], math.inf),
        lambdas[-1] * 2,
    ]
    grid = sorted(set(lambdas + inside + outside))
    return Curve(lambdas=lambdas, alphas=alphas, source="hypothesis"), grid


def same(a: float, b: float) -> bool:
    """Bit-for-bit equality, nan equal to nan."""
    return a == b or (a != a and b != b)


@given(curves_and_grids())
def test_pass_matches_numpy_interp_bit_for_bit(case):
    prior, grid = case
    got = prior.alphas_at(grid)
    want = [loglog_interp(lam, prior.lambdas, prior.alphas, LIBM_LOG) for lam in grid]
    assert all(same(g, w) for g, w in zip(got, want)), list(zip(grid, got, want))


@given(curves_and_grids())
def test_pass_matches_previous_per_query_expression(case):
    """The verbatim old expression, np.log of the knot arrays included,
    wherever numpy's vectorised log agrees with libm's on every knot."""
    prior, grid = case
    knots = np.asarray(prior.lambdas + prior.alphas)
    assume(np.array_equal(np.log(knots), LIBM_LOG(knots)))
    got = prior.alphas_at(grid)
    want = [loglog_interp(lam, prior.lambdas, prior.alphas) for lam in grid]
    assert all(same(g, w) for g, w in zip(got, want))


@given(curves_and_grids())
def test_single_queries_are_the_same_pass(case):
    prior, grid = case
    lo, hi = prior.domain()
    for lam, alpha in zip(grid, prior.alphas_at(grid)):
        (single,) = prior.alphas_at([lam])
        assert same(single, alpha)
        assert math.isnan(alpha) == (not lo <= lam <= hi)


def test_knots_and_both_ends_take_the_knot_value():
    lambdas = (1e-6, 3e-6, 1e-5, 4e-5)
    alphas = (1e8, 2.5e6, 7e4, 3.3e3)
    prior = Curve(lambdas=lambdas, alphas=alphas)
    got = prior.alphas_at(lambdas)
    assert got == [math.exp(math.log(alpha)) for alpha in alphas]
    assert got == [loglog_interp(lam, lambdas, alphas, LIBM_LOG) for lam in lambdas]


def test_nan_outside_domain():
    prior = Curve(lambdas=(1e-6, 1e-5), alphas=(1e8, 1e4))
    below, above = math.nextafter(1e-6, 0.0), math.nextafter(1e-5, 1.0)
    got = prior.alphas_at([1e-7, below, 1e-6, 1e-5, above, 1e-3])
    assert [math.isnan(value) for value in got] == [True, True, False, False, True, True]


def test_unbounded_knot_interpolates_to_inf_like_numpy():
    """An exclusion curve may carry inf where exp(gap/lambda) overflowed;
    between such a knot and a finite one numpy.interp retries from the
    other end and gives inf, and so does the pass."""
    lambdas, alphas = (1e-9, 1e-8, 1e-7), (math.inf, math.inf, 1e20)
    curve = Curve(lambdas=lambdas, alphas=alphas)
    grid = (1e-9, 3e-9, 1e-8, 5e-8)
    assert curve.alphas_at(grid) == [math.inf] * 4
    for lam in grid:
        assert loglog_interp(lam, lambdas, alphas, LIBM_LOG) == math.inf
    assert curve.alphas_at([1e-7]) == [loglog_interp(1e-7, lambdas, alphas, LIBM_LOG)]
    # on a knot the knot value is served, even with an infinite neighbour
    curve = Curve(lambdas=lambdas, alphas=alphas[::-1])
    (at_knot,) = curve.alphas_at([1e-9])
    assert at_knot == loglog_interp(1e-9, lambdas, alphas[::-1], LIBM_LOG)
    assert math.isfinite(at_knot)
