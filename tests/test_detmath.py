import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciphermind import detmath


def _rel_err(approx, exact):
    exact = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.abs(exact), 1e-30)
    return np.abs(approx.astype(np.float64) - exact) / denom


def test_exp_accuracy_against_math_exp():
    xs = np.linspace(-87.0, 88.0, 20011).astype(np.float32)
    got = detmath.exp(xs)
    ref = np.array([math.exp(float(v)) for v in xs])
    assert _rel_err(got, ref).max() < 3e-7


def test_exp_extremes():
    xs = np.array([-1e30, -90.0, -87.4, 0.0, 88.8, 1e30], dtype=np.float32)
    got = detmath.exp(xs)
    assert got[0] == 0.0
    assert got[1] == 0.0
    assert got[2] == 0.0
    assert got[3] == 1.0
    assert np.isinf(got[4])
    assert np.isinf(got[5])


def test_exp_shape_independent_bits():
    # elementwise pinned math must not care about array length or layout
    xs = np.linspace(-20, 20, 4097).astype(np.float32)
    whole = detmath.exp(xs)
    for sl in (slice(0, 1), slice(5, 6), slice(0, 7), slice(100, 1000)):
        again = detmath.exp(xs[sl].copy())
        assert (again == whole[sl]).all()


def test_tanh_accuracy_and_saturation():
    xs = np.linspace(-12.0, 12.0, 20011).astype(np.float32)
    got = detmath.tanh(xs)
    ref = np.array([math.tanh(float(v)) for v in xs])
    assert np.abs(got.astype(np.float64) - ref).max() < 3e-7
    assert detmath.tanh(np.float32([20.0]))[0] == 1.0
    assert detmath.tanh(np.float32([-20.0]))[0] == -1.0
    assert detmath.tanh(np.float32([0.0]))[0] == 0.0


def test_gelu_matches_reference_form():
    xs = np.linspace(-6, 6, 997).astype(np.float32)
    got = detmath.gelu(xs)
    ref = 0.5 * xs.astype(np.float64) * (
        1 + np.tanh(0.7978845608 * (xs.astype(np.float64) + 0.044715 * xs.astype(np.float64) ** 3))
    )
    assert np.abs(got - ref).max() < 1e-5


def test_gelu_grad_matches_finite_difference():
    xs = np.linspace(-4, 4, 101).astype(np.float64)
    h = 1e-6
    fd = (detmath.gelu(xs + h) - detmath.gelu(xs - h)) / (2 * h)
    got = detmath.gelu(xs, grad=True)[1]
    assert np.abs(got - fd).max() < 1e-6


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-87.0, max_value=88.0, allow_nan=False))
def test_exp_monotone_neighbourhood(x):
    a = np.float32([x])
    b = np.float32([x + 1e-3])
    assert detmath.exp(a)[0] <= detmath.exp(b)[0]


def test_rejects_non_float():
    with pytest.raises(TypeError):
        detmath.exp(np.array([1, 2, 3]))
