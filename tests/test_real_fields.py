"""Fields are real: every entry point checks its input with lattice.real_half.

A spectrum that is not Hermitian, complex samples and a complex mean are a
ValueError that names the argument; a spectrum that is Hermitian only within
the tolerance is computed on as the field its n > 0 half stands for.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcl.bourgain import from_time_samples
from dcl.evolve import (
    PicardConfig,
    SolverState,
    pde_residual,
    picard_iterate,
    simulate,
    step,
)
from dcl.lattice import (
    ModelParams,
    SpatialSpectrum,
    forward_transform,
    hermitian_rows,
    inverse_transform,
    real_half,
)
from dcl.symbols import nonlinearity_F, product_spectrum

import oracles
from conftest import hermitian_spectrum, trajectory_of

P8 = ModelParams(j=2, kmax=8.0)

# entry point -> a call on the real field u and the field bad, which is not real
REAL_ONLY = {
    "simulate": lambda u, bad: simulate(bad, 1e-3, 1e-3),
    "picard_iterate": lambda u, bad: picard_iterate(
        bad, PicardConfig(iterations=1, nt=5, measure_zs=False)),
    "step": lambda u, bad: step(SolverState(0.0, bad), 1e-3),
    "pde_residual": lambda u, bad: pde_residual(
        trajectory_of(P8, 1e-3, "full", [SolverState(i * 1e-3, bad) for i in range(7)])),
    "pde_residual linear": lambda u, bad: pde_residual(
        trajectory_of(P8, 1e-3, "linear", [SolverState(i * 1e-3, bad) for i in range(7)])),
    "pde_residual forcing": lambda u, bad: pde_residual(
        trajectory_of(P8, 1e-3, "full", [SolverState(i * 1e-3, u) for i in range(7)]),
        forcing=lambda t: bad),
    "nonlinearity_F u1": lambda u, bad: nonlinearity_F(bad, u),
    "nonlinearity_F u2": lambda u, bad: nonlinearity_F(u, bad),
    "product_spectrum u1": lambda u, bad: product_spectrum(bad, u),
    "product_spectrum u2": lambda u, bad: product_spectrum(u, bad),
    "inverse_transform": lambda u, bad: inverse_transform(bad),
    "inverse_transform mean": lambda u, bad: inverse_transform(u, mean=0.1j),
    "forward_transform": lambda u, bad: forward_transform(inverse_transform(u) + 0j, P8),
    "from_time_samples": lambda u, bad: from_time_samples(
        np.linspace(-2.0, 2.0, 5), np.stack([u.amps, bad.amps, u.amps, u.amps, u.amps]), P8),
}


@pytest.mark.parametrize("entry", list(REAL_ONLY))
def test_fields_that_are_not_real_rejected(entry):
    u = hermitian_spectrum(P8, seed=1)
    bad = u.with_amps(u.amps * np.exp(0.3j))  # e^{0.3i} times a real field
    assert not bad.is_hermitian()
    with pytest.raises(ValueError, match="real"):
        REAL_ONLY[entry](u, bad)


def test_non_finite_amplitude_named_as_such():
    u = hermitian_spectrum(P8, seed=2)
    amps = u.amps.copy()
    amps[P8.nmax + 3] = np.nan
    bad = u.with_amps(amps)
    assert not bad.is_hermitian()
    for call, what in ((lambda: simulate(bad, 1e-3, 1e-3), "u0"),
                       (lambda: nonlinearity_F(u, bad), "u2"),
                       (lambda: inverse_transform(bad), "the spectrum")):
        with pytest.raises(ValueError, match=f"^{what} has a non-finite amplitude"):
            call()


def test_rule_is_per_row():
    # a row is judged against its own largest amplitude, not the block's
    blk = np.stack([hermitian_spectrum(P8, seed=3).amps,
                    1e-9 * hermitian_spectrum(P8, seed=4).amps])
    blk[1, 0] += 1e-20  # above 1e-12 of the small row's largest amplitude, below the block's
    with pytest.raises(ValueError, match="^rows must be a real field"):
        real_half(blk, "rows")
    assert np.array_equal(real_half(blk[:1], "rows"), blk[:1, P8.nmax + 1:])


def _nudged(u, f, seed):
    """u with its n < 0 half moved by f times 1e-12 of u's largest amplitude, in random phases."""
    m = u.params.nmax
    phase = np.exp(2j * np.pi * np.random.default_rng(seed).random(m))
    amps = u.amps.copy()
    amps[:m] += f * 1e-12 * np.abs(u.amps).max() * phase
    return u.with_amps(amps)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), f=st.floats(0.0, 0.99),
       p=st.sampled_from([P8, ModelParams(j=3, lam=2.0, kmax=8.0)]))
def test_accepted_near_hermitian_input_is_its_positive_half(seed, f, p):
    u = hermitian_spectrum(p, seed=seed, decay=0.1)
    near = _nudged(u, f, seed)
    half = SpatialSpectrum(p, hermitian_rows(near.amps[p.nmax + 1:]))
    other = hermitian_spectrum(p, seed=seed + 1, decay=0.1)
    assert near.is_hermitian()
    for x, y in ((near, near), (near, other), (other, near)):
        xh, yh = (half if v is near else v for v in (x, y))
        for kdv in (False, True):
            got, want = nonlinearity_F(x, y, kdv=kdv), nonlinearity_F(xh, yh, kdv=kdv)
            assert np.array_equal(got.amps, want.amps)
            assert got.truncation_loss == want.truncation_loss
        got, want = product_spectrum(x, y), product_spectrum(xh, yh)
        assert np.array_equal(got.amps, want.amps)
        assert (got.zero_mode, got.truncation_loss) == (want.zero_mode, want.truncation_loss)
    assert np.array_equal(inverse_transform(near), inverse_transform(half))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), f=st.floats(1.01, 100.0))
def test_input_past_the_tolerance_rejected(seed, f):
    near = _nudged(hermitian_spectrum(P8, seed=seed, decay=0.1), f, seed)
    assert not near.is_hermitian()
    with pytest.raises(ValueError, match="^u1 must be a real field"):
        nonlinearity_F(near, near)


def _battery():
    """name -> (..., 2*nmax+1) block: the cases real_half must judge as its reference does."""
    m = P8.nmax
    exact = np.stack([hermitian_spectrum(P8, seed=s, decay=0.2).amps for s in range(4)])
    near, far = _nudged_rows(exact, 0.5), _nudged_rows(exact, 3.0)
    cases = {"exact": exact, "exact row": exact[0], "exact 3-d": exact.reshape(2, 2, -1),
             "within tol": near, "beyond tol": far, "zero rows": np.zeros((3, 2 * m + 1), complex),
             "mixed within": np.stack([exact[0], near[1], exact[2]]),
             "mixed beyond": np.stack([exact[0], near[1], far[2]]),
             "zero and beyond": np.stack([np.zeros(2 * m + 1), far[0]]),
             "real dtype": exact.real + exact.real[..., ::-1],
             "complex n = 0": exact + 1e-3j * (np.arange(2 * m + 1) == m)}
    for name, bad in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf),
                      ("inf i", complex(0.0, np.inf))):
        for where, cols in (("pair", [m + 2, m - 2]), ("n > 0", [m + 2]), ("n < 0", [m - 5]),
                            ("n = 0", [m])):
            blk = exact.copy()
            blk[1, cols] = bad
            cases[f"{name} {where}"] = blk
            row = exact[3].copy()
            row[cols] = bad
            cases[f"{name} {where} row"] = row
        mixed = far.copy()  # a non-finite row beside a row beyond the tolerance
        mixed[3, m + 1] = bad
        cases[f"{name} beside beyond"] = mixed
    return cases


def _nudged_rows(rows, f):
    """rows with their n < 0 halves moved by f times 1e-12 of each row's largest amplitude."""
    m = P8.nmax
    phase = np.exp(2j * np.pi * np.random.default_rng(7).random(rows.shape[:-1] + (m,)))
    out = rows.copy()
    out[..., :m] += f * 1e-12 * np.abs(rows).max(axis=-1, keepdims=True) * phase
    return out


BATTERY = _battery()


def _reference_verdict(amps, tol=1e-12):
    """The reference rule's halves, or its ValueError message."""
    try:
        return oracles.real_half_reference(amps, "x", tol)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("case", list(BATTERY))
@pytest.mark.parametrize("tol", [1e-12, 0.0, 1e-6])
def test_real_half_judges_as_the_reference_does(case, tol):
    amps = BATTERY[case]
    want = _reference_verdict(amps, tol)
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            real_half(amps, "x", tol)
        assert str(err.value) == want
    else:
        got = real_half(amps, "x", tol)
        assert np.array_equal(got, want) and np.shares_memory(got, amps)


def test_real_half_battery_covers_every_verdict():
    verdicts = {v if isinstance(v, str) else "real" for v in map(_reference_verdict, BATTERY.values())}
    assert verdicts == {"real", "x has a non-finite amplitude",
                        "x must be a real field (a Hermitian spectrum, amps(-k) = conj(amps(k)))"}
