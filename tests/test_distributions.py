import math

import numpy as np
import pytest
from scipy import integrate, stats

from wmwdesign import (
    DistributionSpec,
    ParameterError,
    chi_square,
    exponential,
    log_normal,
    normal,
    student_t,
)
from wmwdesign.distributions import scalar_functions
from scipy_oracle import frozen

ALL_FAMILIES = [
    normal(0.0, 1.0),
    normal(0.75, 2.0),
    exponential(0.75),
    log_normal(0.0, 1.0),
    chi_square(5.0),
    chi_square(14.0),
    student_t(3.0, 17.0, 2.8),
]


def test_standard_normal_mode_density():
    assert normal(0, 1).pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)


def test_exponential_density_zero_below_support():
    assert exponential(0.75).pdf(-0.5) == 0.0


def test_shifted_chi_square_density_is_translated():
    spec = chi_square(5.0, shift=1.5)
    base = chi_square(5.0)
    for x in (0.0, 2.0, 4.5, 10.0):
        assert spec.pdf(x) == base.pdf(x - 1.5)


def test_cdf_trivia():
    assert normal(0, 1).cdf(0.0) == pytest.approx(0.5, abs=1e-14)
    assert exponential(0.75).cdf(math.log(2) / 0.75) == pytest.approx(0.5, abs=1e-12)
    # symmetric about the location parameter
    assert student_t(3, 17, 2.8).cdf(17.0) == pytest.approx(0.5, abs=1e-14)


def test_quantile_trivia():
    assert normal(0, 1).quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert exponential(1.0).quantile(1 - math.exp(-1)) == pytest.approx(1.0, abs=1e-12)
    assert log_normal(0, 1).quantile(0.5) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_quantile_cdf_round_trip(spec):
    ps = [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999]
    for p in ps:
        assert abs(spec.cdf(spec.quantile(p)) - p) < 1e-8


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_shift_equivariance_exact(spec):
    shifted = spec.with_shift(spec.shift + 2.25)
    for x in (-1.0, 0.5, 3.0, 20.0):
        assert shifted.cdf(x) == spec.cdf(x - 2.25)


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_density_normalization(spec):
    lo, hi = spec.quantile(1e-12), spec.quantile(1 - 1e-12)
    mass, _ = integrate.quad(spec.pdf, lo, hi, epsabs=1e-10, limit=300)
    assert 1 - 1e-6 <= mass <= 1 + 1e-9


def test_sampling_ks_against_normal_cdf():
    rng = np.random.default_rng(123)
    draws = normal(0, 1).sample(rng, 10**5)
    stat = stats.kstest(draws, stats.norm.cdf).statistic
    # KS critical value at alpha=0.001 for n=1e5 is ~1.95/sqrt(n) ≈ 0.0062
    assert stat < 0.01


def test_sampling_reproducible():
    a = exponential(0.75).sample(np.random.default_rng(7), 1000)
    b = exponential(0.75).sample(np.random.default_rng(7), 1000)
    np.testing.assert_array_equal(a, b)


def test_sampling_exponential_mean():
    rng = np.random.default_rng(99)
    draws = exponential(0.75).sample(rng, 10**5)
    se = (1 / 0.75) / math.sqrt(10**5)
    assert abs(draws.mean() - 4.0 / 3.0) < 3 * se


@pytest.mark.parametrize(
    "ctor,kwargs",
    [
        (normal, {"mean": 0, "sd": 0}),
        (normal, {"mean": 0, "sd": -1}),
        (exponential, {"rate": 0}),
        (log_normal, {"log_mean": 0, "log_sd": -0.5}),
        (chi_square, {"df": 0}),
        (student_t, {"df": -3}),
        (student_t, {"df": 3, "scale": 0}),
    ],
)
def test_invalid_parameters_rejected(ctor, kwargs):
    with pytest.raises(ParameterError):
        ctor(**kwargs)


def test_quantile_domain_error():
    with pytest.raises(ValueError):
        normal(0, 1).quantile(0.0)
    with pytest.raises(ValueError):
        normal(0, 1).quantile(1.0)
    with pytest.raises(ValueError):
        normal(0, 1).quantile(math.nan)
    with pytest.raises(ValueError):
        normal(0, 1).quantile([0.5, math.nan])


def test_json_round_trip():
    spec = student_t(3, 17, 2.8, shift=-1.0)
    data = spec.to_dict()
    assert data == {
        "family": "studentt",
        "params": {"df": 3.0, "location": 17.0, "scale": 2.8},
        "shift": -1.0,
    }
    assert DistributionSpec.from_dict(data) == spec


def test_json_parse_errors_name_the_field():
    with pytest.raises(ParameterError, match="family"):
        DistributionSpec.from_dict({"params": {}})
    with pytest.raises(ParameterError, match="params.sd"):
        DistributionSpec.from_dict({"family": "normal", "params": {"mean": 0}})
    with pytest.raises(ParameterError, match="unexpected"):
        DistributionSpec.from_dict(
            {"family": "exponential", "params": {"rate": 1, "sd": 2}}
        )
    # malformed values are input errors that name the field, never TypeErrors,
    # and a JSON true is not the number 1
    normal_params = {"mean": 0, "sd": 1}
    for data, field in [
        ({"family": ["normal"], "params": normal_params}, "spec.family"),
        ({"family": "normal", "params": ["mean", "sd"]}, "spec.params"),
        ({"family": "normal", "params": 5}, "spec.params"),
        ({"family": "normal", "params": {"mean": "abc", "sd": 1}}, "spec.params.mean"),
        ({"family": "normal", "params": {"mean": True, "sd": 1}}, "spec.params.mean"),
        ({"family": "normal", "params": {"mean": None, "sd": 1}}, "spec.params.mean"),
        ({"family": "normal", "params": {"mean": 0, "sd": 10**400}}, "spec.params.sd"),
        ({"family": "normal", "params": normal_params, "shift": "x"}, "spec.shift"),
        ({"family": "normal", "params": normal_params, "shift": math.nan}, "spec.shift"),
    ]:
        with pytest.raises(ParameterError, match=f"^{field.replace('.', '[.]')} "):
            DistributionSpec.from_dict(data)


def test_json_family_aliases():
    spec = DistributionSpec.from_json('{"family": "chi_square", "params": {"df": 5}}')
    assert spec == chi_square(5.0)


# -- evaluation kernels against scipy.stats -----------------------------
#
# DistributionSpec evaluates pdf, cdf and quantiles and draws samples with
# its own kernels, which repeat scipy.stats' formulas, masks and Generator
# calls; the frozen scipy object, shifted by hand, is the oracle, and every
# value and every draw must be bitwise equal.

KERNEL_SPECS = [
    normal(0.75, 2.0),
    normal(-3.0, 1.0 / 3.0, shift=0.3),
    exponential(0.75),
    exponential(1.3, shift=-2.1),
    log_normal(0.0, 1.0),
    log_normal(0.4, 0.25, shift=1.7),
    chi_square(0.5),
    chi_square(1.0),
    chi_square(2.0),
    chi_square(14.0),
    chi_square(5.0, shift=1.5),
    student_t(3.0, 17.0, 2.8),
    student_t(1.0, shift=-4.0),
]

LEVELS = [1e-15, 1e-12, 0.5, 1 - 1e-12, 1 - 1e-15]


def _kernel_id(spec):
    return f"{spec.family}{tuple(v for _, v in spec.params)}+{spec.shift}"


def _points(spec):
    """Interior points, the support edge and its neighbours, ±inf and NaN."""
    interior = frozen(spec).ppf(np.linspace(0.001, 0.999, 41)) + spec.shift
    edge = spec.shift  # the lower edge of the three families bounded below
    near = [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf),
            edge - 1.0, edge + 1e-300, 0.0, -0.0]
    return np.concatenate([interior, near, [np.inf, -np.inf, np.nan]])


def _assert_same(mine, ref, points):
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(mine(points), ref(points))
        for x in points:
            got, want = mine(x), ref(x)
            np.testing.assert_array_equal(got, want)
            assert type(got) is type(want)


@pytest.mark.parametrize("method", ["pdf", "cdf"])
@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_kernel_id)
def test_pdf_cdf_bitwise_equal_to_scipy(spec, method):
    reference = getattr(frozen(spec), method)
    _assert_same(getattr(spec, method),
                 lambda x: reference(np.asarray(x, dtype=float) - spec.shift),
                 _points(spec))


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_kernel_id)
def test_scalar_functions_bitwise_equal_to_scipy(spec):
    # the quadrature integrands call these with Python floats
    fns, oracle = scalar_functions(spec), frozen(spec)
    with np.errstate(all="ignore"):
        for x in _points(spec):
            for got, want in ((fns.pdf(float(x)), oracle.pdf(x - spec.shift)),
                              (fns.cdf(float(x)), oracle.cdf(x - spec.shift))):
                np.testing.assert_array_equal(got, want)
                assert type(got) is type(want)
    for p in np.concatenate([LEVELS, np.linspace(0.01, 0.99, 25)]):
        got, want = fns.quantile(float(p)), oracle.ppf(p) + spec.shift
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_kernel_id)
def test_quantile_bitwise_equal_to_scipy(spec):
    levels = np.concatenate([LEVELS, np.linspace(0.01, 0.99, 25)])  # NaN is rejected
    _assert_same(spec.quantile,
                 lambda p: frozen(spec).ppf(np.asarray(p, dtype=float)) + spec.shift, levels)


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_kernel_id)
def test_support_bitwise_equal_to_scipy(spec):
    lo, hi = frozen(spec).support()
    got = spec.support()
    np.testing.assert_array_equal(got, (lo + spec.shift, hi + spec.shift))
    assert type(got[0]) is type(lo + spec.shift)


@pytest.mark.parametrize("spec", [spec for spec in KERNEL_SPECS if spec.shift],
                         ids=_kernel_id)
def test_two_dimensional_input_keeps_its_shape(spec):
    # the array branch masks by boolean indexing, which flattens; the result
    # must come back in the input's shape with the 1-D call's bits
    points = _points(spec)[:48].reshape(6, 8)
    levels = np.linspace(0.01, 0.99, 48).reshape(8, 6)
    with np.errstate(all="ignore"):
        for method, x in (("pdf", points), ("cdf", points), ("quantile", levels)):
            got = getattr(spec, method)(x)
            assert got.shape == x.shape
            assert got.tobytes() == getattr(spec, method)(x.ravel()).tobytes()
            kernel = getattr(scalar_functions(spec), method)
            assert kernel(x).tobytes() == got.tobytes()


SAMPLE_SHAPES = [(2048, 5), (2048, 70), (7, 3), 1, (1,), (1, 1)]


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_kernel_id)
def test_sample_bitwise_equal_to_scipy(spec):
    for seed, k in enumerate(SAMPLE_SHAPES):
        got = spec.sample(np.random.default_rng(seed), k)
        want = frozen(spec).rvs(size=k, random_state=np.random.default_rng(seed)) + spec.shift
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_kernel_id)
def test_sample_row_chunks_bitwise_equal_to_one_call(spec):
    # simulate_power draws a block's Y in row chunks of one stream: the
    # generator fills arrays in C order, so ragged chunks take one call's draws
    chunks, n = (5, 1, 12, 3, 1, 9), 7
    whole = spec.sample(np.random.default_rng(11), (sum(chunks), n))
    rng = np.random.default_rng(11)
    rows = np.concatenate([spec.sample(rng, (r, n)) for r in chunks])
    assert rows.tobytes() == whole.tobytes()


def test_sample_of_one_number_is_a_scalar():
    # size () or None: the scalar scipy returns, not a 0-d array
    for spec in (normal(0.75, 2.0, shift=0.3), log_normal(0.4, 0.25, shift=1.7)):
        for size in ((), None):
            got = spec.sample(np.random.default_rng(3), size)
            want = frozen(spec).rvs(size=size, random_state=np.random.default_rng(3)) + spec.shift
            assert not isinstance(got, np.ndarray) and got == want


def test_chi_square_density_at_zero_by_df():
    # the lower edge is inside the pdf's support: infinite below df = 2,
    # one half at df = 2, zero above
    assert chi_square(1.0).pdf(0.0) == np.inf
    assert chi_square(2.0).pdf(0.0) == 0.5
    assert chi_square(14.0).pdf(0.0) == 0.0
    assert log_normal(0.0, 1.0).pdf(0.0) == 0.0  # open at its edge, as in scipy
