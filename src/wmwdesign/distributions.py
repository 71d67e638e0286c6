"""Parametric continuous distributions used as the two group models.

Every distribution is described by an immutable :class:`DistributionSpec`
holding a family name, its parameters, and an additive shift.  A spec with
shift ``a`` describes the variate ``X_base + a``, so a pure location
alternative is obtained by shifting one of two otherwise identical specs.

Each spec is evaluated by one cached :class:`Kernel`: pdf, cdf and quantile
functions of a Python float or an array, with the shift applied inside, plus
a sampler and the support.  They repeat scipy.stats' formulas and support
masks with numpy and scipy.special ufuncs, and draws make scipy.stats'
``numpy.random.Generator`` calls, so every value and every draw is bitwise
equal to the shifted frozen scipy.stats object's (checked at scipy 1.17.1)
at a small fraction of its per-call cost.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import special


class ParameterError(ValueError):
    """A distribution parameter is outside its domain."""


# canonical parameter order per family
_FAMILIES = {
    "normal": ("mean", "sd"),
    "exponential": ("rate",),
    "lognormal": ("logMean", "logSd"),
    "chisquare": ("df",),
    "studentt": ("df", "location", "scale"),
}

_POSITIVE = frozenset({"sd", "rate", "logSd", "df", "scale"})

_ALIASES = {
    "chi_square": "chisquare",
    "chi2": "chisquare",
    "student_t": "studentt",
    "t": "studentt",
    "log_normal": "lognormal",
}


@dataclass(frozen=True)
class DistributionSpec:
    """Immutable description of a (possibly shifted) continuous distribution.

    ``params`` is a tuple of ``(name, value)`` pairs in the family's
    canonical order, which keeps the spec hashable so downstream quadrature
    results can be cached per (F, G) pair.
    """

    family: str
    params: tuple[tuple[str, float], ...]
    shift: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        names = tuple(name for name, _ in self.params)
        if names != _FAMILIES[self.family]:
            raise ParameterError(
                f"{self.family} expects parameters {_FAMILIES[self.family]}, got {names}"
            )
        for name, value in self.params:
            if not np.isfinite(value):
                raise ParameterError(f"{self.family}.{name} must be finite, got {value}")
            if name in _POSITIVE and value <= 0:
                raise ParameterError(f"{self.family}.{name} must be > 0, got {value}")
        if not np.isfinite(self.shift):
            raise ParameterError(f"shift must be finite, got {self.shift}")

    def param(self, name: str) -> float:
        return dict(self.params)[name]

    def with_shift(self, shift: float) -> "DistributionSpec":
        return dataclasses.replace(self, shift=shift)

    # -- probability functions -------------------------------------------

    def pdf(self, x):
        return kernel(self).pdf(_float_or_array(x))

    def cdf(self, x):
        return kernel(self).cdf(_float_or_array(x))

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if not ((p > 0) & (p < 1)).all():
            raise ValueError("quantile requires 0 < p < 1")
        return kernel(self).quantile(_float_or_array(p))

    def sample(self, rng: np.random.Generator, k):
        """Draw ``k`` variates (int or shape tuple) using ``rng``."""
        return kernel(self).sample(rng, k)

    def support(self) -> tuple[float, float]:
        return kernel(self).support

    # -- JSON wire format ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": {name: value for name, value in self.params},
            "shift": self.shift,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DistributionSpec":
        if not isinstance(data, dict):
            raise ParameterError("spec must be a JSON object")
        if "family" not in data:
            raise ParameterError("spec.family is missing")
        family = data["family"]
        if not isinstance(family, str):
            raise ParameterError(f"spec.family must be a string, got {family!r}")
        family = _ALIASES.get(family, family)
        if family not in _FAMILIES:
            raise ParameterError(f"spec.family: unknown family {data['family']!r}")
        raw = data.get("params", {})
        if not isinstance(raw, dict):
            raise ParameterError(f"spec.params must be a JSON object, got {raw!r}")
        params = []
        for name in _FAMILIES[family]:
            if name not in raw:
                raise ParameterError(f"spec.params.{name} is missing for family {family!r}")
            params.append((name, _number(raw[name], f"spec.params.{name}")))
        extra = set(raw) - set(_FAMILIES[family])
        if extra:
            raise ParameterError(f"spec.params: unexpected keys {sorted(extra)}")
        return cls(family, tuple(params), _number(data.get("shift", 0.0), "spec.shift"))

    @classmethod
    def from_json(cls, text: str) -> "DistributionSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _number(value, field: str) -> float:
    """A finite JSON number as a float, or a ParameterError that names ``field``."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):  # not a number, or an int past the float range
        pass
    raise ParameterError(f"{field} must be a finite number, got {value!r}")


def _float_or_array(x):
    """``x`` as a Python float if it is one number, else as a float array."""
    x = np.asarray(x, dtype=float)
    return float(x) if x.ndim == 0 else x


_SQRT_2PI = np.sqrt(2 * np.pi)  # scipy.stats' _norm_pdf_C
_ZERO, _ONE, _NAN = np.float64(0.0), np.float64(1.0), np.float64(np.nan)


class Kernel(NamedTuple):
    """One spec's functions, shift included.  pdf, cdf and quantile map a Python
    float to a numpy float64 and a float array to an array of its shape;
    ``sample(rng, size)`` takes an int or shape tuple; support is two float64s.
    """

    pdf: Callable
    cdf: Callable
    quantile: Callable
    sample: Callable
    support: tuple[np.float64, np.float64]


def _bind(shift, loc, scale, lower, upper, closed, density, distribution, inverse, draw):
    """The :class:`Kernel` of a family's standard variate, scaled, located and shifted.

    ``density``, ``distribution``, ``inverse`` and ``draw`` are the family's
    ``_pdf``, ``_cdf``, ``_ppf`` and ``_rvs`` with the shapes bound, in
    scipy's operations and order (``z * z`` for a square, numpy ufuncs, never
    ``math``).  z = ((x - shift) - loc) / scale is masked as ``rv_continuous``
    does: the pdf is zero outside [lower, upper] (outside (lower, upper) unless
    ``closed``), the cdf zero at and below ``lower`` and one at and above
    ``upper``, NaN stays NaN.  A float z (numpy float64 included) takes Python
    branches, an array z :func:`_place`; both round alike, bit for bit, which
    lets the quadrature evaluate QUADPACK's first-pass nodes as one array and
    fall back to the float branches at the bisections' nodes.  Quantiles and
    draws are scipy's ``* scale + loc``, then ``+ shift``: folding loc + shift
    would round differently.  Draws apply them in place on the fresh array
    ``draw`` returns, the same IEEE operations in the same order without a
    second copy.
    """

    def pdf(x):
        z = ((x - shift) - loc) / scale
        if isinstance(z, float):
            if lower < z < upper or (closed and (z == lower or z == upper)):
                return density(z) / scale
            return _NAN if z != z else _ZERO
        inside = (lower <= z) & (z <= upper) if closed else (lower < z) & (z < upper)
        return _place(z, inside, 0.0, lambda z: density(z) / scale)

    def cdf(x):
        z = ((x - shift) - loc) / scale
        if isinstance(z, float):
            if lower < z < upper:
                return distribution(z)
            return _NAN if z != z else _ONE if z >= upper else _ZERO
        return _place(z, (lower < z) & (z < upper), (z >= upper) * 1.0, distribution)

    def quantile(q):  # DistributionSpec.quantile admits only levels in (0, 1)
        return inverse(q) * scale + loc + shift

    def sample(rng, size):
        x = draw(rng, size)
        if np.ndim(x) == 0:  # size () or None: a scalar, as scipy returns it
            return x * scale + loc + shift
        x *= scale
        x += loc
        x += shift
        return x

    return Kernel(pdf, cdf, quantile, sample,
                  (np.float64(lower * scale + loc) + shift,
                   np.float64(upper * scale + loc) + shift))


def _place(z, inside, fill, formula):
    """``formula`` where ``inside``, NaN where z is NaN, ``fill`` elsewhere."""
    out = np.where(np.isnan(z), np.nan, fill)
    out[inside] = formula(z[inside])
    return out


@lru_cache(maxsize=256)
def kernel(spec: DistributionSpec) -> Kernel:
    """``spec``'s :class:`Kernel`, built once per spec (see :func:`_bind`).

    Bound once for many Python floats, its functions skip ``np.asarray``, the
    spec hash of the cache and array masks.  No frozen scipy.stats object is
    made: creating one costs time and leaves memory resident.
    """
    p, shift = dict(spec.params), spec.shift
    if spec.family == "normal":
        return _bind(
            shift, p["mean"], p["sd"], -np.inf, np.inf, True,
            lambda z: np.exp(-(z * z) / 2.0) / _SQRT_2PI,
            special.ndtr,
            special.ndtri,
            lambda rng, size: rng.standard_normal(size),
        )
    if spec.family == "exponential":
        return _bind(
            shift, 0.0, 1.0 / p["rate"], 0.0, np.inf, True,
            lambda z: np.exp(-z),
            lambda z: -special.expm1(-z),
            lambda q: -special.log1p(-q),
            lambda rng, size: rng.standard_exponential(size),
        )
    if spec.family == "lognormal":
        s = p["logSd"]
        two_s2 = 2 * (s * s)

        def density(z):
            log_z = np.log(z)
            return np.exp(-(log_z * log_z) / two_s2 - np.log(s * z * _SQRT_2PI))

        def draw(rng, size):  # np.exp(s * z), in the fresh draws' memory
            z = rng.standard_normal(size)
            z *= s
            return np.exp(z, out=z) if isinstance(z, np.ndarray) else np.exp(z)

        return _bind(
            shift, 0.0, np.exp(p["logMean"]), 0.0, np.inf, False,
            density,
            lambda z: special.ndtr(np.log(z) / s),
            lambda q: np.exp(s * special.ndtri(q)),
            draw,
        )
    if spec.family == "chisquare":
        df = p["df"]
        power = df / 2. - 1
        log_norm = special.gammaln(df / 2.)
        log_2_half_df = (np.log(2) * df) / 2.
        return _bind(
            shift, 0.0, 1.0, 0.0, np.inf, True,
            lambda z: np.exp(special.xlogy(power, z) - z / 2. - log_norm - log_2_half_df),
            lambda z: special.chdtr(df, z),
            lambda q: 2 * special.gammaincinv(df / 2, q),
            lambda rng, size: rng.chisquare(df, size),
        )
    if spec.family == "studentt":
        df = p["df"]
        log_norm = np.log(special.poch(0.5 * df, 0.5)) - 0.5 * (np.log(df) + np.log(np.pi))
        half_df1 = (df + 1) / 2
        return _bind(
            shift, p["location"], p["scale"], -np.inf, np.inf, True,
            lambda z: np.exp(log_norm - half_df1 * np.log1p(z * z / df)),
            lambda z: special.stdtr(df, z),
            lambda q: special.stdtrit(df, q),
            lambda rng, size: rng.standard_t(df, size=size),
        )
    raise AssertionError(spec.family)


# -- convenience constructors -------------------------------------------


def normal(mean: float, sd: float, shift: float = 0.0) -> DistributionSpec:
    return DistributionSpec("normal", (("mean", float(mean)), ("sd", float(sd))), shift)


def exponential(rate: float, shift: float = 0.0) -> DistributionSpec:
    return DistributionSpec("exponential", (("rate", float(rate)),), shift)


def log_normal(log_mean: float, log_sd: float, shift: float = 0.0) -> DistributionSpec:
    return DistributionSpec(
        "lognormal", (("logMean", float(log_mean)), ("logSd", float(log_sd))), shift
    )


def chi_square(df: float, shift: float = 0.0) -> DistributionSpec:
    return DistributionSpec("chisquare", (("df", float(df)),), shift)


def student_t(
    df: float, location: float = 0.0, scale: float = 1.0, shift: float = 0.0
) -> DistributionSpec:
    return DistributionSpec(
        "studentt",
        (("df", float(df)), ("location", float(location)), ("scale", float(scale))),
        shift,
    )
