"""Parametric continuous distributions used as the two group models.

Every distribution is described by an immutable :class:`DistributionSpec`
holding a family name, its parameters, and an additive shift.  A spec with
shift ``a`` describes the variate ``X_base + a``, so a pure location
alternative is obtained by shifting one of two otherwise identical specs.

Each family is defined once, by its :class:`_Kernel`.  Densities,
distribution functions and quantiles repeat scipy.stats' formulas and support
masks with numpy and scipy.special ufuncs, and draws make the same
``numpy.random.Generator`` calls as scipy.stats' samplers, so every value and
every draw is bitwise equal to the frozen scipy.stats object's (checked at
scipy 1.17.1) at a small fraction of its per-call cost.
"""

from __future__ import annotations

import dataclasses
import json
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
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return scalar_functions(self).pdf(float(x))
        return _kernel(self).pdf(x - self.shift)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return scalar_functions(self).cdf(float(x))
        return _kernel(self).cdf(x - self.shift)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if not ((p > 0) & (p < 1)).all():
            raise ValueError("quantile requires 0 < p < 1")
        if p.ndim == 0:
            return scalar_functions(self).quantile(float(p))
        return _kernel(self).ppf(p) + self.shift

    def sample(self, rng: np.random.Generator, k):
        """Draw ``k`` variates (int or shape tuple) using ``rng``."""
        kernel = _kernel(self)
        # scipy's ``vals * scale + loc``, then the shift: folding loc + shift
        # would round differently
        return kernel.draw(rng, k) * kernel.scale + kernel.loc + self.shift

    def support(self) -> tuple[float, float]:
        lo, hi = _kernel(self).support()
        return lo + self.shift, hi + self.shift

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
        try:
            family = data["family"]
        except KeyError:
            raise ParameterError("spec.family is missing") from None
        family = _ALIASES.get(family, family)
        if family not in _FAMILIES:
            raise ParameterError(f"spec.family: unknown family {data['family']!r}")
        raw = data.get("params", {})
        params = []
        for name in _FAMILIES[family]:
            if name not in raw:
                raise ParameterError(f"spec.params.{name} is missing for family {family!r}")
            params.append((name, float(raw[name])))
        extra = set(raw) - set(_FAMILIES[family])
        if extra:
            raise ParameterError(f"spec.params: unexpected keys {sorted(extra)}")
        return cls(family, tuple(params), float(data.get("shift", 0.0)))

    @classmethod
    def from_json(cls, text: str) -> "DistributionSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


_SQRT_2PI = np.sqrt(2 * np.pi)  # scipy.stats' _norm_pdf_C


@dataclass(frozen=True)
class _Kernel:
    """scipy.stats' evaluation and sampling of one unshifted base variate.

    ``density``, ``distribution`` and ``inverse`` are the family's standard
    ``_pdf``, ``_cdf`` and ``_ppf`` with the shape parameters bound, written
    in scipy's operations and order (``z * z`` for a square, numpy ufuncs,
    never ``math``).  The methods standardise and mask the way
    ``rv_continuous`` does: z = (x - loc) / scale; the pdf is zero outside
    [lower, upper] (outside (lower, upper) when ``closed`` is false); the cdf
    is zero at and below ``lower`` and one at and above ``upper``; NaN stays
    NaN.  ``at(shift)`` does the same for one Python float with Python
    branches.  ``draw(rng, size)`` is the family's standard ``_rvs``: the same
    Generator call, so the caller's ``draw * scale + loc`` repeats
    ``rv_continuous.rvs`` bit for bit.  Creating a frozen scipy object costs
    time and leaves memory resident, so none is ever made.
    """

    loc: float
    scale: float
    lower: float
    upper: float
    closed: bool
    density: Callable
    distribution: Callable
    inverse: Callable
    draw: Callable

    def pdf(self, x):
        z = (x - self.loc) / self.scale
        if self.closed:
            inside = (self.lower <= z) & (z <= self.upper)
        else:
            inside = (self.lower < z) & (z < self.upper)
        return _place(z, inside, 0.0, lambda z: self.density(z) / self.scale)

    def cdf(self, x):
        z = (x - self.loc) / self.scale
        inside = (self.lower < z) & (z < self.upper)
        return _place(z, inside, (z >= self.upper) * 1.0, self.distribution)

    def ppf(self, q):
        inside = (0 < q) & (q < 1)
        return _place(q, inside, np.nan, lambda q: self.inverse(q) * self.scale + self.loc)

    def support(self):
        return (np.float64(self.lower * self.scale + self.loc),
                np.float64(self.upper * self.scale + self.loc))

    def at(self, shift: float) -> ScalarFunctions:
        """pdf, cdf and quantile of one Python float, for the base variate plus ``shift``.

        They standardise as z = ((x - shift) - loc) / scale, mask with Python
        branches instead of arrays and call the same family formulas.  Python
        floats round each operation as numpy's float64 does, so every value is
        bitwise equal to the array methods' (shifted by hand), and each is
        returned as a numpy float64.
        """
        loc, scale, lower, upper, closed = (
            self.loc, self.scale, self.lower, self.upper, self.closed)
        density, distribution, inverse = self.density, self.distribution, self.inverse

        def pdf(x):
            z = ((x - shift) - loc) / scale
            if lower < z < upper or (closed and (z == lower or z == upper)):
                return density(z) / scale
            return _NAN if z != z else _ZERO

        def cdf(x):
            z = ((x - shift) - loc) / scale
            if lower < z < upper:
                return distribution(z)
            if z != z:
                return _NAN
            return _ONE if z >= upper else _ZERO

        def quantile(q):
            if 0 < q < 1:
                return inverse(q) * scale + loc + shift
            return _NAN

        return ScalarFunctions(pdf, cdf, quantile)


def _place(z, inside, fill, formula):
    """``formula`` where ``inside``, NaN where z is NaN, ``fill`` elsewhere."""
    out = np.where(np.isnan(z), np.nan, fill)
    out[inside] = formula(z[inside])
    return out


_ZERO, _ONE, _NAN = np.float64(0.0), np.float64(1.0), np.float64(np.nan)


class ScalarFunctions(NamedTuple):
    """One spec's pdf, cdf and quantile, each a function of one Python float."""

    pdf: Callable[[float], np.float64]
    cdf: Callable[[float], np.float64]
    quantile: Callable[[float], np.float64]


@lru_cache(maxsize=256)
def scalar_functions(spec: DistributionSpec) -> ScalarFunctions:
    """``spec``'s pdf, cdf and quantile for one number (see :meth:`_Kernel.at`).

    Bind them once for many points: each call then skips ``np.asarray``, the
    kernel cache lookup (which hashes the spec) and array masking.
    """
    return _kernel(spec).at(spec.shift)


@lru_cache(maxsize=256)
def _kernel(spec: DistributionSpec) -> _Kernel:
    """Evaluation kernel for the unshifted base variate (see :class:`_Kernel`)."""
    p = dict(spec.params)
    if spec.family == "normal":
        return _Kernel(
            p["mean"], p["sd"], -np.inf, np.inf, True,
            lambda z: np.exp(-(z * z) / 2.0) / _SQRT_2PI,
            special.ndtr,
            special.ndtri,
            lambda rng, size: rng.standard_normal(size),
        )
    if spec.family == "exponential":
        return _Kernel(
            0.0, 1.0 / p["rate"], 0.0, np.inf, True,
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

        return _Kernel(
            0.0, np.exp(p["logMean"]), 0.0, np.inf, False,
            density,
            lambda z: special.ndtr(np.log(z) / s),
            lambda q: np.exp(s * special.ndtri(q)),
            lambda rng, size: np.exp(s * rng.standard_normal(size)),
        )
    if spec.family == "chisquare":
        df = p["df"]
        power = df / 2. - 1
        log_norm = special.gammaln(df / 2.)
        log_2_half_df = (np.log(2) * df) / 2.
        return _Kernel(
            0.0, 1.0, 0.0, np.inf, True,
            lambda z: np.exp(special.xlogy(power, z) - z / 2. - log_norm - log_2_half_df),
            lambda z: special.chdtr(df, z),
            lambda q: 2 * special.gammaincinv(df / 2, q),
            lambda rng, size: rng.chisquare(df, size),
        )
    if spec.family == "studentt":
        df = p["df"]
        log_norm = np.log(special.poch(0.5 * df, 0.5)) - 0.5 * (np.log(df) + np.log(np.pi))
        half_df1 = (df + 1) / 2
        return _Kernel(
            p["location"], p["scale"], -np.inf, np.inf, True,
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
