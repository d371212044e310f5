"""Renewal model of urgent-uplink loss caused by downlink control traffic.

An urgent uplink is destroyed when its half-duplex gateway is transmitting a
control downlink at any point during the uplink.  Each of the N report
senders renews every T seconds with Gaussian clock jitter (std sigma), and a
decoded report provokes a downlink of airtime tau; the urgent uplink itself
lasts D.  From the uplink's viewpoint the time until sender n's next downlink
is the residual time r of that renewal process, with density

    w(x) = (1 - F_r(x)) / T,    F_r = CDF of Normal(T, sigma),

so the uplink collides with sender n's downlink iff r < tau_n + D.  The
collision-free probability multiplies the per-sender survival terms:

    P_free = prod_n (1 - I(tau_n + D) / T),  I(delta) = int_0^delta (1 - F_r(x)) dx.

For sigma > 0 the integral has a closed form.  With u = (x - T) / sigma,
Phi the standard normal CDF, phi its density and g(u) = u Phi(u) + phi(u),
g' = Phi, so the antiderivative of 1 - Phi is u - g(u) and

    I(delta) = delta - sigma [g(u1) - g(u0)],  u1 = (delta - T)/sigma, u0 = -T/sigma.

Phi is evaluated as erfc(-u/sqrt 2)/2, which keeps full relative precision in
the lower tail; for sigma = 0 the integral is exactly min(delta, T).

g(u0) depends only on (T, sigma), so each call computes it once.  Senders
with the same airtime have the same blocking interval, so the exact product
evaluates one survival term per distinct airtime; it still multiplies one
factor per sender, in sender order, so the result is the same to the last
bit as one term per sender.  A mixture lists distinct airtimes already, so
the marginal evaluator makes one term per (tau, D) pair.

Three evaluators are provided: exact per-sender airtimes, independent
discrete mixtures of airtimes, and the small-loss linear approximation
PLR = N (E[tau] + E[D]) / T.  ``verdict`` checks a run's urgent-uplink PLR
against the exact evaluator on the inputs the run reads from its own bindings
(``Simulation.model_inputs``); this module imports no other loraguard module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

#: Results are flagged out-of-regime when tau + D comes within this many
#: sigmas of the period, where the residual-density truncation at 0 matters.
REGIME_SIGMAS = 5.0

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _normal_cdf(u: float) -> float:
    """Standard normal CDF; keeps its relative precision deep in the lower tail."""
    return 0.5 * math.erfc(-u * _INV_SQRT2)


def _g(u: float) -> float:
    # u Phi(u) + phi(u), the antiderivative of Phi.  Below u = -40 both terms
    # underflow to 0.0, so the early return changes no result.
    if u < -40.0:
        return 0.0
    return u * _normal_cdf(u) + _INV_SQRT_2PI * math.exp(-0.5 * u * u)


def residual_density(x: float, period_s: float, sigma_s: float) -> float:
    """Density w(x) of the residual time to the next renewal.

    It is the density the closed form of ``survivor_integral`` integrates; the
    quadrature tests integrate it numerically as that closed form's reference.
    """
    _validate_process(period_s, sigma_s)
    if not x >= 0:
        raise ValueError(f"residual time must be >= 0, got {x}")
    if sigma_s == 0.0:
        return 0.0 if x >= period_s else 1.0 / period_s
    return _normal_cdf((period_s - x) / sigma_s) / period_s


def survivor_integral(delta_s: float, period_s: float, sigma_s: float) -> float:
    """I(delta) = integral of (1 - F_r) from 0 to delta.

    Exactly min(delta, T) for sigma = 0; otherwise the closed form
    delta - sigma [g(u1) - g(u0)] of the module docstring, which follows from
    integral (1 - Phi) du = u - g(u).
    """
    _validate_process(period_s, sigma_s)
    _check_airtime(delta_s, "delta")
    return _integral(delta_s, period_s, sigma_s, _g0(period_s, sigma_s))


def _g0(period_s: float, sigma_s: float) -> float:
    """g(u0), u0 = -T/sigma: the part of I that does not depend on delta."""
    return _g(-period_s / sigma_s) if sigma_s else 0.0


def _integral(delta_s: float, period_s: float, sigma_s: float, g0: float) -> float:
    """I(delta) given g0 = ``_g0(period_s, sigma_s)``, without input checks."""
    if sigma_s == 0.0:
        return min(delta_s, period_s)
    return delta_s - sigma_s * (_g((delta_s - period_s) / sigma_s) - g0)


def _survival(block_s: float, period_s: float, sigma_s: float, g0: float) -> float:
    """Survival factor 1 - I(tau + D)/T of one sender; raises if it is not > 0."""
    factor = 1.0 - _integral(block_s, period_s, sigma_s, g0) / period_s
    if factor <= 0.0:
        raise ValueError(f"blocking interval {block_s} s saturates the period {period_s} s")
    return factor


def _validate_process(period_s: float, sigma_s: float) -> None:
    if period_s <= 0:
        raise ValueError(f"period must be > 0, got {period_s}")
    if sigma_s < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma_s}")
    if not math.isfinite(period_s + sigma_s):
        raise ValueError(f"period and sigma must be finite, got {period_s} and {sigma_s}")


def _check_airtime(value: float, label: str) -> None:
    if value < 0:
        raise ValueError(f"{label} must be >= 0, got {value}")
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value}")


def _in_regime(max_block_s: float, period_s: float, sigma_s: float) -> bool:
    return max_block_s < period_s - REGIME_SIGMAS * sigma_s


class PlrResult(NamedTuple):
    """Loss estimate for one urgent uplink against N downlink senders.

    ``in_regime`` is False when the blocking interval approaches the renewal
    period (within 5 sigma), where the model's truncation assumptions fray.
    For the exact and marginal methods ``plr == 1 - collision_free_probability``;
    the approximate method reports its own linearized PLR alongside the
    product-form collision-free probability, which are not exact complements.
    """

    plr: float
    collision_free_probability: float
    method: str
    in_regime: bool


@dataclass(frozen=True)
class PlrModelParams:
    """Inputs for the mixture evaluator.

    Airtime distributions are (value_s, probability) pairs; probabilities
    must each sum to 1 within 1e-9.
    """

    n_senders: int
    period_s: float
    sigma_s: float
    dcp_airtimes: tuple[tuple[float, float], ...]
    up_airtimes: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.n_senders < 0:
            raise ValueError(f"n_senders must be >= 0, got {self.n_senders}")
        _validate_process(self.period_s, self.sigma_s)
        for label, dist in (("dcp", self.dcp_airtimes), ("up", self.up_airtimes)):
            if not dist:
                raise ValueError(f"{label} airtime distribution is empty")
            for value, prob in dist:
                _check_airtime(value, f"{label} airtime")
                if not 0.0 <= prob < math.inf:
                    raise ValueError(f"{label} probability {prob} must be finite and >= 0")
            total = math.fsum(p for _v, p in dist)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"{label} probabilities sum to {total}, expected 1")


def plr_exact_fixed(dcp_airtimes_s: Sequence[float], up_airtime_s: float,
                    period_s: float, sigma_s: float) -> PlrResult:
    """Collision-free product with one fixed downlink airtime per sender.

    Senders that share an airtime share one survival factor; the factors are
    still multiplied once per sender, in sender order.
    """
    _validate_process(period_s, sigma_s)
    _check_airtime(up_airtime_s, "up airtime")
    g0 = _g0(period_s, sigma_s)
    # An airtime is checked and evaluated at its first sender, so the first
    # bad sender raises, as it would with one term per sender.
    factor_of: dict[float, float] = {}
    factors = []
    max_block = 0.0
    for tau in dcp_airtimes_s:
        factor = factor_of.get(tau)
        if factor is None:
            _check_airtime(tau, "dcp airtime")
            block = tau + up_airtime_s
            if block > max_block:
                max_block = block
            factor = factor_of[tau] = _survival(block, period_s, sigma_s, g0)
        factors.append(factor)
    p_free = math.prod(factors)
    return PlrResult(1.0 - p_free, p_free, "exact", _in_regime(max_block, period_s, sigma_s))


def plr_marginal(params: PlrModelParams) -> PlrResult:
    """Collision-free probability with airtimes drawn from discrete mixtures.

    Senders are interchangeable: the per-sender survival is the mixture
    average of (1 - I(tau + D)/T), raised to the N-th power.
    """
    period_s, sigma_s = params.period_s, params.sigma_s
    g0 = _g0(period_s, sigma_s)
    terms = []
    max_block = 0.0
    for tau, p_tau in params.dcp_airtimes:
        for d, p_d in params.up_airtimes:
            block = tau + d
            if block > max_block:
                max_block = block
            terms.append(p_tau * p_d * _survival(block, period_s, sigma_s, g0))
    p_free = math.fsum(terms) ** params.n_senders
    return PlrResult(1.0 - p_free, p_free, "marginal", _in_regime(max_block, period_s, sigma_s))


def plr_approx(n_senders: int, mean_dcp_s: float, mean_up_s: float,
               period_s: float) -> PlrResult:
    """Small-loss linearization: PLR = N (E[tau] + E[D]) / T.

    Valid when N*(E[tau]+E[D])/T is small (<= 0.02 keeps it within 1% of the
    exact product); the PLR is clamped at 1 outside any sane regime.
    """
    if n_senders < 0:
        raise ValueError(f"n_senders must be >= 0, got {n_senders}")
    _validate_process(period_s, 0.0)
    _check_airtime(mean_dcp_s, "mean dcp airtime")
    _check_airtime(mean_up_s, "mean up airtime")
    block = mean_dcp_s + mean_up_s
    if block >= period_s:
        raise ValueError(f"blocking interval {block} s saturates the period {period_s} s")
    plr = min(1.0, n_senders * block / period_s)
    p_free = (1.0 - block / period_s) ** n_senders
    return PlrResult(plr, p_free, "approx", n_senders * block / period_s <= 0.02)


class ModelInputs(NamedTuple):
    """What a run gives ``plr_exact_fixed``, in its argument order, in seconds."""

    dcp_airtimes_s: tuple[float, ...]  # one per reporter whose downlinks reach a window
    up_airtime_s: float | None  # None when no alarm that trips triggers any device
    period_s: float
    sigma_s: float


class ModelCheck(NamedTuple):
    """A run's urgent-uplink PLR checked against the exact model's prediction."""

    inputs: ModelInputs
    predicted: float  # plr_exact_fixed's PLR
    observed: float  # the run's UP PLR
    ci95: tuple[float, float]  # the report's 95% interval of ``observed``
    inside: bool  # whether ``predicted`` lies in ``ci95``


def verdict(inputs: ModelInputs | None, report: Mapping) -> ModelCheck | None:
    """Check a run's ``report`` against the exact model on ``inputs``, the run's
    ``model_inputs``; None when the model does not apply (no reporter's downlinks
    reach a window) or no urgent uplink was sent."""
    up = report["kinds"].get("UP")
    if inputs is None or not up or up["generated"] == 0:
        return None
    predicted = plr_exact_fixed(*inputs).plr
    lo, hi = up["plr_ci95"]
    return ModelCheck(inputs, predicted, up["plr"], (lo, hi), lo <= predicted <= hi)
