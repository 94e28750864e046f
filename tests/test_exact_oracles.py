"""Exact moments that Monte Carlo estimates are checked against.

The closed forms live here, once, for every test that judges an estimate by
the truth: the p-th moment of a Phi-tail coordinate, P(|X| > t) = exp(-t^s),
so that |X|^s is a unit exponential and E|X|^p = Gamma(1 + p/s), and of a
Gaussian linear form <theta, X>, which is |theta| Z for a standard normal Z,
E|Z|^p = 2^{p/2} Gamma((p + 1)/2) / sqrt(pi).
"""

import functools
import math

import numpy as np
import pytest

from orlicz_conc import (PhiSpec, ProductPhiTail, SamplerSpec, StandardGaussian, batch_se,
                         empirical_moment, sample)

N = 2 ** 18
SEEDS = (0, 1, 2, 3)
THETA = np.array([1.0, 2.0, -2.0])  # |theta| = 3


def phi_tail_moment(s: float, p: float) -> float:
    """||X||_p for a coordinate with P(|X| > t) = exp(-t^s)."""
    return math.gamma(1.0 + p / s) ** (1.0 / p)


def gaussian_linear_moment(theta, p: float) -> float:
    """||<theta, X>||_p for a standard Gaussian X."""
    z = (2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)) ** (1.0 / p)
    return float(np.linalg.norm(theta)) * z


def test_the_closed_forms_at_known_points():
    # s = 1: |X| is a unit exponential, E|X|^4 = 4!; s = 2: E|X|^2 = E|X|^s = 1
    assert phi_tail_moment(1.0, 4.0) == pytest.approx(24.0 ** 0.25, rel=1e-15)
    assert phi_tail_moment(2.0, 2.0) == pytest.approx(1.0, rel=1e-15)
    # E Z^2 = 1 and E Z^4 = 3
    assert gaussian_linear_moment([1.0], 2.0) == pytest.approx(1.0, rel=1e-15)
    assert gaussian_linear_moment(THETA, 4.0) == pytest.approx(3.0 * 3.0 ** 0.25, rel=1e-15)


LAWS = {
    "phi_tail_1.5_coordinate": (lambda seed: sample(SamplerSpec(
        ProductPhiTail(PhiSpec(s=1.5), n=2), seed, N))[:, 0],
        lambda p: phi_tail_moment(1.5, p)),
    "gaussian_linear_form": (lambda seed: sample(SamplerSpec(StandardGaussian(n=3), seed, N)) @ THETA,
                             lambda p: gaussian_linear_moment(THETA, p)),
}
P_GRID = np.array([2.0, 4.0, 8.0, 16.0])


@functools.lru_cache(maxsize=None)
def _z_scores(law: str, seed: int) -> dict:
    """(estimate - exact) / batch SE per p of P_GRID, at N = 2^18."""
    draw, exact = LAWS[law]
    values = draw(seed)
    est = empirical_moment(values, P_GRID)
    se = batch_se(values, lambda b: empirical_moment(b, P_GRID))
    assert np.all(se > 0.0)
    return {p: (e - exact(p)) / s for p, e, s in zip(P_GRID.tolist(), est, se)}


@pytest.mark.parametrize("law", list(LAWS))
@pytest.mark.parametrize("p", [2.0, 4.0, 8.0])
def test_empirical_moment_lies_within_4_se_of_the_exact_moment(law, p):
    z = [_z_scores(law, seed)[p] for seed in SEEDS]
    assert max(abs(x) for x in z) <= 4.0, z


@pytest.mark.xfail(strict=True, reason=(
    "at p = 16 the estimate reads 2-4% low on some seeds and its batch SE does not "
    "cover that: z = -4.9 and -4.8 for the phi-tail coordinate (seeds 1, 2), -4.1 "
    "for the Gaussian form (seed 2); the high-p rule of ROADMAP item 2 is open"))
def test_empirical_moment_at_p_16_lies_within_4_se_of_the_exact_moment():
    z = [_z_scores(law, seed)[16.0] for law in LAWS for seed in SEEDS]
    assert max(abs(x) for x in z) <= 4.0, z
