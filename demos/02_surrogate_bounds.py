"""Show the three quadratic bounds doing their job.

Each bound touches its target at the expansion point and stays on one side
of it everywhere else. The bounds are the formulas the designs run, stacked
over users; this script first expands them at chi-space points and samples
random probe points, reporting the worst-case violation (which should be
zero up to round-off) and the mean slack, then builds the designs' stacked
coefficients at a random beamformer iterate and checks that every user's
bound touches its target there. The coefficient builders read one
half-iteration's operators, which carry the iterate's expected signal and
leakage powers.
"""

import numpy as np

from slnrbeam.beamformer import beamformer_matrix, init_feasible
from slnrbeam.channel import Scenario, build_statistics
from slnrbeam.metrics import _signal_and_leakage, power_gram
from slnrbeam.surrogates import (
    gm_minorant_coeffs,
    half_iteration_operators,
    log_bound,
    ratio_bound,
    slnr_minorant_coeffs,
    smoothed_min_bound,
    soft_majorant_coeffs,
)


def expansion(chi_bars, x_bars):
    """The formulas' inputs: s = ||chi_bar||^2, x_bar and cross = chi_bar^H."""
    return np.sum(np.abs(chi_bars) ** 2, axis=-1), np.asarray(x_bars), chi_bars.conj()


def minorant(a, b, c, chi, x):
    """a + 2 Re{b chi} - c (||chi||^2 + x), the ratio and log bounds' form."""
    return a + 2.0 * np.real(np.sum(b * chi, axis=-1)) - c * (np.sum(np.abs(chi) ** 2, axis=-1) + x)


def report(name, slack):
    print(f"{name:20s} worst violation {min(slack.min(), 0):.2e}, mean slack {slack.mean():.3f}")


rng = np.random.default_rng(3)
dim = 4
probes = 20_000
chi_bar = rng.standard_normal((1, dim)) + 1j * rng.standard_normal((1, dim))
x_bar = np.array([1.2])
print("Expansion point: ||chi_bar||^2 =", round(float(np.sum(np.abs(chi_bar) ** 2)), 4),
      " x_bar =", x_bar[0])
print()

chi = (rng.standard_normal((probes, dim)) + 1j * rng.standard_normal((probes, dim))) \
    * rng.uniform(0, 2, (probes, 1))
x = rng.uniform(1e-2, 6.0, probes)
ratio = np.sum(np.abs(chi) ** 2, axis=1) / x

# 1) minorant of ln(1 + ||chi||^2 / x)
report("log-ratio minorant:", np.log1p(ratio) - minorant(*log_bound(*expansion(chi_bar, x_bar)), chi, x))
# 2) minorant of the plain ratio ||chi||^2 / x
report("ratio minorant:", ratio - minorant(*ratio_bound(*expansion(chi_bar, x_bar)), chi, x))

# 3) majorant of the smoothed minimum over a user group of three
chis_bar = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
xs_bar = np.array([1.0, 0.5, 2.0])
c = 0.1
constant, b, scale = smoothed_min_bound(*expansion(chis_bar, xs_bar), c)
chis = (rng.standard_normal((probes, 3, dim)) + 1j * rng.standard_normal((probes, 3, dim))) \
    * rng.uniform(0, 2, (probes, 3, 1))
xs = rng.uniform(1e-2, 6.0, (probes, 3))
target = np.log(np.sum(1.0 / (1.0 + np.sum(np.abs(chis) ** 2, axis=-1) / (c * xs)), axis=-1))
bound = constant - np.sum(minorant(0.0, b, scale, chis, c * xs), axis=-1)
report("soft-min majorant:", bound - target)

# The designs' coefficients: one stack of concave quadratics (a, b, C) per
# half-iteration, touching every user's target at the current iterate. The
# soft majorant is its constant minus the sum of its (negated) quadratics.
sc = Scenario(Q=4, L=3, M=2, seed=31)
stats = build_statistics(sc)
factors = init_feasible(sc, np.random.default_rng(31))  # (2, L, M, Q): azimuth, elevation
w_mat = beamformer_matrix(factors)
signal, leakage, slnrs = _signal_and_leakage(power_gram(w_mat, stats), sc.sigma)
ops = half_iteration_operators(0, factors, stats, signal, leakage, sc.sigma)  # azimuth side free
v_a = factors[0].reshape(sc.L, -1)  # every user's azimuth vectors, one row each
ratio_quads = slnr_minorant_coeffs(ops)
log_quads = gm_minorant_coeffs(ops)
soft_constant, soft_quads = soft_majorant_coeffs(ops, c)
print()
print(f"Stacked coefficients at a Q={sc.Q}, L={sc.L}, M={sc.M} iterate: "
      f"b {ratio_quads.b.shape}, C {ratio_quads.C.shape}")
gap = np.abs(ratio_quads.values(v_a) - slnrs).max() / slnrs.max()
print(f"  SLNR minorants:         largest relative gap at the iterate {gap:.1e}")
gap = np.abs(log_quads.values(v_a) - np.log1p(slnrs)).max()
print(f"  ln(1 + SLNR) minorants: largest gap at the iterate {gap:.1e}")
soft = soft_constant - soft_quads.values(v_a).sum()
gap = abs(soft - np.log(np.sum(1.0 / (1.0 + slnrs / c))))
print(f"  soft-min majorant:      gap at the iterate {gap:.1e}")
