"""Walk through the channel model: geometry, correlation, covariance checks.

Drops a handful of users in a 200 m cell, builds their antenna correlation
matrices and Kronecker covariances, and verifies by Monte Carlo that sampled
channels reproduce the constructed second-order statistics.
"""

import numpy as np

from slnrbeam import Scenario, build_statistics
from slnrbeam.channel import sample_channels, vec_batch

scenario = Scenario(Q=4, L=3, M=1, seed=42)
stats = build_statistics(scenario)

print(f"Scenario: {scenario.Q}x{scenario.Q} array, {scenario.L} users, "
      f"P = {scenario.P:.3f} W, noise = {scenario.sigma:.3e} W")
print()
print("User geometry:")
for ell, geom in enumerate(stats.geometry):
    print(f"  user {ell}: d = {geom.distance:6.1f} m, "
          f"azimuth = {np.rad2deg(geom.azimuth_angle):6.1f} deg, "
          f"elevation = {np.rad2deg(geom.elevation_angle):5.2f} deg, "
          f"shadow = {geom.shadow_db:+5.1f} dB, path gain = {geom.path_gain:.3e}")

print()
print("Correlation structure (user 0):")
r_v = stats.R_v[0]
print(f"  vertical |[R_v]_01| = {abs(r_v[0, 1]):.4f}  (unit diagonal: "
      f"{np.allclose(np.diag(r_v), 1.0)})")
# The statistics keep only the Q x Q factors, and every design works on
# them; the dense Q^2 x Q^2 covariance R = g kron(R_h, R_v^T) is assembled
# here from the factors for display only.
big_r = stats.path_gain[0] * np.kron(stats.R_h[0], stats.R_v[0].T)
lam = np.linalg.eigvalsh(big_r)
print(f"  covariance eigenvalue spread: {lam[-1] / max(lam[lam > 0].min(), 1e-300):.1e}")

# Monte Carlo: the sample second moment of the transposed-vectorized channel
# must match R_tilde = g kron(R_v^T, R_h), assembled here from the factors.
r_tilde = stats.path_gain[0] * np.kron(stats.R_v[0].T, stats.R_h[0])
n = 50_000
draws = sample_channels(stats, 0, n, np.random.default_rng(7))
v_t = vec_batch(draws.transpose(0, 2, 1))
cov = (v_t.conj().T @ v_t) / n
err = np.linalg.norm(cov - r_tilde) / np.linalg.norm(r_tilde)
print()
print(f"Monte Carlo covariance check over {n} draws: relative error {err:.3%}")
