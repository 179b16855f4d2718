"""Reference forms that only the tests use.

Independent evaluations the library itself does not need: the rates of the
F*_n recurrence, the alternating double-sum form of F*_{-1},
finite-difference residuals of the F*_n recurrence, the matrix of the
creation operator in the dressed basis, and a density-matrix sanity check.
"""

import math

import numpy as np
from scipy.special import gammaln

from catcavity.damping import f_star, f_star_ground
from catcavity.errors import ConsistencyError


def rate_arrays(damping, truncation):
    """Rates (alpha_n, beta_n, gamma_n) of the dressed-diagonal recurrence.

    Arrays over n = 0..truncation; truncation = -1 gives the ground-sector
    rates (alpha_{-1}, beta_{-1}, gamma_{-1}) = (2 kappa n_b,
    2 kappa (n_b + 1), 0) as scalars.
    """
    k, nb = damping.kappa, damping.n_thermal
    if truncation == -1:
        return 2.0 * k * nb, 2.0 * k * (nb + 1.0), 0.0
    if truncation < -1:
        raise ValueError("truncation must be >= -1")
    n = np.arange(truncation + 1)
    alpha = 2.0 * k * (2.0 * nb * (n + 1.0) + n + 0.5)
    beta = 2.0 * k * (nb + 1.0) * (n + 1.5)
    gamma = 2.0 * k * nb * (n + 0.5)
    return alpha, beta, gamma


def f_star_ground_double_sum(p0, damping, t):
    """Explicit alternating double-sum form of F*_{-1}(t).

    Accurate only at small truncation (the inner sum cancels catastrophically
    for N beyond ~20); retained as an independent cross-check of the
    unitarity-based evaluation.
    """
    probs = np.asarray(p0, dtype=float)
    k, nb = damping.kappa, damping.n_thermal
    log_ghalf = gammaln(1.5)
    terms = []
    for j, pj in enumerate(probs):
        if pj == 0.0:
            continue
        for m in range(j + 1):
            log_mag = (
                gammaln(j + 1.5)
                - gammaln(j - m + 1.0)
                - gammaln(m + 1.0)
                - log_ghalf
                - k * (2.0 * m + 1.0) * (nb + 1.0) * t
                - math.log(m + 0.5)
            )
            terms.append((-1.0) ** m * math.exp(log_mag) * pj)
    return 2.0 - math.exp(-2.0 * k * nb * t) * math.fsum(terms)


def residual_diagnostics(p0, damping, t, dt):
    """Finite-difference residuals of the F*_n recurrence and the F*_{-1} ODE.

    Returns (max_recurrence_residual, ground_ode_residual).  The recurrence
    residual includes the known model error gamma_n (F*_n - F*_{n-1}) on the
    right-hand side, so it measures only numerical error; both residuals
    vanish identically at n_b = 0.
    """
    probs = np.asarray(p0, dtype=float)
    alpha, beta, gamma = rate_arrays(damping, probs.size - 1)
    if dt <= 0 or t - dt < 0:
        raise ValueError("need 0 < dt <= t for centered differences")
    if dt * alpha.max() >= 1e-2:
        raise ValueError("dt too large for centered differences: dt*max(alpha) >= 1e-2")

    f_lo = f_star(probs, damping, t - dt)
    f_mid = f_star(probs, damping, t)
    f_hi = f_star(probs, damping, t + dt)
    g_lo = f_star_ground(probs, damping, t - dt)
    g_mid = f_star_ground(probs, damping, t)
    g_hi = f_star_ground(probs, damping, t + dt)

    fdot = (f_hi - f_lo) / (2.0 * dt)
    f_up = np.append(f_mid[1:], 0.0)  # F*_{N+1} = 0 closes the recurrence
    f_down = np.concatenate(([g_mid], f_mid[:-1]))
    residual = (
        fdot + alpha * f_mid - beta * f_up - gamma * f_down
        - gamma * (f_mid - f_down)
    )

    a_g, b_g, _ = rate_arrays(damping, -1)
    gdot = (g_hi - g_lo) / (2.0 * dt)
    ground_residual = abs(
        gdot + a_g * g_mid - b_g * f_mid[0]
        - 4.0 * damping.kappa * damping.n_thermal
    )
    return float(np.abs(residual).max()), float(ground_residual)


def dressed_creation(truncation):
    """Matrix of a* in the column order of `dressed.dressed_basis`, from the
    resonant relations

        a* |0, ->    = (|psi_0^+> - |psi_0^->) / sqrt(2),
        a* |psi_n^s> = (1/2)(sqrt(n+1) + s sqrt(n+2)) |psi_{n+1}^+>
                       + (1/2)(sqrt(n+1) - s sqrt(n+2)) |psi_{n+1}^->

    for n < N - 1, and a* |psi_{N-1}^s> = sqrt(N/2) |N, +> once the
    truncation drops |N+1, ->; a* takes |N, +> out of the truncated space.
    """
    dim = 2 * (truncation + 1)
    c = np.zeros((dim, dim))
    r = 1.0 / math.sqrt(2.0)
    c[1, 0], c[2, 0] = r, -r
    n = np.arange(truncation - 1)
    lo, hi = np.sqrt(n + 1.0), np.sqrt(n + 2.0)
    plus, minus = 1 + 2 * n, 2 + 2 * n
    c[plus + 2, plus] = c[minus + 2, minus] = 0.5 * (lo + hi)
    c[minus + 2, plus] = c[plus + 2, minus] = 0.5 * (lo - hi)
    c[dim - 1, dim - 3:dim - 1] = math.sqrt(truncation / 2.0)
    return c


def validate_density_matrix(rho):
    """Raise ConsistencyError unless rho.matrix is Hermitian (to 1e-10), of
    unit trace (to 1e-8) and positive (eigenvalues above -1e-8)."""
    m = rho.matrix
    if np.abs(m - m.conj().T).max() > 1e-10:
        raise ConsistencyError("density matrix not Hermitian")
    if abs(np.trace(m).real - 1.0) > 1e-8:
        raise ConsistencyError("density matrix trace drifted")
    if np.linalg.eigvalsh(m).min() < -1e-8:
        raise ConsistencyError("density matrix not positive")
