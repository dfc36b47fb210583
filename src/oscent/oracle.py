"""Brute-force cross-check of total entropies over the full space.

Builds the three-dimensional density rho_{n,l,m}(r, theta, phi) directly
from polynomial primitives and integrates entropic functionals over R^3 on
a tensor grid, without going through the radial/angular entropy split that
the main modules rely on.  Tolerances here certify the decomposition
identities rather than assume them.

Every radial and polar panel, at every order and for Shannon alike, takes
one tanh-sinh rule: a different rule family from the Gauss-Jacobi panels of
the main modules, so the check stays independent of them.  The integrand
is assembled from the Laguerre and Gegenbauer recurrences alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import specfun
from .errors import AccuracyError, DomainError
from .order import as_order
from .radial import OscillatorParams, QuantumState, _refined_roots

__all__ = ["GridSpec", "full_density", "normalization", "renyi_full",
           "shannon_full"]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    """Tensor-quadrature resolution: tanh-sinh half-width m per panel and
    radial reach.

    Each radial or polar panel carries 2 m + 1 points at step 3.2/m.  The
    cutoff multiplier scales the energy length sqrt((2n + l + 3/2)/lam);
    the Gaussian tail beyond it is certified small by a last-block check.
    """

    radial_nodes: int = 48
    polar_nodes: int = 48
    cutoff: float = 6.0

    def __post_init__(self):
        for label, count in (("radial", self.radial_nodes),
                             ("polar", self.polar_nodes)):
            if count < 16:
                raise DomainError(f"{label} node count must be >= 16, got {count}")
        if not self.cutoff >= 2.0:
            raise DomainError(f"cutoff multiplier must be >= 2, got {self.cutoff}")


def _radial_profile(state: QuantumState, params: OscillatorParams):
    """Callable r -> rho_{n,l}(r), assembled from the Laguerre primitive."""
    n, l = state.n, state.l
    lam = params.lam
    lnpref = (math.log(2.0) + math.lgamma(n + 1) + (l + 1.5) * math.log(lam)
              - math.lgamma(n + l + 1.5))
    pref = math.exp(lnpref)

    def profile(r):
        r = np.asarray(r, dtype=float)
        x = lam * r * r
        lag = np.asarray(specfun.laguerre_eval(n, l + 0.5, x), dtype=float)
        return pref * r ** (2 * l) * np.exp(-x) * lag * lag

    return profile


def _polar_profile(state: QuantumState):
    """Callable t = cos(theta) -> |Y_{l,m}|^2, phi-free by construction."""
    l, mm = state.l, abs(state.m)
    lna2 = (math.log(l + 0.5) + math.lgamma(l - mm + 1)
            + 2.0 * math.lgamma(mm + 0.5) - (1 - 2 * mm) * math.log(2.0)
            - 2.0 * math.log(math.pi) - math.lgamma(l + mm + 1))
    a2 = math.exp(lna2)
    deg = l - mm
    glam = Fraction(2 * mm + 1, 2)

    def profile(t):
        t = np.asarray(t, dtype=float)
        c = np.asarray(specfun.gegenbauer_eval(deg, glam, t), dtype=float)
        return a2 * c * c * (1.0 - t * t) ** mm

    return profile


def full_density(state: QuantumState, params: OscillatorParams | None = None,
                 r=0.0, theta=0.0, phi=0.0):
    """Density rho_{n,l}(r) |Y_{l,m}(theta, phi)|^2 on broadcast arrays.

    The azimuthal argument only enters through |e^{i m phi}| = 1 and is
    accepted for interface completeness.
    """
    params = params or OscillatorParams()
    rad = _radial_profile(state, params)
    ang = _polar_profile(state)
    r, theta, phi = np.broadcast_arrays(np.asarray(r, dtype=float),
                                        np.asarray(theta, dtype=float),
                                        np.asarray(phi, dtype=float))
    out = rad(r) * ang(np.cos(theta))
    return out if out.shape else float(out)


def _pairs(edges) -> list:
    return list(zip(edges[:-1], edges[1:]))


def _dim_rule(edges, m_nodes: int):
    """Panel-stacked tanh-sinh points/weights (Takahasi & Mori 1974).

    Each panel takes the trapezoid rule in k on t = tanh(pi/2 sinh k),
    2 m + 1 points at step 3.2/m.  The double-exponential crowding toward
    both ends converges for algebraic and logarithmic end behaviour alike,
    so no edge grading is needed.  The offsets (1 + t)/2 = 1/(1 + e^{-2u})
    and (1 - t)/2 = 1/(1 + e^{2u}) are formed directly, not by subtracting
    t from 1, so nodes near an end are not rounded onto it.
    """
    h = 3.2 / m_nodes
    k = np.arange(-m_nodes, m_nodes + 1) * h
    u = 0.5 * math.pi * np.sinh(k)
    lo_frac = 1.0 / (1.0 + np.exp(-2.0 * u))
    hi_frac = 1.0 / (1.0 + np.exp(2.0 * u))
    w0 = h * math.pi * np.cosh(k) * lo_frac * hi_frac
    xs, ws = [], []
    for a, b in _pairs(edges):
        w = b - a
        xs.append(np.where(k <= 0.0, a + w * lo_frac, b - w * hi_frac))
        ws.append(w * w0)
    return np.concatenate(xs), np.concatenate(ws)


def _radial_edges(state: QuantumState, params: OscillatorParams,
                  grid: GridSpec) -> list:
    """Panel edges at the density oscillation nodes plus a tail ladder."""
    n, l = state.n, state.l
    lam = params.lam
    cut = grid.cutoff * math.sqrt((2 * n + l + 1.5) / lam)
    edges = [0.0]
    xr = _refined_roots(n, Fraction(2 * l + 1, 2)).astype(float)
    edges += [math.sqrt(x / lam) for x in xr if x / lam < cut * cut]
    start = edges[-1] if len(edges) > 1 else math.sqrt(1.5 / lam)
    if start >= cut:
        raise DomainError("radial cutoff multiplier too small for this state")
    if len(edges) == 1:
        edges.append(start)
    span = cut - start
    edges += [start + span * k / 8.0 for k in range(1, 9)]
    return edges


def _polar_edges(state: QuantumState) -> list:
    deg = state.l - abs(state.m)
    mid = sorted(float(t) for t in specfun.gegenbauer_roots(
        deg, Fraction(2 * abs(state.m) + 1, 2)))
    return [-1.0] + mid + [1.0]


def _tensor_value(state, params, grid, apply_f) -> float:
    """Triple integral of apply_f(rho) over R^3 on the tensor grid.

    Radial and polar axes carry panels at the density oscillation nodes;
    the azimuthal axis contributes 2 pi directly because the integrand has
    no phi dependence.  Contractions run through fixed-order matrix
    products in radial chunks, so the reduction is reproducible and memory
    stays bounded.
    """
    rad = _radial_profile(state, params)
    ang = _polar_profile(state)
    r_edges = _radial_edges(state, params, grid)
    r_pts, r_w = _dim_rule(r_edges, grid.radial_nodes)
    t_pts, t_w = _dim_rule(_polar_edges(state), grid.polar_nodes)
    ang_vals = ang(t_pts)

    def sweep(pts, wts) -> float:
        vals = apply_f(np.outer(rad(pts), ang_vals))
        return float(((wts * pts * pts) @ vals) @ t_w) * _TWO_PI

    chunk = max(1, 40_000_000 // (8 * max(1, t_pts.size)))
    parts = [sweep(r_pts[i:i + chunk], r_w[i:i + chunk])
             for i in range(0, r_pts.size, chunk)]
    total = float(np.sum(parts))

    # certify the cutoff: one ghost panel past it must carry nothing, and
    # the Gaussian decay makes everything beyond the ghost smaller still
    w_last = 2.0 * (r_edges[-1] - r_edges[-2])
    g_pts, g_w = _dim_rule([r_edges[-1], r_edges[-1] + w_last],
                           grid.radial_nodes)
    ghost = sweep(g_pts, g_w)
    if not abs(ghost) <= 1e-10 * max(abs(total), 1e-300):
        raise AccuracyError(
            f"radial cutoff leaves a visible tail for {state}",
            estimate=total, error_bound=abs(ghost))
    return total


def normalization(state: QuantumState, params: OscillatorParams | None = None,
                  grid: GridSpec | None = None) -> float:
    """Quadrature value of the total probability; equals 1 for any state."""
    params = params or OscillatorParams()
    grid = grid or GridSpec()
    return _tensor_value(state, params, grid, lambda d: d)


def renyi_full(state: QuantumState, params: OscillatorParams | None = None,
               p=2.0, grid: GridSpec | None = None) -> float:
    """Full-space Renyi entropy ln(integral rho^p)/(1 - p), no split used."""
    order = as_order(p)
    if order.is_unity:
        raise DomainError("p = 1 is the Shannon limit; use shannon_full")
    params = params or OscillatorParams()
    grid = grid or GridSpec()
    pf = order.p
    val = _tensor_value(state, params, grid, lambda d: d ** pf)
    if not val > 0:
        raise AccuracyError(f"power integral came out nonpositive: {val}")
    return math.log(val) / (1.0 - pf)


def shannon_full(state: QuantumState, params: OscillatorParams | None = None,
                 grid: GridSpec | None = None) -> float:
    """Full-space Shannon entropy -integral rho ln rho, zeros guarded."""
    params = params or OscillatorParams()
    grid = grid or GridSpec()

    def neg_rho_ln_rho(d):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(d > 0.0, -d * np.log(np.where(d > 0.0, d, 1.0)), 0.0)

    return _tensor_value(state, params, grid, neg_rho_ln_rho)
