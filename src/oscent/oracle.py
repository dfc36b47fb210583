"""Brute-force cross-check of total entropies over the full space.

Builds the three-dimensional density rho_{n,l,m}(r, theta, phi) directly
from polynomial primitives and integrates entropic functionals over R^3 on
a tensor grid, without going through the radial/angular entropy split that
the main modules rely on.  Tolerances here certify the decomposition
identities rather than assume them.

Every radial and polar panel, at every order and for Shannon alike, takes
one tanh-sinh rule: a different rule family from the Gauss-Jacobi panels of
the main modules, so the check stays independent of them.  The integrand
is assembled from the Laguerre and Gegenbauer recurrences alone.  The rule's
half-width m = 48 and the radial reach are fixed below; the reach grows as
1/sqrt(p) below p = 1, where rho^p decays more slowly than rho.  The sweep
forms the full density in 512 KB blocks of radial rows and applies the
functional to each in place, so its memory stays flat whatever the state.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import specfun
from .errors import AccuracyError, DomainError
from .order import as_order
from .radial import OscillatorParams, QuantumState

__all__ = ["full_density", "normalization", "renyi_full", "shannon_full"]

_TWO_PI = 2.0 * math.pi

# tanh-sinh half-width: each radial or polar panel carries 2 m + 1 points at
# step 3.2/m
_NODES = 48
# bytes of one block of full-density rows, from the timings in CHANGES.md
_BLOCK_BYTES = 2 ** 19
# radial reach in lengths sqrt((2n + l + 3/2)/(lam min(p, 1))): rho^p decays
# like exp(-p lam r^2); a ghost panel past it certifies the tail small
_CUTOFF = 6.0


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
                  p: float) -> list:
    """Panel edges at the density oscillation nodes plus a tail ladder."""
    n, l = state.n, state.l
    lam = params.lam
    cut = _CUTOFF * math.sqrt((2 * n + l + 1.5) / (lam * min(p, 1.0)))
    edges = [0.0]
    xr = specfun.gauss_laguerre(n, l + 0.5)[0].astype(float)
    # every root x lies below 2 (2n + l + 3/2), inside the cutoff
    edges += [math.sqrt(x / lam) for x in xr]
    start = edges[-1] if len(edges) > 1 else math.sqrt(1.5 / lam)
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


def _tensor_value(state, params, p: float, apply_f) -> float:
    """Triple integral of apply_f(rho) over R^3 on the tensor grid.

    Radial and polar axes carry panels at the density oscillation nodes;
    the azimuthal axis contributes 2 pi directly.  The sweep walks the radial
    rows in blocks of _BLOCK_BYTES of the full density, which apply_f(block,
    scratch) overwrites in place, and contracts each in a fixed order, so the
    sum is reproducible and memory stays flat however large the grid.
    apply_f(rho) decays like rho^p, which sets the radial reach.
    """
    r_edges = _radial_edges(state, params, p)
    r_pts, r_w = _dim_rule(r_edges, _NODES)
    # certify the cutoff: one ghost panel past it must carry nothing, and
    # the Gaussian decay makes everything beyond the ghost smaller still
    w_last = 2.0 * (r_edges[-1] - r_edges[-2])
    g_pts, g_w = _dim_rule([r_edges[-1], r_edges[-1] + w_last], _NODES)
    t_pts, t_w = _dim_rule(_polar_edges(state), _NODES)
    ang_vals = _polar_profile(state)(t_pts)
    pts = np.concatenate([r_pts, g_pts])
    rho_r = _radial_profile(state, params)(pts)
    w_r = np.concatenate([r_w, g_w]) * pts * pts
    rows = min(pts.size, max(1, _BLOCK_BYTES // (8 * t_pts.size)))
    block, scratch = np.empty((2, rows, t_pts.size))

    def sweep(lo: int, hi: int) -> float:
        parts = []
        for i in range(lo, hi, rows):
            k = min(rows, hi - i)
            d = np.outer(rho_r[i:i + k], ang_vals, out=block[:k])
            apply_f(d, scratch[:k])
            parts.append(float((w_r[i:i + k] @ d) @ t_w) * _TWO_PI)
        return float(np.sum(parts))

    total = sweep(0, r_pts.size)
    ghost = sweep(r_pts.size, pts.size)
    if not abs(ghost) <= 1e-10 * max(abs(total), 1e-300):
        raise AccuracyError(
            f"radial cutoff leaves a visible tail for {state}",
            estimate=total, error_bound=abs(ghost))
    return total


def normalization(state: QuantumState,
                  params: OscillatorParams | None = None) -> float:
    """Quadrature value of the total probability; equals 1 for any state."""
    return _tensor_value(state, params or OscillatorParams(), 1.0,
                         lambda d, s: None)


def renyi_full(state: QuantumState, params: OscillatorParams | None = None,
               p=2.0) -> float:
    """Full-space Renyi entropy ln(integral rho^p)/(1 - p), no split used."""
    order = as_order(p)
    if order.is_unity:
        raise DomainError("p = 1 is the Shannon limit; use shannon_full")
    params = params or OscillatorParams()
    pf = order.p
    val = _tensor_value(state, params, pf, lambda d, s: np.power(d, pf, out=d))
    if not val > 0:
        raise AccuracyError(f"power integral came out nonpositive: {val}")
    return math.log(val) / (1.0 - pf)


def shannon_full(state: QuantumState,
                 params: OscillatorParams | None = None) -> float:
    """Full-space Shannon entropy -integral rho ln rho, zeros guarded."""
    params = params or OscillatorParams()

    def neg_rho_ln_rho(d, s):
        # ln(d + [d = 0]) is ln d where d > 0 and 0 where the density is 0
        np.log(np.add(np.equal(d, 0.0, out=s), d, out=s), out=s)
        np.multiply(np.negative(d, out=d), s, out=d)

    return _tensor_value(state, params, 1.0, neg_rho_ln_rho)
