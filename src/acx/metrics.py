"""Metric-side hessians, mean curvature of parametrized surfaces, and the
separation of hermitian from intrinsic plurisubharmonicity.

The headline computation reproduces the spherical-metric counterexample:
for the round 2-sphere through the origin of radius r (center shifted along
the first axis) and the ambient function (1/2)|X|^2 - C x, the surface
Laplacian at the origin equals 2 - 2C/r, which is negative for C > r even
though the metric hessian at the origin is the identity.  All surface
quantities are computed from an exact conformal parametrization with
centered differences; mean curvature uses the analytic Christoffel
symbols, so the origin values are second-order accurate in the
parametrization step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import hermitian_part, standard_j
from .lattice import ScalarField, fd_jet


class MetricError(ValueError):
    pass


@dataclass
class HermitianMetric:
    """Riemannian metric with J-orthogonality, plus analytic Christoffel
    symbols indexed Gamma[n, k, i, j]."""

    dim: int
    metric: Callable[[np.ndarray], np.ndarray]
    christoffel: Callable[[np.ndarray], np.ndarray]

    def m_at(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        out = np.asarray(self.metric(pts), dtype=float)
        if out.ndim == 2:
            out = np.broadcast_to(out, (pts.shape[0],) + out.shape)
        return out

    def gamma_at(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        out = np.asarray(self.christoffel(pts), dtype=float)
        if out.ndim == 3:
            out = np.broadcast_to(out, (pts.shape[0],) + out.shape)
        return out

    def validate(self, points, j: np.ndarray | None = None,
                 tol: float = 1e-9) -> None:
        pts = np.atleast_2d(points)
        j = standard_j(self.dim // 2) if j is None else j
        m = self.m_at(pts)
        res = np.matmul(np.matmul(j.T, m), j) - m
        if np.max(np.abs(res)) > tol:
            raise MetricError("metric is not J-orthogonal at sampled points")
        gam = self.gamma_at(pts)
        if np.max(np.abs(gam - np.transpose(gam, (0, 1, 3, 2)))) > tol:
            raise MetricError("Christoffel symbols are not symmetric")


def euclidean_metric(dim: int) -> HermitianMetric:
    return HermitianMetric(
        dim,
        lambda pts: np.eye(dim),
        lambda pts: np.zeros((np.atleast_2d(pts).shape[0], dim, dim, dim)))


def spherical_metric_r4() -> HermitianMetric:
    """Round-sphere metric on R^4 in stereographic coordinates,
    ds^2 = |dX|^2 / (1 + |X|^2)^2.  Conformal factor exp(2 psi) with
    psi = -log(1 + |X|^2); the Christoffels follow the conformal pattern
    Gamma^k_ij = delta_ik psi_j + delta_jk psi_i - delta_ij psi_k and vanish
    at the origin, where the metric is the identity."""
    dim = 4

    def metric(pts):
        pts = np.atleast_2d(pts)
        conf = 1.0 / (1.0 + (pts ** 2).sum(axis=1)) ** 2
        return conf[:, None, None] * np.eye(dim)

    def christoffel(pts):
        pts = np.atleast_2d(pts)
        psi_grad = -2.0 * pts / (1.0 + (pts ** 2).sum(axis=1))[:, None]
        nn = pts.shape[0]
        eye = np.eye(dim)
        gam = (np.einsum("ik,nj->nkij", eye, psi_grad)
               + np.einsum("jk,ni->nkij", eye, psi_grad)
               - np.einsum("ij,nk->nkij", eye, psi_grad))
        return gam.reshape(nn, dim, dim, dim)

    return HermitianMetric(dim, metric, christoffel)


# ---------------------------------------------------------------------------
# Hessians under the metric
# ---------------------------------------------------------------------------

def _covariant(metric: HermitianMetric, x: np.ndarray, a: np.ndarray,
               p: np.ndarray) -> np.ndarray:
    """Covariant hessian a_ij - Gamma^k_ij p_k of the jet (p, a) at x."""
    gam = metric.gamma_at(x[None])[0]
    return a - np.einsum("kij,k->ij", gam, p)


def riemannian_hessian(metric: HermitianMetric, u: ScalarField,
                       node: int) -> np.ndarray:
    """(Hess u)_ij = D_ij u - Gamma^k_ij D_k u from the centered jet."""
    jet = fd_jet(u, node)
    return _covariant(metric, u.domain.node_coords[node], jet.a, jet.p)


def hermitian_hessian(metric: HermitianMetric, j: np.ndarray, u: ScalarField,
                      node: int) -> np.ndarray:
    """J-invariant part Hess + J^T Hess J; requires a J-orthogonal metric."""
    x = u.domain.node_coords[node]
    metric.validate(x[None], j)
    return hermitian_part(riemannian_hessian(metric, u, node), j)


def _centered(f, x, step: float):
    """(value, gradient, hessian) of f at x by centered differences: the
    3-point first and second differences along each axis and the 4-point
    cross formula, O(step^2) and exact on quadratics.  A vector-valued f
    gives a gradient (d, m) and a hessian (d, d, m)."""
    x = np.asarray(x, dtype=float)
    d = x.size
    e = step * np.eye(d)

    def at(y):
        return np.asarray(f(y), dtype=float)

    f0 = at(x)
    fp = [at(x + ei) for ei in e]
    fm = [at(x - ei) for ei in e]
    grad = np.stack([(fp[i] - fm[i]) / (2 * step) for i in range(d)])
    hess = np.empty((d, d) + f0.shape)
    for i in range(d):
        hess[i, i] = (fp[i] + fm[i] - 2 * f0) / step ** 2
        for j in range(i + 1, d):
            hess[i, j] = hess[j, i] = (
                at(x + e[i] + e[j]) - at(x + e[i] - e[j])
                - at(x - e[i] + e[j]) + at(x - e[i] - e[j])) / (4 * step ** 2)
    return f0, grad, hess


# ---------------------------------------------------------------------------
# Parametrized surfaces
# ---------------------------------------------------------------------------

@dataclass
class ParamSurface:
    """Conformally parametrized 2-surface w = (p, q) -> R^4."""

    point: Callable[[float, float], np.ndarray]

    def chart(self, w) -> np.ndarray:
        return np.asarray(self.point(float(w[0]), float(w[1])), dtype=float)


def sphere_through_origin(r: float) -> ParamSurface:
    """Round 2-sphere (x - r)^2 + s^2 + t^2 = r^2 in the y = 0 hyperplane,
    inverse-stereographic (conformal) chart with w = 0 at the origin."""
    if r <= 0:
        raise MetricError("radius must be positive")

    def point(p, q):
        den = 1.0 + p * p + q * q
        return np.array([
            r * (1.0 + (p * p + q * q - 1.0) / den),
            0.0,
            2.0 * r * p / den,
            2.0 * r * q / den,
        ])

    return ParamSurface(point)


def vertical_plane(a: float) -> ParamSurface:
    """The holomorphic curve {(a, 0)} x C (second coordinate plane)."""

    def point(p, q):
        return np.array([a, 0.0, p, q])

    return ParamSurface(point)


def mean_curvature(metric: HermitianMetric, surface: ParamSurface, w,
                   step: float = 1e-3) -> np.ndarray:
    """Mean curvature vector: metric trace of the second fundamental form,
    computed from the chart and the analytic Christoffels.  For the round
    sphere in the euclidean metric the magnitude is 2/r with inward normal."""
    x0, (tp, tq), d2 = _centered(surface.chart, w, step)
    m = metric.m_at(x0[None])[0]
    gam = metric.gamma_at(x0[None])[0]

    def cov(d2, ta, tb):
        return d2 + np.einsum("kij,i,j->k", gam, ta, tb)

    tans = np.stack([tp, tq], axis=0)
    gsurf = np.array([[tp @ m @ tp, tp @ m @ tq],
                      [tq @ m @ tp, tq @ m @ tq]])
    if abs(np.linalg.det(gsurf)) < 1e-14:
        raise MetricError("degenerate tangent frame")
    ginv = np.linalg.inv(gsurf)
    second = np.stack([
        np.stack([cov(d2[0, 0], tp, tp), cov(d2[0, 1], tp, tq)], axis=0),
        np.stack([cov(d2[1, 0], tq, tp), cov(d2[1, 1], tq, tq)], axis=0),
    ], axis=0)                                    # [a, b, k]
    trace = np.einsum("ab,abk->k", ginv, second)
    # subtract the tangential part (metric-orthogonal projection)
    coeff = ginv @ (tans @ m @ trace)
    tangential = coeff @ tans
    return trace - tangential


def laplace_beltrami(metric: HermitianMetric, surface: ParamSurface,
                     phi: Callable[[np.ndarray], float], w,
                     step: float = 1e-3) -> float:
    """Surface Laplacian in a conformal chart: (phi_pp + phi_qq) / mu with
    mu the conformal factor of the induced metric (checked within
    tolerance), the trace of the centered hessian of phi o chart."""
    x0, (tp, tq), _ = _centered(surface.chart, w, step)
    m = metric.m_at(x0[None])[0]
    mu_p = tp @ m @ tp
    mu_q = tq @ m @ tq
    cross = tp @ m @ tq
    if abs(mu_p - mu_q) > 1e-6 * (mu_p + mu_q) or abs(cross) > 1e-6 * mu_p:
        raise MetricError("chart is not conformal at the evaluation point")
    _, _, hess = _centered(lambda y: phi(surface.chart(y)), w, step)
    return float(np.trace(hess)) / mu_p


# ---------------------------------------------------------------------------
# The separation report
# ---------------------------------------------------------------------------

@dataclass
class Example95Report:
    c: float
    r: float
    laplace_beltrami_origin: float
    reference_value: float
    deviation: float
    laplace_beltrami_conformal: float
    hermitian_margin: float
    hermitian_psh_near_origin: bool
    standard_psh_fails: bool
    hessian_origin: list


def example95_report(c: float, r: float) -> Example95Report:
    """Separation of hermitian and standard plurisubharmonicity on the
    spherical metric: for phi = (1/2)|X|^2 - C x the metric hessian at the
    origin is the identity (hermitian-psh nearby) while the surface
    Laplacian along the shifted sphere is 2 - 2C/r, negative for C > r.
    Derivatives are differenced with step r/64."""
    if c < 0 or r <= 0:
        raise MetricError("C must be nonnegative and r positive")
    step = r / 64.0
    metric = spherical_metric_r4()
    surface = sphere_through_origin(r)

    def phi(x):
        return 0.5 * float((x ** 2).sum()) - c * float(x[0])

    origin = np.zeros(4)
    _, grad, a = _centered(phi, origin, step)
    hess = _covariant(metric, origin, a, grad)
    # smallest eigenvalue of the averaged hermitian part, the normalization
    # of the intrinsic membership margins
    hc = hermitian_part(hess, standard_j(2))
    margin = float(np.linalg.eigvalsh(0.5 * hc)[0])

    # identity route: tangential trace of the hessian plus the mean
    # curvature derivative
    _, (tp, tq), _ = _centered(surface.chart, np.zeros(2), step)
    e1 = tp / np.linalg.norm(tp)
    e2 = tq / np.linalg.norm(tq)
    tr_tan = float(e1 @ hess @ e1 + e2 @ hess @ e2)
    hvec = mean_curvature(metric, surface, (0.0, 0.0), step)
    lb_identity = tr_tan + float(hvec @ grad)

    # independent conformal-chart route
    lb_conf = laplace_beltrami(metric, surface, phi, (0.0, 0.0), step)

    ref = 2.0 - 2.0 * c / r
    # the failure witness must clear the scheme's own resolution
    noise = 20.0 * step ** 2
    return Example95Report(
        c=c, r=r,
        laplace_beltrami_origin=lb_identity,
        reference_value=ref,
        deviation=abs(lb_identity - ref),
        laplace_beltrami_conformal=lb_conf,
        hermitian_margin=margin,
        hermitian_psh_near_origin=bool(margin > noise),
        standard_psh_fails=bool(lb_identity < -noise),
        hessian_origin=hess.tolist(),
    )
