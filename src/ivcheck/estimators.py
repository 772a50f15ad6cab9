"""First-step parametric estimators: OLS, linear IV, two-step GMM, Box-Cox profile NLS."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset
from .errors import (
    DegenerateVariance,
    DomainError,
    IvcheckError,
    RankDeficient,
    RelevanceWarning,
    SingularWeight,
)

RELEVANCE_F_THRESHOLD = 10.0

# Coarse lambda grid of the Box-Cox profile: 81 points on [-2, 2], step 0.05.
LAMBDA_GRID = np.round(np.linspace(-2.0, 2.0, 81), 10)
# Box-Cox profile fits at most about this many (lambda, row) cells at once.
BOXCOX_BLOCK_CELLS = 2**20


class FitMethod(Enum):
    OLS = "ols"
    IV = "iv"
    GMM2STEP = "gmm2step"


@dataclass(frozen=True)
class LinearFit:
    beta: np.ndarray
    vcov: np.ndarray
    residuals: np.ndarray
    method: FitMethod
    sigma2_hat: float
    first_stage_f: float | None = None
    beta_first_step: np.ndarray | None = None


@dataclass(frozen=True)
class BoxCoxFit:
    lam: float
    beta0: float
    beta1: float
    residuals: np.ndarray
    profile_sse_curve: np.ndarray  # (n_lambda, 2) columns (lambda, SSE)
    use_iv: bool

    @property
    def theta(self):
        return (self.beta0, self.beta1, self.lam)


def _design(x: np.ndarray) -> np.ndarray:
    """x with a leading column of ones: every first step fits an intercept."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return np.column_stack([np.ones(x.shape[0]), x])


def _check_rank(mat: np.ndarray, what: str, error=RankDeficient, rows: int | None = None) -> None:
    """Raise `error` when the smallest singular value of mat is <= rows * eps * the largest.

    `mat` may be a stack of matrices, then any one of them raises. `rows`
    defaults to the row count of mat.
    """
    sv = np.linalg.svd(mat, compute_uv=False)
    sv = sv.reshape(-1, sv.shape[-1])
    rows = mat.shape[-2] if rows is None else rows
    bad = sv[:, -1] <= rows * np.finfo(float).eps * sv[:, 0]
    if np.any(bad):
        raise error(f"{what} is rank deficient (min singular value {sv[bad][0, -1]:.3g})")


def _least_squares(b: np.ndarray, w: np.ndarray, what: str):
    """Least squares of each column of w on the columns of b (n, k): (coef, resid, pinv).

    R of b = QR has b's singular values, so the rank check reads the k x k R
    with the threshold of the n rows, and pinv = R^-1 R^-T b' (k, n) needs no
    tall SVD. coef = pinv @ w, so pinv[:, i] is row i's weight in every coef.
    """
    r = np.linalg.qr(b, mode="r")
    _check_rank(r, what, rows=len(b))
    r_inv = np.linalg.inv(r)
    pinv = r_inv @ (r_inv.T @ b.T)
    coef = pinv @ w
    return coef, w - b @ coef, pinv


def _linear_step(dx: np.ndarray, y: np.ndarray, dz: np.ndarray, what: str):
    """Just-identified linear step E_n[Z (Y - X'b)] = 0 as its reduced form; OLS is dz = dx.

    One least squares of (X, Y) on Z gives the first stage X = Z Pi + V and
    Y = Z gamma + e, and beta = Pi^-1 gamma. Returns beta, the residuals u,
    each row's influence Pi^-1 pinv[:, i] u_i = A^-1 z_i u_i / n with
    A = E_n[Z X'], and the first-stage residuals V. The influences' cross
    product is the HC0 sandwich A^-1 E_n[z z' u^2] A^-T / n.
    """
    k = dx.shape[1]
    coef, first_resid, pinv = _least_squares(dz, np.column_stack([dx, y]), what)
    pi = coef[:, :k]
    _check_rank(pi, what)
    pi_inv = np.linalg.inv(pi)  # a solve with the n rows as right-hand sides costs twice as much
    beta = pi_inv @ coef[:, k]
    resid = y - dx @ beta
    influence = (pinv * resid).T @ pi_inv.T
    return beta, resid, influence, first_resid[:, :k]


def fit_ols(ds: Dataset) -> LinearFit:
    """Least squares of y on x, robust (HC0) covariance."""
    dx = _design(ds.x)
    beta, resid, influence, _ = _linear_step(dx, ds.y, dx, "OLS design matrix")
    return LinearFit(
        beta=beta,
        vcov=influence.T @ influence,
        residuals=resid,
        method=FitMethod.OLS,
        sigma2_hat=float(np.mean(resid**2)),
    )


def fit_iv(ds: Dataset) -> LinearFit:
    """Just-identified linear IV, robust (HC0) covariance, the first-stage F from the same fit."""
    if ds.k_z != ds.k_x:
        raise RankDeficient(
            f"fit_iv needs a just-identified system (k_z={ds.k_z}, k_x={ds.k_x})"
        )
    dz = _design(ds.z)
    beta, resid, influence, v = _linear_step(_design(ds.x), ds.y, dz, "E_n[ZX']")
    rss1 = np.einsum("ij,ij->j", v[:, 1:], v[:, 1:])
    rss0 = np.sum((ds.x - ds.x.mean(axis=0)) ** 2, axis=0)
    dof = ds.n - ds.k_z - 1
    f_stat = float(min((r0 - r1) / ds.k_z / (r1 / dof) if dof > 0 and r1 > 0 else np.inf
                       for r0, r1 in zip(rss0, rss1)))
    if f_stat < RELEVANCE_F_THRESHOLD:
        warnings.warn(
            f"first-stage F = {f_stat:.2f} < {RELEVANCE_F_THRESHOLD:g}: weak instrument",
            RelevanceWarning,
            stacklevel=2,
        )
    return LinearFit(
        beta=beta,
        vcov=influence.T @ influence,
        residuals=resid,
        method=FitMethod.IV,
        sigma2_hat=float(np.mean(resid**2)),
        first_stage_f=f_stat,
    )


def polynomial_instruments(degree: int = 3):
    """h(z) = (z, z^2, ..., z^degree) applied columnwise; degree 3 by default."""
    if degree < 1:
        raise IvcheckError(f"instrument degree must be at least 1, got {degree}")

    def h(z):
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            z = z[:, None]
        return np.column_stack([z**d for d in range(1, degree + 1)])

    return h


def gmm_beta(
    h_design: np.ndarray, dx: np.ndarray, y: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Linear GMM minimizer of g(b)' W g(b), g(b) = E_n[h (y - x'b)]."""
    n = h_design.shape[0]
    hx = h_design.T @ dx / n
    hy = h_design.T @ y / n
    a = hx.T @ weight @ hx
    _check_rank(a, "GMM normal matrix")
    return np.linalg.solve(a, hx.T @ weight @ hy)


def _two_sls(ds: Dataset, instrument_fn):
    """2SLS on E[h(Z) U] = 0: (h, dx, w1, beta1, u1) with w1 = (E_n[hh'])^-1, u1 its residuals.

    The columns of h are put in root-mean-square units first. No estimate or
    J statistic depends on their scale, but the rank check of E_n[hh'] would.
    Residuals at rounding level, mean(u1^2) <= (n eps)^2 mean(y^2), raise
    DegenerateVariance: any statistic built on them is rounding noise.
    """
    h = _design((instrument_fn or polynomial_instruments(3))(ds.z))
    dx = _design(ds.x)
    if h.shape[1] < dx.shape[1]:
        raise RankDeficient("dim h(Z) below the number of parameters")
    rms = np.sqrt(np.einsum("ij,ij->j", h, h) / ds.n)
    h = h / np.where(rms > 0, rms, 1.0)
    hh = h.T @ h / ds.n
    _check_rank(hh, "E_n[hh']")
    w1 = np.linalg.inv(hh)
    beta1 = gmm_beta(h, dx, ds.y, w1)
    u1 = ds.y - dx @ beta1
    if np.mean(u1**2) <= (ds.n * np.finfo(float).eps) ** 2 * np.mean(ds.y**2):
        raise DegenerateVariance("2SLS residuals are at rounding level: the linear model "
                                 "fits the data exactly")
    return h, dx, w1, beta1, u1


def _gmm_steps(ds: Dataset, instrument_fn):
    """2SLS, then the efficient step: (h, dx, beta1, w2, beta2), w2 = Omega^-1 at beta1."""
    h, dx, _, beta1, u1 = _two_sls(ds, instrument_fn)
    hr = h * u1[:, None]
    omega = hr.T @ hr / ds.n
    _check_rank(omega, "second-step weight matrix", SingularWeight)
    w2 = np.linalg.inv(omega)
    return h, dx, beta1, w2, gmm_beta(h, dx, ds.y, w2)


def fit_gmm2step(ds: Dataset, instrument_fn=None) -> LinearFit:
    """Two-step efficient GMM on moments E[h(Z) U] = 0.

    First step weights by (E_n[hh'])^-1; second step by the inverse of the
    first-step residual outer-product matrix.
    """
    h, dx, beta1, w2, beta2 = _gmm_steps(ds, instrument_fn)
    resid = ds.y - dx @ beta2
    # Asymptotic covariance of efficient GMM: (G' Omega^-1 G)^-1 / n.
    g = h.T @ dx / ds.n
    vcov = np.linalg.inv(g.T @ w2 @ g) / ds.n
    return LinearFit(
        beta=beta2,
        vcov=vcov,
        residuals=resid,
        method=FitMethod.GMM2STEP,
        sigma2_hat=float(np.mean(resid**2)),
        beta_first_step=beta1,
    )


def boxcox_transform(x: np.ndarray, lam: float) -> np.ndarray:
    """x^(lambda) = expm1(lambda log x) / lambda, log x at lambda = 0; requires x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("Box-Cox transform requires strictly positive x")
    return _boxcox_rows(x.ravel(), np.array([float(lam)]))[0].reshape(x.shape)


def _boxcox_rows(x: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The Box-Cox transform of x (n,) at each lambda of lams, as the rows of one array.

    expm1 keeps its precision next to lambda = 0, where x^lambda - 1 rounds to 0.
    """
    log_x = np.log(x)
    zero = lams == 0.0
    lam = np.where(zero, 1.0, lams)[:, None]
    out = lam * log_x
    np.expm1(out, out=out)
    out /= lam
    out[zero] = log_x
    return out


def _boxcox_block(x: np.ndarray, lams: np.ndarray, y: np.ndarray, z: np.ndarray | None):
    """The linear step of the Box-Cox profile at every lambda of lams, in closed form.

    Regresses y on (1, x^(lambda)) by OLS when z is None, else by IV with
    instruments (1, z). It checks the rank of each lambda's 2x2 E_n[ZX'] for
    IV, and for OLS that of the (n, 2) design through the closed-form R of its
    QR decomposition, which has the same singular values. Returns the SSE of
    every lambda, the index i of the first minimum, and beta and the residuals
    at lams[i].
    """
    n = len(y)
    what = "Box-Cox linear step"
    xt = _boxcox_rows(x, lams)
    x_bar = xt.mean(axis=1)
    mats = np.zeros((len(lams), 2, 2))
    if z is not None:
        mats[:, 0, 0] = 1.0
        mats[:, 0, 1] = x_bar
        mats[:, 1, 0] = np.mean(z)
        mats[:, 1, 1] = xt @ z / n
        _check_rank(mats, what)
    xt -= x_bar[:, None]
    y_bar = np.mean(y)
    y_c = y - y_bar
    if z is None:
        sxx = np.einsum("ij,ij->i", xt, xt)
        mats[:, 0, 0] = np.sqrt(n)
        mats[:, 0, 1] = np.sqrt(n) * x_bar
        mats[:, 1, 1] = np.sqrt(sxx)
        _check_rank(mats, what, rows=n)
        beta1 = xt @ y_c / sxx
    else:
        z_c = z - np.mean(z)
        beta1 = z_c @ y_c / (xt @ z_c)
    xt *= beta1[:, None]
    resid = np.subtract(y_c, xt, out=xt)
    sse = np.einsum("ij,ij->i", resid, resid)
    i = int(np.argmin(sse))
    return sse, i, (y_bar - beta1[i] * x_bar[i], beta1[i]), resid[i].copy()


def fit_boxcox(ds: Dataset, use_iv: bool = False) -> BoxCoxFit:
    """Profile grid search over lambda, linear step by OLS or just-identified IV.

    For each lambda of LAMBDA_GRID the outcome is regressed on the transformed
    regressor (instrumented by z when use_iv); the structural sum of squared
    residuals is profiled, and the coarse minimizer is polished on successively
    finer local grids. The first minimum of each grid wins. The lambdas are
    fitted in blocks of BOXCOX_BLOCK_CELLS // n. Assumes a scalar regressor.
    """
    if ds.k_x != 1:
        raise DomainError("fit_boxcox expects a scalar regressor")
    x = ds.x[:, 0]
    if np.any(x <= 0):
        raise DomainError("Box-Cox transform requires strictly positive x")
    z = ds.z[:, 0] if use_iv else None
    block = max(1, BOXCOX_BLOCK_CELLS // ds.n)

    def sweep(grid):
        sse, top = [], None
        for start in range(0, len(grid), block):
            lams = grid[start:start + block]
            block_sse, i, beta, resid = _boxcox_block(x, lams, ds.y, z)
            if top is None or block_sse[i] < top[0]:
                top = (block_sse[i], float(lams[i]), beta, resid)
            sse.append(block_sse)
        return np.column_stack([grid, np.concatenate(sse)]), top

    curve, best = sweep(LAMBDA_GRID)
    # refine around the coarse minimizer: grid spacing otherwise dominates the
    # sampling error of lambda_hat in moderate samples
    span = float(np.max(np.diff(LAMBDA_GRID)))
    for _ in range(3):
        span /= 4.0
        local = np.linspace(best[1] - 4.0 * span, best[1] + 4.0 * span, 17)
        _, best = sweep(local)
    _, lam, beta, resid = best
    return BoxCoxFit(
        lam=float(lam),
        beta0=float(beta[0]),
        beta1=float(beta[1]),
        residuals=resid,
        profile_sse_curve=curve,
        use_iv=use_iv,
    )
