"""First-step parametric estimators: OLS, linear IV, two-step GMM, Box-Cox profile NLS."""

from __future__ import annotations

import warnings
from enum import Enum
from typing import NamedTuple

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


class LinearFit(NamedTuple):
    """A linear first step; that of a stacked Dataset has the stack's leading axis on each field."""

    beta: np.ndarray
    vcov: np.ndarray
    residuals: np.ndarray
    method: FitMethod
    sigma2_hat: float | np.ndarray
    first_stage_f: float | np.ndarray | None = None
    beta_first_step: np.ndarray | None = None


class BoxCoxFit(NamedTuple):
    """The Box-Cox profile fit; that of a stacked Dataset has the stack's leading axis on every
    field but use_iv."""

    lam: float | np.ndarray
    beta0: float | np.ndarray
    beta1: float | np.ndarray
    residuals: np.ndarray
    profile_sse_curve: np.ndarray  # (n_lambda, 2) columns (lambda, SSE)
    use_iv: bool


def _design(x: np.ndarray) -> np.ndarray:
    """x (..., n, k) with a leading column of ones: every first step fits an intercept."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([np.ones_like(x[..., :1]), x], axis=-1)


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
    """Least squares of each column of w (..., n, m) on those of b (..., n, k): (coef, pinv, r).

    R of b = QR has b's singular values, so the rank check reads the k x k R
    with the threshold of the n rows, and pinv = R^-1 R^-T b' (k, n) needs no
    tall SVD. coef = pinv @ w, so pinv[:, i] is row i's weight in every coef.
    With r the moments b'w = R'R coef need no second pass over the n rows.
    Leading axes stack independent fits; a rank-deficient slice, or fewer rows than columns, raises.
    The residuals w - b @ coef are left to the callers that read them.
    """
    if b.shape[-2] < b.shape[-1]:
        raise RankDeficient(f"{what} has fewer rows ({b.shape[-2]}) than columns ({b.shape[-1]})")
    r = np.linalg.qr(b, mode="r")
    _check_rank(r, what, rows=b.shape[-2])
    r_inv = np.linalg.inv(r)
    pinv = r_inv @ (r_inv.swapaxes(-1, -2) @ b.swapaxes(-1, -2))
    return pinv @ w, pinv, r


def series_basis(z: np.ndarray, order: int, lo, hi) -> np.ndarray:
    """Degree-`order` polynomial basis with z mapped onto [-1, 1] via [lo, hi].

    Legendre polynomials span the same space as raw powers but keep the design
    matrix well conditioned at high orders. z (..., n) gives (..., n, order + 1),
    with lo and hi per slice of a stack, each of its leading shape.
    """
    z = np.asarray(z, dtype=float)
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    t = 2.0 * (z - lo) / (hi - lo) - 1.0
    # legvander's recurrence, operation for operation, without importing numpy.polynomial
    v = np.empty((order + 1, *t.shape))
    v[0] = 1.0
    if order > 0:
        v[1] = t
        for i in range(2, order + 1):
            v[i] = (v[i - 1] * t * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    return np.ascontiguousarray(v.transpose(*range(1, v.ndim), 0))


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for a stack of matrices (..., p, q) and one of vectors (..., q)."""
    return (a @ v[..., None])[..., 0]


def _linear_step(dx: np.ndarray, y: np.ndarray, dz: np.ndarray, what: str):
    """Just-identified linear step E_n[Z (Y - X'b)] = 0 as its reduced form; OLS is dz = dx.

    One least squares of (X, Y) on Z gives the first stage X = Z Pi + V and
    Y = Z gamma + e, and beta = Pi^-1 gamma. Returns beta, the residuals u,
    each row's influence Pi^-1 pinv[:, i] u_i = A^-1 z_i u_i / n with
    A = E_n[Z X'], and the first-stage coefficients (Pi, gamma). The
    influences' cross product is the HC0 sandwich A^-1 E_n[z z' u^2] A^-T / n.
    Leading axes of dx (..., n, k), y (..., n) and dz stack independent fits.
    For OLS Pi is the identity up to rounding, and a rank-deficient X already
    fails the check on R, so only IV checks the rank of Pi.
    """
    k = dx.shape[-1]
    coef, pinv, _ = _least_squares(dz, np.concatenate([dx, y[..., None]], axis=-1), what)
    pi = coef[..., :k]
    if dz is not dx:
        _check_rank(pi, what)
    pi_inv = np.linalg.inv(pi)  # a solve with the n rows as right-hand sides costs twice as much
    beta = _matvec(pi_inv, coef[..., k])
    resid = y - _matvec(dx, beta)
    influence = (pinv * resid[..., None, :]).swapaxes(-1, -2) @ pi_inv.swapaxes(-1, -2)
    return beta, resid, influence, coef


def _linear_fit(beta, resid, influence, method: FitMethod, first_stage_f=None) -> LinearFit:
    """The LinearFit of `_linear_step`'s output: vcov = IF'IF and sigma2_hat = mean(u^2)."""
    sigma2 = np.mean(resid**2, axis=-1)
    return LinearFit(
        beta=beta,
        vcov=influence.swapaxes(-1, -2) @ influence,
        residuals=resid,
        method=method,
        sigma2_hat=float(sigma2) if sigma2.ndim == 0 else sigma2,
        first_stage_f=first_stage_f,
    )


def fit_ols(ds: Dataset) -> LinearFit:
    """Least squares of y on x, robust (HC0) covariance."""
    dx = _design(ds.x)
    beta, resid, influence, _ = _linear_step(dx, ds.y, dx, "OLS design matrix")
    return _linear_fit(beta, resid, influence, FitMethod.OLS)


def fit_iv(ds: Dataset) -> LinearFit:
    """Just-identified linear IV, robust (HC0) covariance, the first-stage F from the same fit.

    A stacked Dataset gets one F per slice, and one RelevanceWarning per weak slice.
    """
    if ds.k_z != ds.k_x:
        raise RankDeficient(
            f"fit_iv needs a just-identified system (k_z={ds.k_z}, k_x={ds.k_x})"
        )
    dz, dx = _design(ds.z), _design(ds.x)
    beta, resid, influence, coef = _linear_step(dx, ds.y, dz, "E_n[ZX']")
    v = (dx - (dz @ coef)[..., :-1])[..., 1:]  # the first-stage residuals of x
    rss1 = np.einsum("...ij,...ij->...j", v, v)
    rss0 = np.sum((ds.x - ds.x.mean(axis=-2, keepdims=True)) ** 2, axis=-2)
    dof = ds.n - ds.k_z - 1
    with np.errstate(divide="ignore", invalid="ignore"):  # in the entries np.where leaves out
        f_stats = np.where((rss1 > 0) & (dof > 0), (rss0 - rss1) / ds.k_z / (rss1 / dof),
                           np.inf).min(axis=-1)
    for f_stat in f_stats.ravel():
        if f_stat < RELEVANCE_F_THRESHOLD:
            warnings.warn(
                f"first-stage F = {f_stat:.2f} < {RELEVANCE_F_THRESHOLD:g}: weak instrument",
                RelevanceWarning,
                stacklevel=2,
            )
    return _linear_fit(beta, resid, influence, FitMethod.IV,
                       float(f_stats) if ds.y.ndim == 1 else f_stats)


def polynomial_instruments(degree: int = 3):
    """h(z): the Legendre polynomials of degree 1..degree of each column of z over its range.

    With an intercept they span (1, z, ..., z^degree) column by column, as the
    raw powers do, so no estimate or J statistic differs in exact arithmetic,
    while the basis stays well conditioned wherever z lies and whatever its
    units. A constant column raises RankDeficient. Degree 3 by default. h takes
    z (n,) or (..., n, k), each slice of a stack over its own range.
    """
    if degree < 1:
        raise IvcheckError(f"instrument degree must be at least 1, got {degree}")

    def h(z):
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            z = z[:, None]
        lo, hi = z.min(axis=-2), z.max(axis=-2)
        if np.any(lo == hi):
            raise RankDeficient("an instrument column is constant")
        return np.concatenate([series_basis(z[..., j], degree, lo[..., j], hi[..., j])[..., 1:]
                               for j in range(z.shape[-1])], axis=-1)

    return h


def _gmm(ds: Dataset, instrument_fn, efficient: bool):
    """2SLS on E[h(Z) U] = 0, then with `efficient` the efficient step, each one least squares.

    x is centred, which moves only the intercept, and the columns of h are put
    in root-mean-square units. One least squares of (X, y) on H = (1, h(Z)) = QR
    gives the reduced form (Pi, gamma), and E_n[h (y - X b)] = R'R (gamma - Pi b) / n.
    2SLS, weighted by E_n[hh']^-1, is the least squares of R gamma on R Pi: its
    residual e1 has |e1| = |P_H u1|, so Sargan = n |e1|^2 / |u1|^2. The efficient
    step is the least squares of L^-1 E_n[h y] on L^-1 E_n[h X'], LL' = Omega =
    E_n[hh' u1^2]: Hansen J = n |e2|^2, and its pinv P gives the covariance
    P P' / n = (G' Omega^-1 G)^-1 / n. Returns (beta, J, vcov, beta1, dof), both
    betas with the intercept at the mean of x, and vcov None without `efficient`.
    Residuals at rounding level, mean(u1^2) <= (n eps)^2 mean(y^2), raise
    DegenerateVariance: any statistic built on them is rounding noise. A
    stacked Dataset gives every output but dof per slice, J as an array.
    """
    h = _design((instrument_fn or polynomial_instruments(3))(ds.z))
    dx = _design(ds.x - ds.x.mean(axis=-2, keepdims=True))
    k, dof = dx.shape[-1], h.shape[-1] - dx.shape[-1]
    if dof < 0:
        raise RankDeficient("dim h(Z) below the number of parameters")
    rms = np.sqrt(np.einsum("...ij,...ij->...j", h, h) / ds.n)
    h = h / np.where(rms > 0, rms, 1.0)[..., None, :]
    what = ("the instruments (1, h(Z)), whose degree-d polynomials need d + 1 distinct "
            "values of each instrument,")
    coef, _, r = _least_squares(h, np.concatenate([dx, ds.y[..., None]], axis=-1), what)
    reduced = r @ coef  # (R Pi, R gamma)
    beta1, _, _ = _least_squares(reduced[..., :k], reduced[..., k:], "E_n[hX']")
    e1 = reduced[..., k:] - reduced[..., :k] @ beta1
    beta1 = beta1[..., 0]
    u1 = ds.y - _matvec(dx, beta1)
    if np.any(np.mean(u1**2, axis=-1)
              <= (ds.n * np.finfo(float).eps) ** 2 * np.mean(ds.y**2, axis=-1)):
        raise DegenerateVariance("2SLS residuals are at rounding level: the linear model "
                                 "fits the data exactly")
    if not efficient:
        return beta1, ds.n * _sq_norm(e1[..., 0]) / _sq_norm(u1), None, beta1, dof
    hu = h * u1[..., None]
    omega = hu.swapaxes(-1, -2) @ hu / ds.n
    _check_rank(omega, "second-step weight matrix", SingularWeight)
    try:
        chol = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        raise SingularWeight("second-step weight matrix is not positive definite") from None
    white = np.linalg.solve(chol, r.swapaxes(-1, -2) @ reduced / ds.n)  # L^-1 E_n[h (X, y)]
    beta2, pinv2, _ = _least_squares(white[..., :k], white[..., k:], "the whitened E_n[hX']")
    e2 = white[..., k:] - white[..., :k] @ beta2
    vcov = pinv2 @ pinv2.swapaxes(-1, -2) / ds.n
    return beta2[..., 0], ds.n * _sq_norm(e2[..., 0]), vcov, beta1, dof


def _sq_norm(v: np.ndarray) -> np.ndarray:
    """v @ v for each vector of a stack (..., q), as the one dot product of an unstacked v."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def fit_gmm2step(ds: Dataset, instrument_fn=None) -> LinearFit:
    """Two-step efficient GMM on moments E[h(Z) U] = 0 (`_gmm`), covariance (G' Omega^-1 G)^-1 / n.

    The first step weights by (E_n[hh'])^-1, the second by the inverse of the
    first-step residuals' E_n[hh' u^2]. `_gmm` fits at centred x: the intercept,
    and its row and column of the covariance, are mapped back to x = 0 here.
    """
    x_bar = ds.x.mean(axis=0)
    beta, _, vcov, beta1, _ = _gmm(ds, instrument_fn, efficient=True)
    resid = ds.y - _design(ds.x - x_bar) @ beta
    back = np.eye(len(beta))
    back[0, 1:] = -x_bar
    return LinearFit(
        beta=back @ beta,
        vcov=back @ vcov @ back.T,
        residuals=resid,
        method=FitMethod.GMM2STEP,
        sigma2_hat=float(np.mean(resid**2)),
        beta_first_step=back @ beta1,
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
    Those blocks already vectorize, so a stacked Dataset is fitted slice by slice.
    """
    if ds.y.ndim > 1:
        fits = [fit_boxcox(Dataset(y, x, z), use_iv) for y, x, z in zip(ds.y, ds.x, ds.z)]
        stacked = {name: np.stack([getattr(fit, name) for fit in fits])
                   for name in BoxCoxFit._fields if name != "use_iv"}
        return BoxCoxFit(**stacked, use_iv=use_iv)
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
