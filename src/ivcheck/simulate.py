"""Data-generating processes and the replication engine for size/power studies."""

from __future__ import annotations

import atexit
import ctypes
import functools
import math
import time
import warnings
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .clrtest import TestConfig, test_model
from .data import Dataset, RngSpec, _checked_replace
from .errors import IvcheckError
from .estimators import boxcox_transform
from .moments import Conditioning, ModelForm, ModelSpec
from .overid import hansen_j, sargan

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

# run_study stacks up to this many rows (replications x n) in one pass: enough
# replications to share each numpy call's overhead, few enough that a stacked
# series basis of order 16 takes about 1 MB
CHUNK_ROWS = 8192

# Covariance of the structural/first-stage errors: Sigma differs between the
# size design ((1, .5; .5, 2)) and the power design ((1, .5; .5, 1)), exactly
# as printed in the source tables.
SIGMA_SIZE = np.array([[1.0, 0.5], [0.5, 2.0]])
SIGMA_POWER = np.array([[1.0, 0.5], [0.5, 1.0]])
# normals @ L.T with their Cholesky factors is multivariate_normal(method="cholesky")
CHOL_SIZE = np.linalg.cholesky(SIGMA_SIZE)
CHOL_POWER = np.linalg.cholesky(SIGMA_POWER)


class DgpFamily(Enum):
    LINEAR_IV_NULL = "linear-iv-null"
    LINEAR_OLS_NULL = "linear-ols-null"
    BOXCOX_IV_NULL = "boxcox-iv-null"
    BOXCOX_OLS_NULL = "boxcox-ols-null"
    LINEAR_IV_POWER = "linear-iv-power"
    LINEAR_OLS_POWER = "linear-ols-power"
    BOXCOX_POWER = "boxcox-power"
    HETERO_POWER = "hetero-power"


class Deviation(Enum):
    NONE = "none"
    POWER = "power"  # L/sigma * phi(c/sigma) on top of errors truncated to [-3, 3]
    HETERO = "heteroskedastic"  # error sd sqrt(1 + rho/9 * c^2)


class Design(NamedTuple):
    instrumented: bool  # x depends on an instrument z, tested conditional on z
    form: ModelForm  # LINEAR (f(x) = x) or BOXCOX (f(x) = x^(lam))
    deviation: Deviation


# What each family is; generate, DgpSpec.label and model_spec_for read only this.
DESIGNS = {
    DgpFamily.LINEAR_IV_NULL: Design(True, ModelForm.LINEAR, Deviation.NONE),
    DgpFamily.LINEAR_OLS_NULL: Design(False, ModelForm.LINEAR, Deviation.NONE),
    DgpFamily.BOXCOX_IV_NULL: Design(True, ModelForm.BOXCOX, Deviation.NONE),
    DgpFamily.BOXCOX_OLS_NULL: Design(False, ModelForm.BOXCOX, Deviation.NONE),
    DgpFamily.LINEAR_IV_POWER: Design(True, ModelForm.LINEAR, Deviation.POWER),
    DgpFamily.LINEAR_OLS_POWER: Design(False, ModelForm.LINEAR, Deviation.POWER),
    DgpFamily.BOXCOX_POWER: Design(True, ModelForm.BOXCOX, Deviation.POWER),
    DgpFamily.HETERO_POWER: Design(False, ModelForm.LINEAR, Deviation.HETERO),
}


class _DgpSpecFields(NamedTuple):
    family: DgpFamily
    n: int
    lam: float = 0.0  # Box-Cox exponent for the nonlinear families
    L: float = 0.0  # deviation scale of the power families
    sigma: float = 1.0  # peakedness of the power deviation
    rho: float = 0.0  # heteroskedasticity strength


class DgpSpec(_DgpSpecFields):
    """One design of a study, checked when made and when `_replace`d."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("lam", "L", "sigma", "rho"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise IvcheckError(f"{name} must be finite, got {value}")
        if self.n < 50:
            raise IvcheckError("n must be at least 50")
        if self.L < 0 or self.sigma <= 0 or not 0 <= self.rho <= 1:
            raise IvcheckError("need L >= 0, sigma > 0, rho in [0, 1]")
        return self

    _replace = _checked_replace

    def label(self) -> str:
        design = DESIGNS[self.family]
        if design.deviation is Deviation.POWER:
            extra = f",L={self.L},sigma={self.sigma}"
        elif design.deviation is Deviation.HETERO:
            extra = f",rho={self.rho}"
        else:
            extra = f",lam={self.lam}" if design.form is ModelForm.BOXCOX else ""
        return f"{self.family.value}(n={self.n}{extra})"


def generate(spec: DgpSpec, rng) -> Dataset:
    """Draw one dataset from the family; deterministic given the RNG spec.

    c is the instrument of the IV designs and the regressor of the others;
    y = 2 f(x) + u. `rng` is a RngSpec, or a sequence of them that draws a
    stacked Dataset whose slice i is generate(spec, rng[i]) bit for bit.
    """
    stacked = not isinstance(rng, RngSpec)
    gens = [r.generator() for r in (rng if stacked else [rng])]
    n = spec.n
    design = DESIGNS[spec.family]
    boxcox = design.form is ModelForm.BOXCOX
    chol = CHOL_SIZE if design.deviation is Deviation.NONE else CHOL_POWER
    # each slice draws c, then its errors (u, or u and v), from its own generator
    c = np.empty((len(gens), n))
    errors = np.empty((len(gens), n, 2 if design.instrumented else 1))
    for gen, c_i, e_i in zip(gens, c, errors):
        c_i[:] = gen.uniform(0.0, 10.0, n) if boxcox else gen.uniform(-3.0, 3.0, n)
        if design.instrumented:
            e_i[:] = gen.standard_normal((n, 2)) @ chol.T
        else:
            e_i[:] = gen.standard_normal((n, 1))
    if boxcox:
        c[c == 0.0] = 10.0  # support is the half-open interval (0, 10]
    u = errors[..., 0]
    if design.instrumented:
        v = errors[..., 1]
        x = 2.0 * c + np.maximum(v, 0.0) if boxcox else 3.0 * c + v
    else:
        x = c
    if design.deviation is Deviation.POWER:
        # symmetric truncation keeps the mean at zero
        pdf = np.exp(-((c / spec.sigma) ** 2) / 2.0) / np.sqrt(2 * np.pi)  # N(0, 1) density
        u = spec.L / spec.sigma * pdf + np.clip(u, -3.0, 3.0)
    elif design.deviation is Deviation.HETERO:
        u = u * np.sqrt(1.0 + spec.rho / 9.0 * c**2)
    y = 2.0 * (boxcox_transform(x, spec.lam) if boxcox else x) + u
    if stacked:
        return Dataset(y=y, x=x[..., None], z=c[..., None])
    return Dataset(y=y[0], x=x[0], z=c[0])


def model_spec_for(spec: DgpSpec) -> ModelSpec:
    """The model specification each family is tested under."""
    design = DESIGNS[spec.family]
    return ModelSpec(
        form=design.form,
        conditioning=Conditioning.ON_Z if design.instrumented else Conditioning.ON_X,
        homoskedastic=design.deviation is Deviation.HETERO,
    )


class Method(Enum):
    CMI = "cmi"
    SARGAN = "sargan"
    HANSEN_J = "hansen-j"


class CellResult(NamedTuple):
    dgp: str
    method: str
    alpha: float
    rejection_rate: float
    replications: int
    mc_se: float
    failures: int = 0


class StudyResult(NamedTuple):
    """A study's cells, its runtime and `config`, run_study's settings and counts."""

    cells: tuple  # of CellResult
    runtime_seconds: float
    config: dict

    def rate(self, dgp_label: str, method: str, alpha: float) -> float:
        for cell in self.cells:
            if cell.dgp == dgp_label and cell.method == method and abs(cell.alpha - alpha) < 1e-12:
                return cell.rejection_rate
        raise KeyError((dgp_label, method, alpha))

    def to_rows(self):
        return [c._asdict() for c in self.cells]


def chunk_size(n: int) -> int:
    """Replications of n rows that run_study puts through one stacked pass."""
    return max(1, CHUNK_ROWS // n)


def _chunks(reps: int, size: int):
    """range(reps) cut into consecutive ranges of `size`, the last one shorter."""
    return [range(start, min(start + size, reps)) for start in range(0, reps, size)]


def _chunk(args) -> tuple[list, bool]:
    """(the decisions of replications `reps` of one spec, {method: {alpha: reject} or None}
    each, whether their stacked pass raised).

    They run as one stack (`_stacked`). If that raises an IvcheckError, they
    are run again one at a time, where a failing method gives None for its
    replication only, as a replication run alone would. The warnings of the
    stacked pass are held back, and shown only if it succeeds, so either way
    each replication's warnings are shown once.
    """
    spec, methods, cfg, rng, reps = args
    subs = [rng.substream(rep) for rep in reps]
    if len(subs) > 1:
        try:
            with warnings.catch_warnings(record=True) as caught:
                out = _stacked(spec, methods, cfg, subs)
        except IvcheckError:
            pass
        else:
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
            return out, False
    return [row for sub in subs for row in _stacked(spec, methods, cfg, [sub])], len(subs) > 1


def _stacked(spec, methods, cfg, subs) -> list:
    """One pass of generate and each method over the stack of replications drawn from `subs`.

    A method's IvcheckError re-raises for several replications, else it decides None.
    """
    data = generate(spec, subs)
    decided = []
    for method in methods:
        try:
            if method is Method.CMI:
                reports = test_model(data, model_spec_for(spec), cfg,
                                     [sub.substream(7919) for sub in subs])
                decided.append([{a: r.reject(a) for a in cfg.alpha_levels} for r in reports])
            else:
                reports = (sargan if method is Method.SARGAN else hansen_j)(data)
                decided.append([{a: r.p_value < a for a in cfg.alpha_levels} for r in reports])
        except IvcheckError:
            if len(subs) > 1:
                raise
            decided.append([None] * len(subs))
    return [{m.value: d for m, d in zip(methods, row)} for row in zip(*decided)]


@functools.cache
def _openblas_setter():
    """(library, symbol) of the thread-count setter of the OpenBLAS numpy loaded, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        # a vendored build prefixes its symbols as its file name: lib<vendor>openblas64_-<hash>.so
        vendor = lib.name.removeprefix("lib").split("openblas")[0]
        for name in (
            f"{vendor}openblas_set_num_threads64_",
            "openblas_set_num_threads64_",
            "openblas_set_num_threads",
        ):
            if hasattr(handle, name):
                return str(lib), name
    return None


def _pin_blas(lib: str, name: str):
    """Worker initializer: one BLAS thread, so `jobs` workers share the cores without contention."""
    setter = getattr(ctypes.CDLL(lib), name)
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(1)


_pool = None  # (jobs, executor): the one live worker pool of this process, see _worker_pool


def _worker_pool(jobs: int) -> ProcessPoolExecutor:
    """The process's pool of `jobs` BLAS-pinned workers, forked on first use and then reused.

    A pool of another size, or one that a dead worker broke, is shut down and
    replaced first. The executor is imported here, not at module level, because
    it loads multiprocessing: a jobs=1 study never does.
    """
    global _pool
    from concurrent.futures import ProcessPoolExecutor

    if _pool is not None:
        held, pool = _pool
        # The executor marks itself broken only once its manager thread notices a
        # dead worker, so ask the workers first; that thread reaps a worker only
        # after marking the pool, so reading the mark second misses no death.
        alive = all(p.is_alive() for p in pool._processes.values())
        if held != jobs or not alive or pool._broken:
            _drop_pool()
    if _pool is None:
        setter = _openblas_setter()
        pinning = {"initializer": _pin_blas, "initargs": setter} if setter else {}
        _pool = (jobs, ProcessPoolExecutor(max_workers=jobs, **pinning))
    return _pool[1]


def _drop_pool():
    """Shut the live pool down and wait for its threads, so none is alive at the next fork.

    A no-op without a live pool. Also run at exit, before module teardown: the
    executor's weakref callback reads multiprocessing, which is imported after
    this module and so is torn down before it.
    """
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        # A killed worker may die holding the call queue's read lock; the others would then
        # never read their shutdown sentinel, and shutdown would wait for them forever.
        for process in pool._processes.values():
            process.terminate()
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(_drop_pool)


def run_study(
    specs,
    methods=(Method.CMI,),
    reps: int = 200,
    cfg: TestConfig = TestConfig(),
    rng: RngSpec = RngSpec(),
    jobs: int = 1,
) -> StudyResult:
    """Replicate generate -> test over every (spec, method, alpha) cell.

    Results depend only on (specs, reps, cfg, rng), never on the worker count:
    per-replication RNG substreams are derived from the replication index.
    Each spec's replications run in chunks of `chunk_size(n)`, a number fixed
    by n alone, each chunk one stacked pass (`_chunk`) whose decisions
    equal those of its replications run one at a time, bit for bit.
    `config["unstacked_chunks"]` counts the chunks whose stacked pass raised,
    so that their replications ran one at a time.
    With jobs > 1 every chunk runs in one process pool whose
    workers use a single BLAS thread; the calling process keeps its own.
    The workers are forked on first use and kept for the life of the process:
    later run_study and power_curve calls reuse them, and a call with another
    `jobs` replaces them. They run the code as it was when they were forked,
    so a function monkeypatched later is not seen by them.
    """
    if reps < 1:
        raise IvcheckError("reps must be >= 1")
    if jobs < 1:
        raise IvcheckError("jobs must be >= 1")
    if isinstance(specs, DgpSpec):
        raise IvcheckError(f"run_study takes a sequence of DgpSpec, got one: {specs!r}")
    started = time.perf_counter()
    specs = list(specs)
    methods = list(methods)
    tasks = [
        (spec, methods, cfg, rng.substream(1_000 + si), chunk)
        for si, spec in enumerate(specs)
        for chunk in _chunks(reps, chunk_size(spec.n))
    ]
    if jobs > 1:
        pool = _worker_pool(jobs)
        chunksize = max(1, len(tasks) // (4 * jobs))
        try:
            chunks = list(pool.map(_chunk, tasks, chunksize=chunksize))
        except BaseException:
            _drop_pool()
            raise
    else:
        chunks = list(map(_chunk, tasks))
    raw = [row for rows, _ in chunks for row in rows]
    cells = []
    for si, spec in enumerate(specs):
        spec_raw = raw[si * reps : (si + 1) * reps]
        for method in methods:
            results = [r[method.value] for r in spec_raw]
            failures = sum(r is None for r in results)
            good = [r for r in results if r is not None]
            for alpha in cfg.alpha_levels:
                k = len(good)
                rate = float(np.mean([r[alpha] for r in good])) if k else float("nan")
                se = float(np.sqrt(rate * (1.0 - rate) / k)) if k else float("nan")
                cells.append(
                    CellResult(
                        dgp=spec.label(),
                        method=method.value,
                        alpha=alpha,
                        rejection_rate=rate,
                        replications=k,
                        mc_se=se,
                        failures=failures,
                    )
                )
    return StudyResult(
        cells=tuple(cells),
        runtime_seconds=time.perf_counter() - started,
        config={
            "reps": reps,
            "seed": rng.seed,
            "stream": rng.stream,
            "alpha_levels": list(cfg.alpha_levels),
            "method": cfg.method,
            "mult_draws": cfg.mult_draws,
            "jobs": jobs,
            "worker_blas_threads": 1 if jobs > 1 and _openblas_setter() else None,
            "unstacked_chunks": sum(raised for _, raised in chunks),
        },
    )


def power_curve(
    family_spec: DgpSpec,
    n_list,
    methods=(Method.CMI, Method.SARGAN),
    reps: int = 100,
    cfg: TestConfig = TestConfig(),
    rng: RngSpec = RngSpec(),
    jobs: int = 1,
):
    """Rejection rate vs sample size; returns (n, method, alpha, rate, mc_se) rows."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise IvcheckError("n_list must be strictly increasing")
    rows = []
    for n in n_list:
        spec = family_spec._replace(n=n)
        result = run_study([spec], methods, reps, cfg, rng.substream(n), jobs)
        for cell in result.cells:
            rows.append(
                {
                    "n": n,
                    "method": cell.method,
                    "alpha": cell.alpha,
                    "rate": cell.rejection_rate,
                    "mc_se": cell.mc_se,
                }
            )
    return rows
