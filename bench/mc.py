"""The Monte Carlo study of the mc-* workloads and its rejection-rate bands."""

from __future__ import annotations

import math

N = 1000
REPS_PER_CALL = 6  # replications per family per run_study call; at most 9 (one digit)
ALPHA = 0.05
FAMILIES = (
    ("linear-iv-null", {}),
    ("linear-iv-power", {"L": 0.5, "sigma": 0.25}),
    ("boxcox-iv-null", {"lam": 0.5}),
    ("hetero-power", {"rho": 1.0}),
)
METHODS = ("cmi", "sargan")
NULL_FAMILIES = ("linear-iv-null", "boxcox-iv-null")

# Rejection rates at ALPHA on the seed commit: run_study over these families,
# 500 replications each, RngSpec(seed=12345), n = 1000.
REFERENCE = {
    ("linear-iv-null", "cmi"): 0.074, ("linear-iv-null", "sargan"): 0.048,
    ("linear-iv-power", "cmi"): 1.000, ("linear-iv-power", "sargan"): 0.722,
    ("boxcox-iv-null", "cmi"): 0.030, ("boxcox-iv-null", "sargan"): 1.000,
    ("hetero-power", "cmi"): 0.982, ("hetero-power", "sargan"): 0.068,
}
REFERENCE_REPS = 500
# Power and heteroskedasticity cmi must stay high whatever the band says.
FLOORS = {("linear-iv-power", "cmi"): 0.90, ("hetero-power", "cmi"): 0.85}


def specs():
    from ivcheck.simulate import DgpFamily, DgpSpec

    return [DgpSpec(family=DgpFamily(name), n=N, **kw) for name, kw in FAMILIES]


def methods():
    from ivcheck.simulate import Method

    return [Method(m) for m in METHODS]


def band(ref: float, reps: int):
    """[lo, hi] for a pooled rate over `reps` replications.

    Three binomial standard errors of the pooled rate plus three of the
    reference, with the variance taken at a rate no closer to 0 or 1 than
    0.05, so the band is never tighter than 3 SE.
    """
    q = min(max(ref, 0.05), 0.95)
    half = 3.0 * math.sqrt(q * (1 - q) / reps) + 3.0 * math.sqrt(q * (1 - q) / REFERENCE_REPS)
    return max(0.0, ref - half), min(1.0, ref + half)


def tally(result, counts: dict) -> int:
    """Add one StudyResult's rejections at ALPHA to counts[(family, method)] = [rejected, reps].

    Returns the failed replications of the study (CellResult.failures).
    """
    failed = 0
    for cell in result.cells:
        if abs(cell.alpha - ALPHA) > 1e-12:
            continue
        key = (cell.dgp.split("(")[0], cell.method)
        acc = counts.setdefault(key, [0, 0])
        acc[0] += round(cell.rejection_rate * cell.replications)
        acc[1] += cell.replications
        failed += cell.failures
    return failed


def band_problems(counts: dict) -> list:
    problems = []
    for key, (rejected, reps) in sorted(counts.items()):
        rate = rejected / reps
        lo, hi = band(REFERENCE[key], reps)
        lo = max(lo, FLOORS.get(key, 0.0))
        if not lo <= rate <= hi:
            problems.append(f"{key[0]} {key[1]}: rate {rate:.3f} outside [{lo:.3f}, {hi:.3f}]"
                            f" over {reps} reps")
    return problems


def null_decisions(result) -> str:
    """Rejection counts of the null families' cells, one digit per cell in result order."""
    return "".join(str(round(cell.rejection_rate * cell.replications))
                   for cell in result.cells if cell.dgp.split("(")[0] in NULL_FAMILIES)
