"""The CLI request mix and the checks on each request's output.

Standard library only (replay.py imports it before timing `import
ivcheck`).
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass

ALPHAS = (0.10, 0.05, 0.01)  # TestConfig's default levels; the CLI decides at 0.05
MTE_X, MTE_X_PRIME, ASF_X = 1.0, -1.0, 0.0
Y_BOUNDS = (-100.0, 100.0)  # only used when the rank support at ASF_X is partial
THETA_LO, THETA_HI, THETA_COUNT = 1.8, 2.2, 41
MTE_POINTS = 9  # `ivcheck mte` estimates the MTE at p = 0.1, 0.2, ..., 0.9
NUMBER = r"[-+]?(?:[0-9.]+(?:e[-+]?[0-9]+)?|nan|inf)"


@dataclass(frozen=True)
class Request:
    name: str
    design: str  # which input CSV (see inputs.DESIGNS)
    args: tuple  # subcommand and its options, without the data path
    # "null": decisions are fingerprinted, not checked; "alternative": must exit 2
    kind: str = ""
    # `ivcheck mte --out` raises when it has both MTE and ASF rows (their CSV
    # columns differ), so the mte request is checked on its printed values.
    out: bool = True


# Run in this order, in whole cycles: five light requests, then four heavy ones.
MIX = (
    Request("test-series-null", "null", ("test",), "null"),
    Request("test-series-power", "power", ("test",), "alternative"),
    Request("test-homoskedastic", "hetero",
            ("test", "--conditioning", "x", "--homoskedastic"), "alternative"),
    Request("overid-hansen-j", "null", ("overid", "--statistic", "hansen-j"), "null"),
    Request("fit-iv", "null", ("fit", "--estimator", "iv")),
    Request("test-local-linear", "power", ("test", "--method", "local-linear"), "alternative"),
    Request("test-cell-means", "discrete", ("test", "--method", "cell-means"), "null"),
    Request("mte", "null", ("mte", "--x", str(MTE_X), "--x-prime", str(MTE_X_PRIME),
                            "--asf-x", str(ASF_X), "--y-lower", str(Y_BOUNDS[0]),
                            "--y-upper", str(Y_BOUNDS[1])), out=False),
    Request("identified-set", "null",
            ("identified-set", "--theta-lo", str(THETA_LO), "--theta-hi", str(THETA_HI),
             "--theta-count", str(THETA_COUNT)), "null"),
)
BY_NAME = {r.name: r for r in MIX}


def cli_argv(req: Request, data_path, seed: int, out_path) -> list:
    """Arguments after `python -m ivcheck.cli`."""
    out = ["--out", str(out_path)] if req.out else []
    return [req.args[0], str(data_path), "--x-cols", "x", "--z-cols", "z", *req.args[1:],
            "--seed", str(seed), *out]


def _finite_numbers(rows, problems):
    for row in rows:
        for key, value in row.items():
            try:
                number = float(value)
            except ValueError:
                continue  # text columns such as `method`, or empty optional fields
            if not math.isfinite(number):
                problems.append(f"non-finite {key}={value!r}")


def _mte_problems(stdout: str) -> list:
    """The printed estimates of `ivcheck mte`: every MTE point and the ASF, all finite."""
    problems = []
    mte = re.findall(rf"^  MTE\(p=[0-9.]+;[^)]*\) = ({NUMBER})$", stdout, re.M)
    asf = re.findall(rf"^  ASF\([^)]*\) (?:= ({NUMBER})|in \[({NUMBER}), ({NUMBER})\]) ",
                     stdout, re.M)
    if len(mte) != MTE_POINTS:
        problems.append(f"{len(mte)} MTE estimates printed, not {MTE_POINTS}")
    if len(asf) != 1:
        problems.append(f"{len(asf)} ASF lines printed, not 1")
    _finite_numbers([{"printed": v} for v in mte + [v for m in asf for v in m if v]], problems)
    return problems


def check(req: Request, returncode: int, stdout: str, stderr: str, out_path):
    """(problems, decisions) for one CLI request.

    `decisions` is a 0/1 string of the request's test decisions, in a fixed
    order, for requests on null data; it is empty for the others.
    """
    problems = []
    if returncode not in (0, 2):
        problems.append(f"exit code {returncode}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if req.kind == "alternative" and returncode != 2:
        problems.append(f"strong alternative not rejected at 0.05 (exit {returncode})")
    if req.args[0] == "mte":
        problems += _mte_problems(stdout)
        return problems, ""
    try:
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        rows = []
    if not rows:
        problems.append("no rows in --out")
        return problems, ""
    _finite_numbers(rows, problems)
    sub = req.args[0]
    decisions = ""
    if sub == "test":
        for row in rows:
            reject, theta = int(row["reject"]), float(row["theta_corrected"])
            if reject != int(theta > 0):
                problems.append(f"reject={reject} but theta_corrected={theta}")
            if int(row["selected_set_size"]) < 1:
                problems.append("empty selected set")
        at_05 = [int(r["reject"]) for r in rows if float(r["alpha"]) == 0.05]
        if at_05 != [int(returncode == 2)]:
            problems.append("exit code disagrees with the 0.05 decision")
        decisions = "".join(r["reject"] for r in rows)
    elif sub == "overid":
        p = float(rows[0]["p_value"])
        if not 0.0 <= p <= 1.0 or float(rows[0]["statistic"]) < 0:
            problems.append(f"p-value {p} or statistic out of range")
        decisions = "".join(str(int(p < a)) for a in ALPHAS)
    elif sub == "fit":
        if any(float(r["std_error"]) <= 0 for r in rows):
            problems.append("non-positive standard error")
    elif sub == "identified-set":
        thetas = [float(r["theta"]) for r in rows]
        if len(thetas) != THETA_COUNT or min(thetas) < THETA_LO or max(thetas) > THETA_HI:
            problems.append("theta grid outside [theta_lo, theta_hi]")
        match = re.search(r"\[([-+0-9.e]+), ([-+0-9.e]+)\]", stdout)
        if match and not THETA_LO <= float(match[1]) <= float(match[2]) <= THETA_HI:
            problems.append(f"identified set {match[0]} outside [{THETA_LO}, {THETA_HI}]")
        decisions = "".join(r["accepted"] for r in rows)
    return problems, decisions


def fingerprint(decisions: dict) -> str:
    """Short digest of {key: decisions}, stable across runs of the same code."""
    text = "|".join(f"{k}:{decisions[k]}" for k in sorted(decisions))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def changed(decisions: dict, stored: dict | None):
    """How many decisions differ from the stored ones (None if none are stored).

    Values are digit strings: 0/1 decisions, or rejection counts of Monte
    Carlo cells, where a count that moved by k counts as k changed decisions.
    Keys present on one side only are skipped, so a run that did more
    operations than the stored one is compared on the operations both have.
    """
    if stored is None:
        return None
    count = 0
    for key in set(decisions) & set(stored):
        a, b = decisions[key], stored[key]
        count += sum(abs(int(x) - int(y)) for x, y in zip(a, b)) + abs(len(a) - len(b))
    return count
