"""Correctness checks on the outputs of one benchmark pass.

Every check compares against an independent computation (the reference
implementations in ``tests/oracles.py``, or a closed form) or against a
property the method guarantees. None compares against a stored copy of
earlier output. A check that fails raises :class:`CheckFailed` carrying its
own name; :func:`collect` runs a list of checks and returns the failures.

The functions here take plain values (CSV rows as dicts of strings, numbers,
reference values), so the tests in ``test_checks.py`` can feed them
corrupted inputs without running the program.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Relative rounding of a value the CLI writes with 9 significant digits.
CSV_RTOL = 1e-8
ORACLE_RTOL = 1e-6          # stats moments against the adaptive oracles
DENSITY_TOL = 1e-4          # pdt normalisation, exceedance against density
LOSS_TOL_DB = 1e-6          # sweep mean loss against the oracle mean_eta
SQUEEZING_TOL_DB = 1e-6
ZERO_RATE_BAND_DB = (42.0, 48.0)
MIN_PEAK_IMPROVEMENT = 0.1
TRACKING_THRESHOLDS = (0.90, 0.93, 0.95)
# Pointwise tolerance stated by turbchan.kernels.gamma2.gamma2: relative
# where the intensity is appreciable, with an absolute floor as a fraction
# of the undamped on-axis value k^2 w0^2 / (2 pi L^2).
GAMMA2_RTOL = 5e-4
GAMMA2_ATOL_FRAC = 2e-4
GAMMA4_VACUUM_RTOL = 1e-12
GAMMA4_EXCESS_SE = 3.0
GAMMA4_SWAP_SE = 4.0


class CheckFailed(AssertionError):
    """A named correctness check did not hold."""

    def __init__(self, name: str, detail: str):
        super().__init__("%s: %s" % (name, detail))
        self.name = name


def require(ok: bool, name: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(name, detail)


def collect(checks) -> list:
    """Run zero-argument callables; return the CheckFailed of each failure."""
    failures = []
    for check in checks:
        try:
            check()
        except CheckFailed as exc:
            failures.append(exc)
    return failures


def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def column(rows, name) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def _rel(got, want):
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# fig2 tables
# ---------------------------------------------------------------------------

def check_stats(rows, ref) -> None:
    """ref: oracle mean_eta, sigma_bw2, wst2 and the Rytov closed form."""
    require(len(rows) == 1, "stats.rows", "%d rows, want 1" % len(rows))
    row = rows[0]
    for key in ("mean_eta", "sigma_bw2", "wst2"):
        err = _rel(float(row[key]), ref[key])
        require(err <= ORACLE_RTOL, "stats.%s" % key,
                "relative error %.3g against the oracle" % err)
    err = _rel(float(row["rytov"]), ref["rytov"])
    require(err <= ORACLE_RTOL, "stats.rytov",
            "relative error %.3g against 1.23 Cn2 k^(7/6) L^(11/6)" % err)
    m1, m2 = float(row["mean_eta"]), float(row["mean_eta2"])
    require(m1 * m1 * (1.0 - 2 * CSV_RTOL) <= m2 <= m1 * (1.0 + CSV_RTOL),
            "stats.moment_order",
            "mean_eta2 %.9g outside [mean_eta^2, mean_eta] = [%.9g, %.9g]"
            % (m2, m1 * m1, m1))


def check_pdt(rows) -> None:
    eta, dens = column(rows, "eta"), column(rows, "density")
    require(bool(np.all(dens >= 0.0)), "pdt.nonnegative",
            "min density %.3g" % float(np.min(dens)))
    norm = float(np.trapezoid(dens, eta))
    require(abs(norm - 1.0) <= DENSITY_TOL, "pdt.normalised",
            "trapezoid integral %.8f" % norm)


def _by_fraction(rows) -> dict:
    groups = {}
    for r in rows:
        groups.setdefault(float(r["fraction"]), []).append(r)
    return dict(sorted(groups.items()))


def _value_at(eta, values, target, name):
    i = int(np.argmin(np.abs(eta - target)))
    require(abs(eta[i] - target) <= 1e-9, name,
            "eta grid has no point at %g" % target)
    return float(values[i])


def check_exceedance(rows) -> None:
    groups = _by_fraction(rows)
    require(len(groups) >= 2, "exceedance.fractions",
            "%d tracking fractions" % len(groups))
    at_thresholds = []
    for frac, grp in groups.items():
        eta, dens, exc = (column(grp, "eta"), column(grp, "density"),
                          column(grp, "exceedance"))
        require(eta[0] == 0.0 and eta[-1] == 1.0 and exc[0] == 1.0
                and exc[-1] == 0.0, "exceedance.endpoints",
                "fraction %g: exceedance %g at eta=%g, %g at eta=%g"
                % (frac, exc[0], eta[0], exc[-1], eta[-1]))
        require(bool(np.all(np.diff(exc) <= 0.0)), "exceedance.monotone",
                "fraction %g: exceedance increases %d times"
                % (frac, int(np.sum(np.diff(exc) > 0.0))))
        steps = 0.5 * (dens[1:] + dens[:-1]) * np.diff(eta)
        from_density = 1.0 - np.concatenate(([0.0], np.cumsum(steps)))
        err = float(np.max(np.abs(exc - from_density)))
        require(err <= DENSITY_TOL, "exceedance.density_match",
                "fraction %g: max |exceedance - (1 - cumtrapz(density))| "
                "%.3g" % (frac, err))
        at_thresholds.append([_value_at(eta, exc, t, "exceedance.grid")
                              for t in TRACKING_THRESHOLDS])
    for j, t in enumerate(TRACKING_THRESHOLDS):
        vals = [v[j] for v in at_thresholds]
        require(all(b > a for a, b in zip(vals, vals[1:])),
                "exceedance.tracking_order",
                "at eta=%g exceedance over fractions %s is %s"
                % (t, list(groups), vals))


def check_squeezing(rows, input_db, squeezing_ref) -> None:
    """squeezing_ref(input_db, mean_eta_ps) is the independent formula."""
    require(len(rows) > 0, "squeezing.rows", "no rows")
    for r in rows:
        out, m, acc = (float(r["squeezing_db"]), float(r["mean_eta_ps"]),
                       float(r["acceptance"]))
        eta_min = float(r["eta_min"])
        want = squeezing_ref(input_db, m)
        require(abs(out - want) <= SQUEEZING_TOL_DB, "squeezing.oracle",
                "fraction %s eta_min %s: %.9g dB, formula gives %.9g dB"
                % (r["fraction"], r["eta_min"], out, want))
        require(input_db < out < 0.0, "squeezing.bounds",
                "%.9g dB not in (%g, 0)" % (out, input_db))
        require(0.0 < acc <= 1.0, "squeezing.acceptance",
                "acceptance %.9g not in (0, 1]" % acc)
        require(m > eta_min, "squeezing.postselected_mean",
                "mean_eta_ps %.9g not above eta_min %g" % (m, eta_min))


def check_qkd(qkd_rows, sweep_rows) -> None:
    require(len(qkd_rows) == 1, "qkd.rows", "%d rows, want 1" % len(qkd_rows))
    row = qkd_rows[0]
    match = [r for r in sweep_rows if r["length_m"] == row["length_m"]]
    require(match == [row], "qkd.matches_sweep",
            "qkd row %s, sweep row at the same length %s" % (row, match))


def check_sweep(rows, loss_ref) -> None:
    """loss_ref(length_m) is the oracle mean loss including extinction."""
    lengths, losses = column(rows, "length_m"), column(rows, "mean_loss_db")
    rates, imps = column(rows, "rate"), column(rows, "improvement")
    families = [r["family"] for r in rows]
    for length, loss in zip(lengths, losses):
        want = loss_ref(float(length))
        require(abs(loss - want) <= LOSS_TOL_DB, "sweep.mean_loss",
                "%g m: %.9g dB, oracle %.9g dB" % (length, loss, want))
    require(bool(np.all(np.diff(rates) <= 0.0)), "sweep.rate_monotone",
            "rate rises with length at %s m"
            % lengths[1:][np.diff(rates) > 0.0].tolist())
    zero = np.flatnonzero(rates == 0.0)
    require(zero.size > 0, "sweep.zero_rate_onset", "rate never reaches 0")
    first = int(zero[0])
    lo, hi = ZERO_RATE_BAND_DB
    require(lo <= losses[first] <= hi and bool(np.all(rates[first:] == 0.0)),
            "sweep.zero_rate_onset",
            "first zero rate at %.4g dB (band [%g, %g]), rates beyond: %s"
            % (losses[first], lo, hi, rates[first:].tolist()))
    peak = int(np.argmax(imps))
    require(imps[peak] > MIN_PEAK_IMPROVEMENT
            and families[peak] == "composite", "sweep.improvement",
            "peak improvement %.4g at %g m, family %s"
            % (imps[peak], lengths[peak], families[peak]))
    outside = [i for i, f in enumerate(families) if f != "composite"]
    require(all(imps[i] == 0.0 for i in outside), "sweep.improvement",
            "non-zero improvement outside the composite window: %s"
            % [(lengths[i], imps[i]) for i in outside if imps[i] != 0.0])


# ---------------------------------------------------------------------------
# fig2-warm
# ---------------------------------------------------------------------------

def check_same_bytes(reference: dict, other: dict, name: str) -> None:
    """Both maps go from CSV file name to its bytes."""
    require(sorted(reference) == sorted(other), name,
            "file sets differ: %s vs %s" % (sorted(reference), sorted(other)))
    differ = [f for f in reference if reference[f] != other[f]]
    require(not differ, name, "bytes differ in %s" % differ)


def check_all_hits(manifests) -> None:
    """Every stats lookup recorded in the run manifests was a cache hit."""
    for m in manifests:
        cache = m["cache"]
        require(cache["enabled"] and cache["misses"] == 0
                and cache["hits"] > 0, "warm.all_hits",
                "table %s: %d hits, %d misses"
                % (m["table"], cache["hits"], cache["misses"]))


def csv_bytes(out_dir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("*.csv"))}


# ---------------------------------------------------------------------------
# correlation maps
# ---------------------------------------------------------------------------

def gamma2_atol(params) -> float:
    return (GAMMA2_ATOL_FRAC * params.k ** 2 * params.w0 ** 2
            / (2.0 * math.pi * params.length ** 2))


def check_gamma2(values, refs, atol, name) -> None:
    """values and refs are arrays of the same shape, in m^-2."""
    values, refs = np.asarray(values), np.asarray(refs)
    excess = np.abs(values - refs) / (GAMMA2_RTOL * np.abs(refs) + atol)
    worst = float(np.max(excess))
    require(worst <= 1.0, name,
            "worst error %.3g times the gamma2 tolerance" % worst)


def vacuum_gamma2(r2, params):
    """2/(pi W^2) exp(-2 r^2 / W^2) with W the vacuum spot radius."""
    w2 = params.w_vac ** 2
    return 2.0 / (math.pi * w2) * np.exp(-2.0 * r2 / w2)


def check_gamma4_vacuum(value, r1, r2, params) -> None:
    want = (vacuum_gamma2(r1[0] ** 2 + r1[1] ** 2, params)
            * vacuum_gamma2(r2[0] ** 2 + r2[1] ** 2, params))
    err = _rel(value, want)
    require(err <= GAMMA4_VACUUM_RTOL, "gamma4.vacuum",
            "relative error %.3g against the product of closed forms" % err)


def check_gamma4_excess(g4, se, g2) -> None:
    """Gamma4(r, r) - Gamma2(r)^2 = Var I(r) > 0 under turbulence."""
    require(g4 - g2 * g2 > GAMMA4_EXCESS_SE * se, "gamma4.excess",
            "Gamma4(r,r) - Gamma2(r)^2 = %.6g, se %.3g" % (g4 - g2 * g2, se))


def check_gamma4_swap(a, se_a, b, se_b) -> None:
    bound = GAMMA4_SWAP_SE * math.hypot(se_a, se_b)
    require(abs(a - b) <= bound, "gamma4.swap",
            "|Gamma4(r1,r2) - Gamma4(r2,r1)| = %.6g > %.6g"
            % (abs(a - b), bound))
