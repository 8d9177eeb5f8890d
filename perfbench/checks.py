"""Output checks for each ``qmodes`` scenario the benchmark runs.

Each check yields a deviation and a tolerance.  A reference value is given
as the string it has in the project's reference list, and its tolerance is
one unit in that string's last digit: the written report rounds scalars to
six significant figures, and the references are quoted to fewer.  A check
whose tolerance is ``None`` only records its deviation, for known defects
that have no agreed tolerance; it never fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

# Round-off level for quantities summed over n <= 4096 samples (about n * eps).
ROUND_OFF = 1e-12


@dataclass(frozen=True)
class Check:
    name: str
    deviation: float
    tolerance: float | None

    @property
    def ok(self) -> bool:
        # NaN compares false, so a NaN deviation fails
        return self.tolerance is None or self.deviation <= self.tolerance


def near(name: str, value, reference: str) -> Check:
    """``value`` agrees with ``reference`` to its last quoted digit."""
    unit = 10.0 ** Decimal(reference).as_tuple().exponent
    return Check(name, abs(float(value) - float(reference)), unit)


def within(name: str, values, lo: float, hi: float) -> Check:
    """Every value lies in [lo, hi], up to round-off."""
    values = [float(v) for v in values]
    excess = max(max(lo - v, v - hi, 0.0) for v in values)
    return Check(name, excess, ROUND_OFF)


def _column(out_dir: Path, stem: str, column: str) -> list[float]:
    data = json.loads((out_dir / f"{stem}.json").read_text(encoding="utf-8"))
    k = data["columns"].index(column)
    return [row[k] for row in data["rows"]]


def _slits(s: dict, p: dict, out_dir: Path):
    yield near("momentum_integral", s["momentum_integral"], "1.00000")
    yield near("coordinate_integral", s["coordinate_integral"], "1.00000")


def _fig2(s: dict, p: dict, out_dir: Path):
    yield near("visibility_bias", s["visibility"], f"{s['fringe_modulation']:.5e}")
    yield near("marginal_integral", s["marginal_integral"], "1.00000")


def _fig3(s: dict, p: dict, out_dir: Path):
    yield near("lambda0", s["lambda0"], "0.803265")
    yield Check("analytic_numeric_gap", s["analytic_numeric_gap"], ROUND_OFF)


def _fig5(s: dict, p: dict, out_dir: Path):
    yield near("schmidt_number", s["schmidt_number"], "3.10427")


def _fig4(s: dict, p: dict, out_dir: Path):
    prefix = "schmidt_number_b_"
    keys = sorted((k for k in s if k.startswith(prefix)), key=lambda k: float(k[len(prefix):]))
    ks = [s[k] for k in keys]
    yield near("schmidt_number_b_0", s["schmidt_number_b_0"], "1.00000")
    yield Check("schmidt_number_decrease_in_b", max(max(a - b for a, b in zip(ks, ks[1:])), 0.0), 0.0)
    yield Check("schmidt_number_above_m", max(max(ks) - p["m"], 0.0), 0.0)


def _ammonia(s: dict, p: dict, out_dir: Path):
    for isotope, reference in (("NH3", "24.0"), ("ND3", "1.50"), ("NT3", "0.278")):
        yield near(f"frequency_ghz_{isotope}", s[f"frequency_ghz_{isotope}"], reference)
    # the finite-difference spectrum of the fitted well disagrees with the
    # two-level splitting; recorded, not gated
    yield Check("fd_over_two_level_NH3", s["fd_frequency_ghz_NH3"] / s["frequency_ghz_NH3"], None)


def _fig10(s: dict, p: dict, out_dir: Path):
    yield near("schmidt_number_g0_0", s["schmidt_number_g0_0"], "1.00000")
    # a two-qubit state has 1 <= K <= 2 by construction: a sanity check only
    yield within("sanity_schmidt_number_range", _column(out_dir, "fig10_sweep", "schmidt_number"), 1.0, 2.0)


def _coherence(s: dict, p: dict, out_dir: Path):
    # No reference value: lambda0 + lambda1 = 1 and 1 <= K <= 2 hold by
    # construction.  The estimator's bias is recorded, not gated.
    yield Check("max_coupling_gap", s["max_coupling_gap"], None)
    yield Check("visibility_bias", abs(s["visibility"] - math.cos(2.0 * s["phi"])), None)


def _fig6(s: dict, p: dict, out_dir: Path):
    yield near("visibility_y_0", s["visibility_y_0"], "1.00000")
    yield near("schmidt_number_y_0", s["schmidt_number_y_0"], "1.00000")
    yield near("schmidt_number_y_0.25", s["schmidt_number_y_0.25"], "2.00000")


def _fig7(s: dict, p: dict, out_dir: Path):
    yield near("schmidt_number_y0", s["schmidt_number_y0"], "1.00000")
    yield near("schmidt_number_y025", s["schmidt_number_y025"], "2.00000")


def _tomography(s: dict, p: dict, out_dir: Path):
    yield near("pure_k_max", s["pure_k_max"], "1.00000")
    yield near("scan_purity_min", s["scan_purity_min"], "0.500000")
    yield near("scan_purity_max", s["scan_purity_max"], "1.00000")


SCENARIO_CHECKS = {
    "fig1": _slits,
    "slits": _slits,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "ammonia": _ammonia,
    "fig10": _fig10,
    "coherence": _coherence,
    "fig6-data": _fig6,
    "fig7": _fig7,
    "tomography-demo": _tomography,
}


def evaluate(scenario: str, out_dir: Path) -> list[Check]:
    """Checks of the report and data files one invocation wrote to ``out_dir``.

    A missing file or scalar is a failed check, not an exception.
    """
    try:
        report = json.loads((out_dir / f"{scenario}_report.json").read_text(encoding="utf-8"))
        missing = sum(not (out_dir / f).is_file() for f in report["files"])
        checks = [Check("report_files_missing", float(missing), 0.0)]
        checks += list(SCENARIO_CHECKS[scenario](report["scalars"], report["parameters"], out_dir))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [Check(f"readable ({type(exc).__name__}: {exc})", math.inf, 0.0)]
    return [Check(f"{scenario}.{c.name}", c.deviation, c.tolerance) for c in checks]
