"""Correctness checks on the program's outputs.

Every check returns a list of failure messages, empty when the output is
right. Checks read outputs only (battery verdict lines, CSV bytes, fitted
rates); no timing field ever feeds one. The runtime suffixes of the battery
lines are stripped before anything is compared or digested.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re

#: the acceptance battery's criteria, each checked on its own
CRITERIA = (
    "optimal-rate-exactness",
    "tightness-case-coverage",
    "contraction-bound-grid",
    "closed-form-evolution",
    "dual-admm-transfer",
    "conjugate-oracle",
    "property-suites",
    "sweep-determinism",
)

#: |fitted rate - bound| allowed at large dim (the battery's own exactness gate)
FIT_TOL = 1e-10

#: sweep-row slack: empirical may exceed theoretical by this, and a tight row's
#: |gap| may reach it (the CLI's TIGHT_GAP)
SWEEP_TOL = 1e-9

SWEEP_HEADER = "alpha,gamma,theoretical,empirical,case,gap,verdict"

_LINE = re.compile(r"^\[(PASS|FAIL)\] ([A-Za-z0-9-]+): (.*)$")
_TIMING = re.compile(r"(; runtime [^;]*)?( \([0-9.]+s\))?$")


def digest(*parts: bytes | str) -> str:
    """SHA-256 over the parts, each length-prefixed so boundaries count."""
    h = hashlib.sha256()
    for part in parts:
        data = part.encode() if isinstance(part, str) else part
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def battery_outcomes(lines: list[str]) -> dict[str, tuple[str, str]]:
    """Criterion name -> (PASS or FAIL, detail with the timing text removed)."""
    out = {}
    for line in lines:
        m = _LINE.match(line.strip())
        if m:
            out[m.group(2)] = (m.group(1), _TIMING.sub("", m.group(3)))
    return out


def check_battery(exit_code: int, lines: list[str]) -> list[str]:
    """One failure per criterion that is missing or not PASS. An exit code
    that disagrees with the lines makes every criterion count as failed."""
    outcomes = battery_outcomes(lines)
    failures = [
        f"{name}: {outcomes[name][0] if name in outcomes else 'missing'}"
        for name in CRITERIA
        if outcomes.get(name, ("missing",))[0] != "PASS"
    ]
    if (exit_code == 0) != (not failures):
        return [f"{name}: exit code {exit_code} disagrees with the verdict lines" for name in CRITERIA]
    return failures


def battery_digest(lines: list[str]) -> str:
    outcomes = battery_outcomes(lines)
    return digest(*(f"{name}|{status}|{detail}" for name, (status, detail) in sorted(outcomes.items())))


def check_sweep_csv(data: bytes, reference: str | None = None) -> list[str]:
    """Checks one sweep CSV.

    With a reference digest the bytes must match it exactly. In every case
    each row with a finite empirical rate must satisfy
    ``empirical <= theoretical + SWEEP_TOL`` and each ``tight`` row must have
    ``|gap| <= SWEEP_TOL``.
    """
    failures = []
    if reference is not None and hashlib.sha256(data).hexdigest() != reference:
        failures.append("CSV bytes differ from the reference digest")
    text = data.decode("utf-8", errors="replace")
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != SWEEP_HEADER:
        return failures + ["CSV header missing or changed"]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    if not rows:
        failures.append("CSV has no rows")
    for row in rows:
        try:
            theoretical = float(row["theoretical"])
            empirical = float(row["empirical"])
            gap = float(row["gap"])
        except (TypeError, ValueError):
            failures.append(f"unparsable row {row!r}")
            continue
        where = f"(alpha={row['alpha']}, gamma={row['gamma']})"
        if math.isfinite(empirical) and not empirical <= theoretical + SWEEP_TOL:
            failures.append(f"empirical {empirical!r} above theoretical {theoretical!r} at {where}")
        if row["verdict"] == "tight" and not abs(gap) <= SWEEP_TOL:
            failures.append(f"tight row with |gap| {abs(gap)!r} at {where}")
    return failures


def check_fit(name: str, fit: float, bound: float) -> list[str]:
    if abs(fit - bound) <= FIT_TOL:
        return []
    return [f"{name}: |fit_rate - bound| = {abs(fit - bound):.3e} > {FIT_TOL:g}"]
