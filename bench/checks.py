"""Correctness checks on the benchmark's outputs.

Each check returns a list of failure messages; an empty list means the
output is correct.  The checks feed the ``failed`` count of a run.
"""

from __future__ import annotations

import json
import math

import env

REFERENCE_PATH = env.ROOT / "bench" / "reference.json"

#: Agreement with the reference within this many combined standard errors.
SIGMAS = 4.0
#: Unit-diagonal trace identity: every spectrum averages to one.
TRACE_TOL = 1e-10
#: Relative slack on the Jensen bound, for rounding in the spectral average.
JENSEN_SLACK = 1e-12


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["moments"]


def check_moment(p: int, value: float, std_error: float, ref: dict | None) -> list[str]:
    """p = 1 is exactly one; higher orders agree with the reference moment."""
    if not (math.isfinite(value) and math.isfinite(std_error)):
        return [f"p={p}: non-finite value {value!r} +- {std_error!r}"]
    if p == 1:
        return [] if value == 1.0 else [f"p=1: value {value!r} is not exactly 1"]
    if ref is None:
        return [f"p={p}: no reference moment"]
    tol = SIGMAS * math.hypot(std_error, ref["std_error"])
    gap = abs(value - ref["value"])
    if gap > tol:
        return [f"p={p}: |{value!r} - ref {ref['value']!r}| = {gap:.3e} > {tol:.3e}"]
    return []


def check_replay(cold: tuple[float, float], warm: tuple[float, float]) -> list[str]:
    """A replay on filled caches returns exactly the cold value and error."""
    if cold != warm:
        return [f"replay returned {warm!r}, cold run gave {cold!r}"]
    return []


def check_trace_identity(eigenvalues) -> list[str]:
    """The Gram matrix has unit diagonal, so its mean eigenvalue is one."""
    mean = float(eigenvalues.mean())
    if not abs(mean - 1.0) <= TRACE_TOL:
        return [f"mean eigenvalue {mean!r} differs from 1 by more than {TRACE_TOL}"]
    return []


def check_mse_rows(rows, mse_equally_spaced) -> list[str]:
    """Empirical MSE rows of one dimension, in rising SNR order.

    Each lies on or above the equally spaced value at the same aspect
    ratio (Jensen, since the spectrum averages to one) and falls strictly
    as the SNR rises.
    """
    failures = []
    for row in rows:
        floor = mse_equally_spaced(row.beta, 10 ** (row.snr_db / 10.0))
        if not (math.isfinite(row.mse) and row.mse >= floor * (1 - JENSEN_SLACK)):
            failures.append(
                f"d={row.d} snr={row.snr_db} dB: mse {row.mse!r} below the "
                f"equally spaced {floor!r}"
            )
    for prev, row in zip(rows, rows[1:]):
        if not row.mse < prev.mse:
            failures.append(
                f"d={row.d}: mse {row.mse!r} at {row.snr_db} dB does not fall "
                f"below {prev.mse!r} at {prev.snr_db} dB"
            )
    return failures
