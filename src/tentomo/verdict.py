"""Worst-case aggregation and the check record that every report row is."""

import math


def worst(values):
    """Largest value; NaN if any value is NaN, and NaN for no values, so a
    check that sampled nothing fails.

    ``max`` keeps its candidate when a comparison is false, as every
    comparison with NaN is, so ``max(0.0, nan)`` drops the NaN.
    """
    out = None
    for v in values:
        if v != v:
            return math.nan
        if out is None or v > out:
            out = v
    return math.nan if out is None else out


def check_row(name, value, tolerance, parameters=None, mode="below", seconds=0.0):
    """One report row; ``mode="above"`` marks a negative control, which
    passes when the value exceeds the tolerance.  A value that is not finite
    (NaN, inf or -inf) fails either way: an overflow shows nothing.  Any
    other mode raises ``ValueError``, so a misspelt one cannot turn a
    residual row into a control."""
    if mode not in ("below", "above"):
        raise ValueError(f"check mode must be 'below' or 'above', not {mode!r}")
    ok = value <= tolerance if mode == "below" else value > tolerance
    return {"name": name, "parameters": parameters or {},
            "value": float(value), "tolerance": float(tolerance),
            "pass": bool(ok) and math.isfinite(value), "seconds": seconds}
