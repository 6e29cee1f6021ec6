"""Closed-form cost formulas of Table 2 (and Appendices A/B).

Every cell of Table 2 — {matrix powers / sums, general form} x {REEVAL,
INCR, HYBRID} x {linear, exponential, skip-s} — is exposed as a Python
function of the problem dimensions.  The Table 2 benchmark fits measured
FLOP counts against these formulas (growth-rate agreement), and the
space formulas back the Table 3 memory experiment.

``gamma`` is the matrix-multiplication exponent; the executor's kernel
is classical, so empirical checks use ``gamma = 3``.  Formulas return
*leading-order operation counts* (constants from the appendix sums where
the paper gives them), not exact FLOPs — tests compare growth, not
absolute values.
"""

from __future__ import annotations

from math import log2


def _check(n: int, k: int, s: int | None = None) -> None:
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    if s is not None and (s < 1 or k % s != 0):
        raise ValueError(f"need s >= 1 and s | k, got s={s}, k={k}")


# --------------------------------------------------------------------------
# Matrix powers / sums of powers (Table 2 left half)
# --------------------------------------------------------------------------

def powers_reeval_time(n: int, k: int, model: str, s: int | None = None,
                       gamma: float = 3.0) -> float:
    """REEVAL time for ``A^k``: one ``O(n^gamma)`` product per step."""
    _check(n, k, s)
    if model == "linear":
        return n**gamma * k
    if model == "exponential":
        return n**gamma * max(log2(k), 1.0)
    if model == "skip":
        assert s is not None
        return n**gamma * (max(log2(s), 1.0) + k / s)
    raise ValueError(f"unknown model {model!r}")


def powers_incr_time(n: int, k: int, model: str, s: int | None = None) -> float:
    """INCR time for ``A^k`` (Appendix A): no ``n^gamma`` term survives."""
    _check(n, k, s)
    if model == "linear":
        return float(n * n * k * k)
    if model == "exponential":
        return float(n * n * k)
    if model == "skip":
        assert s is not None
        return float(n * n * k * k / s)
    raise ValueError(f"unknown model {model!r}")


def powers_reeval_space(n: int, k: int, model: str, s: int | None = None) -> float:
    """REEVAL space: ``O(n^2)`` regardless of model."""
    _check(n, k, s)
    return float(n * n)


def powers_incr_space(n: int, k: int, model: str, s: int | None = None) -> float:
    """INCR space: every scheduled power is materialized."""
    _check(n, k, s)
    if model == "linear":
        return float(n * n * k)
    if model == "exponential":
        return float(n * n * max(log2(k), 1.0))
    if model == "skip":
        assert s is not None
        return float(n * n * (max(log2(s), 1.0) + k / s))
    raise ValueError(f"unknown model {model!r}")


# --------------------------------------------------------------------------
# General form T_{i+1} = A T_i + B (Table 2 right half)
# --------------------------------------------------------------------------

def general_reeval_time(n: int, p: int, k: int, model: str,
                        s: int | None = None, gamma: float = 3.0) -> float:
    """REEVAL time for the general form."""
    _check(n, k, s)
    if model == "linear":
        return float(p * n * n * k)
    if model == "exponential":
        return (n**gamma + p * n * n) * max(log2(k), 1.0)
    if model == "skip":
        assert s is not None
        logs = max(log2(s), 1.0)
        return n**gamma * logs + p * n * n * (logs + k / s)
    raise ValueError(f"unknown model {model!r}")


def general_incr_time(n: int, p: int, k: int, model: str,
                      s: int | None = None) -> float:
    """INCR time for the general form (Appendix B)."""
    _check(n, k, s)
    if model == "linear":
        return float((n * n + p * n) * k * k)
    if model == "exponential":
        return float((n * n + p * n) * k)
    if model == "skip":
        assert s is not None
        return float((n * n + n * p) * k * k / s)
    raise ValueError(f"unknown model {model!r}")


def general_hybrid_time(n: int, p: int, k: int, model: str,
                        s: int | None = None) -> float:
    """HYBRID time for the general form (Appendix B)."""
    _check(n, k, s)
    if model == "linear":
        return float(p * n * n * k)
    if model == "exponential":
        return float(p * n * n * max(log2(k), 1.0) + n * n * k)
    if model == "skip":
        assert s is not None
        return float(p * n * n * (max(log2(s), 1.0) + k / s) + n * n * s)
    raise ValueError(f"unknown model {model!r}")


def general_reeval_space(n: int, p: int, k: int, model: str,
                         s: int | None = None) -> float:
    """REEVAL space: current iterate plus inputs (model-independent)."""
    _check(n, k, s)
    return float(n * n + n * p)


def general_incr_space(n: int, p: int, k: int, model: str,
                       s: int | None = None) -> float:
    """INCR space: all iterates plus P/S views along the schedule."""
    _check(n, k, s)
    if model == "linear":
        return float(n * n + k * n * p)
    if model == "exponential":
        return float((n * n + n * p) * max(log2(k), 1.0))
    if model == "skip":
        assert s is not None
        return float((n * n + n * p) * max(log2(s), 1.0) + n * p * k / s)
    raise ValueError(f"unknown model {model!r}")


def general_hybrid_space(n: int, p: int, k: int, model: str,
                         s: int | None = None) -> float:
    """HYBRID space: same asymptotics as INCR (Table 2 bottom-right)."""
    return general_incr_space(n, p, k, model, s)


def fitted_exponent(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    Used by the Table 2 benchmark to check measured-cost growth rates
    against the formulas (e.g. REEVAL powers grow ~n^3, INCR ~n^2).
    """
    from math import log

    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two or more paired observations")
    lx = [log(x) for x in xs]
    ly = [log(y) for y in ys]
    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    den = sum((a - mean_x) ** 2 for a in lx)
    return num / den
