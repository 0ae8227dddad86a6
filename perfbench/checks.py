"""Correctness gate and certificate fingerprints for the benchmark.

Everything here works on the strings a run prints or serializes, with the
benchmark's own decimal contexts, so the checks do not trust the arithmetic
they are checking.
"""

from __future__ import annotations

import decimal
import hashlib
import json
from decimal import Decimal

# Published reference values of the universal constants, the same strings
# as the test suite's prefix oracles.
REFERENCE = {
    "a": "-0.399535280523134489857580468633693719433544280466952727517073",
    "alpha": "-2.50290787509589282228390287321821578638127137672714997733619",
    "delta": "4.66920160910299067185320382046620161725818557747576863274565",
    "gamma": "6.61903651081792804532380890514746660143644298809101198088905",
}

#: digit names each certificate kind proves
CERTIFIED_NAMES = {"fixed_point": ("a", "alpha"), "delta": ("delta",), "gamma": ("gamma",)}


def digit_match_count(text: str, reference: str) -> int:
    """Number of leading significant digits of ``text`` that match ``reference``."""
    def canon(s: str) -> str:
        return s.strip().lstrip("+-").replace(".", "").lstrip("0")
    if text.strip().startswith("-") != reference.strip().startswith("-"):
        return 0
    count = 0
    for x, y in zip(canon(text), canon(reference)):
        if x != y:
            break
        count += 1
    return count


def digits_ok(name: str, text: str, count: int) -> bool:
    """A certified digit string must agree with the reference on all its digits."""
    return count > 0 and digit_match_count(text, REFERENCE[name]) >= count


def _directed(rounding: str, prec: int) -> decimal.Context:
    return decimal.Context(prec=prec, rounding=rounding,
                           Emin=-999999, Emax=999999, traps=[decimal.InvalidOperation])


def contraction_margin(payload: dict) -> tuple[bool, float]:
    """Re-check ``epsilon < rho(1 - kappa)`` from a certificate payload.

    The right side is rounded down and epsilon is taken as printed (an
    upper bound), so a True answer is a proof of the inequality.  Returns
    the verdict and the margin log10(rho(1 - kappa) / epsilon).
    """
    rho, kappa, eps = (Decimal(payload[k]) for k in ("rho", "kappa", "epsilon"))
    prec = 10 + max(len(x.as_tuple().digits) for x in (rho, kappa, eps))
    dn = _directed(decimal.ROUND_FLOOR, prec)
    slack = dn.multiply(rho, dn.subtract(Decimal(1), kappa))
    if slack <= 0:
        return False, float("-inf")
    if eps <= 0:
        return True, float("inf")
    return eps < slack, float(dn.log10(dn.divide(slack, eps)))


def covering_rows_ok(rows, expected: int) -> bool:
    """Every row is an ordered box and the covering has its full row count."""
    if len(rows) != expected:
        return False
    for _, xlo, xhi, ylo, yhi in rows:
        if not (Decimal(xlo) <= Decimal(xhi) and Decimal(ylo) <= Decimal(yhi)):
            return False
    return True


def payload_sha256(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def fingerprint(payload: dict) -> dict:
    """Radii, bounds and payload hash of one certificate, for old/new reports."""
    keys = ("epsilon", "kappa", "kappa_columns_max", "kappa_tail", "posterior_radius")
    out = {k: payload[k] for k in keys}
    out["sha256"] = payload_sha256(payload)
    return out
