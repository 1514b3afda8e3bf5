"""Correctness gate for the outputs of benchmark requests.

Every function returns None when an output is right and a one-line reason
when it is not.  The gate uses the standard library only: its closed forms
are computed here, never by ballotperm, so a broken route cannot vouch for
itself.
"""

from __future__ import annotations

import hashlib
import json
from math import factorial

VERIFY_CHECKS = ("ballot_totals", "m_equidistribution", "first_letter_gf",
                 "symmetrized_first_letter", "factor_counts", "functional_equation",
                 "ballot_cyclic_factor", "neighbor_pair_gf")


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _ballot_total(n: int) -> int:
    if n % 2 == 0:
        return _double_factorial(n - 1) ** 2
    return _double_factorial(n) * _double_factorial(n - 2)


# Sum of all counts of one table, by closed form.  Tables of the same stat
# from the table and oracle commands share these.
ROW_TOTALS = {
    "A": factorial,
    "A_first": factorial,
    "U": lambda n: 2 * factorial(n),
    "b": _ballot_total,
    "l": lambda n: factorial(n - 1),
    "E": lambda n: 2 * (factorial(n - 1) - factorial(n - 2)),
}


def check_verify(rc: int | None, text: str, order: int, n_max_oracle: int) -> str | None:
    """A verify report passes only when each of the eight checks appears once,
    passed, at the requested order; `passed` alone is not trusted."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        reports = json.loads(text)
        names = [r["name"] for r in reports]
    except (ValueError, TypeError, KeyError) as exc:
        return f"unreadable verify report: {exc!r}"
    for name in VERIFY_CHECKS:
        if names.count(name) != 1:
            return f"check {name} reported {names.count(name)} times"
        report = reports[names.index(name)]
        if report.get("passed") is not True:
            return f"check {name} did not pass"
        want = n_max_oracle if name == "m_equidistribution" else order
        if report.get("order") != want:
            return f"check {name} ran at order {report.get('order')}, not {want}"
    return None


def table_digest(doc: dict) -> tuple[str, int]:
    """sha256 of a table in a canonical form independent of the output
    format, and the sum of its counts."""
    rows = sorted([e["d"], e.get("i", 0), e.get("j", 0), int(e["count"])]
                  for e in doc["entries"])
    if any(r[3] <= 0 for r in rows):
        raise ValueError("a stored count is not positive")
    canon = json.dumps([doc["stat"], doc["n"], rows], separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest(), sum(r[3] for r in rows)


def check_table(rc: int | None, text: str, stat: str, n: int, pinned: str) -> str | None:
    """A table passes when it parses, has the pinned digest and, where a
    closed form is known, the right row total."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(text)
        if (doc["stat"], doc["n"]) != (stat, n):
            return f"table is for {doc['stat']} {doc['n']}, not {stat} {n}"
        digest, total = table_digest(doc)
    except (ValueError, TypeError, KeyError) as exc:
        return f"unreadable table: {exc!r}"
    if stat in ROW_TOTALS and total != ROW_TOTALS[stat](n):
        return f"row total {total} is not {ROW_TOTALS[stat](n)}"
    if digest != pinned:
        return f"digest {digest[:16]}... is not the pinned {pinned[:16]}..."
    return None
