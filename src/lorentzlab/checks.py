"""The verdict record every check suite returns, and its artifact form.

A check holds one measured value to one bound by one relation; its verdict
is derived from those three, and the CLI line and the JSON record of a check
both render from it.
"""

import operator
from dataclasses import dataclass

MIN_SCALE = 1e-30      # the least scale a relative residual divides by

RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
             ">": operator.gt}


@dataclass(frozen=True)
class Check:
    """`name` holds when `value relation bound`; a NaN value never holds."""

    name: str
    value: float
    relation: str      # a key of RELATIONS
    bound: float

    @property
    def passed(self):
        return bool(RELATIONS[self.relation](self.value, self.bound))


def verdict(checks):
    """The artifact fragment of a sequence of checks: every record and all()."""
    records = [{"name": c.name, "value": c.value, "relation": c.relation,
                "bound": c.bound, "passed": c.passed} for c in checks]
    return {"checks": records, "passed": all(r["passed"] for r in records)}
