"""One range check for every scalar parameter and argument.

``check`` refuses a value unless it is finite and meets its rule, so a
NaN or an infinity fails where it enters instead of turning into a
plausible wrong answer downstream.  Rules only one class knows (a duty
in (0, 1), the pump's temperature limit) stay with that class.
"""

import math
import numbers
from dataclasses import fields

_RULES = {"positive": lambda v: v > 0, "non_negative": lambda v: v >= 0,
          "finite": lambda v: True}


def check(name, value, rule="finite"):
    """``value``; ValueError naming ``name`` unless it is finite and meets
    ``rule``: "positive", "non_negative" or "finite"."""
    if not (math.isfinite(value) and _RULES[rule](value)):
        need = "" if rule == "finite" else rule.replace("_", "-") + " and "
        raise ValueError(f"{name} must be {need}finite, got {value}")
    return value


def check_fields(obj, **rules):
    """``check`` each field of the dataclass ``obj`` that ``rules`` names
    (``positive="a b"``) and that does not hold None; a field annotated
    int must also hold an integer."""
    types = {f.name: f.type for f in fields(obj)}
    for rule, names in rules.items():
        for name in names.split():
            value = getattr(obj, name)
            if value is not None:
                check(name, value, rule)
                if types[name] is int and not isinstance(value, numbers.Integral):
                    raise ValueError(f"{name} must be an integer, got {value}")
