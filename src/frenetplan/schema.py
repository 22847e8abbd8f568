"""Field constraints declared once, on the config dataclass fields.

Each field of a config dataclass is declared with :func:`spec`, which stores
its shape (type and range) and whether a scenario file may omit it in the
field's metadata. This module is the only reader of that metadata: a
dataclass's ``__post_init__`` calls :func:`check` on its own values, and the
scenario loader reads the raw JSON object with :func:`parse`, one walk that
both checks each section and builds it, so both reject the same values with
the same messages. A field declared without ``spec`` is a required finite
number.

A shape is a rule name (a scalar), a tuple of shapes (a list with one entry
per shape), a :class:`ListOf` (a list of any length of one shape), or a
section: a config dataclass, read from a JSON object. A dataclass whose
fields include sections (``Scenario``, the whole file) is built from its
parsed sections once all of them are well formed; it keeps its rules across
sections elsewhere. Every number must be a finite int or float; ``bool`` is
never a number.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, field, fields, is_dataclass
from functools import cache
from itertools import repeat
from typing import NamedTuple, Optional

_MAX = sys.float_info.max
_NUMBER = (int, float)
# Bound on the coordinates (m), speeds (m/s) and lengths (m) that the planner
# squares, subtracts from one another or multiplies by elapsed time (waypoint
# chords, terminal gaps, bump widths, agent velocities): far beyond any
# scenario, and far inside the range where those results stay finite.
SPAN = 1e6

# rule -> (accepted types, test, what a valid value is). Every comparison is
# false for NaN, and the bounds of the float range reject infinities and ints
# that no float can hold. Types match exactly, so bool is not a number.
_RULES = {
    "finite": (_NUMBER, lambda x: -_MAX <= x <= _MAX, "a finite number"),
    "positive": (_NUMBER, lambda x: 0 < x <= _MAX, "a positive number"),
    "nonneg": (_NUMBER, lambda x: 0 <= x <= _MAX, "a nonnegative number"),
    "unit": (_NUMBER, lambda x: 0 <= x <= 1, "a number in [0, 1]"),
    "open_unit": (_NUMBER, lambda x: 0 < x < 1, "a number in (0, 1)"),
    "count": ((int,), lambda x: 0 <= x <= _MAX, "a nonnegative integer"),
    "bounded": (_NUMBER, lambda x: -SPAN <= x <= SPAN, "a number in [-1e6, 1e6]"),
    "length": (_NUMBER, lambda x: 0 < x <= SPAN, "a number in (0, 1e6]"),
    "string": ((str,), lambda x: True, "a string"),
}


class ListOf(NamedTuple):
    """A list of at least ``min_len`` entries of one shape."""

    item: object
    min_len: int = 0


def spec(default=MISSING, shape="finite", *, optional=False):
    """A dataclass field of the given shape; ``optional`` fields may be
    omitted from a scenario file and then take ``default``."""
    return field(default=default, metadata={"shape": shape, "optional": optional})


def plain(value):
    """``value`` as JSON data: NumPy arrays and tuples become lists, NumPy
    scalars Python numbers, sections dicts."""
    if type(value) in _NUMBER:
        return value
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    return plain_fields(value) if is_dataclass(value) else value


@cache
def _declared(cls) -> dict:
    """Field name -> (shape, optional) for dataclass ``cls``, over the
    fields its constructor takes."""
    return {
        f.name: (f.metadata.get("shape", "finite"), f.metadata.get("optional", False))
        for f in fields(cls)
        if f.init
    }


@cache
def _sections(cls) -> dict:
    """Field name -> (section, whether a list of them) for the fields of
    dataclass ``cls`` that hold sections."""
    out = {}
    for name, (shape, _) in _declared(cls).items():
        many = isinstance(shape, ListOf)
        item = shape.item if many else shape
        if isinstance(item, type):
            out[name] = (item, many)
    return out


def plain_fields(obj) -> dict:
    """A dataclass instance as a JSON-ready dict, one key per field."""
    return {name: plain(getattr(obj, name)) for name in _declared(type(obj))}


def problem(shape, value) -> Optional[str]:
    """Why the JSON value ``value`` does not fit ``shape``, as a suffix for the
    key that holds it (``": must be ..."`` or ``"[i]: must be ..."``); None
    if it fits."""
    if isinstance(shape, str):
        kinds, test, text = _RULES[shape]
        return None if type(value) in kinds and test(value) else f": must be {text}"
    if isinstance(shape, type):
        return None  # a section: parse checks its object
    if not isinstance(value, list):
        return ": must be a list"
    if isinstance(shape, ListOf):
        if len(value) < shape.min_len:
            return f": must have at least {shape.min_len} entries"
        shapes = repeat(shape.item)
    else:
        if len(value) != len(shape):
            return f": must have {len(shape)} entries"
        shapes = shape
    for i, (sub, v) in enumerate(zip(shapes, value)):
        why = problem(sub, v)
        if why:
            return f"[{i}]{why}"
    return None


def check(obj) -> None:
    """Raise ValueError naming the first field of ``obj`` outside its shape."""
    for name, (shape, _) in _declared(type(obj)).items():
        why = problem(shape, plain(getattr(obj, name)))
        if why:
            raise ValueError(f"{name}{why}")


def parse(cls, data, prefix: str = "") -> tuple:
    """Dataclass ``cls`` read from the JSON object ``data``, and every
    violation of ``data`` against it, each naming its key under ``prefix``
    (none at the top of a file): unknown keys, then missing keys and values
    outside their shape in declaration order, sections entered. Each section
    is parsed from its object and each omitted field takes its default;
    ``cls`` is built once, only if nothing is wrong, and a ValueError from
    its constructor (a rule across its fields) is a violation too. The
    dataclass is None whenever there are violations."""
    if not isinstance(data, dict):
        return None, [f"{prefix}: must be an object"]
    at = f"{prefix}." if prefix else ""
    declared = _declared(cls)
    out = [f"{at}{key}: unknown key" for key in data if key not in declared]
    sections = _sections(cls)
    args = {}
    for name, (shape, optional) in declared.items():
        key = at + name
        if name not in data:
            if not optional:
                out.append(f"{key}: missing")
        elif why := problem(shape, data[name]):
            out.append(f"{key}{why}")
        elif name in sections:
            section, many = sections[name]
            if many:
                parsed = [parse(section, v, f"{key}[{i}]") for i, v in enumerate(data[name])]
                args[name] = [obj for obj, _ in parsed]
                out += [m for _, more in parsed for m in more]
            else:
                args[name], more = parse(section, data[name], key)
                out += more
        else:
            args[name] = data[name]
    if out:
        return None, out
    try:
        return cls(**args), []
    except ValueError as err:
        return None, [f"{at}{err}"]
