"""The structured-text writer before flat lists were joined in one pass:
``cli._format_value`` with a recursive call per list item.  Every file the
writer makes must stay byte-identical to what this produces.
``reference_field_records`` is ``cli.field_records`` with each entry's
order |k| + |n| taken from a ``Site``.
"""

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from qpwave.lattice import Site


def reference_format_value(value, indent: int) -> str:
    # the exact built-in types first; strings are escaped as json.dumps of a
    # str escapes them (ensure_ascii), without its per-call encoder set-up
    kind = type(value)
    if kind is float:
        return format(value, ".17g") if math.isfinite(value) else "null"
    if kind is int:
        return str(value)
    if kind is str:
        return encode_basestring_ascii(value)
    pad = " " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return format(v, ".17g") if math.isfinite(v) else "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = []
        for key in sorted(value.keys(), key=str):
            rows.append(f'{pad}  {encode_basestring_ascii(str(key))}: '
                        f'{reference_format_value(value[key], indent + 2)}')
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            return "[]"
        flat = all(not isinstance(x, (dict, list, tuple, np.ndarray))
                   for x in items)
        if flat:
            return "[" + ", ".join(reference_format_value(x, indent) for x in items) + "]"
        rows = [f"{pad}  {reference_format_value(x, indent + 2)}" for x in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def reference_dumps(obj) -> str:
    return reference_format_value(obj, 0) + "\n"


def reference_field_records(field) -> list:
    rows = []
    for k, n, v in field.full_items():
        rows.append((Site(k, n).order, k + n, list(k), list(n), float(v)))
    rows.sort(key=lambda r: (r[0], r[1]))
    return [[r[2], r[3], r[4]] for r in rows]
