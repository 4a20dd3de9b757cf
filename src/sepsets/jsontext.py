"""JSON text in exactly the bytes of ``json.dumps(value, indent=2)`` for the
records the CLI writes: an audit report with its failures, and a ``table``
cell with or without ``"method"``.

``json.dumps`` with an indent runs json's pure-Python encoder over every
value; here each record is one template, and only its scalars go through
json's rules: its decimal digits for an int (``int.__repr__``, or
``str.format``'s ``{}`` in a failure's template, which writes the same; so
an int past 4300 digits needs ``sys.set_int_max_str_digits(0)``, as it
does for json), ``encode_basestring_ascii`` for a str and ``json.dumps``
for anything else.  A record is written at an indent of ``indent``
spaces: its first line carries no indent, since it follows its
container's, and every later line carries ``indent`` more spaces than it
would at the top level.
"""

from __future__ import annotations

from json import dumps
from json.encoder import encode_basestring_ascii as _string


def scalar(value) -> str:
    """One scalar as ``json.dumps`` writes it."""
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, str):
        return _string(value)
    return dumps(value)


def array(items: list[str], indent: int = 0) -> str:
    """A list of records, each already written at ``indent + 2``."""
    if not items:
        return "[]"
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * indent + "]"


def write_array(write, batches) -> None:
    """A top-level list streamed to ``write``, one call per non-empty batch
    of records, each written at indent 2."""
    lead = "[\n  "
    for items in batches:
        if items:
            write(lead + ",\n  ".join(items))
            lead = ",\n  "
    write("[]" if lead == "[\n  " else "\n]")


def report(identity, grid, checked, failures: list[dict], indent: int = 0) -> str:
    """An audit report: its failures are ``{"params": {...}, "lhs": ...,
    "rhs": ...}`` dicts, ``params`` flat.  Each failure is written from one
    ``str.format`` template per tuple of params keys, built once per
    report."""
    i1, i2, i3, i4 = ("\n" + " " * (indent + d) for d in (2, 4, 6, 8))
    templates = {}  # params keys -> their template's bound format
    items = []
    for f in failures:
        params = f["params"]
        keys = tuple(params)
        fill = templates.get(keys)
        if fill is None:
            fill = templates[keys] = _failure_template(keys, i2, i3, i4).format
        values = [*params.values(), f["lhs"], f["rhs"]]
        items.append(fill(*[v if type(v) is int else scalar(v) for v in values]))
    listed = array(items, indent + 2)
    return (
        f'{{{i1}"identity": {scalar(identity)},{i1}"grid": {scalar(grid)},'
        f'{i1}"checked": {scalar(checked)},{i1}"failures": {listed}\n{" " * indent}}}'
    )


def _failure_template(keys: tuple, i2: str, i3: str, i4: str) -> str:
    """A failure with a ``{}`` field for each params value, then lhs and
    rhs; i2, i3, i4 are a newline and the indent of the failure, its keys
    and its params' keys.  The keys are written as JSON strings with their
    braces doubled, so ``str.format`` gives them back as they are."""
    if keys:
        pairs = ("," + i4).join(
            [_string(key).replace("{", "{{").replace("}", "}}") + ": {}" for key in keys]
        )
        params = "{{" + i4 + pairs + i3 + "}}"
    else:
        params = "{{}}"
    return (
        "{{" + i3 + '"params": ' + params + "," + i3 + '"lhs": {},' + i3 + '"rhs": {}' + i2 + "}}"
    )


def cell(n: int, k: int, count: int, method: str | None = None) -> str:
    """A ``table`` cell at indent 2; ``"method"`` only when one is given."""
    text = f'{{\n    "n": {scalar(n)},\n    "k": {scalar(k)},\n    "count": {scalar(count)}'
    if method is not None:
        text += f',\n    "method": {scalar(method)}'
    return text + "\n  }"
