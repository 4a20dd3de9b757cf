"""JSON text in exactly the bytes of ``json.dumps(value, indent=2)`` for the
records the CLI writes: an audit report with its failures, and a ``table``
cell with or without ``"method"``.

``json.dumps`` with an indent runs json's pure-Python encoder over every
value; here each record is one template, and only its scalars go through
json's rules: ``int.__repr__`` for an int (so an int past 4300 digits
needs ``sys.set_int_max_str_digits(0)``, as it does for json),
``encode_basestring_ascii`` for a str and ``json.dumps`` for anything
else.  A record is written at an indent of ``indent`` spaces: its first
line carries no indent, since it follows its container's, and every later
line carries ``indent`` more spaces than it would at the top level.
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
    "rhs": ...}`` dicts, ``params`` flat."""
    i1, i2, i3, i4 = ("\n" + " " * (indent + d) for d in (2, 4, 6, 8))
    listed = array([_failure(f["params"], f["lhs"], f["rhs"], i2, i3, i4) for f in failures],
                   indent + 2)
    return (
        f'{{{i1}"identity": {scalar(identity)},{i1}"grid": {scalar(grid)},'
        f'{i1}"checked": {scalar(checked)},{i1}"failures": {listed}\n{" " * indent}}}'
    )


def _failure(params: dict, lhs, rhs, i2: str, i3: str, i4: str) -> str:
    # i2, i3, i4: a newline and the indent of the failure, its keys, its params' keys
    if params:
        pairs = ("," + i4).join([f"{_string(key)}: {scalar(val)}" for key, val in params.items()])
        params_text = f"{{{i4}{pairs}{i3}}}"
    else:
        params_text = "{}"
    return f'{{{i3}"params": {params_text},{i3}"lhs": {scalar(lhs)},{i3}"rhs": {scalar(rhs)}{i2}}}'


def cell(n: int, k: int, count: int, method: str | None = None) -> str:
    """A ``table`` cell at indent 2; ``"method"`` only when one is given."""
    text = f'{{\n    "n": {scalar(n)},\n    "k": {scalar(k)},\n    "count": {scalar(count)}'
    if method is not None:
        text += f',\n    "method": {scalar(method)}'
    return text + "\n  }"
