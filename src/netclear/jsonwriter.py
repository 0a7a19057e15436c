"""JSON report writer.

``dump(obj, fh)`` writes the bytes that ``json.dump(obj, fh, indent=2,
sort_keys=True)`` writes, raises the ``TypeError`` or ``ValueError`` that it
raises, and leaves the same partial text in fh when it does.  It takes only
the exact types the commands' payloads are built from: ``dict`` with
``str`` keys, ``list``, ``tuple``, ``str``, ``int``, ``float`` (NaN and the
infinities spelled as ``json`` spells them), ``bool`` and ``None``.  Any
other type, subclasses such as ``np.float64`` and ``IntEnum`` included, and
any key that is not a ``str`` raise ``TypeError`` naming the type.

It is faster than ``json``'s pure-Python indenting encoder because a list
or tuple of scalars is formatted once per indent level and its text reused
wherever the same object appears again.  The text is keyed by ``id``: every
container stays reachable from the payload, so no other object takes its
id during the dump, and a key by value would not do (``[0.0]`` equals
``[-0.0]``, and ``[1]`` equals ``[1.0]`` and ``[True]``).  The text goes to
fh in pieces, whenever the buffer fills and once more when the dump ends or
fails, so memory does not grow with the report.

A ``Rows`` table is a list of dicts that share one key set.  Its keys are
sorted and encoded once per table, and its values are written as one
stream of (lead, value) items, so no row builds a dict, sorts its keys or
makes a call of its own.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from json.encoder import encode_basestring_ascii as _encode

INDENT = "  "
# pieces buffered before one write to the file
FLUSH = 4096


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == math.inf:
        return "Infinity"
    if o == -math.inf:
        return "-Infinity"
    return float.__repr__(o)


_SCALARS = {
    str: _encode,
    int: int.__repr__,
    float: _float,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


@dataclass(frozen=True)
class Rows:
    """The list of dicts ``[dict(zip(keys, row)) for row in rows]``, given
    as its distinct ``str`` keys and one tuple of values per row, in the
    order of the keys."""

    keys: tuple[str, ...]
    rows: Sequence[tuple]

    def __post_init__(self):
        for k in self.keys:
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {k.__class__.__name__}")
        if len(set(self.keys)) < len(self.keys):
            raise ValueError(f"repeated key in {self.keys}")
        if set(map(len, self.rows)) - {len(self.keys)}:
            raise ValueError(f"a row without one value per key of {self.keys}")


def dump(obj, fh) -> None:
    """Write obj, a payload of the types the module names, to the text file
    fh exactly as ``json.dump(obj, fh, indent=2, sort_keys=True)`` does."""
    out: list[str] = []
    append = out.append
    # indent level -> {id(list of scalars): its text}
    texts: dict[int, dict[int, str]] = {}
    # ids of the containers being written, for the cycle check
    opened: set[int] = set()
    heads: dict[str, str] = {}
    scalars = _SCALARS

    def flush():
        fh.write("".join(out))
        out.clear()

    def head(k: str) -> str:
        return heads.get(k) or heads.setdefault(k, _encode(k) + ": ")

    def table(t: Rows, level: int):
        """Append the text of t at indent level."""
        if not t.rows:
            append("[]")
            return
        if id(t) in opened:
            raise ValueError("Circular reference detected")
        opened.add(id(t))
        inner = "\n" + INDENT * (level + 1)
        close = "\n" + INDENT * level + "]"
        order = sorted(range(len(t.keys)), key=t.keys.__getitem__)
        if not order:
            append("[" + inner + ("," + inner).join(["{}"] * len(t.rows)) + close)
        else:
            field = "\n" + INDENT * (level + 2)
            # the leads of the first row's values, each a separator and a key head
            first = [inner + "{" + field + head(t.keys[order[0]])]
            first += ["," + field + head(t.keys[k]) for k in order[1:]]
            # a later row's first lead also closes the row before it
            later = [inner + "}," + first[0]] + first[1:]
            rows = (t.rows if order == list(range(len(order)))
                    else map(itemgetter(*order), t.rows))
            append("[")
            values(chain(first, chain.from_iterable(repeat(later))),
                   chain.from_iterable(rows), level + 2)
            append(inner + "}" + close)
        opened.remove(id(t))

    def values(leads, objs, level: int):
        """Append each lead, then the text of its object at indent level."""
        cache = texts.setdefault(level, {})
        for lead, o in zip(leads, objs):
            if len(out) > FLUSH:
                flush()
            fmt = scalars.get(type(o))
            if fmt is not None:
                append(lead + fmt(o))
                continue
            text = cache.get(id(o))
            if text is not None:
                append(lead + text)
                continue
            append(lead)
            kind = type(o)
            if kind is Rows:
                table(o, level)
                continue
            if kind is not dict and kind is not list and kind is not tuple:
                raise TypeError(f"Object of type {o.__class__.__name__} "
                                f"is not JSON serializable")
            if not o:
                append("{}" if kind is dict else "[]")
                continue
            inner = "\n" + INDENT * (level + 1)
            close = "\n" + INDENT * level + ("}" if kind is dict else "]")
            if kind is not dict:
                try:
                    items = [scalars[type(v)](v) for v in o]
                except KeyError:
                    pass
                else:
                    text = cache[id(o)] = "[" + inner + ("," + inner).join(items) + close
                    append(text)
                    continue
            if id(o) in opened:
                raise ValueError("Circular reference detected")
            opened.add(id(o))
            sep = "," + inner
            if kind is dict:
                # the order of sorted(o.items()): distinct keys never compare equal
                ordered = sorted(o)
                inside = []
                for k in ordered:
                    if type(k) is not str:
                        raise TypeError(f"keys must be str, not {k.__class__.__name__}")
                    inside.append(inner + head(k))
                    inner = sep
                append("{")
                values(inside, map(o.__getitem__, ordered), level + 1)
            else:
                append("[")
                values(chain((inner,), repeat(sep)), o, level + 1)
            append(close)
            opened.remove(id(o))

    try:
        values(("",), (obj,), 0)
    finally:
        flush()
