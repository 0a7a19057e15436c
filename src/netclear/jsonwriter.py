"""JSON report writer: the bytes of ``json.dump(obj, fh, indent=2,
sort_keys=True)``, written faster.

With an indent set, Python's ``json`` runs its pure-Python encoder, which
re-formats a list every time it meets it.  ``dump`` follows that encoder
rule for rule (the same type tests in the same order, ``NaN`` and
``Infinity``, ASCII escapes, key coercion, the order of
``sorted(dct.items())``, the same ``TypeError`` and ``ValueError``), with
three differences that leave the bytes unchanged:

- values of the exact types ``str``, ``int``, ``float``, ``bool`` and
  ``None`` go through one table lookup, subclasses through the
  ``isinstance`` tests;
- a list or tuple of such scalars is formatted once per indent level and
  its text reused wherever the same object appears again.  The cache is
  keyed by the container's ``id`` and holds a reference to it, so no other
  object can take that id during the dump (a key by value would not do:
  ``[0.0]`` equals ``[-0.0]``, and ``[1]`` equals ``[1.0]`` and ``[True]``);
- pieces are collected in a short buffer that is written out whenever it
  fills, and once more when the dump ends or fails, so memory does not
  grow with the report and a failed dump leaves the same partial text.
"""

from __future__ import annotations

import math
from collections import defaultdict
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


def _subclass_scalar(o) -> str | None:
    """Text of a str, int or float subclass instance, else None."""
    if isinstance(o, str):
        return _encode(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    return None


def _key(k) -> str:
    """A non-str dict key as ``json`` coerces it."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def dump(obj, fh) -> None:
    """Write obj to the text file fh exactly as
    ``json.dump(obj, fh, indent=2, sort_keys=True)`` does."""
    out: list[str] = []
    append = out.append
    markers: dict[int, object] = {}
    # indent level -> {id(list of scalars): its text}; held keeps the lists alive
    texts: defaultdict[int, dict[int, str]] = defaultdict(dict)
    held: list = []
    heads: dict[str, str] = {}
    scalars = _SCALARS

    def flush():
        fh.write("".join(out))
        out.clear()

    def enter(o) -> int:
        marker = id(o)
        if marker in markers:
            raise ValueError("Circular reference detected")
        markers[marker] = o
        return marker

    def value(o, level: int):
        fmt = scalars.get(type(o))
        if fmt is not None:
            append(fmt(o))
        elif type(o) is dict:
            mapping(o, level)
        elif type(o) is list or type(o) is tuple:
            sequence(o, level)
        else:
            text = _subclass_scalar(o)
            if text is not None:
                append(text)
            elif isinstance(o, (list, tuple)):
                sequence(o, level)
            elif isinstance(o, dict):
                mapping(o, level)
            else:
                raise TypeError(f"Object of type {o.__class__.__name__} "
                                f"is not JSON serializable")

    def sequence(lst, level: int):
        if not lst:
            append("[]")
            return
        cache = texts[level]
        text = cache.get(id(lst))
        if text is not None:
            append(text)
            return
        marker = enter(lst)
        inner = "\n" + INDENT * (level + 1)
        sep = "," + inner
        items = []
        for v in lst:
            fmt = scalars.get(type(v))
            if fmt is None:
                break
            items.append(fmt(v))
        else:
            text = cache[marker] = \
                "[" + inner + sep.join(items) + "\n" + INDENT * level + "]"
            held.append(lst)
            append(text)
            del markers[marker]
            return
        append("[" + inner)
        lead = ""
        for v in lst:
            fmt = scalars.get(type(v))
            if fmt is not None:
                append(lead + fmt(v))
            else:
                if lead:
                    append(lead)
                value(v, level + 1)
            lead = sep
            if len(out) > FLUSH:
                flush()
        append("\n" + INDENT * level + "]")
        del markers[marker]

    def mapping(dct, level: int):
        if not dct:
            append("{}")
            return
        marker = enter(dct)
        inner = "\n" + INDENT * (level + 1)
        sep = "," + inner
        cache = texts[level + 1]
        append("{" + inner)
        lead = ""
        if type(dct) is dict:
            # the order of sorted(dct.items()): distinct keys never compare equal
            ordered = sorted(dct)
            items = zip(ordered, map(dct.__getitem__, ordered))
        else:
            items = sorted(dct.items())
        for k, v in items:
            if type(k) is str:
                head = heads.get(k)
                if head is None:
                    head = heads[k] = _encode(k) + ": "
            else:
                head = _encode(_key(k)) + ": "
            fmt = scalars.get(type(v))
            if fmt is not None:
                append(lead + head + fmt(v))
            else:
                text = cache.get(id(v))
                if text is not None:
                    append(lead + head + text)
                else:
                    append(lead + head)
                    value(v, level + 1)
            lead = sep
            if len(out) > FLUSH:
                flush()
        append("\n" + INDENT * level + "}")
        del markers[marker]

    try:
        value(obj, 0)
    finally:
        flush()
