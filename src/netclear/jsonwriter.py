"""JSON report writer: the bytes of ``json.dump(obj, fh, indent=2,
sort_keys=True)``, written faster, for the payloads the commands build.

A payload holds values of the exact types ``dict`` with ``str`` keys,
``list``, ``tuple``, ``str``, ``int``, ``float`` (NaN and the infinities
spelled as ``json`` spells them), ``bool`` and ``None``.  Any other type,
subclasses such as ``np.float64`` and ``IntEnum`` included, and any key
that is not a ``str`` raise ``TypeError`` naming the type; a container met
again inside itself raises ``ValueError``.  Two differences from
``json``'s pure-Python indenting encoder leave the bytes unchanged:

- a list or tuple of scalars is formatted once per indent level, and its
  text reused wherever the same object appears again, keyed by ``id``
  (every container stays reachable from the payload, so no other object
  takes its id during the dump; a key by value would not do: ``[0.0]``
  equals ``[-0.0]``, and ``[1]`` equals ``[1.0]`` and ``[True]``);
- pieces are buffered and written out whenever the buffer fills, and once
  more when the dump ends or fails, so memory does not grow with the report.
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


def dump(obj, fh) -> None:
    """Write obj, a payload of the types the module names, to the text file
    fh exactly as ``json.dump(obj, fh, indent=2, sort_keys=True)`` does."""
    out: list[str] = []
    append = out.append
    markers: dict[int, object] = {}
    # indent level -> {id(list of scalars): its text}
    texts: defaultdict[int, dict[int, str]] = defaultdict(dict)
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
        # the order of sorted(dct.items()): distinct keys never compare equal
        ordered = sorted(dct)
        for k, v in zip(ordered, map(dct.__getitem__, ordered)):
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {k.__class__.__name__}")
            head = heads.get(k)
            if head is None:
                head = heads[k] = _encode(k) + ": "
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
