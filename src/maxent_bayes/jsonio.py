"""Deterministic JSON/CSV emission.

Floats are serialized as '%.17g', so every double round-trips exactly;
non-finite values become null in JSON and nan/inf/-inf in CSV.  CSV is
RFC 4180 (CRLF, UTF-8, '.' decimal separator), the text csv.writer writes
for rows of two or more fields: a field is quoted only where it holds a
comma, a double quote, CR or LF, and None is empty.  A list of finite
floats, a list of bools and each CSV row are formatted in one expression.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, Sequence


def format_float(x: float) -> str:
    return "%.17g" % x


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k), ensure_ascii=False)}: {_encode(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds == {float} and math.isfinite(sum(obj)):  # a sum of floats is finite only if each is
            return "[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]"
        if kinds == {bool}:
            return "[" + ", ".join(["true" if x else "false" for x in obj]) + "]"
        return "[" + ", ".join(map(_encode, obj)) + "]"
    if hasattr(obj, "item"):  # numpy scalar
        return _encode(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Serialize to deterministic JSON text (insertion-ordered keys)."""
    return _encode(obj) + "\n"


def _field(value) -> str:
    text = "" if value is None else format_float(value) if isinstance(value, float) else str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _column(values: Sequence) -> tuple[str, Sequence]:
    """A column's conversion in the row format, and the values it converts."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return "%.17g", values
    return "%s", values if kinds <= {int, bool} else list(map(_field, values))


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """RFC 4180 CSV text with 17-significant-digit floats, each row one
    %-format of its columns' conversions; ValueError for rows of unequal width."""
    columns = [_column(values) for values in zip(*rows, strict=True)]
    line = ",".join(spec for spec, _ in columns) + "\r\n"
    rows = zip(*(values for _, values in columns))
    return ",".join(map(_field, header)) + "\r\n" + "".join([line % row for row in rows])


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_config_hash(config: dict) -> str:
    return sha256_text(json.dumps(config, sort_keys=True, separators=(",", ":")))
