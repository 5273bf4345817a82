"""Text and JSON codecs shared by the CLI and the test suite.

Polynomials are comma-separated coefficient encodings, constant term
first ("2,2,1" is x^2+2x+2 over F_3).  Fields are "q" or "p^k".
Partitions are part^mult terms joined by "+" ("1^2+3^4").  Class data
is {"q": "3", "n": 2, "entries": [{"poly": "...", "partition": "..."}]}
with every count rendered as a decimal string.
"""

from __future__ import annotations

from .ffpoly import (
    Field,
    Poly,
    field_from_order,
    field_make,
    require_irreducible_not_x,
)
from .gl_classes import ClassData, make_class_data
from .limits import MAX_PARTITION_WEIGHT, MAX_POLY_DEGREE, InputError, ScaleLimitError, clip
from .partitions import Partition


def field_from_text(text: str) -> Field:
    text = text.strip()
    try:
        if "^" in text:
            p_str, k_str = text.split("^", 1)
            return field_make(int(p_str), int(k_str))
        return field_from_order(int(text))
    except ValueError as exc:
        if isinstance(exc, (InputError, ScaleLimitError)):
            raise
        raise InputError(f"bad field spec {clip(repr(text))}") from exc


# A polynomial's text is its str; the codec and Poly share one writer.
poly_to_text = Poly.__str__


def poly_from_text(field: Field, text: str) -> Poly:
    try:
        coeffs = tuple(int(part) for part in text.strip().split(","))
    except ValueError as exc:
        raise InputError(f"bad polynomial string {clip(repr(text))}") from exc
    if any(c < 0 or c >= field.q for c in coeffs):
        raise InputError(f"coefficients must lie in 0..{field.q - 1}")
    if len(coeffs) - 1 > MAX_POLY_DEGREE:
        raise ScaleLimitError(f"degree exceeds {MAX_POLY_DEGREE}")
    return Poly(field, coeffs)


def partition_to_text(lam: Partition) -> str:
    if lam.is_empty():
        raise InputError("refusing to serialize the empty partition")
    return "+".join(f"{a}^{m}" for a, m in lam.pairs)


def partition_from_text(text: str) -> Partition:
    pairs = []
    for term in text.strip().split("+"):
        term = term.strip()
        if not term:
            raise InputError(f"bad partition string {clip(repr(text))}")
        try:
            if "^" in term:
                a_str, m_str = term.split("^", 1)
                pairs.append((int(a_str), int(m_str)))
            else:
                pairs.append((int(term), 1))
        except ValueError as exc:
            raise InputError(f"bad partition string {clip(repr(text))}") from exc
    pairs.sort()
    parts = [a for a, _ in pairs]
    if parts[0] < 1 or len(set(parts)) < len(parts):
        raise InputError(f"partition {clip(repr(text))} needs distinct parts >= 1")
    if any(m < 1 for _, m in pairs):
        raise InputError(f"partition {clip(repr(text))} needs multiplicities >= 1")
    lam = Partition(tuple(pairs))
    if lam.weight > MAX_PARTITION_WEIGHT:
        raise ScaleLimitError(f"partition weight {clip(lam.weight)} exceeds {MAX_PARTITION_WEIGHT}")
    return lam


def class_data_to_json(data: ClassData) -> dict:
    return {
        "q": str(data.field.q),
        "n": data.n,
        "entries": [
            {"poly": poly_to_text(f), "partition": partition_to_text(lam)}
            for f, lam in data.entries
        ],
    }


def class_data_from_json(obj: dict, field: Field | None = None) -> ClassData:
    """Parse class data from outside the package and check all of it, since
    ``ClassData`` and ``Partition`` check nothing.  The shape comes first:
    an object with an 'entries' list of objects holding string 'poly' and
    'partition' fields, and an integer 'n' when one is given.  Then at
    least one entry, each polynomial a monic irreducible other than x and
    listed once (after trimming), and a weight equal to a declared 'n'."""
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise InputError("class data must be an object with an 'entries' list")
    for item in obj["entries"]:
        if not (
            isinstance(item, dict)
            and isinstance(item.get("poly"), str)
            and isinstance(item.get("partition"), str)
        ):
            raise InputError("each class entry must be an object with string 'poly' and 'partition'")
    declared_n = obj.get("n")
    if "n" in obj and (not isinstance(declared_n, int) or isinstance(declared_n, bool)):
        raise InputError(f"class data 'n' must be an integer, not {clip(repr(declared_n))}")
    if field is None:
        if "q" not in obj:
            raise InputError("class data needs a 'q' when no field is given")
        field = field_from_text(str(obj["q"]))
    elif "q" in obj and field_from_text(str(obj["q"])) != field:
        raise InputError("class data 'q' contradicts the requested field")
    if not obj["entries"]:
        raise InputError("class data needs at least one entry")
    entries = []
    for item in obj["entries"]:
        f = poly_from_text(field, item["poly"])
        require_irreducible_not_x(f)
        entries.append((f, partition_from_text(item["partition"])))
    seen = set()
    for f, _ in entries:
        if f in seen:
            raise InputError(f"class data lists {clip(f)} twice")
        seen.add(f)
    data = make_class_data(field, entries)
    if "n" in obj and declared_n != data.n:
        raise InputError(f"declared n = {clip(declared_n)} but the data has weight {data.n}")
    return data
