"""Artifact I/O: one reader, one typed field accessor, one atomic writer.

Every artifact is opened by :func:`open_artifact`, parsed by
:func:`parse_json` or :func:`read_csv`, and its fields are taken through
:class:`Fields`, so a malformed artifact of any kind ends as one
:class:`DataFormatError` naming the document and the field.
Every artifact is written by :func:`write_atomic`: a temporary file beside
the target, then ``os.replace``, so a reader sees the old bytes or the new
and never a part. There is no fsync; the aim is atomic visibility, not
durability across a power cut.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Sequence

from .errors import DataFormatError, NumericsError

_REQUIRED = object()


def _show(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


@contextlib.contextmanager
def open_artifact(path: str | Path, what: str) -> Iterator[BinaryIO]:
    """``path`` opened for binary reading; an ``OSError`` ends as a
    :class:`DataFormatError` naming ``what`` and ``path``."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except FileNotFoundError:
        raise DataFormatError(f"{what} {path} does not exist") from None
    except OSError as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc}") from None


def parse_json(data: bytes, path: str | Path, what: str) -> Any:
    """The JSON document ``data`` of the file ``path``, decoded as strict UTF-8."""
    try:
        return json.loads(data.decode("utf-8"))
    # ValueError also covers bytes that are not UTF-8 and integers past the digit limit.
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{what} {path} is not valid JSON: {exc}") from None


def read_json(path: str | Path, what: str) -> Any:
    """The parsed JSON document at ``path``; ``what`` names it in errors."""
    with open_artifact(path, what) as fh:
        return parse_json(fh.read(), path, what)


def read_csv(path: str | Path, what: str, header: Sequence[str]) -> list[Fields]:
    """The rows of a CSV file whose first line must be ``header``, each as
    text :class:`Fields` keyed by column name."""
    with open_artifact(path, what) as fh:
        data = fh.read()
    try:
        reader = csv.DictReader(io.StringIO(data.decode("utf-8"), newline=""))
        if tuple(reader.fieldnames or ()) != tuple(header):
            raise DataFormatError(f"{what} {path} has header {reader.fieldnames}, "
                                  f"expected {list(header)}")
        return [Fields(row, f"{what} row {reader.line_num} of {path}", text=True)
                for row in reader]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{what} {path} is not valid CSV: {exc}") from None


class Fields:
    """Typed access to one JSON object (``kind=dict``) or array (``list``;
    an array field also takes a tuple).

    An int field refuses floats and bools. A float field is always required;
    it takes ints and floats, refuses strings and bools, and refuses
    non-finite values when asked. Any other field read without a default is
    required; a missing field read with one gives the default as it is.
    Errors name the document (``what``) and the field's path in it. In
    ``text`` mode (a CSV row) a number field parses its string first.
    """

    def __init__(self, value: object, what: str, kind: type | tuple = dict,
                 at: str = "", text: bool = False) -> None:
        if not isinstance(value, kind):
            raise DataFormatError(
                f"malformed {what}: {repr(at) if at else 'the document'} must be "
                f"{'an object' if kind is dict else 'an array'}, got {_show(value)}")
        self.value, self.what, self.at, self.text = value, what, at, text

    @classmethod
    def document(cls, value: object, what: str, fmt: str, version: int) -> Fields:
        """An artifact's top-level object, checked for its format and version."""
        doc = cls(value, what)
        if doc.value.get("format") != fmt:
            raise DataFormatError(f"{what} is not a {fmt!r} document")
        if doc.int("version") != version:
            doc.fail("version", f"must be {version}, got {doc.value['version']}")
        return doc

    def keys(self) -> Iterable:
        return self.value.keys() if isinstance(self.value, dict) else range(len(self.value))

    def fail(self, key: object, problem: str) -> None:
        """Raise the error for field ``key``; ``problem`` completes the sentence."""
        raise DataFormatError(f"malformed {self.what}: {self._path(key)!r} {problem}")

    def _path(self, key: object) -> str:
        if not isinstance(self.value, dict):
            return f"{self.at}[{key}]"
        return f"{self.at}.{key}" if self.at else str(key)

    def _get(self, key: object, default: object, parse: type | None = None) -> Any:
        """The raw value, or ``default`` itself when the field is missing; the
        callers skip their checks for that object (an equal value passes)."""
        try:
            value = self.value[key]
        except (KeyError, IndexError):
            if default is _REQUIRED:
                self.fail(key, "is missing")
            return default
        if self.text and parse is not None and isinstance(value, str):
            try:
                return parse(value)
            except ValueError:
                pass  # stays a string, which the type check refuses
        return value

    def int(self, key: object, default: object = _REQUIRED, *,
            low: int | None = None) -> int:
        value = self._get(key, default, int)
        if value is not default and (type(value) is not int
                                     or (low is not None and value < low)):
            bound = "" if low is None else f" >= {low}"
            self.fail(key, f"must be an integer{bound}, got {_show(value)}")
        return value

    def float(self, key: object, *, finite: bool = False,
              positive: bool = False) -> float:
        value = self._get(key, _REQUIRED, float)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(key, f"must be a number, got {_show(value)}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf if value > 0 else -math.inf
        if finite and not math.isfinite(number):
            self.fail(key, f"must be finite, got {_show(value)}")
        if positive and not number > 0:
            self.fail(key, f"must be positive, got {_show(value)}")
        return number

    def str(self, key: object, default: object = _REQUIRED) -> str:
        value = self._get(key, default)
        if value is not default and not isinstance(value, str):
            self.fail(key, f"must be a string, got {_show(value)}")
        return value

    def obj(self, key: object, default: object = _REQUIRED) -> Fields:
        return Fields(self._get(key, default), self.what, dict, self._path(key))

    def arr(self, key: object, *, length: int | None = None) -> Fields:
        items = Fields(self._get(key, _REQUIRED), self.what, (list, tuple), self._path(key))
        if length is not None and len(items.value) != length:
            self.fail(key, f"must hold {length} entries, got {len(items.value)}")
        return items


def write_atomic(path: str | Path, data: str | bytes | memoryview) -> None:
    """Replace ``path`` by ``data``: text as UTF-8 with no newline
    translation, bytes as they are. On any failure the temporary file is
    removed and ``path`` keeps its bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def encode_json(doc: object, path: str | Path, indent: int | None = None) -> str:
    """``doc`` as strict JSON (RFC 8259) for the file ``path``: a NaN or an
    infinity is refused. With no ``indent`` the text holds no raw newline."""
    try:
        return json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise NumericsError(f"cannot write {path}: {exc}") from None


def write_json(path: str | Path, doc: object, indent: int | None = None) -> None:
    """Replace ``path`` by ``doc`` as :func:`encode_json` gives it."""
    write_atomic(path, encode_json(doc, path, indent))
