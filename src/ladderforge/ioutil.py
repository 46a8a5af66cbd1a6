"""Filesystem and CSV helpers shared by everything that reads or writes artifacts.

Every CSV the package reads goes through read_csv and every CSV it
writes through csv_text, so all file types share one set of rules: UTF-8,
"\\n" line ends, an exact header, blank lines ignored, finite floats, and
one rule for writing a cell. Every JSON file it reads goes through
read_json, and every one it writes through write_json.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections.abc import Iterator
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import SchemaError


def atomic_write_bytes(path, *chunks: bytes) -> None:
    """Write the chunks, in order, via a temp file in the same directory,
    renamed over path on success.

    A failed write never leaves a partial file at the destination. The
    temp file is created with mode 0666 less the umask, as open() would
    create path itself, and the rename keeps that mode. A temp file that
    cannot be created, or renamed over path, is an OSError naming path.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def finite_float(text: str) -> float:
    """Converter for every float column: nan and inf are out of range."""
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError(f"{text!r} is not a finite number")
    return value


def read_csv(path, columns, converters) -> Iterator[tuple[int, list]]:
    """Yield the data rows of a UTF-8 CSV file as (line, converted fields) pairs.

    The first non-blank line must equal columns, every later non-blank line
    must hold one field per column, and converters[i] turns field i into
    its value. Every failure is a SchemaError naming the path and line: an
    unreadable file, bytes that are not UTF-8, malformed CSV, a wrong
    header or field count, or a field its converter rejects with a
    ValueError or SchemaError.
    """
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL byte
        raise SchemaError(f"unreadable file {path}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path} line {line}: not UTF-8 ({exc.reason})") from None

    # lines end only at "\n" and quoting is strict, so a lone "\r" in an
    # unquoted field or a quote inside one is a csv.Error, not a quiet misread
    reader = csv.reader(io.StringIO(text, newline="\n"), strict=True)
    rows = (fields for fields in reader if fields)
    try:
        header = next(rows, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, header must be {','.join(columns)}")
        if tuple(header) != tuple(columns):
            raise SchemaError(f"{path} line {reader.line_num}: header must be {','.join(columns)}")
        for fields in rows:
            line = reader.line_num
            if len(fields) != len(columns):
                raise SchemaError(
                    f"{path} line {line}: expected {len(columns)} fields, got {len(fields)}"
                )
            values = []
            try:
                for column, convert, field in zip(columns, converters, fields):
                    values.append(convert(field))
            except (ValueError, SchemaError) as exc:
                raise SchemaError(f"{path} line {line}: {column}: {exc}") from None
            yield line, values
    except csv.Error as exc:
        raise SchemaError(f"{path} line {reader.line_num}: {exc}") from None


def read_json(path, what: str) -> dict:
    """Parse a UTF-8 file holding one JSON object whose numbers are all finite.

    Every failure is a SchemaError naming what and the path: a missing or
    unreadable file, bytes that are not UTF-8, malformed or too deeply
    nested JSON, NaN, Infinity or a number too large for a float, and a
    value that is not an object.
    """
    try:
        payload = json.loads(
            Path(path).read_bytes().decode("utf-8"),
            parse_float=finite_float,
            parse_constant=finite_float,
        )
    except (OSError, ValueError, RecursionError, SchemaError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and a NUL in the path
        raise SchemaError(f"unreadable {what} {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: {what} must be a JSON object")
    return payload


def write_json(path, payload) -> None:
    """Write payload as JSON indented by 2 with a final newline, atomically.

    NaN and infinities are not JSON: a payload holding one is a SchemaError
    naming the path, and nothing is written.
    """
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    atomic_write_text(path, text + "\n")


def _cell(column, value):
    if not isinstance(value, (float, np.floating)):
        return value
    text = repr(float(value))
    try:
        finite_float(text)
    except SchemaError as exc:
        raise SchemaError(f"{column}: {exc}") from None
    return text


def csv_text(columns, rows) -> str:
    """CSV text with "\\n" line ends: a header of columns, then rows.

    A row is a sequence of one cell per column, or a dataclass whose fields
    are its cells.
    The one cell rule: a float, numpy floats included, is written as its
    shortest round-trip repr, None as an empty field, and the rest as csv
    writes it. A float that read_csv would refuse, NaN or an infinity, is a
    SchemaError naming its column.
    """
    lines: list[str] = []
    # with "\r\n" as its terminator csv quotes a field holding either
    # character, so a lone "\r" reads back; each line then ends in "\n" alone
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        names = columns
        if is_dataclass(row):
            names = [f.name for f in fields(row)]
            row = [getattr(row, name) for name in names]
        writer.writerow(_cell(name, value) for name, value in zip(names, row, strict=True))
    return "".join(line[:-2] + "\n" for line in lines)
