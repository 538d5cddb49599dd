"""CSV serialization of profile tables, and the one profile reader.

Section IV: "The data is converted into a readable CSV file which serves as
input to PKS and Sieve." This module round-trips :class:`ProfileTable`
through that CSV format.

The preamble row carries the workload name and the expected invocation-row
count (``# workload,<name>,rows,<n>``) so truncated files are detectable;
readers tolerate older files without the count.

:class:`ProfileTableReader` is the only code that parses profile rows (CSV
or JSONL) and the only code that assembles parsed rows into a
:class:`ProfileTable`. Its :meth:`~ProfileTableReader.records` stream
yields one result per data row, the parsed record or that row's
:class:`ProfileError`, and the consumer decides how strict to be:

* strict: iterating the reader (chunks for streams),
  :meth:`~ProfileTableReader.read_table` and :func:`read_profile_csv`
  raise the first bad row's error, carrying the path and 1-based line
  number;
* lenient: :func:`repro.robustness.validate.validate_profile_csv` records
  every bad row as an issue and salvages the rest.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from repro.gpu.kernel import PKS_METRIC_NAMES
from repro.profiling.table import ProfileTable
from repro.utils.errors import ProfileError
from repro.utils.validation import require

_BASE_COLUMNS = ("kernel_name", "invocation_id", "insn_count", "cta_size", "num_ctas")


def write_profile_csv(table: ProfileTable, path: str | Path) -> None:
    """Write ``table`` to ``path`` as CSV (one row per invocation)."""
    path = Path(path)
    with_metrics = table.metrics is not None
    header = list(_BASE_COLUMNS)
    if with_metrics:
        header += [name for name in table.metric_names if name != "instruction_count"]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["# workload", table.workload, "rows", len(table)])
        writer.writerow(header)
        for row in range(len(table)):
            record: list[object] = [
                table.kernel_name_of_row(row),
                int(table.invocation_id[row]),
                int(table.insn_count[row]),
                int(table.cta_size[row]),
                int(table.num_ctas[row]),
            ]
            if with_metrics:
                record += [
                    repr(float(table.metrics[row, j]))
                    for j, name in enumerate(table.metric_names)
                    if name != "instruction_count"
                ]
            writer.writerow(record)


#: One parsed data row: kernel name, invocation id, instruction count,
#: CTA size, CTA count and the row's metric values in file column order
#: (empty when the feed carries no metric columns).
ProfileRecord = tuple[str, int, int, int, int, list[float]]


def read_profile_csv(path: str | Path) -> ProfileTable:
    """Read a profile table previously written by :func:`write_profile_csv`.

    Malformed input — empty files, bad headers, rows with the wrong column
    count or unparseable numbers, missing metric columns, or a row count
    that contradicts the preamble (a truncated file) — raises
    :class:`ProfileError` with the file path and 1-based row number.
    """
    return ProfileTableReader(path, fmt="csv").read_table()


def _strict(result: ProfileRecord | ProfileError) -> ProfileRecord:
    if isinstance(result, ProfileError):
        raise result
    return result


class ProfileTableReader:
    """The profile reader: CSV or JSONL, from a file, stdin or a handle.

    Iterating yields :class:`ProfileTable` chunks of at most ``chunk_rows``
    rows, suitable for a method's ``begin_stream`` surface;
    :meth:`read_table` returns the whole feed as one table. Both are
    strict. :meth:`records` is the per-row stream they consume, open to
    lenient consumers, and :meth:`assemble` turns parsed records into a
    table.

    The reader keeps one *growing* kernel-name map, so kernel ids are
    stable: a name's id in chunk ``k`` equals its id in every later chunk,
    and each chunk's ``kernel_names`` tuple is the map so far (a
    prefix-consistent view). While iterating, only O(chunk_rows +
    kernels) rows are resident.

    ``source`` is a path, ``"-"`` (stdin), or an open text handle. The
    format is taken from ``fmt`` (``"csv"``/``"jsonl"``), else sniffed:
    a ``.jsonl``/``.ndjson`` suffix or a first byte of ``{`` means JSONL.

    * CSV feeds use the :func:`write_profile_csv` layout (preamble +
      header + rows). Trailing metric columns, when present, must cover
      every Table II metric but ``instruction_count``; tables then carry
      the full matrix in canonical order, ``instruction_count`` rebuilt
      from ``insn_count``.
    * JSONL feeds carry one object per row with keys ``kernel_name``,
      ``invocation_id``, ``insn_count``, ``cta_size``, ``num_ctas``; an
      optional leading ``{"workload": ..., "rows": ...}`` header object
      plays the preamble's role.

    Strict reads raise :class:`ProfileError` with the 1-based line number
    of the first malformed row, and the same truncation error whenever
    the feed declared a row count it did not deliver.
    """

    def __init__(
        self,
        source: str | Path | TextIO,
        *,
        chunk_rows: int = 4096,
        fmt: str | None = None,
        workload: str | None = None,
    ):
        require(chunk_rows >= 1, "chunk_rows must be >= 1", ProfileError)
        require(
            fmt in (None, "csv", "jsonl"),
            f"unknown feed format {fmt!r} (expected 'csv' or 'jsonl')",
            ProfileError,
        )
        self.chunk_rows = chunk_rows
        self.workload = workload or "stream"
        self.declared_rows: int | None = None
        self.rows_read = 0
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        #: Per canonical Table II metric, its file column (``None`` for
        #: ``instruction_count``); empty when the feed has no metrics.
        self._metric_layout: list[int | None] = []
        if hasattr(source, "read"):
            self._handle: TextIO = source  # type: ignore[assignment]
            self._path = Path(getattr(source, "name", "<stream>"))
            self._owns_handle = False
        elif str(source) == "-":
            self._handle = sys.stdin
            self._path = Path("<stdin>")
            self._owns_handle = False
        else:
            self._path = Path(source)
            self._handle = self._path.open(newline="")
            self._owns_handle = True
        self._fmt = fmt or self._sniff()

    def _sniff(self) -> str:
        suffix = self._path.suffix.lower()
        if suffix in (".jsonl", ".ndjson"):
            return "jsonl"
        if suffix == ".csv":
            return "csv"
        if self._handle.seekable():
            pos = self._handle.tell()
            first = self._handle.read(1)
            self._handle.seek(pos)
            return "jsonl" if first == "{" else "csv"
        # Non-seekable (a pipe): peek by buffering the first line.
        first_line = self._handle.readline()
        rest = self._handle
        self._handle = _ChainedText(first_line, rest)
        return "jsonl" if first_line.lstrip()[:1] == "{" else "csv"

    def _error(self, message: str, row: int | None = None) -> ProfileError:
        return ProfileError(message, path=str(self._path), row=row)

    def assemble(self, records: list[ProfileRecord]) -> ProfileTable:
        """Build one table from parsed (non-empty) ``records``.

        Kernels are numbered through the reader's growing map and the
        metric matrix, if the feed has one, is laid out in canonical
        Table II order. Counts toward :attr:`rows_read`.
        """
        names, invocation_id, insn, cta_size, num_ctas, values = zip(*records)
        for name in dict.fromkeys(names):  # first-appearance order
            if name not in self._index:
                self._index[name] = len(self._names)
                self._names.append(name)
        kernel_id = np.fromiter(
            map(self._index.__getitem__, names), dtype=np.int32, count=len(names)
        )
        insn_count = np.array(insn, dtype=np.int64)
        metrics = None
        if self._metric_layout:
            stored = np.array(values, dtype=np.float64)
            metrics = np.column_stack([
                insn_count.astype(np.float64) if j is None else stored[:, j]
                for j in self._metric_layout
            ])
        self.rows_read += len(records)
        return ProfileTable(
            workload=self.workload,
            kernel_names=tuple(self._names),
            kernel_id=kernel_id,
            invocation_id=np.array(invocation_id, dtype=np.int64),
            insn_count=insn_count,
            cta_size=np.array(cta_size, dtype=np.int32),
            num_ctas=np.array(num_ctas, dtype=np.int64),
            metrics=metrics,
        )

    def records(self) -> Iterator[ProfileRecord | ProfileError]:
        """One result per data row: the parsed record or the row's error.

        A malformed data row is *yielded* as a :class:`ProfileError`
        carrying its 1-based line number, so the consumer decides whether
        to stop or skip it. A malformed preamble or header is raised:
        nothing after it can be read. Closes the source if the reader
        opened it.
        """
        try:
            if self._fmt == "csv":
                yield from self._csv_records()
            else:
                yield from self._jsonl_records()
        finally:
            if self._owns_handle:
                self._handle.close()

    def read_table(self) -> ProfileTable:
        """The whole feed as one table; malformed input raises."""
        records = [_strict(result) for result in self.records()]
        if not records:
            raise self._error("profile contains no invocation rows")
        table = self.assemble(records)
        self._check_row_count()
        return table

    def __iter__(self) -> Iterator[ProfileTable]:
        pending: list[ProfileRecord] = []
        for result in self.records():
            pending.append(_strict(result))
            if len(pending) >= self.chunk_rows:
                yield self.assemble(pending)
                pending = []
        if pending:
            yield self.assemble(pending)
        self._check_row_count()

    def _check_row_count(self) -> None:
        if self.declared_rows is not None and self.rows_read != self.declared_rows:
            raise self._error(
                f"row count mismatch: declared {self.declared_rows} rows, "
                f"found {self.rows_read} (truncated or rows dropped?)"
            )

    def _csv_records(self) -> Iterator[ProfileRecord | ProfileError]:
        reader = csv.reader(self._handle)
        preamble = next(reader, None)
        if preamble is None:
            raise self._error("empty profile CSV")
        self._read_preamble(preamble)
        header = next(reader, None)
        if header is None:
            raise self._error("missing header row", row=2)
        self._read_header(header)
        width = len(header)
        for row in reader:
            try:
                record: ProfileRecord | ProfileError = _parse_csv_row(row, width)
            except ValueError as exc:
                record = self._error(str(exc), row=reader.line_num)
            yield record

    def _read_preamble(self, preamble: list[str]) -> None:
        if len(preamble) < 2 or preamble[0] != "# workload":
            raise self._error("missing workload preamble", row=1)
        self.workload = preamble[1]
        if len(preamble) >= 4 and preamble[2] == "rows":
            try:
                self.declared_rows = int(preamble[3])
            except ValueError:
                raise self._error(
                    f"unparseable row count {preamble[3]!r}", row=1
                ) from None

    def _read_header(self, header: list[str]) -> None:
        base = tuple(header[: len(_BASE_COLUMNS)])
        if base != _BASE_COLUMNS:
            raise self._error(f"unexpected CSV columns {list(base)!r}", row=2)
        stored = header[len(_BASE_COLUMNS):]
        if not stored:
            return
        unknown = [name for name in stored if name not in PKS_METRIC_NAMES]
        if unknown:
            raise self._error(f"unknown metric columns {unknown!r}", row=2)
        column = {name: j for j, name in enumerate(stored)}
        missing = [
            name
            for name in PKS_METRIC_NAMES
            if name != "instruction_count" and name not in column
        ]
        if missing:
            raise self._error(f"missing metric columns {missing!r}", row=2)
        self._metric_layout = [
            None if name == "instruction_count" else column[name]
            for name in PKS_METRIC_NAMES
        ]

    def _jsonl_records(self) -> Iterator[ProfileRecord | ProfileError]:
        for line_num, line in enumerate(self._handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = self._parse_json_row(line, line_num)
            except ValueError as exc:
                record = self._error(str(exc), row=line_num)
            if record is not None:
                yield record

    def _parse_json_row(self, line: str, line_num: int) -> ProfileRecord | None:
        """Parse one JSONL line; ``None`` for the leading header object."""
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"unparseable JSON: {exc}") from None
        if not isinstance(record, dict):
            raise ValueError(
                f"expected a JSON object, got {type(record).__name__}"
            )
        if "kernel_name" not in record:
            # Leading header object: workload / declared row count.
            if line_num == 1 and ("workload" in record or "rows" in record):
                self.workload = str(record.get("workload", self.workload))
                if "rows" in record:
                    self.declared_rows = int(record["rows"])
                return None
            raise ValueError("row object missing 'kernel_name'")
        try:
            return (
                str(record["kernel_name"]),
                int(record["invocation_id"]),
                int(record["insn_count"]),
                int(record["cta_size"]),
                int(record["num_ctas"]),
                [],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad row object: {exc!r}") from None


def _parse_csv_row(row: list[str], width: int) -> ProfileRecord:
    """Parse one CSV data row; raises plain ``ValueError`` on any bad field."""
    if len(row) != width:
        raise ValueError(f"expected {width} columns, found {len(row)}")
    return (
        row[0],
        int(row[1]),
        int(row[2]),
        int(row[3]),
        int(row[4]),
        list(map(float, row[5:])),
    )


class _ChainedText(io.TextIOBase):
    """Re-prefix a consumed first line onto a non-seekable text stream."""

    def __init__(self, head: str, rest: TextIO):
        self._head = head
        self._rest = rest

    def readline(self, size: int = -1) -> str:  # pragma: no cover - trivial
        if self._head:
            line, self._head = self._head, ""
            return line
        return self._rest.readline(size)

    def read(self, size: int = -1) -> str:
        if size is None or size < 0:
            data, self._head = self._head, ""
            return data + self._rest.read()
        if self._head:
            data, self._head = self._head[:size], self._head[size:]
            return data
        return self._rest.read(size)

    def __iter__(self):
        while True:
            line = self.readline()
            if not line:
                return
            yield line
