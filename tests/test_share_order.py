"""Shares of a forked parse, worked on where they are parsed and handed
to the caller in file order.

``_fork.fork_map``'s ``each`` takes every result in share order as soon as
it is in; ``dataset.load_dataset``'s ``each`` runs on the rows of every
share of the parse in the process that parsed them, and its results come
back in file order; ``relarm assign`` rates and formats each share's rows
there.  Every output and every error must be what the one-share parse
gives, and the same from every command; the one exception is an id past
the csv field limit, which only a share parsed cell by cell reads.  The
``fork_calls`` fixture of ``conftest.py`` reports four usable CPUs, and the
autouse fixtures there fail a test that leaves a child or a changed CPU
affinity.
"""

import json
import os
import time

import numpy as np
import pytest

from relarm import _fork
from relarm.cli import main
from relarm.dataset import Direction, IndicatorSpec, load_dataset
from relarm.errors import ValidationError
from conftest import FORK_CPUS, record_shares

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")), reason="no os.fork"
)

PARENT = os.getpid()


def in_child() -> bool:
    return os.getpid() != PARENT


# --- fork_map's each ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, FORK_CPUS])
def test_each_takes_every_result_in_share_order_in_this_process(fork_calls, n):
    seen = []

    def each(i, result):
        seen.append((i, result, in_child()))
        return -result

    got = _fork.fork_map(lambda s: 10 * s, range(n), each)
    assert got == [-10 * s for s in range(n)]
    assert seen == [(s, 10 * s, False) for s in range(n)]
    assert len(fork_calls) == n - 1


def test_each_takes_share_0_while_the_children_still_run(fork_calls, tmp_path):
    """Every child waits for a file that ``each`` writes when it takes
    share 0's result: were ``each`` called only once all results were in,
    each child would give up after 20 s and say so."""
    flag = tmp_path / "share 0 taken"

    def fn(share):
        if not in_child():
            return "here"
        deadline = time.monotonic() + 20
        while not flag.exists():
            if time.monotonic() > deadline:
                return "gave up"
            time.sleep(0.001)
        return "after share 0"

    def each(i, result):
        if i == 0:
            flag.touch()
        return result

    got = _fork.fork_map(fn, range(FORK_CPUS), each)
    assert got == ["here"] + ["after share 0"] * (FORK_CPUS - 1)


def test_each_takes_a_failed_childs_share_run_here(fork_calls):
    def fn(share):
        if in_child() and share == 2:
            os._exit(3)
        return share, in_child()

    got = _fork.fork_map(fn, range(FORK_CPUS), lambda i, result: (i, result))
    assert got == [(0, (0, False)), (1, (1, True)), (2, (2, False)), (3, (3, True))]


def big(share):
    """A result whose pickle outgrows a 64 KiB pipe buffer."""
    return bytes([share]) * (1 << 20)


UNIT = tuple(IndicatorSpec(name, Direction.POSITIVE, True) for name in ("a", "b", "c"))


@pytest.mark.parametrize("n", [1, 2, FORK_CPUS])
@pytest.mark.parametrize("edits, message", [
    ({(2, 2): "1.5", (8, 1): "-0.5", (9, 1): "2"},
     "pre-normalized column 'a' has value -0.5 outside [0, 1] for object 'o8'"),
    ({(2, 3): "7", (5, 3): "-1"},
     "pre-normalized column 'c' has value 7.0 outside [0, 1] for object 'o2'"),
    ({(2, 1): "9", (9, 0): "o1"}, "duplicate object ids: ['o1']"),
], ids=["first-column-from-a-later-share", "first-row", "duplicates-first"])
def test_the_table_check_across_shares_keeps_the_one_share_order(forced, tmp_path, n, edits,
                                                                 message):
    """With ``each``, the shares' bad pre-normalized values and repeated
    ids are checked once all are in, as a ``RawDataset`` checks the whole
    table: repeated ids first, then the first pre-normalized column in
    declaration order that holds a bad value, at its first such row,
    whichever share each lies in."""
    cells = [[f"o{r}", "0.5", "0.5", "0.5"] for r in range(1, 11)]
    for (row, col), value in edits.items():
        cells[row - 1][col] = value
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["id,a,b,c"] + [",".join(c) for c in cells]) + "\n",
                    encoding="utf-8")
    counts = forced(n)
    for each in (None, lambda ids, values: len(ids)):
        with pytest.raises(ValidationError) as raised:
            load_dataset(path, UNIT, each)
        assert str(raised.value) == f"{path}: {message}"
    assert counts() == [n, n]


@pytest.mark.parametrize("fault", [0, 1, FORK_CPUS - 1])
def test_each_raising_midway_reaps_every_child(fork_calls, fault):
    """``each`` fails on one result while later children still write ones
    larger than a pipe buffer: the error propagates, every child is reaped
    and no descriptor is left open (``fork_calls``)."""
    taken = []

    def each(i, result):
        if i == fault:
            raise RuntimeError("consumer fault")
        taken.append(i)
        return result

    with pytest.raises(RuntimeError, match="consumer fault"):
        _fork.fork_map(big, range(FORK_CPUS), each)
    assert taken == list(range(fault))
    assert len(fork_calls) == FORK_CPUS - 1


# --- load_dataset and relarm assign, share by share ---------------------------


@pytest.fixture
def forced(fork_calls, monkeypatch):
    """``forced(n)`` makes every plain parse (and k-means) split into ``n``
    shares, one per reported CPU, however short its text; the returned
    function gives the share count of each ``fork_map`` call since."""
    monkeypatch.setattr(_fork, "FORK_MIN_BYTES", 0)
    calls = record_shares(monkeypatch)

    def force(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        calls.clear()
        return lambda: [len(shares) for shares in calls]

    return force


def country_lines(data_dir):
    return (data_dir / "country_raw.csv").read_text(encoding="utf-8").splitlines()


def padded(lines, width):
    """``lines`` with each id padded by spaces to a line of ``width``
    characters: the parse strips them, so the table is unchanged."""
    out = []
    for line in lines:
        ident, rest = line.split(",", 1)
        out.append(ident + " " * (width - len(line)) + "," + rest)
    return out


def tables(data_dir, n):
    """Texts of the country table whose shares fall in different places:
    the whole table; its last line longer than all the others together,
    so that a cut lands on it and the parse has fewer shares than
    processes; and its first 2 * ``n`` - 1 rows padded to one width, so
    that the last of ``n`` shares is the last line alone."""
    header, *rows = country_lines(data_dir)
    long_last = rows[:-1] + padded(rows[-1:], 6 * sum(map(len, rows)) // 5)
    width = max(map(len, rows))
    return {
        "country": [header] + rows,
        "long-last-line": [header] + long_last,
        "last-line-alone": [header] + padded(rows[: 2 * n - 1], width),
    }


def collect(path, specs):
    """load_dataset's :class:`Shares` with an ``each`` that returns, for
    its share, the process it ran in, whether the values it got were
    writable, the ids and a copy of the values."""

    def each(ids, values):
        return os.getpid(), values.flags.writeable, list(ids), values.copy()

    return load_dataset(path, specs, each)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("table", ["country", "long-last-line", "last-line-alone"])
@pytest.mark.parametrize("end", ["\n", "\r\n", ""], ids=["lf", "crlf", "no-final-newline"])
def test_each_sees_every_row_once_in_file_order(forced, tmp_path, data_dir, country_config,
                                                n, table, end):
    """Each share's rows go to ``each`` once, read-only, in the process
    that parsed them, share 0 in this one and every other in its child;
    the results come back in file order and hold the table's rows, once
    each, as the one-share parse reads them."""
    lines = tables(data_dir, n)[table]
    path = tmp_path / "data.csv"
    path.write_bytes(("\r\n" if end == "\r\n" else "\n").join(lines).encode() + end.encode())
    counts = forced(1)
    whole = load_dataset(path, country_config.indicators)
    one = collect(path, country_config.indicators)
    assert counts() == [1, 1] and len(one.results) == 1
    counts = forced(n)
    got = collect(path, country_config.indicators)
    assert len(counts()) == 1 and len(got.results) == counts()[0]
    assert counts()[0] < n if table == "long-last-line" else counts()[0] == n
    for shares in (one, got):
        pids, writable, ids, values = zip(*shares.results)
        assert pids[0] == PARENT and PARENT not in pids[1:]
        assert not any(writable)
        assert [i for share in ids for i in share] == list(whole.objects)
        assert np.concatenate(values).tobytes() == whole.values.tobytes()
        assert shares.n_objects == whole.n_objects
    if table == "last-line-alone":
        assert got.results[-1][2] == [whole.objects[-1]]


def run_cli(*argv):
    return main([str(a) for a in argv])


def outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("table", ["country", "long-last-line", "last-line-alone"])
def test_run_and_assign_outputs_equal_the_one_share_run(forced, tmp_path, data_dir, n,
                                                         table, capsys):
    """``run`` (only on tables with at least k = 7 rows) and ``assign`` with
    ``n`` shares write what they write with one, byte for byte."""
    config = data_dir / "country_config.json"
    data = tmp_path / "data.csv"
    data.write_text("\n".join(tables(data_dir, n)[table]) + "\n", encoding="utf-8")
    snapshot = tmp_path / "fit" / "snapshot.json"
    assert run_cli("fit", "--config", config, "--data", data_dir / "country_raw.csv",
                   "--out-dir", snapshot.parent) == 0
    commands = {"assign": ["assign", "--snapshot", snapshot, "--data", data]}
    if table != "last-line-alone":
        commands["run"] = ["run", "--config", config, "--data", data, "--dump-intermediates"]
    for command, argv in commands.items():
        got = {}
        for shares in (1, n):
            counts = forced(shares)
            out = tmp_path / f"{command}-{shares}"
            assert run_cli(*argv, "--out-dir", out) == 0
            assert counts()[0] == shares or table == "long-last-line", command
            got[shares] = outputs(out), capsys.readouterr()
        assert got[n][0] == got[1][0], command
        assert got[n][1].err == got[1][1].err == "", command


# --- errors across shares -----------------------------------------------------


PRE_NORMALIZED = "competitiveness"  # a country column of values 3 to 6


@pytest.fixture
def pre_normalized_fit(tmp_path, data_dir):
    """A snapshot fitted on the country table with ``competitiveness``
    divided by 10 and declared pre-normalized, and that table's lines."""
    cfg = json.loads((data_dir / "country_config.json").read_text(encoding="utf-8"))
    for spec in cfg["indicators"]:
        spec["pre_normalized"] = spec["name"] == PRE_NORMALIZED
    header, *rows = country_lines(data_dir)
    j = header.split(",").index(PRE_NORMALIZED)
    scaled = []
    for row in rows:
        cells = row.split(",")
        cells[j] = repr(float(cells[j]) / 10)
        scaled.append(",".join(cells))
    fit = tmp_path / "fit"
    fit.mkdir()
    (fit / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    (fit / "data.csv").write_text("\n".join([header] + scaled) + "\n", encoding="utf-8")
    assert run_cli("fit", "--config", fit / "config.json", "--data", fit / "data.csv",
                   "--out-dir", fit) == 0
    return fit / "snapshot.json", [header] + scaled


def cell(lines, row, name, value):
    """``lines`` with the cell of file row ``row`` under ``name`` set."""
    lines = list(lines)
    cells = lines[row - 1].split(",")
    cells[lines[0].split(",").index(name)] = value
    lines[row - 1] = ",".join(cells)
    return lines


def bad_header(lines):
    return [lines[0].replace("reserves", "reservez")] + lines[1:]


# each edit makes the table bad only in its last rows, which are in the
# last share; the message follows the data file's path
BAD = {
    "non-numeric": (lambda ls: cell(ls, 29, "inflation", "oops"),
                    "row 29, column 'inflation': non-numeric value 'oops'"),
    "non-finite": (lambda ls: cell(ls, 30, "reserves", "inf"),
                   "row 30, column 'reserves': non-finite value 'inf'"),
    "blank-line": (lambda ls: ls[:-1] + [""] + ls[-1:], "row 31 has 0 cells, expected 10"),
    "short-row": (lambda ls: ls[:-1] + [ls[-1].rsplit(",", 1)[0]],
                  "row 31 has 9 cells, expected 10"),
    "duplicate-ids": (lambda ls: ls[:-1] + [ls[1].split(",")[0] + "," + ls[-1].split(",", 1)[1]],
                      "duplicate object ids: ['Switzerland']"),
    "undecodable-byte": (lambda ls: bad_header(ls[:-2] + ["Schw\udce9iz" + ls[-2][ls[-2].index(","):]]
                                               + ls[-1:]),
                         "line 30: byte 0xe9 at offset {offset} is not UTF-8 text"),
    "pre-normalized": (lambda ls: cell(ls, 30, PRE_NORMALIZED, "1.5"),
                       "pre-normalized column 'competitiveness' has value 1.5 outside [0, 1] "
                       "for object '{object}'"),
    "pre-normalized-huge": (lambda ls: cell(ls, 30, PRE_NORMALIZED, "1e300"),
                            "pre-normalized column 'competitiveness' has value 1e+300 outside "
                            "[0, 1] for object '{object}'"),
}


def assert_every_command_fails(snapshot, data, message, tmp_path, capsys):
    """``relarm run``, ``fit`` and ``assign`` of ``data``, against the fit
    that wrote ``snapshot``, each exit 1 with the one error line
    ``message`` names and nothing else on stderr (no numpy warning from
    rating rows the table check rejects), and leave ``--out-dir``
    untouched: no output, no temporary file."""
    commands = {
        "run": ["--config", snapshot.parent / "config.json"],
        "fit": ["--config", snapshot.parent / "config.json"],
        "assign": ["--snapshot", snapshot],
    }
    capsys.readouterr()  # the fit's
    for command, args in commands.items():
        out = tmp_path / f"out-{command}"
        out.mkdir()
        assert run_cli(command, *args, "--data", data, "--out-dir", out) == 1, command
        assert capsys.readouterr() == ("", f"error: {data}: {message}\n"), command
        assert list(out.iterdir()) == [], command


@pytest.mark.parametrize("n", [1, 2, FORK_CPUS])
@pytest.mark.parametrize("case", list(BAD))
def test_a_fault_in_a_later_share_gives_the_one_share_error(forced, tmp_path, capsys,
                                                            pre_normalized_fit, n, case):
    """Every command of a table whose last share is bad gives the one
    error line that the one-share parse gives."""
    snapshot, lines = pre_normalized_fit
    edit, message = BAD[case]
    data = tmp_path / "data.csv"
    text = "\n".join(edit(lines)) + "\n"
    data.write_bytes(text.encode("utf-8", "surrogateescape"))
    offset = text.encode("utf-8", "surrogateescape").find(b"\xe9")
    message = message.format(offset=offset, object=lines[29].split(",")[0])
    counts = forced(n)
    assert_every_command_fails(snapshot, data, message, tmp_path, capsys)
    if case != "undecodable-byte":  # the decode error comes before the parse
        assert counts() == [n] * 3


@pytest.mark.parametrize("n", [1, 2, FORK_CPUS])
def test_an_over_long_id_and_a_later_bad_cell_give_every_command_one_error(
        forced, tmp_path, capsys, pre_normalized_fit, n):
    """An id past ``csv.field_size_limit()`` on row 2 and a bad cell on row
    31 of a quote-free table.  Cut into shares, the id's line is a share
    of its own, which numpy's parser takes without reading the id's length,
    and the bad cell's share is parsed cell by cell: every command names
    the cell.  In one share, the per-cell parse meets the id first: every
    command names the field limit."""
    snapshot, lines = pre_normalized_fit
    lines = cell(lines, 31, "gdp_per_capita", "oops")
    lines[1] = "x" * 200_000 + lines[1][lines[1].index(","):]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = ("field larger than field limit (131072)" if n == 1
               else "row 31, column 'gdp_per_capita': non-numeric value 'oops'")
    counts = forced(n)
    assert_every_command_fails(snapshot, data, message, tmp_path, capsys)
    assert counts() == [min(n, 2)] * 3  # every cut falls at the end of the id's line


UNIT = tuple(IndicatorSpec(name, Direction.POSITIVE, True) for name in ("a", "b", "c"))


@pytest.mark.parametrize("n", [1, 2, FORK_CPUS])
@pytest.mark.parametrize("edits, message", [
    ({(2, 2): "1.5", (8, 1): "-0.5", (9, 1): "2"},
     "pre-normalized column 'a' has value -0.5 outside [0, 1] for object 'o8'"),
    ({(2, 3): "7", (5, 3): "-1"},
     "pre-normalized column 'c' has value 7.0 outside [0, 1] for object 'o2'"),
    ({(2, 1): "9", (9, 0): "o1"}, "duplicate object ids: ['o1']"),
], ids=["first-column-from-a-later-share", "first-row", "duplicates-first"])
def test_the_table_check_across_shares_keeps_the_one_share_order(forced, tmp_path, n, edits,
                                                                 message):
    """With ``each``, the shares' bad pre-normalized values and repeated
    ids are checked once all are in, as a ``RawDataset`` checks the whole
    table: repeated ids first, then the first pre-normalized column in
    declaration order that holds a bad value, at its first such row,
    whichever share each lies in."""
    cells = [[f"o{r}", "0.5", "0.5", "0.5"] for r in range(1, 11)]
    for (row, col), value in edits.items():
        cells[row - 1][col] = value
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["id,a,b,c"] + [",".join(c) for c in cells]) + "\n",
                    encoding="utf-8")
    counts = forced(n)
    for each in (None, lambda ids, values: len(ids)):
        with pytest.raises(ValidationError) as raised:
            load_dataset(path, UNIT, each)
        assert str(raised.value) == f"{path}: {message}"
    assert counts() == [n, n]


@pytest.mark.parametrize("fault", [0, 1, FORK_CPUS - 1])
def test_a_consumer_raising_midway_stops_the_load(forced, tmp_path, data_dir, country_config,
                                                  fault):
    """``each`` raising on share ``fault``, in this process or in a child:
    the child's share runs again here, so the load raises the consumer's
    error, as the one-share parse would, and leaves no child behind."""
    path = tmp_path / "data.csv"
    path.write_text("\n".join(country_lines(data_dir)) + "\n", encoding="utf-8")
    forced(FORK_CPUS)
    firsts = [ids[0] for ids in load_dataset(path, country_config.indicators,
                                             lambda ids, values: ids).results]
    assert len(firsts) == FORK_CPUS

    def each(ids, values):
        if ids[0] == firsts[fault]:
            raise RuntimeError("consumer fault")
        return ids

    with pytest.raises(RuntimeError, match="consumer fault"):
        load_dataset(path, country_config.indicators, each)
