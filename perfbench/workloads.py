"""The four workloads: portal, ingest, mixed and postprocess.

Each workload builds its archive from the seed (:meth:`Workload.setup`),
then runs operations for a fixed time.  Every operation is drawn from a
seeded generator *before* its timer starts; the timed part is only the
call into the program (the in-process WSGI call, or the archiving
client's file-server and ``Connection`` calls).  Outputs are checked
after the timer stops, against the generator's own bookkeeping, and a
failed check counts the operation as failed.  :meth:`Workload.verify`
runs the end-of-run checks.

Sizes live in ``SIZES``: ``full`` is what the benchmark measures,
``tiny`` is for the self-test.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import os
import random
import re
import shutil
import threading
from collections import defaultdict
from time import perf_counter, sleep
from urllib.parse import urlencode

import numpy as np

from perfbench.fixtures import (
    DurableArchive,
    PortalArchive,
    serve,
    sha256,
    simulation_key,
)
from repro.datalink.reconcile import reconcile
from repro.replication import check_replica_set
from repro.sqldb import Database
from repro.turbulence import build_turbulence_archive
from repro.turbulence.generator import decode_snapshot

PAGE_SIZE = 100

_ROWS = re.compile(rb"<tr>")
_FOOTER = re.compile(rb"page (\d+) of (\d+) \((\d+) rows\)")
_DATALINK = re.compile(rb'class="datalink" href="([^"]+)"')


class KnownDefect(str):
    """A check's finding that is a known defect of the program.  It is
    counted and reported by name instead of failing the operation."""


#: ``/search`` runs its COUNT and its page query as two statements, each
#: under its own snapshot; a commit landing between them gives a page
#: that disagrees with its own footer
SEARCH_SNAPSHOT_SPLIT = KnownDefect(
    "/search page and footer total read under two snapshots"
)


class Recorder:
    """Latency samples per operation kind, plus attempted/failed counts
    and the known defects the checks saw."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.known: dict[str, int] = defaultdict(int)

    def add(self, kind: str, seconds: float, error: str | None) -> None:
        self.samples[kind].append(seconds)
        self.check(error, kind)

    def check(self, error: str | None, what: str = "check") -> None:
        """Count one output check (an operation's or an end-of-run one)."""
        self.attempted += 1
        if isinstance(error, KnownDefect):
            self.known[error] += 1
        elif error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{what}: {error}")

    def merge(self, other: "Recorder") -> None:
        for kind, values in other.samples.items():
            self.samples[kind].extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: max(0, 10 - len(self.errors))])
        for defect, n in other.known.items():
            self.known[defect] += n


class Deck:
    """Draws operation kinds (or any choices) in fixed proportions: each
    block of draws holds every kind its count of times, in a seeded order.
    Drawing each operation independently would let the mix itself, and
    with it every latency percentile, vary from seed to seed."""

    def __init__(self, counts) -> None:
        self.cards = [kind for kind, n in counts for _ in range(n)]
        self._hand: list[str] = []

    def draw(self, rng) -> str:
        if not self._hand:
            self._hand = list(self.cards)
            rng.shuffle(self._hand)
        return self._hand.pop()


def _timed(fn, tracer):
    """Run one operation; (seconds, result, error)."""
    if tracer is None:
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the failure is counted, the run goes on
            return perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
        return perf_counter() - start, result, None
    with tracer.root():
        return _timed(fn, None)


def closed_loop(next_op, rng, seconds: float, rec: Recorder, tracer=None) -> None:
    """One client: the next operation starts when the previous one ends."""
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        kind, fn, check = next_op(rng)
        elapsed, result, error = _timed(fn, tracer)
        if error is None:
            error = check(result)
        rec.add(kind, elapsed, error)


class WsgiClient:
    """Calls a WSGI app in-process, carrying the session cookie."""

    def __init__(self, wsgi) -> None:
        self.wsgi = wsgi
        self.cookie = ""

    def get(self, path: str, params: dict):
        """A prepared GET: the returned callable does only the WSGI call."""
        query = urlencode(params)
        return lambda: self.call("GET", path, query, b"")

    def call(self, method: str, path: str, query: str, body: bytes):
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "HTTP_COOKIE": self.cookie,
            "CONTENT_LENGTH": str(len(body)),
            "CONTENT_TYPE": "application/x-www-form-urlencoded",
            "wsgi.input": io.BytesIO(body),
        }
        status = []

        def start_response(line, headers):
            status.append((int(line.split()[0]), headers))

        payload = b"".join(self.wsgi(environ, start_response))
        return status[0][0], status[0][1], payload

    def login(self, username: str, password: str) -> None:
        body = urlencode({"username": username, "password": password})
        code, headers, _ = self.call("POST", "/login", "", body.encode())
        if code != 200:
            raise RuntimeError(f"login as {username} failed: {code}")
        cookie = dict(headers)["Set-Cookie"]
        self.cookie = cookie.split(";", 1)[0]


def _status(expected: int, result) -> str | None:
    if result[0] != expected:
        return f"HTTP {result[0]}: {result[2][:120]!r}"
    return None


def _rendered(body: bytes) -> tuple[int, int | None]:
    """(rows rendered, footer total or None when the page has no footer)."""
    footer = _FOOTER.search(body)
    return len(_ROWS.findall(body)) - 1, int(footer.group(3)) if footer else None


def _page_check(expected_rows: int, expected_total: int):
    """Checks a rendered result page against the bookkeeping counts."""
    def check(result):
        error = _status(200, result)
        if error:
            return error
        rows, total = _rendered(result[2])
        if rows != expected_rows:
            return f"{rows} rows rendered, expected {expected_rows}"
        if total is None:
            total = rows
        if total != expected_total:
            return f"total {total}, expected {expected_total}"
        return None
    return check


def browse_pk(client, key: str, rows: int):
    """PK browse: the RESULT_FILE rows of one simulation."""
    params = {"ref": "RESULT_FILE.SIMULATION_KEY", "value": key}
    return "browse_pk", client.get("/browse/pk", params), _page_check(rows, rows)


def browse_fk(client, key: str):
    """FK browse: the one SIMULATION row a result file references."""
    params = {"colid": "RESULT_FILE.SIMULATION_KEY", "value": key}
    check = _page_check(1, 1)

    def check_parent(result):
        return check(result) or (
            None if key.encode() in result[2] else f"parent {key} missing"
        )

    return "browse_fk", client.get("/browse/fk", params), check_parent


def _search_params(table: str, shown, conditions, page: int) -> dict:
    params = {"table": table, "page_size": str(PAGE_SIZE), "page": str(page)}
    for column in shown:
        params[f"show_{column}"] = "on"
    for column, op, value in conditions:
        params[f"op_{column}"] = op
        params[f"val_{column}"] = value
    return params


def _on_page(page: int, total: int) -> int:
    """Rows page ``page`` holds when the query matches ``total`` rows."""
    return max(0, min(PAGE_SIZE, total - (page - 1) * PAGE_SIZE))


def _paged(rng, total: int) -> tuple[int, int]:
    """(page number, rows on it) for a uniformly chosen page."""
    page = rng.randint(1, max(1, -(-total // PAGE_SIZE)))
    return page, _on_page(page, total)


class SearchForms:
    """RESULT_FILE search conditions, each form in equal share: all rows,
    or the rows below, or at and above, a seeded cut in SIMULATION_KEY."""

    def __init__(self) -> None:
        self.deck = Deck((("all", 1), ("<", 1), (">=", 1)))

    def draw(self, rng, simulations: int):
        """(QBE conditions, the simulation indexes whose rows match)."""
        form = self.deck.draw(rng)
        cut = rng.randrange(1, simulations)
        if form == "all":
            return (), range(simulations)
        condition = (("SIMULATION_KEY", form, simulation_key(cut)),)
        if form == "<":
            return condition, range(cut)
        return condition, range(cut, simulations)


#: RESULT_FILE column sets the portal's searches show (empty: all visible)
RESULT_COLUMNS = (
    (),
    ("FILE_NAME", "SIMULATION_KEY", "DOWNLOAD_RESULT"),
    ("FILE_NAME", "TIMESTEP", "FILE_SIZE", "DOWNLOAD_RESULT"),
    ("SIMULATION_KEY", "MEASUREMENT", "DOWNLOAD_RESULT"),
)

#: SIMULATION title words for the wildcard search (LIKE '%word%')
TITLE_WORDS = ("mixing", "pipe", "vortex", "channel", "layer", "decay",
               "Turbulent", "isotropic")


class Workload:
    """Base: set-up, the measured loop and the end-of-run checks."""

    name = ""
    SIZES: dict[str, dict] = {}
    #: operation kinds an open-loop generator issues (reported by kind,
    #: left out of ops_per_s, p50_ms and p99_ms)
    OPEN_LOOP: frozenset[str] = frozenset()

    def __init__(self, seed: int, workdir: str, size: str = "full") -> None:
        self.seed = seed
        self.workdir = workdir
        self.size = dict(self.SIZES[size])
        self._setups = 0
        #: attributes that outlive a set-up; build() adds the rest
        self._kept = set(vars(self)) | {"_kept"}

    def setup(self) -> None:
        """Build the archive from the seed, in a fresh directory.  The
        previous set-up's objects and directory are dropped first, so only
        one archive is ever alive and the memory peak is one set-up's."""
        if self._setups:
            for name in set(vars(self)) - self._kept:
                delattr(self, name)
            gc.collect()
            shutil.rmtree(self._directory(), ignore_errors=True)
        self._setups += 1
        self.build(self._directory())

    def _directory(self) -> str:
        return os.path.join(self.workdir, f"setup{self._setups}")

    def build(self, directory: str) -> None:
        raise NotImplementedError

    def run(self, seconds: float, rec: Recorder, rng, tracer=None) -> None:
        closed_loop(self.next_op, rng, seconds, rec, tracer)

    def next_op(self, rng):
        raise NotImplementedError

    def verify(self, rec: Recorder) -> None:
        """End-of-run checks; each is counted into ``rec``."""

    def program(self):
        """(database, datalink manager, operation engine or None)."""
        raise NotImplementedError


# -- portal ---------------------------------------------------------------------


class Portal(Workload):
    """Consortium scientists searching, browsing and downloading."""

    name = "portal"
    SIZES = {
        "full": dict(simulations=2000, timesteps=1, grid=8),
        "tiny": dict(simulations=40, timesteps=1, grid=4),
    }
    #: equal weights: no usage log says which request scientists make
    #: most, so each block of six holds one of each request kind
    MIX = (
        ("search", 1),
        ("like_search", 1),
        ("browse_pk", 1),
        ("browse_fk", 1),
        ("download", 1),
        ("failover_download", 1),
    )

    def build(self, directory: str) -> None:
        size = self.size
        self.fixture = PortalArchive(
            size["simulations"], size["timesteps"], size["grid"], self.seed,
            os.path.join(directory, "sandbox"),
        )
        archive = self.fixture.archive
        # Tokenized DATALINKs as a SELECT hands them out, per timestep file.
        self.links: dict[tuple[int, int], str] = {}
        result = archive.db.execute(
            "SELECT SIMULATION_KEY, TIMESTEP, DOWNLOAD_RESULT FROM RESULT_FILE"
        )
        for key, timestep, value in result.rows:
            self.links[(int(key[-4:]), timestep)] = value.tokenized_url
        # One logical file-server set loses its primary for the whole run.
        degraded = archive.servers[0]
        degraded.kill(degraded.primary.host)
        self.client = WsgiClient(self.fixture.wsgi)
        self.client.login("turbulence", "consortium")
        self.titles = self.fixture.titles()
        self.deck = Deck(self.MIX)
        self.forms = SearchForms()

    def program(self):
        archive = self.fixture.archive
        return archive.db, archive.linker, self.fixture.wsgi.app.engine

    def next_op(self, rng):
        return getattr(self, f"_op_{self.deck.draw(rng)}")(rng)

    def _op_search(self, rng):
        shown = rng.choice(RESULT_COLUMNS)
        conditions, simulations = self.forms.draw(rng, self.size["simulations"])
        total = len(simulations) * self.size["timesteps"]
        page, rows = _paged(rng, total)
        params = _search_params("RESULT_FILE", shown, conditions, page)
        return ("search", self.client.get("/search", params),
                _page_check(rows, total))

    def _op_like_search(self, rng):
        word = rng.choice(TITLE_WORDS)
        total = sum(1 for title in self.titles if word in title)
        page, rows = _paged(rng, total)
        params = _search_params(
            "SIMULATION", ("SIMULATION_KEY", "TITLE"),
            (("TITLE", "LIKE", f"%{word}%"),), page,
        )
        return ("like_search", self.client.get("/search", params),
                _page_check(rows, total))

    def _op_browse_pk(self, rng):
        key = simulation_key(rng.randrange(self.size["simulations"]))
        return browse_pk(self.client, key, self.size["timesteps"])

    def _op_browse_fk(self, rng):
        key = simulation_key(rng.randrange(self.size["simulations"]))
        return browse_fk(self.client, key)

    def _download(self, kind: str, rng, server_index: int):
        s = rng.randrange(server_index, self.size["simulations"], 2)
        t = rng.randrange(self.size["timesteps"])
        fixture = self.fixture

        def check(result):
            error = _status(200, result)
            if error is None and sha256(result[2]) != fixture.expected_sha(s, t):
                error = f"sha256 mismatch for {simulation_key(s)} ts{t}"
            return error

        request = self.client.get("/download", {"url": self.links[(s, t)]})
        return kind, request, check

    def _op_download(self, rng):
        return self._download("download", rng, 1)

    def _op_failover_download(self, rng):
        return self._download("failover_download", rng, 0)


# -- ingest ----------------------------------------------------------------------


class IngestOps:
    """The archiving client: one operation archives one result file, or
    updates or deletes one acknowledged row by primary key.

    Owns its ``Database.connect()`` connection.  After every commit it
    pumps replication (no background pump thread runs) and every
    ``checkpoint_every`` commits it checkpoints, inside the operation that
    triggered it, as a foreground stall.  A deleted row's file stays on its
    server, unlinked; a later archive operation reuses its name and
    overwrites it with a new result.

    ``per_simulation`` counts the acknowledged rows of each simulation.
    ``started`` and ``finished`` count operations begun and acknowledged:
    a reader that saw ``finished`` before its request and ``started``
    after it knows at most the difference of writes can lie between the
    counts and what it read.
    """

    #: equal weights, one of each kind per block of three: as many rows
    #: archived as deleted, so the table, the file servers, and the cost of
    #: every operation and checkpoint stay the same however long the run
    MIX = (("archive", 1), ("update", 1), ("delete", 1))

    def __init__(self, archive: DurableArchive, checkpoint_every: int) -> None:
        self.archive = archive
        self.checkpoint_every = checkpoint_every
        self.conn = archive.db.connect()
        self.acked = list(archive.rows)
        self.per_simulation = [0] * archive.n_simulations
        for _name, key in self.acked:
            self.per_simulation[int(key[-4:])] += 1
        #: (simulation, FILE_NAME) of deleted rows, free for reuse
        self.free: list[tuple[int, str]] = []
        self.commits = 0
        self.files = 0
        self.started = 0
        self.finished = 0
        self.deck = Deck(self.MIX)

    def _committed(self) -> None:
        self.archive.replication.pump()
        self.commits += 1
        if self.commits % self.checkpoint_every == 0:
            self.archive.db.checkpoint()

    def next_op(self, rng):
        kind, op, check = self._draw(rng)

        def run():
            self.started += 1
            return op()

        def acknowledge(result):
            error = check(result)
            self.finished += 1
            return error

        return kind, run, acknowledge

    def _draw(self, rng):
        kind = self.deck.draw(rng)
        if kind == "archive" or len(self.acked) < 2:
            return self._archive(rng)
        index = rng.randrange(len(self.acked))
        key = self.acked[index]
        if kind == "update":
            return self._update(rng, key)
        # swap-remove now, so no later operation picks the row again
        self.acked[index] = self.acked[-1]
        self.acked.pop()
        return self._delete(key)

    def _archive(self, rng):
        self.files += 1
        n = self.files
        if self.free:
            s, file_name = self.free.pop(rng.randrange(len(self.free)))
        else:
            s = rng.randrange(self.archive.n_simulations)
            file_name = f"in{n:06d}.turb"
        payload = rng.randrange(self.archive.N_PAYLOADS)
        archive = self.archive

        def op():
            rowcount = archive.archive_file(self.conn, s, file_name, n, payload)
            self._committed()
            return rowcount

        def check(rowcount):
            if rowcount != 1:
                return f"INSERT affected {rowcount} rows"
            self.acked.append((file_name, simulation_key(s)))
            self.per_simulation[s] += 1
            return None

        return "insert", op, check

    def _update(self, rng, key):
        measurement = rng.choice(("u,v,w,p", "u,v,w", "p"))

        def op():
            rowcount = self.conn.execute(
                "UPDATE RESULT_FILE SET MEASUREMENT = ? "
                "WHERE FILE_NAME = ? AND SIMULATION_KEY = ?",
                (measurement, *key),
            ).rowcount
            self._committed()
            return rowcount

        def check(rowcount):
            if rowcount != 1:
                return f"UPDATE affected {rowcount} rows"
            self.archive.rows[key][3] = measurement
            return None

        return "update", op, check

    def _delete(self, key):
        index, path, _payload, _m = self.archive.rows[key]
        server = self.archive.servers[index]
        s = int(key[1][-4:])

        def op():
            rowcount = self.conn.execute(
                "DELETE FROM RESULT_FILE WHERE FILE_NAME = ? AND SIMULATION_KEY = ?",
                key,
            ).rowcount
            self._committed()
            return rowcount

        def check(rowcount):
            if rowcount != 1:
                return f"DELETE affected {rowcount} rows"
            del self.archive.rows[key]
            self.per_simulation[s] -= 1
            if server.primary.server.filesystem.entry(path).linked:
                return f"{path} still linked after its row was deleted"
            self.free.append((s, key[0]))
            return None

        return "delete", op, check


def check_replicas(archive: DurableArchive, rec: Recorder) -> None:
    """Followers caught up after a drain, and repair ends checksum-clean."""
    archive.replication.drain()
    for replica_set in archive.servers:
        report = check_replica_set(replica_set)
        rec.check(None if report.consistent else report.describe(),
                  "replicas caught up")
    archive.replication.repair()
    for replica_set in archive.servers:
        report = check_replica_set(replica_set)
        rec.check(None if report.consistent else report.describe(),
                  "repair ends clean")


class Ingest(Workload):
    """The archiving pipeline linking new result files to rows."""

    name = "ingest"
    SIZES = {
        "full": dict(simulations=200, files_per_simulation=5, grid=4,
                     checkpoint_every=2000),
        "tiny": dict(simulations=8, files_per_simulation=2, grid=4,
                     checkpoint_every=20),
    }
    SYNC = False

    def build(self, directory: str) -> None:
        size = self.size
        self.archive = DurableArchive(
            os.path.join(directory, "db"), self.seed, size["simulations"],
            size["files_per_simulation"], size["grid"], sync=self.SYNC,
        )
        self.ops = IngestOps(self.archive, size["checkpoint_every"])

    def program(self):
        return self.archive.db, self.archive.linker, None

    def next_op(self, rng):
        return self.ops.next_op(rng)

    def verify(self, rec: Recorder) -> None:
        archive = self.archive
        check_replicas(archive, rec)
        # Reopen from the directory: every acknowledged row is there, with
        # its file linked on every replica, and nothing else is.
        reopened = Database(archive.directory)
        found = {
            (name, key): (measurement, value.url)
            for name, key, measurement, value in reopened.execute(
                "SELECT FILE_NAME, SIMULATION_KEY, MEASUREMENT, "
                "DOWNLOAD_RESULT FROM RESULT_FILE"
            ).rows
        }
        missing = wrong = unlinked = 0
        for key, (index, path, payload, measurement) in archive.rows.items():
            row = found.pop(key, None)
            if row is None:
                missing += 1
                continue
            if row != (measurement, archive.url(int(key[1][-4:]), key[0])[2]):
                wrong += 1
            for replica in archive.servers[index].replicas:
                entry = replica.server.filesystem.entry(path)
                if not entry.linked or sha256(entry.data) != archive.payload_sha[payload]:
                    unlinked += 1
        problems = {"missing": missing, "extra": len(found), "wrong": wrong,
                    "unlinked or corrupt": unlinked}
        rec.check(
            None if not any(problems.values()) else
            ", ".join(f"{n} {k}" for k, n in problems.items() if n),
            "reopened rows",
        )
        report = reconcile(reopened, archive.linker)
        rec.check(None if report.consistent else report.describe(), "reconcile")


# -- mixed -----------------------------------------------------------------------


class Mixed(Workload):
    """Portal reads while the archiving pipeline writes, durably.

    Reader and writer range over every simulation, so the reader's pages
    race the writer's commits.  A page is checked against itself (the rows
    on it agree with its footer total) and against the writer's
    bookkeeping, give or take the writes in flight during the request.
    The writer's operations are reported by kind; ``ops_per_s``,
    ``p50_ms`` and ``p99_ms`` are the reader's.
    """

    name = "mixed"
    SIZES = {
        "full": dict(simulations=200, files_per_simulation=5, grid=4,
                     checkpoint_every=100, writes_per_s=20.0),
        "tiny": dict(simulations=8, files_per_simulation=2, grid=4,
                     checkpoint_every=20, writes_per_s=20.0),
    }
    #: reader operations: equal weights, one of each per block of three
    MIX = (("browse_pk", 1), ("browse_fk", 1), ("search", 1))
    OPEN_LOOP = frozenset(("insert", "update", "delete"))

    def build(self, directory: str) -> None:
        size = self.size
        self.archive = DurableArchive(
            os.path.join(directory, "db"), self.seed, size["simulations"],
            size["files_per_simulation"], size["grid"], sync=True,
        )
        self.wsgi = self.archive.serve(os.path.join(directory, "sandbox"))
        self.client = WsgiClient(self.wsgi)
        self.client.login("turbulence", "consortium")
        self.writer = IngestOps(self.archive, size["checkpoint_every"])
        #: file path -> the last tokenized DATALINK a rendered page showed
        self.shown: dict[str, str] = {}
        #: seconds each write started after it fell due (last run)
        self.late: list[float] = []
        self.deck = Deck(self.MIX)
        self.forms = SearchForms()

    def program(self):
        return self.archive.db, self.archive.linker, self.wsgi.app.engine

    def run(self, seconds: float, rec: Recorder, rng, tracer=None) -> None:
        self.late = []
        writes = Recorder()
        writer_rng = random.Random(rng.random())
        thread = threading.Thread(
            target=self._write_open_loop,
            args=(seconds, writes, writer_rng, tracer), name="perfbench-writer",
        )
        thread.start()
        try:
            closed_loop(self.next_op, rng, seconds, rec, tracer)
        finally:
            thread.join()
        rec.merge(writes)

    def _write_open_loop(self, seconds, rec, rng, tracer) -> None:
        """Writes fall due at a fixed rate whatever the system does; each
        is timed from when it was due, and lateness is recorded."""
        interval = 1.0 / self.size["writes_per_s"]
        start = perf_counter()
        for i in itertools.count():
            due = start + i * interval
            if due >= start + seconds:
                break
            kind, fn, check = self.writer.next_op(rng)
            now = perf_counter()
            if now < due:
                sleep(due - now)
            began = perf_counter()
            self.late.append(began - due)
            elapsed, result, error = _timed(fn, tracer)
            if error is None:
                error = check(result)
            rec.add(kind, began + elapsed - due, error)

    def next_op(self, rng):
        kind = self.deck.draw(rng)
        n = self.size["simulations"]
        if kind == "browse_fk":
            return browse_fk(self.client, simulation_key(rng.randrange(n)))
        if kind == "browse_pk":
            s = rng.randrange(n)
            params = {"ref": "RESULT_FILE.SIMULATION_KEY",
                      "value": simulation_key(s)}
            return kind, self.client.get("/browse/pk", params), self._racing(
                range(s, s + 1), 1,
            )
        conditions, simulations = self.forms.draw(rng, n)
        page, _rows = _paged(rng, self._count(simulations))
        params = _search_params(
            "RESULT_FILE", rng.choice(RESULT_COLUMNS[1:]), conditions, page
        )
        return kind, self.client.get("/search", params), self._racing(
            simulations, page, collect=True,
        )

    def _count(self, simulations: range) -> int:
        counts = self.writer.per_simulation
        return sum(counts[s] for s in simulations)

    def _racing(self, simulations: range, page: int, collect: bool = False):
        """Checks a page read while the writer runs.

        ``in_flight`` bounds the writes that could lie between the
        bookkeeping counts taken now and the snapshot the request read.
        The total (the footer's, or for a footer-less first page its row
        count) must be the bookkeeping count within that bound.  The rows
        on the page must match the footer; when they do not and writes
        were in flight, it is the known two-snapshot defect of
        ``/search``.  With ``collect`` the page's DATALINKs are kept for
        the end-of-run download check.
        """
        writer = self.writer
        finished = writer.finished
        expected = self._count(simulations)

        def check(result):
            in_flight = writer.started - finished
            error = _status(200, result)
            if error:
                return error
            rows, total = _rendered(result[2])
            if total is None and page == 1:
                total = rows
            if total is not None and abs(total - expected) > in_flight:
                return (f"total {total}, expected {expected} "
                        f"with {in_flight} writes in flight")
            want = 0 if total is None else _on_page(page, total)
            if rows != want:
                if abs(rows - want) > in_flight:
                    return f"{rows} rows on page {page}, footer says {want}"
                return SEARCH_SNAPSHOT_SPLIT
            if collect:
                for url in _DATALINK.findall(result[2]):
                    url = url.decode().replace("&amp;", "&")
                    self.shown[_file_path(url)] = url
            return None

        return check

    def verify(self, rec: Recorder) -> None:
        # Every DATALINK a rendered page showed, whose row is still there,
        # can be downloaded, and is the file the generator wrote last.
        # (A row the writer deleted after the page showed it has no file
        # to download.)
        current = {
            path: self.archive.payload_sha[payload]
            for index, path, payload, _m in self.archive.rows.values()
        }
        for path, url in sorted(self.shown.items()):
            if path not in current:
                continue
            code, _headers, body = self.client.get("/download", {"url": url})()
            if code != 200:
                rec.check(f"HTTP {code}", f"download {path}")
            else:
                rec.check(
                    None if sha256(body) == current[path]
                    else "sha256 mismatch", f"download {path}",
                )
        check_replicas(self.archive, rec)


def _file_path(url: str) -> str:
    """``http://host/dir/<token>;name`` -> ``/dir/name``."""
    head, _, tail = url.split("://", 1)[1].partition("/")[2].rpartition("/")
    return f"/{head}/{tail.split(';', 1)[-1]}"


# -- postprocess -------------------------------------------------------------------


class Postprocess(Workload):
    """Server-side operations on archived datasets, with Zipf skew over a
    key space several times the 128-entry operation cache.  No usage log
    gives the real popularity of (dataset, operation) pairs; the exponent
    is Zipf's law as stated, 1, not a fitted value."""

    name = "postprocess"
    SIZES = {
        "full": dict(simulations=8, timesteps=4, grid=16, zipf=1.0),
        "tiny": dict(simulations=2, timesteps=2, grid=8, zipf=1.0),
    }
    #: (operation, parameter sets) per dataset: 17 keys per dataset
    OPERATIONS = (
        ("FieldStats", ({},)),
        ("EnergySpectrum", ({},)),
        ("GetImage", tuple({"slice": f"x{i}", "type": t}
                           for i in range(4) for t in ("u", "p"))),
        ("Subsample", tuple({"factor": f} for f in ("2", "4", "8"))),
        ("Vorticity", tuple({"slice": f"x{i}"} for i in range(4))),
    )

    def build(self, directory: str) -> None:
        size = self.size
        self.archive = build_turbulence_archive(
            n_simulations=size["simulations"], timesteps=size["timesteps"],
            grid=size["grid"], seed=self.seed,
        )
        self.wsgi = serve(
            self.archive.db, self.archive.linker, self.archive.document,
            self.archive.users,
            self.archive.make_engine(os.path.join(directory, "sandbox")),
        )
        self.client = WsgiClient(self.wsgi)
        self.client.login("turbulence", "consortium")
        # Popularity rank r takes operation r % 17 on the r // 17-th dataset
        # of a seeded order: which dataset is hot varies with the seed, the
        # operations at each popularity level do not.
        datasets = [
            (s, t)
            for s in range(size["simulations"])
            for t in range(size["timesteps"])
        ]
        random.Random(self.seed).shuffle(datasets)
        combos = [
            (name, params)
            for name, param_sets in self.OPERATIONS
            for params in param_sets
        ]
        self.keys = [
            (*dataset, *combo) for dataset in datasets for combo in combos
        ]
        self._cum = list(itertools.accumulate(
            1.0 / (rank + 1) ** size["zipf"] for rank in range(len(self.keys))
        ))
        #: key index -> sha256 of its first output, for later repeats
        self.outputs: dict[int, str] = {}

    def program(self):
        return self.archive.db, self.archive.linker, self.wsgi.app.engine

    def next_op(self, rng):
        index = rng.choices(range(len(self.keys)), cum_weights=self._cum)[0]
        s, t, name, params = self.keys[index]
        request = {
            "name": name, "colid": "RESULT_FILE.DOWNLOAD_RESULT",
            "key_FILE_NAME": f"ts{t:04d}.turb",
            "key_SIMULATION_KEY": simulation_key(s), **params,
        }

        def check(result):
            error = _status(200, result)
            if error:
                return error
            digest = sha256(result[2])
            first = self.outputs.get(index)
            if first is None:
                self.outputs[index] = digest
                if name == "FieldStats":
                    return self._check_stats(s, t, result[2])
            elif first != digest:
                return f"{name} {params} on {s}/{t} changed between calls"
            return None

        return "operation", self.client.get("/operation/run", request), check

    def _check_stats(self, s: int, t: int, body: bytes) -> str | None:
        """FieldStats against a NumPy reference over the same dataset."""
        path = f"/data/{simulation_key(s)}/ts{t:04d}.turb"
        server = self.archive.servers[s % len(self.archive.servers)]
        fields = decode_snapshot(server.filesystem.read(path))
        report = json.loads(body)["fields"]
        for name, values in fields.items():
            values = values.astype(np.float64).ravel()
            want = (values.min(), values.max(), values.mean(),
                    float(np.sqrt(np.mean(values * values))))
            got = tuple(report[name][k] for k in ("min", "max", "mean", "rms"))
            if not np.allclose(got, want, rtol=1e-9, atol=1e-12):
                return f"FieldStats {name} on {s}/{t}: {got} != {want}"
        return None
