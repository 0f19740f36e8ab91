"""The archives the workloads run against, built deterministically from
the seed, plus the generator's own bookkeeping the output checks use.

Two shapes:

* :class:`PortalArchive` — the in-memory archive ``repro serve``
  builds (``build_turbulence_archive``), served by ``EasiaApp`` behind a
  ``ConnectionPool`` and ``WsgiAdapter`` exactly as the CLI wires it.
* :class:`DurableArchive` — a WAL-backed archive with replicated file
  servers.  The library builder only builds in-memory archives, so this
  one is assembled here from the public pieces: ``Database(directory,
  sync)``, ``set_datalink_hooks``, ``create_turbulence_schema``,
  ``make_timestep_file``, ``FileServer`` and ``ReplicationManager``.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import random

from repro import EasiaApp
from repro.datalink import DataLinker, TokenManager
from repro.fileserver import FileServer
from repro.netsim import MBYTE, PAPER_RATES, format_duration, transfer_seconds
from repro.operations import OperationEngine
from repro.replication import ReplicationManager
from repro.sqldb import Database
from repro.sqldb.connection import ConnectionPool
from repro.turbulence import build_turbulence_archive
from repro.turbulence.generator import make_timestep_file
from repro.turbulence.schema import create_turbulence_schema
from repro.web.auth import UserManager
from repro.web.wsgi import WsgiAdapter
from repro.xuis import Customizer, generate_default_xuis

#: the paper's Table 1: (period, direction) -> (85 MB time, 544 MB time)
TABLE1 = {
    ("day", "to_southampton"): ("45m20s", "4h50m08s"),
    ("day", "from_southampton"): ("30m38s", "3h16m02s"),
    ("evening", "to_southampton"): ("19m32s", "2h05m03s"),
    ("evening", "from_southampton"): ("5m51s", "37m23s"),
}

#: pooled connections per app; load comes from at most two threads
POOL_SIZE = 2

#: the simulation titles ``build_turbulence_archive`` cycles through; the
#: wildcard searches count their matches from this copy
TITLES = (
    "Turbulent channel flow at Re_tau=180",
    "Temporal mixing layer",
    "Homogeneous isotropic decay",
    "Turbulent pipe flow",
    "Boundary layer with pressure gradient",
    "Taylor-Green vortex breakdown",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simulation_key(s: int) -> str:
    return f"S1999011015{s:04d}"


def check_table1() -> list[str]:
    """Failures (empty when exact) of the paper's Table 1 regeneration."""
    failures = []
    for key, (small, large) in TABLE1.items():
        rate = PAPER_RATES[key]
        got = (
            format_duration(transfer_seconds(85 * MBYTE, rate)),
            format_duration(transfer_seconds(544 * MBYTE, rate)),
        )
        if got != (small, large):
            failures.append(f"Table 1 {key}: got {got}, paper {(small, large)}")
    return failures


def serve(db, linker, document, users, engine) -> WsgiAdapter:
    """The app as ``repro serve`` runs it: pooled connections, WSGI."""
    app = EasiaApp(db, linker, document, users, engine)
    app.container.use_connection_pool(ConnectionPool(db, size=POOL_SIZE))
    return WsgiAdapter(app)


class PortalArchive:
    """``build_turbulence_archive`` output plus the generator's bookkeeping:
    the simulation titles and the bytes every result file was generated
    from.  The builder pins simulation ``s`` to file server ``s % 2``."""

    def __init__(self, n_simulations: int, timesteps: int, grid: int,
                 seed: int, sandbox_root: str) -> None:
        self.n_simulations = n_simulations
        self.grid = grid
        self.seed = seed
        self.archive = build_turbulence_archive(
            n_simulations=n_simulations, timesteps=timesteps, grid=grid,
            n_file_servers=2, seed=seed, replication_factor=2,
        )
        engine = self.archive.make_engine(sandbox_root)
        self.wsgi = serve(
            self.archive.db, self.archive.linker, self.archive.document,
            self.archive.users, engine,
        )
        self._sha: dict[tuple[int, int], str] = {}

    def titles(self) -> list[str]:
        return [TITLES[s % len(TITLES)] for s in range(self.n_simulations)]

    def expected_sha(self, s: int, t: int) -> str:
        """sha256 of the bytes the builder generated for (simulation,
        timestep), regenerated here independently and memoised."""
        key = (s, t)
        if key not in self._sha:
            self._sha[key] = sha256(
                make_timestep_file(self.grid, seed=self.seed + s, timestep=t)
            )
        return self._sha[key]


class DurableArchive:
    """WAL-backed archive, replication factor 2 over two logical hosts.

    ``rows`` is the generator's bookkeeping of every acknowledged
    RESULT_FILE row: (FILE_NAME, SIMULATION_KEY) -> [server index, path,
    payload index, MEASUREMENT].
    """

    N_PAYLOADS = 16

    def __init__(self, directory: str, seed: int, n_simulations: int,
                 files_per_simulation: int, grid: int, sync: bool) -> None:
        self.directory = directory
        self.n_simulations = n_simulations
        self.files_per_simulation = files_per_simulation
        self.grid = grid
        self.payloads = [
            make_timestep_file(grid, seed=seed, timestep=t)
            for t in range(self.N_PAYLOADS)
        ]
        self.payload_sha = [sha256(p) for p in self.payloads]
        self.tokens = TokenManager(
            secret=b"easia-shared-secret", validity_seconds=3600.0
        )
        self.linker = DataLinker(self.tokens)
        self.replication = ReplicationManager(self.linker, 2)
        self.servers = [
            self.replication.create_replica_set(
                f"fs{i + 1}.soton.ac.uk",
                [FileServer(f"fs{i + 1}-{r}.soton.ac.uk") for r in "ab"],
            )
            for i in range(2)
        ]
        self.db = Database(directory, sync=sync)
        self.db.set_datalink_hooks(self.linker)
        create_turbulence_schema(self.db)
        self.rows: dict[tuple[str, str], list] = {}
        self._load(random.Random(seed))

    def _load(self, rng: random.Random) -> None:
        conn = self.db.connect()
        with conn.transaction():
            conn.execute(
                "INSERT INTO AUTHOR VALUES (?, ?, ?, ?)",
                ("A19990110150000", "Mark Papiani", "papiani@computer.org",
                 "University of Southampton"),
            )
            for s in range(self.n_simulations):
                title = TITLES[s % len(TITLES)]
                conn.execute(
                    "INSERT INTO SIMULATION VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (simulation_key(s), "A19990110150000", title,
                     f"Synthetic reproduction dataset for: {title}",
                     self.grid, 180.0 + 40.0 * s, self.files_per_simulation,
                     dt.date(1999, 1, 10)),
                )
                for t in range(self.files_per_simulation):
                    self.archive_file(
                        conn, s, f"ts{t:04d}.turb", t,
                        rng.randrange(self.N_PAYLOADS),
                    )
        conn.close()
        self.replication.drain()
        self.db.checkpoint()

    def url(self, s: int, file_name: str) -> tuple[int, str, str]:
        index = s % 2
        path = f"/data/{simulation_key(s)}/{file_name}"
        return index, path, f"http://{self.servers[index].host}{path}"

    def archive_file(self, conn, s: int, file_name: str, timestep: int,
                     payload: int) -> int:
        """Put one result file on its file server, then INSERT its row
        (linking the file under FILE LINK CONTROL).  Returns the rowcount."""
        index, path, url = self.url(s, file_name)
        data = self.payloads[payload]
        self.servers[index].put(path, data)
        rowcount = conn.execute(
            "INSERT INTO RESULT_FILE VALUES (?, ?, ?, ?, ?, ?, ?)",
            (file_name, simulation_key(s), timestep, "u,v,w,p", "TURB",
             len(data), url),
        ).rowcount
        self.rows[(file_name, simulation_key(s))] = [
            index, path, payload, "u,v,w,p",
        ]
        return rowcount

    def serve(self, sandbox_root: str) -> WsgiAdapter:
        """The portal over this archive: the default XUIS with the paper's
        author substitution, and the demo accounts."""
        document = Customizer(
            generate_default_xuis(self.db, title="UK Turbulence Consortium Archive")
        ).substitute_fk("SIMULATION.AUTHOR_KEY", "AUTHOR.NAME").document
        users = UserManager(with_guest=True)
        users.add_user("turbulence", "consortium", role="user")
        engine = OperationEngine(self.db, self.linker, document, sandbox_root)
        return serve(self.db, self.linker, document, users, engine)
