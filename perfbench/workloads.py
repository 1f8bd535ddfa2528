"""The benchmark's workloads: seeded inputs, the timed request, and its check.

A workload turns a seed into an endless, deterministic stream of requests.
``request(k)`` is a pure function of (seed, k); ``run(req)`` is the only part
that is timed and calls nothing but the program's public API or its
in-process CLI ``main``; ``finish(req, raw)`` reads the output back and
checks it against the numpy oracle.  Functions of the package are always
looked up on their module at call time, so the tracer's wrappers see them.

Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from perfbench import oracle


@dataclass
class Outcome:
    """What one request produced.

    ``ops`` is the number of ops in the request and ``failed`` how many of
    them failed: raised, exited nonzero or gave output the oracle rejects;
    any failed op makes the run's result incorrect.  ``unconverged`` counts
    finds that returned, with fields the oracle confirms, a result flagged
    as not converged: the program kept its documented contract, so the op
    did not fail, but the caller got no zero-correlation state.
    ``fingerprint`` is compared between traced and untraced runs, and
    ``counts`` are per-layer counters summed over a traced prefix.
    """

    ops: int
    failed: int
    unconverged: int = 0
    fingerprint: Any = None
    counts: dict[str, float] = field(default_factory=dict)


def _tag(name: str) -> int:
    return zlib.crc32(name.encode())


def _key(*parts: int) -> int:
    """A 32-bit seed derived from integer parts; pure and order-sensitive."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def write_observable(path: str, matrix: np.ndarray) -> None:
    """Write a matrix in the package's observable JSON schema."""
    entries = [[[z.real, z.imag] for z in row] for row in matrix.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": matrix.shape[0], "entries": entries}, fh)


class Workload:
    """Base class; subclasses define the inputs, the op and the check."""

    name = ""
    op_unit = ""
    # Requests in the prefix that the traced run replays.
    trace_requests = 0
    # Requests after the warm-up that the peak-RSS probe serves.
    probe_count = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.tag = _tag(self.name)
        self.workdir = workdir
        self.ul = importlib.import_module("uncertainty_lab")
        self.cli = importlib.import_module("uncertainty_lab.cli")

    def request(self, k: int) -> Any:
        raise NotImplementedError

    def run(self, req: Any) -> Any:
        raise NotImplementedError

    def finish(self, req: Any, raw: Any) -> Outcome:
        raise NotImplementedError

    def ops_in(self, req: Any) -> int:
        return 1

    def failure(self, req: Any) -> Outcome:
        """All ops of the request failed: it raised, exited nonzero or gave
        output the check cannot read, none of which the program does on
        these inputs."""
        n = self.ops_in(req)
        return Outcome(n, n)

    def warmup(self) -> list[Any]:
        """Requests run untimed before measuring, so lazy set-up is done."""
        return [self.request(0)]

    def probe_requests(self) -> list[Any]:
        """Requests a fresh interpreter serves to measure the program's peak
        resident set on this workload."""
        return self.warmup() + [self.request(k) for k in range(self.probe_count)]

    def setup_code(self) -> str:
        """Python source a fresh interpreter runs to measure set-up time: it
        imports the CLI module and serves this workload's first op on a fixed,
        seed-independent input."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScanRequest:
    seed: int
    rows: int


class ScanWorkload(Workload):
    """CLI ``scan`` of a fixed pair; one op is one CSV row."""

    op_unit = "row"
    dim = 0
    # Rows per timed call, and per call of the peak-RSS probe.
    rows = 0
    probe_rows = 0
    # Rows of the untimed warm-up call: enough to reach every code path.
    warmup_rows = 100

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.mat_a, self.mat_b = self.pair()
        self.path_a = os.path.join(workdir, "a.json")
        self.path_b = os.path.join(workdir, "b.json")
        self.out = os.path.join(workdir, "scan.csv")
        write_observable(self.path_a, self.mat_a)
        write_observable(self.path_b, self.mat_b)

    def pair(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def ops_in(self, req: ScanRequest) -> int:
        return req.rows

    def request(self, k: int) -> ScanRequest:
        return ScanRequest(_key(self.seed, self.tag, k), self.rows)

    def warmup(self) -> list[ScanRequest]:
        return [ScanRequest(_key(self.seed, self.tag, 1, 0), self.warmup_rows)]

    def probe_requests(self) -> list[ScanRequest]:
        return [ScanRequest(self.request(0).seed, self.probe_rows or self.rows)]

    def argv(self, req: ScanRequest, out: str) -> list[str]:
        return [
            "scan", self.path_a, self.path_b,
            "--samples", str(req.rows), "--seed", str(req.seed), "--out", out,
        ]

    def run(self, req: ScanRequest) -> int:
        return self.cli.main(self.argv(req, self.out))

    def finish(self, req: ScanRequest, raw: int) -> Outcome:
        if raw != 0 or not os.path.exists(self.out):
            return self.failure(req)
        with open(self.out, "r", encoding="utf-8") as fh:
            text = fh.read()
        os.remove(self.out)
        wrong = oracle.check_scan_csv(text, req.rows, self.dim, self.mat_a, self.mat_b)
        fingerprint = hashlib.sha256(text.encode()).hexdigest()
        return Outcome(req.rows, wrong, 0, fingerprint, {"csv_bytes": len(text.encode())})

    def setup_code(self) -> str:
        argv = self.argv(ScanRequest(0, 1), os.path.join(self.workdir, "setup.csv"))
        return f"from uncertainty_lab.cli import main\nraise SystemExit(main({argv!r}))\n"


class ScanQutrit(ScanWorkload):
    name = "scan-qutrit"
    dim = 3
    # Timed calls of 1000 rows: with 10000-row calls a run holds five, too
    # few for their median to repeat (see README.md).  The fixed cost of a
    # call is under 1% of it at this size.  The peak-RSS probe serves the
    # documented use, ``scan --samples 10000``.
    rows = 1000
    probe_rows = 10000
    trace_requests = 2

    def pair(self) -> tuple[np.ndarray, np.ndarray]:
        gm = importlib.import_module("uncertainty_lab.gellmann")
        return gm.su3_lambda(3).matrix.copy(), gm.su3_lambda(4).matrix.copy()


class ScanD64(ScanWorkload):
    name = "scan-d64"
    dim = 64
    # About 1 s a call at this commit; the peak-RSS probe's call writes a
    # 5.4 MB CSV body.
    rows = 1000
    probe_rows = 2000
    trace_requests = 2

    def pair(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng([self.seed, self.tag])
        return random_hermitian(rng, self.dim), random_hermitian(rng, self.dim)


@dataclass(frozen=True)
class Triple:
    mat_a: np.ndarray
    mat_b: np.ndarray
    phi: np.ndarray
    a: Any
    b: Any
    state: Any


class ReportFresh(Workload):
    """A fresh random (A, B, phi) per op, d cycling 2..6; one op is the four
    per-state calls of the acceptance suite on that triple."""

    name = "report-fresh"
    op_unit = "report"
    trace_requests = 1000
    probe_count = 500
    dims = (2, 3, 4, 5, 6)

    def request(self, k: int) -> Triple:
        dim = self.dims[k % len(self.dims)]
        rng = np.random.default_rng([self.seed, self.tag, k])
        mat_a, mat_b = random_hermitian(rng, dim), random_hermitian(rng, dim)
        phi = random_state(rng, dim)
        ul = self.ul
        return Triple(
            mat_a, mat_b, phi,
            ul.validate_observable(mat_a), ul.validate_observable(mat_b), ul.StateVector(phi),
        )

    def warmup(self) -> list[Any]:
        return [self.request(k) for k in range(len(self.dims))]

    def run(self, req: Triple) -> tuple:
        ul = self.ul
        return (
            ul.evaluate(req.a, req.b, req.state),
            ul.correlation_record(req.a, req.b, req.state),
            ul.classify(req.a, req.b, req.state),
            ul.sum_relations(req.a, req.b, req.state),
        )

    def finish(self, req: Triple, raw: tuple) -> Outcome:
        wrong = int(not oracle.check_report(req.mat_a, req.mat_b, req.phi, *raw))
        return Outcome(1, wrong, 0, raw)

    def setup_code(self) -> str:
        return (
            "import uncertainty_lab.cli\n"
            "import uncertainty_lab as ul\n"
            "a, b, phi = ul.su3_lambda(3), ul.su3_lambda(4), ul.uniform_superposition(3)\n"
            "ul.evaluate(a, b, phi); ul.correlation_record(a, b, phi)\n"
            "ul.classify(a, b, phi); ul.sum_relations(a, b, phi)\n"
        )


@dataclass(frozen=True)
class FindRequest:
    pair: int
    a: Any
    b: Any
    cfg: Any


class FindSweep(Workload):
    """Library ``find`` with the default config over every non-commuting
    generalized Gell-Mann pair at d = 3, 4 and seeded random pairs at
    d = 3, 8, 16, 64; each pass over the pairs is in a seeded order, and
    every op gets its own restart seed.  One op is one ``find``.  A random
    pair is built from (seed, pair index) when a request needs it."""

    name = "find-sweep"
    op_unit = "find"
    random_dims = (3, 8, 16, 64)
    random_per_dim = 64
    probe_count = 20

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        gm = importlib.import_module("uncertainty_lab.gellmann")
        self.gell_mann_pairs: list[tuple[Any, Any]] = []
        for dim in (3, 4):
            basis = gm.gell_mann(dim).matrices
            for i, a in enumerate(basis):
                for b in basis[i + 1 :]:
                    if np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix) > 1e-9:
                        self.gell_mann_pairs.append((a, b))
        self.n_pairs = len(self.gell_mann_pairs) + len(self.random_dims) * self.random_per_dim
        self.trace_requests = self.n_pairs
        self._order: tuple[int, np.ndarray] = (-1, np.empty(0, dtype=int))

    def pair(self, index: int) -> tuple[Any, Any]:
        """The observables of pair ``index``; a pure function of (seed, index)."""
        if index < len(self.gell_mann_pairs):
            return self.gell_mann_pairs[index]
        dim = self.random_dims[(index - len(self.gell_mann_pairs)) // self.random_per_dim]
        rng = np.random.default_rng([self.seed, self.tag, 4, index])
        mat_a, mat_b = random_hermitian(rng, dim), random_hermitian(rng, dim)
        return self.ul.validate_observable(mat_a), self.ul.validate_observable(mat_b)

    def _request(self, index: int, finder_seed: int) -> FindRequest:
        a, b = self.pair(index)
        return FindRequest(index, a, b, self.ul.FinderConfig(seed=finder_seed))

    def request(self, k: int) -> FindRequest:
        cycle, pos = divmod(k, self.n_pairs)
        if self._order[0] != cycle:
            rng = np.random.default_rng([self.seed, self.tag, 1, cycle])
            self._order = (cycle, rng.permutation(self.n_pairs))
        return self._request(int(self._order[1][pos]), _key(self.seed, self.tag, 2, k))

    def warmup(self) -> list[FindRequest]:
        """One random pair of each dimension."""
        first_random = len(self.gell_mann_pairs)
        return [
            self._request(first_random + i * self.random_per_dim, _key(self.seed, self.tag, 3))
            for i in range(len(self.random_dims))
        ]

    def run(self, req: FindRequest) -> Any:
        return self.ul.find(req.a, req.b, req.cfg)

    def finish(self, req: FindRequest, raw: Any) -> Outcome:
        amps = raw.state.amps
        mat_a, mat_b = req.a.matrix, req.b.matrix
        wrong = not oracle.check_find_fields(mat_a, mat_b, amps, raw.delta_a, raw.delta_b) or (
            raw.converged and not oracle.check_found(mat_a, mat_b, amps, req.cfg.spread_floor)
        )
        # FinderResult does not say how many restarts a failed search ran;
        # count all of them.
        restarts = raw.restart_index + 1 if raw.converged else req.cfg.restarts
        fingerprint = (
            amps.tobytes(), raw.objective, raw.delta_a, raw.delta_b,
            raw.iterations, raw.restart_index, raw.converged,
        )
        counts = {
            "finds": 1,
            "restarts": restarts,
            "iterations": raw.iterations,
            "converged": int(raw.converged),
        }
        return Outcome(1, int(wrong), int(not wrong and not raw.converged), fingerprint, counts)

    def setup_code(self) -> str:
        return (
            "import uncertainty_lab.cli\n"
            "import uncertainty_lab as ul\n"
            "raise SystemExit(0 if ul.find(ul.su3_lambda(3), ul.su3_lambda(4)).converged else 3)\n"
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ScanQutrit, ScanD64, ReportFresh, FindSweep)
}
