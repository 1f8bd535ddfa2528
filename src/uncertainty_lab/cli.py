"""Command-line front end.

Subcommands:

* ``eval``  -- uncertainty report + correlation record + classification for
  (A, B, state) read from JSON files;
* ``find``  -- search for a zero-correlation state of a pair;
* ``scan``  -- classify Haar-random states and write a CSV;
* ``demo``  -- self-checking walkthrough of the lambda_3/lambda_4 example;
* ``basis`` -- emit a generalized Gell-Mann basis as JSON.

Exit codes: 0 success, 1 failed demo golden check, 2 input or guard error, a
value past the float range (for ``eval``, ``find`` and ``scan`` also a pair
for which 4 ||A||_F^2 or 4 ||B||_F^2 is, checked before any moment is
computed) or a MemoryError, 3 finder did not converge, 4 an internal
cross-check failed, 5 stdout did not take all output (a closed pipe or a write
error).  Every JSON output embeds a run manifest, a CSV ``--out`` a
``<out>.manifest.json`` sidecar; ``eval --format csv`` to stdout prints the CSV
alone.  The environment variable UNCERTAINTY_LAB_SEED gives the default seed,
read on each call.

``main`` may be called repeatedly in one process: it builds its parser once,
on the first call (``_parser``), and each call parses its own flags.  A call
that exits 5 on a failed write drops what stdout did not take and leaves
stdout as it found it, so the next call writes (or fails) on its own.

A call loads only the modules its command runs.  ``import uncertainty_lab.cli``
loads ``core`` and ``moments``; the parser adds ``finder`` (the ``find`` flags
are ``FinderConfig``'s fields); ``eval`` adds ``correlations``, ``relations``
and ``state_sets``, ``scan`` adds ``state_sets``, ``_floatrepr`` and
``hashlib``, ``basis`` adds ``gellmann``, and ``demo`` adds ``gellmann`` and
the modules of ``eval``.

Each number of a scan's CSV is Python's shortest round-trip ``repr`` of the
computed double, so ``float(field)`` gives that double back exactly; the
vectorized formatter ``_floatrepr.write_reprs`` produces those same bytes for
a whole block of rows in one call, whose scratch grows with the block, not
with ``--samples``.

Every ``--out`` file is written whole or not at all (``_write``): the bytes go
to a temporary file beside it, which replaces it after the last byte.  A scan
streams its body there one block at a time, so its memory does not grow with
``--samples``, and a failing check leaves ``--out`` as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .core import (
    DEFAULT_TOLERANCES,
    CommutingPair,
    Tolerances,
    ValidationError,
    observable_from_json_dict,
    observable_to_json_dict,
    state_from_json_dict,
)
from .moments import _is_eigen

if TYPE_CHECKING:
    from .state_sets import _ScanBlock

# The names taken from the modules that not every command runs, by module.  A
# command's first call imports its modules (``_bind``) and binds their names as
# globals here, where its bare names read them.
_LAZY = {
    ".correlations": "correlation correlation_record",
    ".finder": "FinderConfig find",
    ".gellmann": "gell_mann su3_lambda two_level_state uniform_superposition",
    ".relations": "REPORT_CSV_HEADER evaluate report_csv_row",
    ".state_sets": "ScanConfig _rng_scheme _scan_blocks classify",
    "._floatrepr": "WORD write_reprs",
    "hashlib": "sha256",
}


def _bind(modules: str) -> None:
    """Import ``modules`` (keys of ``_LAZY``) and bind their names as globals; a
    name already bound (by an earlier call, or patched in) is kept."""
    scope = globals()
    for module in modules.split():
        names = [name for name in _LAZY[module].split() if name not in scope]
        if names:
            source = import_module(module, __package__)
            scope.update((name, getattr(source, name)) for name in names)


def __getattr__(name: str) -> Any:
    """``cli.<name>`` for a name of ``_LAZY`` that no call has bound yet: its
    module's object, read afresh (PEP 562)."""
    for module, names in _LAZY.items():
        if name in names.split():
            return getattr(import_module(module, __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SEED_ENV_VAR = "UNCERTAINTY_LAB_SEED"


class CliError(Exception):
    """Input or guard failure; maps to exit code 2."""


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise CliError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _tolerances(args: argparse.Namespace) -> Tolerances:
    return Tolerances(tol_zero=args.tol_zero, eps_spread=args.eps_spread)


def _load(path: str, parse: Callable[[Any, Tolerances], Any], tol: Tolerances) -> Any:
    """Read ``path`` as JSON and build an object from it with ``parse``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise CliError(f"input file not found: {path}") from exc
    except OSError as exc:
        raise CliError(f"cannot read input path {path}: {exc}") from exc
    # ValueError: malformed JSON, undecodable bytes, or an integer literal
    # past the int-string digit limit; RecursionError: nested too deep
    except (ValueError, RecursionError) as exc:
        raise CliError(f"invalid JSON in {path}: {exc}") from exc
    try:
        return parse(raw, tol)
    except ValidationError as exc:
        raise CliError(f"schema violation in {path}: {exc}") from exc


def _manifest(command: str, input_paths: Sequence[str], seed: int, tol: Tolerances) -> dict:
    return {
        "command": command,
        "input_paths": list(input_paths),
        "seed": seed,
        "tolerances": tol.to_json_dict(),
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


_TEMP_IDS = itertools.count()  # with the process id, names each temporary file once


def _write(out_path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``out_path`` whole or not at all.

    The chunks go to a temporary file beside the (symlink-resolved) target,
    created as ``open(out_path, "w")`` creates a file (mode 0o666 less the
    umask), which ``os.replace`` moves onto the target after the last chunk.
    On any exception, ``KeyboardInterrupt`` included, the temporary file is
    removed, and the target keeps its old bytes or stays absent.  A name
    that is taken (a file a killed run left, whose process id recurs) is
    skipped for the next one, and that file is never opened.  A target
    that exists but is no regular file (``/dev/null``, a pipe) cannot be
    replaced and is written directly.
    """
    target = os.path.realpath(out_path)
    direct = os.path.exists(target) and not os.path.isfile(target)
    head, tail = os.path.split(target)
    try:
        while True:
            path = target if direct else os.path.join(
                head, f".{tail}.{os.getpid()}.{next(_TEMP_IDS)}.tmp"
            )
            # only O_EXCL raises FileExistsError: the name is taken, so try the next
            with contextlib.suppress(FileExistsError):
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | (os.O_TRUNC if direct else os.O_EXCL),
                             0o666)
                break
        try:
            with open(fd, "wb") as fh:
                fh.writelines(chunks)
            if not direct:
                os.replace(path, target)
        except BaseException:
            if not direct:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise
    except OSError as exc:
        raise CliError(f"cannot write output path {out_path}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        print(text)
    else:
        _write(out_path, [(text if text.endswith("\n") else text + "\n").encode()])


def _fmt(x: float) -> str:
    """12 significant digits, with sub-tolerance noise snapped to zero."""
    return "0" if abs(x) < 1e-12 else f"{x:.12g}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    a = _load(args.observable_a, observable_from_json_dict, tol)
    b = _load(args.observable_b, observable_from_json_dict, tol)
    phi = _load(args.state, state_from_json_dict, tol)
    report = evaluate(a, b, phi, tol)
    record = correlation_record(a, b, phi, tol)
    try:
        cls = classify(a, b, phi, tol)
        flags = (cls.eigen_a, cls.eigen_b, cls.in_s_ab, cls.in_s_comm, cls.in_s_anti)
    except CommutingPair:  # a pair without sets, whose eigen flags follow the spread test
        cls = None
        flags = (_is_eigen(report.delta_a, tol), _is_eigen(report.delta_b, tol)) + (False,) * 3
    manifest = _manifest("eval", [args.observable_a, args.observable_b, args.state], args.seed, tol)
    if args.format == "csv":
        row = report_csv_row(a.dim, args.seed, report, record.pearson, flags)
        _emit(REPORT_CSV_HEADER + "\n" + row, args.out)
        if args.out is not None:
            _emit(json.dumps(manifest, indent=2), args.out + ".manifest.json")
    else:
        payload = {
            "uncertainty": report.to_json_dict(),
            "correlation": record.to_json_dict(),
            "classification": None if cls is None else cls.to_json_dict(),
            "manifest": manifest,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_find(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    a = _load(args.observable_a, observable_from_json_dict, tol)
    b = _load(args.observable_b, observable_from_json_dict, tol)
    cfg = FinderConfig(**{f.name: getattr(args, f.name) for f in fields(FinderConfig)})
    result = find(a, b, cfg, tol)
    payload = {
        "result": result.to_json_dict(),
        "config": cfg.to_json_dict(),
        "manifest": _manifest("find", [args.observable_a, args.observable_b], args.seed, tol),
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0 if result.converged else 3


_FLAG_COLUMNS = ("eigen_a", "eigen_b", "s_ab", "s_comm", "s_anti")  # ClassificationResult order


def _scan_header(dim: int) -> str:
    amp_cols = [f"amp{i}_{part}" for i in range(dim) for part in ("re", "im")]
    return ",".join(["index", *amp_cols, "re_c", "im_c", "pearson", *_FLAG_COLUMNS])


def _scan_csv(block: _ScanBlock) -> bytearray:
    """The CSV rows of a scan block.

    A row buffer holds the block's rows, NUL-padded: the index and a comma,
    in whole words; per number a 32-byte slot; then the flags and a newline
    in 16 bytes.  Each number waits in the last word of its slot while one
    ``write_reprs`` call for the whole block writes its ``repr`` into the
    first 24 bytes, and a comma then takes its place.  The rows are the
    buffer's bytes without the NULs.
    """
    n = len(block.c)
    digits = len(str(block.start + n - 1))  # of the widest index
    index_width = (digits + 8) // 8 * 8
    cols = 2 * block.phis.shape[1] + 3  # the amplitudes' parts, re_c, im_c, pearson
    rows = bytearray(n * (index_width + 32 * cols + 16))
    buf = np.frombuffer(rows, np.uint8).reshape(n, -1)
    index = [str(i) for i in range(block.start, block.start + n)]
    buf[:, :digits] = np.array(index, dtype=f"S{digits}").view(np.uint8).reshape(n, -1)
    buf[:, index_width - 1] = ord(",")
    slots = buf[:, index_width : index_width + 32 * cols].view(WORD).reshape(n, cols, 4)
    numbers = slots[..., 3].view(np.float64)
    numbers[:, :-3] = block.phis.view(float)
    numbers[:, -3:-1] = block.c.view(float).reshape(n, 2)
    numbers[:, -1] = block.pearson
    write_reprs(numbers, slots[..., :3])
    slots[..., 3] = ord(",")
    slots[block.flags[:, :2].any(axis=1), -1, :3] = 0  # no pearson (NaN) on eigen rows
    tail = buf[:, -16:-6]
    tail[:, ::2] = block.flags + ord("0")
    tail[:, 1::2] = ord(",")
    tail[:, -1] = ord("\n")
    return rows.translate(None, b"\0")


def _cmd_scan(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    a = _load(args.observable_a, observable_from_json_dict, tol)
    b = _load(args.observable_b, observable_from_json_dict, tol)
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")
    config = ScanConfig(samples=args.samples, seed=args.seed, tolerances=tol, start=args.start)
    blocks = _scan_blocks(a, b, config)  # the guards raise here, before any output
    digest, counts = sha256(), np.zeros(len(_FLAG_COLUMNS), dtype=np.int64)

    def hashed(data: bytes) -> bytes:
        digest.update(data)
        return data

    def body() -> Iterator[bytes]:
        """The header, then one chunk per block, as ``_scan_blocks`` yields it."""
        yield hashed((_scan_header(a.dim) + "\n").encode())
        for block in blocks:
            np.add(counts, block.flags.sum(axis=0), out=counts)
            yield hashed(_scan_csv(block))

    _write(args.out, body())
    manifest = _manifest("scan", [args.observable_a, args.observable_b], args.seed, tol)
    manifest["start"] = args.start
    manifest["samples"] = args.samples
    manifest["rng"] = _rng_scheme(a.dim)
    manifest["output"] = args.out
    manifest["class_counts"] = dict(zip(_FLAG_COLUMNS, counts.tolist()))
    manifest["body_sha256"] = digest.hexdigest()
    _emit(json.dumps(manifest, indent=2), args.out + ".manifest.json")
    return 0


def _cmd_basis(args: argparse.Namespace) -> int:
    basis = gell_mann(args.dim)
    payload = {
        "dim": basis.dim,
        "note": basis.note,
        "matrices": [observable_to_json_dict(m) for m in basis.matrices],
        "manifest": _manifest("basis", [], args.seed, _tolerances(args)),
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    tol = Tolerances()
    l3, l4 = su3_lambda(3), su3_lambda(4)
    phi2 = uniform_superposition(3)
    failures: list[str] = []

    def check(name: str, ok: bool, line: str) -> None:
        print(f"{line}  [{'PASS' if ok else 'FAIL'}]")
        if not ok:
            failures.append(name)

    values = [
        (0.3 + 0.35 * m) * complex(np.cos(2.0 * np.pi * m / 6.0), np.sin(2.0 * np.pi * m / 6.0))
        for m in range(6)
    ]
    worst = 0.0
    spreads_ok = True
    for a_val in values:
        for b_val in values:
            phi1 = two_level_state(a_val, b_val)
            worst = max(worst, abs(correlation(l3, l4, phi1)))
            rec = correlation_record(l3, l4, phi1, tol)
            spreads_ok = spreads_ok and rec.pearson is not None
    check(
        "zero-correlation family",
        worst <= 1e-12 and spreads_ok,
        f"max |C(l3,l4)| over 6x6 grid of nonzero (a, b) = {_fmt(worst)} with positive spreads",
    )

    c2 = correlation(l3, l4, phi2)
    check("C(phi2)", abs(c2 - 1.0 / 3.0) <= 1e-12, f"C(phi2) = {_fmt(c2.real)} (expected 1/3)")

    report = evaluate(l3, l4, phi2, tol)
    check("HR bound(phi2)", report.hr_bound <= 1e-12, f"HR bound(phi2) = {_fmt(report.hr_bound)}")
    check(
        "Schrodinger bound(phi2)",
        abs(report.schrodinger_bound - 1.0 / 3.0) <= 1e-12,
        f"Schrodinger bound(phi2) = {_fmt(report.schrodinger_bound)}",
    )
    expected_product = 2.0 / (3.0 * np.sqrt(3.0))
    check(
        "product(phi2)",
        abs(report.product - expected_product) <= 1e-12 and report.product >= 1.0 / 3.0,
        f"product(phi2) = {_fmt(report.product)} >= 1/3",
    )

    cls1 = classify(l3, l4, two_level_state(1.0, 1.0), tol)
    cls2 = classify(l3, l4, phi2, tol)
    check(
        "classification",
        cls1.in_s_ab and cls2.in_s_comm and not cls2.in_s_ab,
        "phi1(1,1) has zero correlation; phi2 kills only the commutator bound",
    )

    print()
    print(f"{'state':<12}{'delta_l3':>16}{'delta_l4':>16}{'product':>16}"
          f"{'hr_bound':>16}{'|C|':>16}{'pearson':>16}")
    for label, phi in (("phi1(1,1)", two_level_state(1.0, 1.0)), ("phi2", phi2)):
        rep = evaluate(l3, l4, phi, tol)
        rec = correlation_record(l3, l4, phi, tol)
        print(
            f"{label:<12}{_fmt(rep.delta_a):>16}{_fmt(rep.delta_b):>16}"
            f"{_fmt(rep.product):>16}{_fmt(rep.hr_bound):>16}"
            f"{_fmt(rep.general_bound):>16}"
            f"{_fmt(rec.pearson) if rec.pearson is not None else '-':>16}"
        )

    if failures:
        print()
        print("failed golden checks: " + ", ".join(failures))
        return 1
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-zero", type=float, default=DEFAULT_TOLERANCES.tol_zero,
                        help="threshold under which a scalar counts as zero")
    parser.add_argument("--eps-spread", type=float, default=DEFAULT_TOLERANCES.eps_spread,
                        help="threshold under which a spread counts as zero")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    parser.add_argument("--out", type=str, default=None, help="output path (default: stdout)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncertainty-lab",
        description="Uncertainty relations, correlation functions and "
                    "zero-lower-bound states for Hermitian observable pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one (A, B, state) triple")
    p_eval.add_argument("observable_a")
    p_eval.add_argument("observable_b")
    p_eval.add_argument("state")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p_eval)

    p_find = sub.add_parser("find", help="search for a zero-correlation state")
    p_find.add_argument("observable_a")
    p_find.add_argument("observable_b")
    _bind(".finder")  # the find flags and their defaults are FinderConfig's fields
    for f in fields(FinderConfig):
        if f.name != "seed":  # --seed comes with the common flags
            p_find.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                                default=f.default)
    _add_common(p_find)

    p_scan = sub.add_parser("scan", help="classify Haar-random states into a CSV")
    p_scan.add_argument("observable_a")
    p_scan.add_argument("observable_b")
    p_scan.add_argument("--samples", type=int, required=True)
    p_scan.add_argument("--start", type=int, default=0,
                        help="index of the first sample (default 0); rows keep their index")
    _add_common(p_scan)

    # the demo is a fixed self-check against golden values; it takes no knobs
    sub.add_parser("demo", help="self-checking lambda_3/lambda_4 walkthrough")

    p_basis = sub.add_parser("basis", help="emit a generalized Gell-Mann basis as JSON")
    p_basis.add_argument("--dim", type=int, required=True)
    _add_common(p_basis)

    return parser


_DISPATCH = {  # command -> its function and the modules of ``_LAZY`` it runs
    "eval": (_cmd_eval, ".correlations .relations .state_sets"),
    "find": (_cmd_find, ".finder"),
    "scan": (_cmd_scan, ".state_sets ._floatrepr hashlib"),
    "demo": (_cmd_demo, ".correlations .gellmann .relations .state_sets"),
    "basis": (_cmd_basis, ".gellmann"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built by the first: parsing reads
    it and writes only the new namespace, and each call resolves its seed
    default and its ``--out`` check itself."""
    return make_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "seed", -1) is None:
            args.seed = _default_seed()
        if args.command == "scan" and args.out is None:
            raise CliError("scan requires --out for the CSV body")
        command, modules = _DISPATCH[args.command]
        _bind(modules)
        code = command(args)
        sys.stdout.flush()  # a closed pipe or a failed write surfaces here, not at exit
        return code
    except OSError as exc:
        # only stdout can raise it here (input and --out errors are CliError): what it
        # could not take is drained into devnull, so no later flush (the next call's, or
        # the one at exit) fails on it and a closed pipe stays silent; then fd 1 is put back
        fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
        saved = os.dup(fd)
        try:
            os.dup2(devnull, fd)
            sys.stdout.flush()
        finally:
            os.dup2(saved, fd)
            os.close(saved)
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 5
    except (CliError, ValueError) as exc:
        # every library input or guard error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a value left the float range: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return 4


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
