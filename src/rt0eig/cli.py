"""Batch study driver and command-line interface.

A study runs the mesh / assemble / solve pipeline over a doubling family of
levels, extrapolates the matched eigenvalue sequences, optionally measures
projection distances for the first mode, and writes a CSV table, a JSON
mirror and a plain-text summary.  Reports are deterministic: identical
configurations produce byte-identical CSV and JSON, so wall-clock timings
and peak memory go to stdout and a separate timings file.
"""

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

try:
    import resource
except ImportError:  # Unix only
    resource = None

from . import __version__
from .assembly import AssemblyError, assemble
from .coefficients import get_preset, preset_names
from .eigensolver import (EigenResult, NumericalError, check_request,
                          solve_mixed_eigenproblem)
from .extrapolation import (EXPANSION_ORDER, ClusterRow, ConvergenceTable,
                            SupercloseBlock, build_table, match_and_cluster)
from .mesh import MeshError, as_integer, build_structured_mesh
from .superclose import (l2_errors, laplace_eigenpair, laplace_eigenvalues,
                         p0_project, superclose_distance)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

# report column after eigen, level_n and h -> the ClusterRow or
# SupercloseBlock array it reads (see _level_records)
_COLUMN_ARRAYS = {
    "lambda_h": (ClusterRow, "raw"),
    "lambda_extrap": (ClusterRow, "extrapolated"),
    "err_raw": (ClusterRow, "err_raw"),
    "err_extrap": (ClusterRow, "err_extrap"),
    "order_raw": (ClusterRow, "order_raw"),
    "order_extrap": (ClusterRow, "order_extrap"),
    "superclose": (SupercloseBlock, "distance"),
    "err_u": (SupercloseBlock, "err_u"),
    "err_sigma": (SupercloseBlock, "err_sigma"),
}
CSV_COLUMNS = ["eigen", "level_n", "h", *_COLUMN_ARRAYS]


class ConfigError(Exception):
    """Invalid study configuration or unusable output location."""


@dataclass
class StudyConfig:
    """One study: a preset solved over doubling levels.

    Unknown keys in a config file are rejected, not ignored, so a stored
    configuration always reproduces the same study.
    """

    preset: str
    levels: list[int]
    k: int
    compute_superclose: bool = False
    dump_matrices: bool = False
    solver: str = "iterative"
    output_dir: Path = Path("out")
    seed: int = 0

    def validate(self):
        """Reject a study that cannot run before any level does; store
        `levels`, `k` and `seed` as ints and `output_dir` as a Path."""
        def index(key, v):
            try:
                return as_integer(v)
            except TypeError:
                raise ConfigError(f"{key}: {v!r} is not an integer") from None

        self.levels = [index("levels", v) for v in self.levels]
        self.k, self.seed = index("k", self.k), index("seed", self.seed)
        try:
            # Path("") would be the working directory
            if os.fspath(self.output_dir) == "":
                raise ConfigError("output_dir is empty")
            self.output_dir = Path(self.output_dir)
        except TypeError:
            raise ConfigError(
                f"output_dir: {self.output_dir!r} is not a path") from None
        for key in ("compute_superclose", "dump_matrices"):
            # any object is truthy or not, and report.json records it as is
            if not isinstance(getattr(self, key), bool):
                raise ConfigError(
                    f"{key}: {getattr(self, key)!r} is not a bool")
        try:
            prob = get_preset(self.preset)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
        if len(self.levels) < 2:
            raise ConfigError("need at least two levels")
        for n0, n1 in zip(self.levels, self.levels[1:]):
            if n1 != 2 * n0:
                raise ConfigError(
                    f"levels must strictly double, got {n0} then {n1}")
        if self.levels[0] < 1:
            raise ConfigError("levels must be positive")
        # the coarsest level bounds k, the finest the dense solver's size
        for n in (self.levels[0], self.levels[-1]):
            try:
                check_request(self.solver, 2 * n * n, self.k, self.seed)
            except NumericalError as exc:
                raise ConfigError(f"level n = {n}: {exc}") from None
        if self.compute_superclose and not prob.has_analytic_spectrum:
            raise ConfigError(
                f"compute_superclose needs an analytic spectrum, which "
                f"preset {self.preset!r} does not have")
        return self


def _parse_levels(text: str) -> list[int]:
    parts = text.replace(",", " ").split()
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"levels must be integers, got {text!r}") from None


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected 'true' or 'false', got {text!r}")
    return text == "true"


# [study] key -> parser of its text, one key per StudyConfig field but
# output_dir, which [output] directory sets
_STUDY_PARSERS = {
    "preset": str, "levels": _parse_levels, "k": int, "seed": int,
    "compute_superclose": _parse_bool, "dump_matrices": _parse_bool,
    "solver": str,
}
_OUTPUT_KEYS = {"directory"}


def parse_config(path) -> StudyConfig:
    """Read a study configuration file, rejecting unknown sections or keys.

    The study is not validated yet: run_study does that once, after any
    command-line overrides.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    sections = set(parser.sections())
    unknown = sections - {"study", "output"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "study" not in sections:
        raise ConfigError("missing [study] section")
    study = dict(parser["study"])
    bad = set(study) - _STUDY_PARSERS.keys()
    if bad:
        raise ConfigError(f"unknown [study] keys: {sorted(bad)}")
    out = dict(parser["output"]) if "output" in sections else {}
    bad = set(out) - _OUTPUT_KEYS
    if bad:
        raise ConfigError(f"unknown [output] keys: {sorted(bad)}")
    for f in fields(StudyConfig):
        if f.default is MISSING and f.name not in study:
            raise ConfigError(f"missing required [study] key: {f.name}")

    values = {}
    for key, text in study.items():
        try:
            values[key] = _STUDY_PARSERS[key](text)
        except ValueError as exc:
            raise ConfigError(f"invalid {key} in {path}: {exc}") from exc
    if "directory" in out:
        values["output_dir"] = out["directory"]
    return StudyConfig(**values)


@dataclass
class Level:
    """What a study keeps of one level: its eigenpairs, the first mode's
    superclose distance and errors (with compute_superclose), its wall time
    and peak RSS.  A failed level holds only n and error."""

    n: int
    result: EigenResult | None = None
    distance: float | None = None
    err_u: float | None = None
    err_sigma: float | None = None
    error: str | None = None
    seconds: float | None = None
    peak_rss_mb: float | None = None


def run_level(cfg: StudyConfig, prob, n: int) -> Level:
    """Build, assemble and solve one mesh level, and with
    compute_superclose measure its first mode while the mesh and system
    are alive; neither outlives the call."""
    start = time.perf_counter()
    mesh = build_structured_mesh(prob.domain, n)
    sys_ = assemble(mesh, prob)
    if cfg.dump_matrices:
        # only dumps need scipy.io, so a study without them does not load it
        import scipy.io
        mdir = cfg.output_dir
        # C and D as diagonal matrices that keep their zero entries
        diag = np.arange(sys_.num_triangles)
        blocks = {"M": sys_.M, "B": sys_.B,
                  "C": sp.coo_matrix((sys_.C, (diag, diag))),
                  "D": sp.coo_matrix((sys_.D, (diag, diag)))}
        try:
            for name, block in blocks.items():
                # mmwrite given a path it cannot open writes nothing and
                # raises nothing, so the file is opened here
                with open(mdir / f"matrix_n{n}_{name}.mtx", "wb") as fh:
                    scipy.io.mmwrite(fh, block, symmetry="general")
        except OSError as exc:
            raise ConfigError(
                f"cannot write matrix dumps under {mdir}: {exc}") from exc
    result = solve_mixed_eigenproblem(
        mesh, sys_, cfg.k, method=cfg.solver, seed=cfg.seed)
    distance = err_u = err_sigma = None
    if cfg.compute_superclose:
        exact = laplace_eigenpair(1, 1, prob.domain)
        pu = p0_project(exact.u, mesh)
        u_h = result.vectors[:, 0]
        distance = superclose_distance(u_h, pu, sys_.D)
        err_u, err_sigma = l2_errors(
            u_h, result.fluxes[:, 0], mesh, exact, A=prob.A)
    return Level(n=n, result=result, distance=distance, err_u=err_u,
                 err_sigma=err_sigma, seconds=time.perf_counter() - start,
                 peak_rss_mb=_peak_rss_mb())


def run_study(cfg: StudyConfig):
    """Run every level of a study and write reports.

    Returns (table, levels), one Level per level run.  The output
    directory is made before the first level, so an unusable one is a
    ConfigError before any solve.  A level failure, running out of memory
    included, ends the study with that level as the last, failed record;
    the reports are still written, and the failure is re-raised as a
    NumericalError with the level attached.
    """
    cfg.validate()
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot write reports under {cfg.output_dir}: {exc}") from exc
    prob = get_preset(cfg.preset)
    levels: list[Level] = []
    total_start = time.perf_counter()
    for n in cfg.levels:
        try:
            levels.append(run_level(cfg, prob, n))
        except (MeshError, AssemblyError, NumericalError) as exc:
            levels.append(Level(n=n, error=str(exc)))
            break
        except MemoryError as exc:
            levels.append(Level(n=n, error=f"MemoryError: {exc}"))
            break
    total = time.perf_counter() - total_start

    table = None
    done = [lv for lv in levels if lv.error is None]
    if len(done) >= 2:
        seq = match_and_cluster(
            [(lv.result.n, lv.result.h, lv.result.eigenvalues)
             for lv in done])
        reference = None
        if prob.has_analytic_spectrum:
            reference = laplace_eigenvalues(
                cfg.k, prob.domain, shift=prob.analytic_shift)
        table = build_table(seq, reference=reference)
        if cfg.compute_superclose:
            table.superclose = SupercloseBlock(
                mode=(1, 1),
                distance=np.array([lv.distance for lv in done]),
                err_u=np.array([lv.err_u for lv in done]),
                err_sigma=np.array([lv.err_sigma for lv in done]),
            )

    emit_reports(table, cfg, levels)
    _print_summary(table, cfg, levels, total)
    _write_timings(cfg, levels, total)

    last = levels[-1]
    if last.error is not None:
        raise NumericalError(f"level n={last.n} failed: {last.error}")
    return table, levels


# ---------------------------------------------------------------------------
# reporting

def _fmt(v, spec) -> str:
    """`v` formatted by `spec`, empty for missing or NaN."""
    if v is None or math.isnan(v):
        return ""
    return format(float(v), spec)


def _f12(v) -> str:
    """12-significant-digit text for a float, empty for missing."""
    return _fmt(v, ".12g")


def _round12(v):
    """Float rounded to 12 significant digits; None for missing/NaN."""
    text = _f12(v)
    return float(text) if text else None


def _level_records(table: ConvergenceTable):
    """One record per cluster row and level, keyed by CSV_COLUMNS.

    A column's array (see _COLUMN_ARRAYS) is placed by its length: one of
    L - j values over the L levels fills the levels from j on, so
    `build_table` alone decides where a column first applies.  A column
    holds None where it does not apply, the superclose columns on every
    row but the one that carries the first mode.
    """
    nlev, sc = len(table.level_ns), table.superclose
    records = []
    for row in table.rows:
        blocks = {ClusterRow: row,
                  SupercloseBlock: sc if 0 in row.indices else None}
        # each array right-aligned on the levels; None has no arrays
        columns = [[row.label] * nlev, table.level_ns, table.level_hs] + [
            ([None] * nlev + list(getattr(blocks[kind], name, ())))[-nlev:]
            for kind, name in _COLUMN_ARRAYS.values()]
        records += [dict(zip(CSV_COLUMNS, cells)) for cells in zip(*columns)]
    return records


def _json_payload(table, cfg, levels):
    """report.json at 12 significant digits, NaN as null: each level's
    sizes, eigenvalues and residuals or its error, each row's ClusterRow
    arrays of _COLUMN_ARRAYS whole, and the superclose block's arrays."""
    records = []
    for lv in levels:
        if lv.error is not None:
            records.append({"n": lv.n, "status": "failed", "error": lv.error})
            continue
        res = lv.result
        records.append({
            "n": res.n,
            "h": _round12(res.h),
            "edges": res.num_edges,
            "triangles": res.num_triangles,
            "status": "ok",
            "eigenvalues": [_round12(v) for v in res.eigenvalues],
            "residuals": [_round12(v) for v in res.residuals],
        })

    payload = {
        "tool": {"name": "rt0eig", "version": __version__},
        "study": {
            "preset": cfg.preset,
            "levels": list(cfg.levels),
            "k": cfg.k,
            "expansion_order": EXPANSION_ORDER,
            "solver": cfg.solver,
            "seed": cfg.seed,
            "compute_superclose": cfg.compute_superclose,
        },
        "status": ("ok" if all(lv.error is None for lv in levels)
                   else "failed"),
        "levels": records,
        "eigen": [],
        "superclose": None,
    }
    if table is None:
        return payload
    payload["reference_kind"] = table.reference_kind
    for row in table.rows:
        payload["eigen"].append({
            "label": row.label,
            "indices": [i + 1 for i in row.indices],
            "reference": _round12(row.reference),
        } | {col: [_round12(v) for v in getattr(row, name)]
             for col, (kind, name) in _COLUMN_ARRAYS.items()
             if kind is ClusterRow})
    sc = table.superclose
    if sc is not None:
        # every array of the block, in declaration order
        payload["superclose"] = {"mode": list(sc.mode)} | {
            f.name: [_round12(v) for v in getattr(sc, f.name)]
            for f in fields(sc)[1:]}
    return payload


def emit_reports(table, cfg: StudyConfig, levels):
    """Write report.csv and report.json under the configured directory."""
    out = cfg.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_lines = [",".join(CSV_COLUMNS)]
        for rec in _level_records(table) if table is not None else ():
            csv_lines.append(",".join(
                [rec["eigen"]] + [_f12(rec[c]) for c in CSV_COLUMNS[1:]]))
        (out / "report.csv").write_text("\n".join(csv_lines) + "\n")
        payload = _json_payload(table, cfg, levels)
        (out / "report.json").write_text(
            json.dumps(payload, indent=2) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write reports under {out}: {exc}") from exc
    return {"csv": out / "report.csv", "json": out / "report.json"}


def _peak_rss_mb():
    """The process's peak resident set so far in MB (2^20 bytes), or None
    where neither /proc/self/status nor the `resource` module gives it.

    Linux's VmHWM comes first: its ru_maxrss keeps the high-water mark of
    the process that launched this one across fork and exec.
    """
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        status = ""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 2**10
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux and the BSDs, bytes on macOS
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _write_timings(cfg, levels, total):
    data = {
        "levels": [{"n": lv.n, "seconds": lv.seconds,
                    "peak_rss_mb": lv.peak_rss_mb}
                   for lv in levels if lv.error is None],
        "total_seconds": total,
    }
    try:
        (cfg.output_dir / "timings.json").write_text(
            json.dumps(data, indent=2) + "\n")
    except OSError:
        pass  # timings are advisory


def _print_summary(table, cfg, levels, total):
    w = sys.stdout.write
    w(f"study: preset={cfg.preset} levels={cfg.levels} k={cfg.k} "
      f"solver={cfg.solver}\n")
    for lv in levels:
        if lv.error is not None:
            w(f"  level n={lv.n:<4d} FAILED: {lv.error}\n")
            continue
        res = lv.result
        w(f"  level n={res.n:<4d} h={res.h:.6g}  edges={res.num_edges} "
          f"triangles={res.num_triangles}  [{lv.seconds:.2f}s]\n")
    if table is not None:
        w(f"reference: {table.reference_kind}\n")
        header = (f"{'eigen':>6} {'n':>5} {'lambda_h':>16} "
                  f"{'extrapolated':>16} {'err_raw':>11} {'err_extrap':>11} "
                  f"{'ord':>6} {'ord_x':>6}\n")
        w(header)
        for r in _level_records(table):
            w(f"{r['eigen']:>6} {r['level_n']:>5} {r['lambda_h']:>16.10g} "
              f"{_f12(r['lambda_extrap']):>16.16s} {r['err_raw']:>11.5e} "
              f"{_fmt(r['err_extrap'], '.5e'):>11} "
              f"{_fmt(r['order_raw'], '.2f'):>6} "
              f"{_fmt(r['order_extrap'], '.2f'):>6}\n")
        sc = table.superclose
        if sc is not None:
            w("superclose (mode 1,1):\n")
            od = [""] + [f"{v:.2f}" for v in sc.order_distance]
            ou = [""] + [f"{v:.2f}" for v in sc.order_err_u]
            for i, n in enumerate(table.level_ns):
                w(f"  n={n:<4d} distance={sc.distance[i]:.6e} ({od[i]:>5}) "
                  f"err_u={sc.err_u[i]:.6e} ({ou[i]:>5}) "
                  f"err_sigma={sc.err_sigma[i]:.6e}\n")
    w(f"total time: {total:.2f}s\n")


# ---------------------------------------------------------------------------
# command line

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rt0eig",
        description="Mixed finite element eigenvalue convergence studies "
                    "with Richardson extrapolation.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a study from a config file")
    run.add_argument("config", help="path to the study config file")
    run.add_argument("--output-dir", help="override the output directory")
    run.add_argument("--levels", help="override levels, e.g. '8,16,32'")
    run.add_argument("--k", help="override the eigenvalue count")
    sub.add_parser("presets", help="list built-in problem presets")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "presets":
        for name in preset_names():
            print(name)
        return EXIT_OK
    try:
        cfg = parse_config(args.config)
        if args.output_dir is not None:
            cfg = replace(cfg, output_dir=args.output_dir)
        if args.levels is not None:
            cfg = replace(cfg, levels=_parse_levels(args.levels))
        if args.k is not None:
            try:
                cfg = replace(cfg, k=int(args.k))
            except ValueError:
                raise ConfigError(
                    f"k must be an integer, got {args.k!r}") from None
        run_study(cfg)  # the one validation, of the file as overridden
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MeshError, AssemblyError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
