"""In-memory span tracing of one study, recorded from outside the package.

The tracer replaces module attributes that `rt0eig.cli` and
`rt0eig.eigensolver` look up at call time (and the scipy entry points the
eigensolver calls) with wrappers that record a span per call.  Spans stay in
memory and are written once, when the benchmark ends.  Every target must
exist: a refactor that renames or removes one makes `installed` raise, so a
span is never dropped silently.
"""

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import scipy.sparse.linalg as spla

# (object path, attribute, per-layer metric that the span's self time feeds)
TARGETS = [
    ("rt0eig.cli", "build_structured_mesh", "mesh.build_s"),
    ("rt0eig.cli", "assemble", "assembly.assemble_s"),
    ("rt0eig.eigensolver", "schur_complement", "eigensolver.schur_s"),
    ("rt0eig.eigensolver", "solve_gevp", "eigensolver.gevp_s"),
    ("rt0eig.eigensolver", "solve_gevp_iterative", "eigensolver.gevp_s"),
    ("rt0eig.eigensolver.la", "eigh", "eigensolver.gevp_s"),
    ("rt0eig.eigensolver.spla", "eigsh", "eigensolver.gevp_s"),
    ("rt0eig.eigensolver", "flux_mass_solver", "eigensolver.factor_s"),
    ("rt0eig.eigensolver.la", "cho_factor", "eigensolver.factor_s"),
    ("rt0eig.eigensolver.spla", "splu", "eigensolver.factor_s"),
    ("rt0eig.eigensolver", "recover_flux", "eigensolver.flux_s"),
    ("rt0eig.cli", "p0_project", "superclose.project_s"),
    ("rt0eig.cli", "superclose_distance", "superclose.project_s"),
    ("rt0eig.cli", "l2_errors", "superclose.l2_s"),
    ("rt0eig.cli", "match_and_cluster", "extrapolation.table_s"),
    ("rt0eig.cli", "build_table", "extrapolation.table_s"),
    ("rt0eig.cli", "emit_reports", "cli.report_s"),
    ("rt0eig.cli", "_print_summary", "cli.report_s"),
    ("rt0eig.cli", "_write_timings", "cli.report_s"),
]

# Tags later spans with the level n; not a span itself, so the
# orchestration around the layer calls stays in trace.uncovered_s.
LEVEL_TARGET = ("rt0eig.cli", "run_level")

LAYER_METRICS = sorted({metric for _, _, metric in TARGETS})
COUNT_METRICS = ["assembly.M_nnz", "eigensolver.factor_fill",
                 "eigensolver.op_applies", "eigensolver.mass_solve_rhs"]


class TraceTargetMissing(RuntimeError):
    """A function the tracer wraps no longer exists."""


def _resolve(path):
    """Object at a dotted path whose head is an importable module."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                raise TraceTargetMissing(f"{path}: no attribute {name!r}")
            obj = getattr(obj, name)
        return obj
    raise TraceTargetMissing(f"{path}: module not importable")


def _span_name(path, attr):
    return f"{path.removeprefix('rt0eig.')}.{attr}"


class Tracer:
    """Spans and counters of the traced studies of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self.counts = {}            # study id -> Counter
        self._stack = []
        self._level = None
        self._study = None
        self._factors = []

    @contextmanager
    def _span(self, name):
        span = {"id": len(self.spans), "name": name, "start": None,
                "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "workload": self.workload, "n": self._level,
                "study": self._study}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def study(self, study_id):
        """Root span of one traced run_study call."""
        self._study, self._level = study_id, None
        counts = self.counts[study_id] = Counter()
        try:
            with self._span("study"):
                yield
        finally:
            # L.nnz + U.nnz copies the factors, so it is counted after the
            # study span has closed
            for lu in self._factors:
                counts["eigensolver.factor_fill"] += lu.L.nnz + lu.U.nnz
            self._factors = []

    def _counted(self, op):
        op = spla.aslinearoperator(op)
        counts = self.counts[self._study]

        def matvec(x):
            counts["eigensolver.op_applies"] += 1
            return op.matvec(x)

        return spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)

    def _before(self, attr, args, kwargs):
        if attr == "eigsh":
            args = (self._counted(args[0]),) + args[1:]
            if kwargs.get("OPinv") is not None:
                kwargs["OPinv"] = self._counted(kwargs["OPinv"])
        elif attr == "p0_project":
            self._level = args[1].n
        elif attr == "l2_errors":
            self._level = args[2].n
        elif attr in ("match_and_cluster", "emit_reports"):
            self._level = None
        return args, kwargs

    def _after(self, attr, out):
        counts = self.counts[self._study]
        if attr == "assemble":
            counts["assembly.M_nnz"] += out.M.nnz
        elif attr == "splu":
            self._factors.append(out)
        elif attr == "cho_factor":
            n = out[0].shape[0]
            counts["eigensolver.factor_fill"] += n * (n + 1) // 2
        elif attr == "flux_mass_solver":
            solve = out

            def out(rhs):
                counts["eigensolver.mass_solve_rhs"] += (
                    1 if rhs.ndim == 1 else rhs.shape[1])
                return solve(rhs)
        return out

    def _wrap(self, name, attr, fn):
        def traced(*args, **kwargs):
            args, kwargs = self._before(attr, args, kwargs)
            with self._span(name):
                out = fn(*args, **kwargs)
            return self._after(attr, out)

        return traced

    def _wrap_level(self, fn):
        def traced(cfg, prob, n):
            self._level = n
            try:
                return fn(cfg, prob, n)
            finally:
                self._level = None

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block.

        Raises TraceTargetMissing, before patching anything, if a target is
        gone.
        """
        plan = []
        for path, attr in [t[:2] for t in TARGETS] + [LEVEL_TARGET]:
            owner = _resolve(path)
            if not callable(getattr(owner, attr, None)):
                raise TraceTargetMissing(f"{path}.{attr} no longer exists")
            fn = getattr(owner, attr)
            wrapper = (self._wrap_level(fn) if (path, attr) == LEVEL_TARGET
                       else self._wrap(_span_name(path, attr), attr, fn))
            plan.append((owner, attr, fn, wrapper))
        try:
            for owner, attr, _, wrapper in plan:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, fn, _ in plan:
                setattr(owner, attr, fn)

    def study_layers(self, study_id):
        """Per-layer self seconds and counts of one traced study.

        A span's self time is its duration minus that of its direct
        children, so the self times of all spans of a study, the root's
        (trace.uncovered_s) included, add up to the study's duration.
        """
        spans = [s for s in self.spans if s["study"] == study_id]
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        metric_of = {_span_name(p, a): m for p, a, m in TARGETS}
        out = dict.fromkeys(LAYER_METRICS, 0.0)
        for s in spans:
            own = s["end"] - s["start"] - child[s["id"]]
            if s["name"] == "study":
                out["trace.uncovered_s"] = own
                out["trace.study_s"] = s["end"] - s["start"]
            else:
                out[metric_of[s["name"]]] += own
        for name in COUNT_METRICS:
            out[name] = self.counts[study_id][name]
        return out

    def write(self, path, record):
        """Write the run record and every span (start and end in
        time.perf_counter seconds) to one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**record, "spans": self.spans}) + "\n")
