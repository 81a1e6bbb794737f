"""Spans around the public functions of brandtlift, recorded from outside.

The tracer swaps each traced function for a wrapper in every brandtlift
module that binds it (most modules import names directly, so wrapping the
defining module alone would miss most calls), and swaps traced methods on
their class.  Each call becomes one span: name, start, end, parent span,
job id and one integer the wrapper reads off the result (vectors counted,
classes found, equivalence hits).  Spans live in flat arrays and are
written out once, after the traced passes.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter


def _vectors(counts) -> int:
    return sum(counts.values())


def _theta_vectors(series) -> int:
    return sum(c for n, c in series.coeffs.items() if n > 0)


# (module, qualified name, value read off the result).  Private helpers are
# left unwrapped on purpose: their cost shows up as the caller's self time.
TRACED = [
    ("qalg", "choose_presentation", None),
    ("qalg", "certify_presentation", None),
    ("qalg", "hilbert_symbol", None),
    ("linalg", "hnf", None),
    ("linalg", "rref_mod", None),
    ("linalg", "rational_nullspace", None),
    ("linalg", "mat_inv", None),
    ("linalg", "greedy_reduce", None),
    ("shortvec", "vector_counts", _vectors),
    ("shortvec", "exists_value", None),
    ("shortvec", "iter_short_vectors", None),
    ("orders", "maximal_order", None),
    ("orders", "eichler_order", None),
    ("orders", "right_ideal_classes", lambda cs: cs.h),
    ("orders", "equivalent_ideals", int),
    ("orders", "OrderLattice.multiply", None),
    ("orders", "OrderLattice.minimal_vector", None),
    ("brandt", "BrandtModule.brandt_matrix", None),
    ("brandt", "BrandtModule.eigenvector", None),
    ("brandt", "BrandtModule.eigenvalue_of", None),
    ("brandt", "BrandtModule.discover_eigensystems", None),
    ("theta", "trace_zero_lattice", None),
    ("theta", "theta_series", _theta_vectors),
    ("theta", "canonical_gram", None),
    ("lift", "waldspurger_lift", None),
    ("lift", "scale_congruent_pair", None),
    ("congruence", "run_congruence_checks", None),
    ("congruence", "check_eigenvalue_congruence", None),
    ("congruence", "check_lift_congruence", None),
    ("congruence", "irreducibility_heuristic", None),
]

# Span recorded by the job runner around brandtlift.cli.main; its value is
# the number of output bytes the job wrote.
CLI_MAIN = "cli.main"


def span_name(module: str, qualname: str) -> str:
    """Metric prefix of a traced callable: module plus the bare function name."""
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


class Tracer:
    """In-memory span store; index in the arrays is the span id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.value = array("q")
        self.stack = [-1]
        self.current_job = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.current_job)
        self.end.append(0.0)
        self.value.append(0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int, value: int = 0) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()
        self.value[sid] = value

    def write(self, path) -> None:
        """Spans as gzipped TSV: id, name, start, end, parent, job, value."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\tvalue\n")
            names = self.names
            for sid in range(len(self.name)):
                fh.write(
                    f"{sid}\t{names[self.name[sid]]}\t{self.start[sid]!r}\t{self.end[sid]!r}\t"
                    f"{self.parent[sid]}\t{self.job[sid]}\t{self.value[sid]}\n"
                )


def _wrap_function(tracer: Tracer, name: str, fn, value_of):
    nid = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = open_(nid)
        value = 0
        try:
            out = fn(*args, **kwargs)
            if value_of is not None:
                value = value_of(out)
            return out
        finally:
            close(sid, value)

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn, bypass_under: int):
    """One span per resumption, so the consumer's work between items is not
    charged to the generator.  Calls made directly under the span id
    bypass_under (vector_counts draining the same generator) stay untraced:
    that would be one span per lattice vector."""
    nid = tracer.name_id(name)
    open_, close, names = tracer.open, tracer.close, tracer.name

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        top = tracer.stack[-1]
        if top >= 0 and names[top] == bypass_under:
            return fn(*args, **kwargs)
        return _resumptions(fn(*args, **kwargs))

    def _resumptions(gen):
        try:
            while True:
                sid = open_(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(sid)
                yield item
        finally:
            gen.close()

    return traced


class Patch:
    """Installs wrappers for every TRACED callable and undoes it on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patch":
        import brandtlift

        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "brandtlift"]
        vector_counts_id = self.tracer.name_id(span_name("shortvec", "vector_counts"))
        for mod_name, qualname, value_of in TRACED:
            module = getattr(brandtlift, mod_name)
            name = span_name(mod_name, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[attr]
                self._set(cls, attr, _wrap_function(self.tracer, name, fn, value_of))
                continue
            fn = getattr(module, qualname)
            if inspect.isgeneratorfunction(fn):
                wrapper = _wrap_generator(self.tracer, name, fn, vector_counts_id)
            else:
                wrapper = _wrap_function(self.tracer, name, fn, value_of)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, attr, wrapper)
        return self

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __exit__(self, *exc) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
