"""Layer tracing from outside the program: wrappers installed on the
colouralg classes and module attributes, removed again by ``uninstall``.

* Counts.  Every method of the ring, étale, trivec, algebra, graded and map
  classes, and the SplitMix64 draws, is wrapped by a counter, so a traced
  round yields exact call counts per (layer, method).  Class methods are
  wrapped rather than module functions because ``algebras`` imports the
  ``trivec`` helpers by name.
* Self time.  Timing every ring operation would cost several times the
  operation itself, so self time per layer is sampled instead: a wall-clock
  timer (``ITIMER_REAL``) interrupts the process every ``SAMPLE_S`` and
  charges the wall time since the previous sample to the layer of the
  innermost colouralg frame on the stack (module-level ``trivec`` helpers
  and code outside colouralg, such as ``fractions`` or numpy, are charged
  to the colouralg frame that called them).  The CPU-time timers
  (``ITIMER_PROF``) fire only on the kernel tick, every 4 ms on a 250 Hz
  kernel, whatever interval is asked for; the real-time timer keeps the
  interval asked for.  A signal that arrives during a long C call (a numpy
  kernel) is handled when the call returns, and the elapsed-time weight
  charges the whole call to its caller rather than losing it.  The handler's
  own time goes to ``trace``.  Each layer's sample count is kept beside its
  time; a layer with fewer than ``MIN_SAMPLES`` samples has no usable time.
  A SIGALRM handler installed before (the ``speed`` reference) keeps being
  called at its own timer interval.
* Spans.  Coarse boundaries (jobs, ``run_suite``/``run_identity``, the map
  checks, the cross-construction checks and ``cli.main``) record
  ``(name, start, end, parent, job)``; the ``mul`` of each algebra family
  and of the graded algebra also keeps its inclusive time.
"""

from __future__ import annotations

import inspect
import os
import signal
import time
from collections import Counter

SAMPLE_S = 0.0005
MIN_SAMPLES = 40  # fewer samples than this, and a layer's self time is noise

# layer of every method reachable on these classes, by module
_CLASS_LAYERS = {
    "rings": {"RationalField": "rings.Q", "IntegersMod": "rings.Zn", "PrimeField": "rings.Zn", "PolynomialRing": "rings.poly"},
    "etale": {"SplitTorus": "etale", "KummerExtension": "etale"},
    "trivec": {"HermitianSpace": "trivec", "Trivialization": "trivec"},
    "algebras": {
        "ColSplitAlgebra": "algebras.col_split",
        "ZornAlgebra": "algebras.zorn",
        "WSplitAlgebra": "algebras.w_split",
        "CayleyAlgebra": "algebras.cay_hermitian",
        "ColHermAlgebra": "algebras.col_hermitian",
        "WHermAlgebra": "algebras.w_hermitian",
    },
    "graded": {"GradedAlgebra": "graded"},
    "maps": {"AlgebraMap": "maps"},
    "checks": {"SplitMix64": "checks"},
}

# module attributes looked up at call time: (module, name, layer, span?)
_ATTRS = [
    ("checks", "run_suite", "checks", True),
    ("checks", "run_identity", "checks", True),
    ("checks", "cross_construction_check", "checks", True),
    ("checks", "cay_zorn_check", "checks", True),
    ("checks", "_colsplit_exhaustive_pairs", "checks", False),
    ("checks", "colsplit_mul_batch", "kernel", False),
    ("maps", "is_homomorphism", "maps", True),
    ("maps", "is_derivation", "maps", True),
    ("cli", "main", "cli", True),
]

OUTSIDE = "outside"
_THIS_FILE = os.path.abspath(__file__)
_BENCH_FILES = {_THIS_FILE, os.path.join(os.path.dirname(_THIS_FILE), "speed.py")}
_MISSING = object()


class Tracer:
    """Counts, sampled per-layer self time and coarse spans for one process."""

    def __init__(self, sample_s=SAMPLE_S):
        self.sample_s = sample_s
        self._cells = {}  # (layer, method) -> [count]
        self._incl = {}  # (layer, "mul") -> [seconds]
        self._saved = []
        self._class_layer = {}
        self._code_layer = {}
        self._pkg_dir = None
        self.job = None
        self.reset()

    # ------------------------------------------------------------ state
    def reset(self):
        for cell in self._cells.values():
            cell[0] = 0
        for cell in self._incl.values():
            cell[0] = 0.0
        self.samples = Counter()
        self.sampled_s = Counter()
        self.poly_terms = 0
        self.kernel_rows = 0
        self.kernel_bytes = 0
        self.spans = []
        self._open = []
        self._t0 = self._last = time.perf_counter()

    def snapshot(self) -> dict:
        """Counts and times gathered since the last reset."""
        return {
            "wall_s": time.perf_counter() - self._t0,
            "samples": dict(self.samples),
            "self_s": dict(self.sampled_s),
            "calls": {f"{k[0]}:{k[1]}": c[0] for k, c in self._cells.items() if c[0]},
            "incl_s": {f"{k[0]}:{k[1]}": c[0] for k, c in self._incl.items() if c[0]},
            "poly_terms": self.poly_terms,
            "kernel_rows": self.kernel_rows,
            "kernel_bytes": self.kernel_bytes,
            "spans": list(self.spans),
        }

    # ------------------------------------------------------------ spans
    def span(self, name):
        """Context manager for a coarse span opened by the benchmark itself."""
        return _Span(self, name)

    def _open_span(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._open.append(len(self.spans) - 1)

    def _close_span(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    # --------------------------------------------------------- wrappers
    def _counter(self, fn, layer, name, extra=None):
        cell = self._cells.setdefault((layer, name), [0])
        tr = self
        if extra is None:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                extra(tr, args)
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, fn, layer, name, span):
        cell = self._cells.setdefault((layer, name), [0])
        incl = self._incl.setdefault((layer, name), [0.0])
        pc = time.perf_counter
        tr = self

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if span:
                tr._open_span(f"{layer}.{name}")
            start = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                incl[0] += pc() - start
                if span:
                    tr._close_span()

        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------- installation
    def install(self):
        import colouralg
        from colouralg import cli

        self._pkg_dir = os.path.dirname(os.path.abspath(colouralg.__file__))
        mods = {name: getattr(colouralg, name) for name in _CLASS_LAYERS}
        mods["cli"] = cli
        # collect every original before installing anything, so a subclass
        # never wraps its base class's wrapper
        plan = []
        for mod_name, classes in _CLASS_LAYERS.items():
            for cls_name, layer in classes.items():
                cls = getattr(mods[mod_name], cls_name)
                self._class_layer[cls] = layer
                for name, fn in _methods(cls):
                    if name == "mul" and layer.split(".")[0] in ("algebras", "graded"):
                        wrapper = self._timed(fn, layer, name, span=False)
                    else:
                        extra = _poly_terms if (layer == "rings.poly" and name == "mul") else None
                        wrapper = self._counter(fn, layer, name, extra)
                    plan.append((cls, name, wrapper))
        for mod_name, name, layer, span in _ATTRS:
            mod = mods[mod_name]
            fn = getattr(mod, name)
            if span:
                wrapper = self._timed(fn, layer, name, span=True)
            else:
                wrapper = self._counter(fn, layer, name, _kernel_rows if layer == "kernel" else None)
            plan.append((mod, name, wrapper))
        for owner, name, wrapper in plan:
            self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
            setattr(owner, name, wrapper)
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._chain = self._old_handler if callable(self._old_handler) else None
        _, self._chain_period = signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)
        self._next_chain = time.perf_counter() + self._chain_period

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, self._chain_period, self._chain_period)
        signal.signal(signal.SIGALRM, self._old_handler)
        for owner, name, old in reversed(self._saved):
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._saved = []

    # ---------------------------------------------------------- sampling
    def _sample(self, signum, frame):
        now = time.perf_counter()
        f = frame
        while f is not None:
            layer = self._frame_layer(f)
            if layer is not None:
                break
            f = f.f_back
        else:
            layer = OUTSIDE
        self.samples[layer] += 1
        self.sampled_s[layer] += now - self._last
        self._last = now
        if self._chain is not None and now >= self._next_chain:
            self._next_chain = now + self._chain_period
            self._chain(signum, frame)
        end = time.perf_counter()
        self.sampled_s["trace"] += end - self._last
        self._last = end

    def _frame_layer(self, f):
        """Layer of a frame, or None to charge its caller instead."""
        code = f.f_code
        kind = self._code_layer.get(code)
        if kind is None:
            kind = self._code_layer[code] = self._classify(code)
        if kind == "method":
            owner = f.f_locals.get("self")
            return self._class_layer.get(type(owner), self._module_layer(code))
        return kind if kind != "caller" else None

    def _classify(self, code):
        path = os.path.abspath(code.co_filename)
        if path in _BENCH_FILES:
            return "trace"  # the counting wrappers and the speed reference
        if os.path.dirname(path) != self._pkg_dir:
            return "caller"
        module = os.path.splitext(os.path.basename(path))[0]
        if code.co_varnames[:1] == ("self",):
            return "method"
        if module == "trivec":
            return "caller"  # helpers imported by name into other modules
        if code.co_name == "colsplit_mul_batch":
            return "kernel"
        return module

    def _module_layer(self, code):
        return os.path.splitext(os.path.basename(code.co_filename))[0]


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer._open_span(self.name)

    def __exit__(self, *exc):
        self.tracer._close_span()


def _methods(cls):
    """Plain functions reachable on ``cls`` from colouralg classes, minus
    dunders; each is wrapped on ``cls`` itself so the layer follows the
    concrete class even for inherited methods."""
    seen = {}
    for base in reversed(cls.__mro__):
        if not base.__module__.startswith("colouralg"):
            continue
        for name, value in vars(base).items():
            if inspect.isfunction(value) and not name.startswith("__"):
                seen[name] = value
    return sorted(seen.items())


def _poly_terms(tr, args):
    # PolynomialRing.mul(self, a, b): term products formed
    tr.poly_terms += len(args[1]) * len(args[2])


def _kernel_rows(tr, args):
    # colsplit_mul_batch(A, X, Y): rows from the broadcast shape; bytes
    # computed as two int64 operands and one result of 7 coordinates a row
    import numpy as np

    shape = np.broadcast_shapes(args[1].shape, args[2].shape)
    rows = int(np.prod(shape[:-1]))
    tr.kernel_rows += rows
    tr.kernel_bytes += rows * 7 * 8 * 3


FAMILIES = ("col_split", "zorn", "w_split", "cay_hermitian", "col_hermitian", "w_hermitian")


def layer_metrics(snap: dict) -> dict:
    """Per-layer figures of one traced round (a ``snapshot``)."""
    calls = snap["calls"]
    incl = snap["incl_s"]
    self_s = snap["self_s"]

    def count(prefix, name=None):
        return sum(
            n for key, n in calls.items()
            if key.split(":")[0].split(".")[0] == prefix and (name is None or key.split(":")[1] == name)
        )

    def layer_time(prefix):
        return sum(t for layer, t in self_s.items() if layer.split(".")[0] == prefix)

    def layer_samples(prefix):
        return sum(n for layer, n in snap["samples"].items() if layer.split(".")[0] == prefix)

    def per_call_us(key):
        n = calls.get(key, 0)
        return 1e6 * incl.get(key, 0.0) / n if n else 0.0

    alg_mul = count("algebras", "mul")
    poly_mul = calls.get("rings.poly:mul", 0)
    kernel_calls = calls.get("kernel:colsplit_mul_batch", 0)
    m = {
        "rings.calls": count("rings"),
        "rings.self_s": layer_time("rings"),
        "rings.mul_calls": count("rings", "mul"),
        "rings.addsub_calls": count("rings", "add") + count("rings", "sub") + count("rings", "neg"),
        "rings.inv_calls": count("rings", "inv"),
        "rings.Q.calls": sum(n for k, n in calls.items() if k.startswith("rings.Q:")),
        "rings.Zn.calls": sum(n for k, n in calls.items() if k.startswith("rings.Zn:")),
        "rings.poly.calls": sum(n for k, n in calls.items() if k.startswith("rings.poly:")),
        "rings.Q.self_s": self_s.get("rings.Q", 0.0),
        "rings.Zn.self_s": self_s.get("rings.Zn", 0.0),
        "rings.poly.self_s": self_s.get("rings.poly", 0.0),
        "rings.poly.terms_per_mul": snap["poly_terms"] / poly_mul if poly_mul else 0.0,
        "etale.calls": count("etale"),
        "etale.self_s": layer_time("etale"),
        "etale.mul_calls": count("etale", "mul"),
        "etale.conj_calls": count("etale", "conj"),
        "trivec.calls": count("trivec"),
        "trivec.self_s": layer_time("trivec"),
        "trivec.cross_calls": count("trivec", "cross"),
        "trivec.h_calls": count("trivec", "h"),
        "algebras.calls": count("algebras"),
        "algebras.self_s": layer_time("algebras"),
        "algebras.mul_calls": alg_mul,
        "algebras.mul_us": 1e6 * sum(t for k, t in incl.items() if k.startswith("algebras.")) / alg_mul if alg_mul else 0.0,
        "graded.calls": count("graded"),
        "graded.self_s": layer_time("graded"),
        "graded.mul_us": per_call_us("graded:mul"),
        "maps.calls": count("maps"),
        "maps.self_s": layer_time("maps"),
        "checks.self_s": layer_time("checks"),
        "checks.sample_calls": calls.get("checks:next_u64", 0),
        "kernel.calls": kernel_calls,
        "kernel.s": layer_time("kernel"),
        "kernel.rows_per_call": snap["kernel_rows"] / kernel_calls if kernel_calls else 0.0,
        "kernel.bytes_computed": snap["kernel_bytes"],
        "cli.calls": calls.get("cli:main", 0),
        "cli.main_s": incl.get("cli:main", 0.0),
        "outside.self_s": self_s.get(OUTSIDE, 0.0),
        "trace.self_s": self_s.get("trace", 0.0),
    }
    for layer in ("rings", "etale", "trivec", "algebras", "graded", "maps", "checks", "kernel"):
        m[f"{layer}.samples"] = layer_samples(layer)
    for fam in FAMILIES:
        m[f"algebras.mul_calls.{fam}"] = calls.get(f"algebras.{fam}:mul", 0)
        m[f"algebras.mul_us.{fam}"] = per_call_us(f"algebras.{fam}:mul")
    return m


def merge(snaps):
    """Sum the snapshots of several traced processes (one per CLI call)."""
    out = {"wall_s": 0.0, "samples": Counter(), "self_s": Counter(), "calls": Counter(), "incl_s": Counter(),
           "poly_terms": 0, "kernel_rows": 0, "kernel_bytes": 0, "spans": []}
    for s in snaps:
        for k in ("samples", "self_s", "calls", "incl_s"):
            out[k].update(s[k])
        for k in ("wall_s", "poly_terms", "kernel_rows", "kernel_bytes"):
            out[k] += s[k]
        out["spans"] += s["spans"]
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in out.items()}
