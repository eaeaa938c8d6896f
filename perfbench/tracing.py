"""In-memory spans recorded around calls into the stbc_forge layers.

The package itself is not instrumented.  Instead, install() replaces
public functions and methods of the package with thin wrappers, at every
module attribute that refers to them, so calls made through a module
lookup (which is how the package calls across layers) are seen.
uninstall() puts the originals back, so one process can alternate traced
and untraced rounds and measure the tracing overhead.

A span is (op, id, parent, name, layer, phase, tag, t0, t1, info,
error); spans of one benchmark op share the op id.  The name is the
logical operation and stays fixed; the layer is the package module that
defines the wrapped function, so self time follows code that moves.
Functions are found by name anywhere in the package, and a name that no
longer exists is skipped (its metrics then read 0).
"""

import functools
import importlib
import inspect
import sys
from collections import namedtuple
from contextlib import contextmanager
from functools import cached_property

PACKAGE = "stbc_forge"
Span = namedtuple("Span", "op id parent name layer phase tag t0 t1 info error")

LAYERS = ("f4", "pauli", "design", "constructions", "fdfgd", "signalset",
          "simulate", "diversity", "bundles", "cli")


def _len0(args, _kwargs, _result):
    return len(args[0])


def _evals(_args, _kwargs, result):
    return result[1]


def _certify_info(args, _kwargs, result):
    return (args[0].count, float(result))


# (attribute, span name, info) -- info extracts a small value per call
FUNCTIONS = (
    ("enumerate_all", "f4.enumerate_all", None),
    ("parse_vec", "f4.parse_vec", None),
    ("format_vec", "f4.format_vec", None),
    ("phi_inv", "pauli.phi_inv", None),
    ("phi", "pauli.phi", None),
    ("phi_signed", "pauli.phi_signed", None),
    ("hr_orthogonal_numeric", "pauli.hr_orthogonal_numeric", None),
    ("finest_partition", "design.finest_partition", None),
    ("validate_partition", "design.validate_partition", None),
    ("plan_complexity", "design.plan_complexity", None),
    ("to_linear_design", "design.to_linear_design", None),
    ("catalog", "constructions.catalog", None),
    ("construct_A", "constructions.construct", None),
    ("construct_B", "constructions.construct", None),
    ("construct_C", "constructions.construct", None),
    ("apply_sigma", "constructions.construct", None),
    ("designs_equivalent", "constructions.designs_equivalent", None),
    ("build_base", "fdfgd.family", None),
    ("puncture", "fdfgd.family", None),
    ("extend", "fdfgd.family", None),
    ("family_plan", "fdfgd.family_plan", None),
    ("assemble_stbc", "fdfgd.assemble_stbc", None),
    ("silver_stbc", "fdfgd.silver_stbc", None),
    ("alamouti_stbc", "bundles.alamouti_stbc", None),
    ("qod4_stbc", "bundles.qod4_stbc", None),
    ("simulate", "simulate.driver", None),
    ("channel_step", "simulate.channel_step", None),
    ("ml_oracle", "simulate.ml_oracle", _evals),
    ("ml_structured", "simulate.ml_structured", _evals),
    ("rotation_search", "diversity.rotation_search", _len0),
    ("full_diversity_check", "diversity.full_diversity_check",
     _certify_info),
    ("grow_constellation", "diversity.grow_constellation", None),
    ("grow_with_pam_prefix", "diversity.grow_with_pam_prefix",
     None),
    ("cmd_build_fd", "cli.build_fd", None),
    ("cmd_verify", "cli.verify", None),
    ("format_design", "cli.format_design", None),
    ("parse_design", "cli.parse_design", None),
)

# (class, attribute, span name): plain methods and cached properties
METHODS = (
    ("STBCInstance", "codeword", "simulate.codeword"),
    ("STBCInstance", "average_energy", "simulate.average_energy"),
    ("SignalSet", "symbol_table", "signalset.symbol_table"),
)


def _layer(fn):
    """Package module defining fn: 'stbc_forge.simulate' -> 'simulate'."""
    return getattr(fn, "__module__", "").rpartition(".")[2]


def _find(mods, attr, kind):
    """The object the package defines under attr, or None."""
    for mod in mods.values():
        obj = getattr(mod, attr, None)
        if kind(obj) and getattr(obj, "__module__", None) in mods:
            return obj
    return None


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.stack = [None]
        self.next_id = 0
        self.op = None
        self.phase = None
        self.tag = None
        self.active = False
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _call(self, name, layer, info, fn, args, kwargs):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        result = error = None
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = self.clock()
            self.stack.pop()
            extra = None
            if info is not None and error is None:
                try:
                    extra = info(args, kwargs, result)
                except (TypeError, IndexError, AttributeError):
                    pass  # signature changed; the metric reads 0
            self.spans.append((self.op, sid, parent, name, layer, self.phase,
                               self.tag, t0, t1, extra, error))

    @contextmanager
    def span(self, name):
        """Span from the benchmark's own code (layer 'bench'); no-op while
        inactive."""
        if not self.active:
            yield
            return
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            self.stack.pop()
            self.spans.append((self.op, sid, parent, name, "bench",
                               self.phase, self.tag, t0, t1, None, None))

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, name, info):
        call, layer = self._call, _layer(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, layer, info, fn, args, kwargs)
        return wrapper

    def install(self):
        if self.active:
            return
        for mod_name in LAYERS:
            try:
                importlib.import_module("%s.%s" % (PACKAGE, mod_name))
            except ImportError:
                pass
        mods = {k: v for k, v in sys.modules.items()
                if k == PACKAGE or k.startswith(PACKAGE + ".")}
        for attr, name, info in FUNCTIONS:
            orig = _find(mods, attr, inspect.isfunction)
            if orig is None:
                continue
            wrapped = self._wrap(orig, name, info)
            # every module that imported the function by name gets the wrapper
            for mod in mods.values():
                if getattr(mod, attr, None) is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        for cls_name, attr, name in METHODS:
            cls = _find(mods, cls_name, inspect.isclass)
            orig = inspect.getattr_static(cls, attr, None) if cls else None
            if isinstance(orig, cached_property):
                wrapped = cached_property(self._wrap(orig.func, name, None))
                wrapped.__set_name__(cls, attr)
            elif inspect.isfunction(orig):
                wrapped = self._wrap(orig, name, None)
            else:
                continue
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, wrapped)
        self.active = True

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []
        self.active = False

    @contextmanager
    def op_span(self, op, phase, traced):
        """Root span of one benchmark op; patches live only while traced."""
        self.op, self.phase, self.tag = op, phase, None
        if not traced:
            yield
            return
        self.install()
        try:
            with self.span("bench.%s" % phase):
                yield
        finally:
            self.uninstall()

    def dump(self, path):
        import json
        with open(path, "w") as fh:
            json.dump({"fields": list(Span._fields),
                       "spans": [list(s) for s in self.spans]}, fh)
