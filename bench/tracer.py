"""Per-layer tracing from outside the package.

`Tracer.install` wraps the public functions of each qweyl module, and the
public and arithmetic methods of its public classes, in spans.  A span adds
its duration to its name's inclusive time and, minus the time of the spans
it caused, to its name's self time.  Functions are rebound in every qweyl
module that binds them (`from .families import g_coeff` in verify, the
package's re-exports, ...), so calls through any of those names are seen;
methods are patched once, on their class.

Counts are taken at the same boundaries, so ratios are measured where the
work happens.  Everything stays in memory until `snapshot`.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("qarith", "polyring", "opalg", "families", "verify", "cli")

# Methods wrapped besides the public ones.  Construction, equality and
# hashing are left out: they run on nearly every operation, and tracing them
# would mostly measure the tracer.
ARITH_DUNDERS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__"))

# lru-cached families whose cache_info() gives families.memo.hit_ratio.
MEMO_FAMILIES = ("hermite", "h_poly", "_xsd_power", "big_hermite", "lucas", "lucas_k")


def _wanted(cls: type, attr: str, fn) -> bool:
    # classmethods and properties are left to their callers' spans
    if not isinstance(fn, types.FunctionType):
        return False
    return (not attr.startswith("_") or attr in ARITH_DUNDERS
            or (cls.__name__, attr) == ("QScalar", "__init__"))


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.request: str | None = None  # cli subcommand being served
        self._stack: list[list[float]] = []

    def span(self, fn, name, before=None, after=None):
        """Wrap fn.  `name` is a span name, or a function of (args, kwargs)
        returning one; `before(args, kwargs)` and `after(args, result)` take
        counts."""
        stack, self_s, incl_s = self._stack, self.self_s, self.incl_s

        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[span] += dt - frame[0]
                incl_s[span] += dt
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    # -- hooks for the spans that carry counts ------------------------------

    def _count(self, key: str):
        def before(args, kwargs):
            self.counts[key] += 1
        return before

    def _intpoly_mul(self, args, kwargs):
        a, b = args
        other = getattr(b, "coeffs", None)
        self.counts["qarith.intpoly_mul.calls"] += 1
        self.counts["qarith.intpoly_mul.coeff_products"] += \
            len(a.coeffs) * (len(other) if other is not None else 1)

    def _qscalar_init(self, args, kwargs):
        den = args[2] if len(args) > 2 else kwargs.get("den", 1)
        if den != 1:
            self.counts["qarith.qscalar_reduce.calls"] += 1

    def _gcd_done(self, args, result):
        self.counts["qarith.poly_gcd.calls"] += 1
        if result != 1:
            self.counts["qarith.poly_gcd.useful"] += 1
        if self.request is not None:
            self.counts[f"cli.{self.request}.poly_gcd.calls"] += 1

    def _compose_name(self, args, kwargs):
        a, b = args
        if type(b) is type(a):
            self.counts["opalg.compose.calls"] += 1
            self.counts["opalg.compose.term_pairs"] += len(a.terms) * len(b.terms)
            return "opalg.compose"
        return "opalg.normalop"

    def _cli_run(self, fn):
        def run(argv=None):
            previous, self.request = self.request, (argv[0] if argv else None)
            try:
                return fn(argv)
            finally:
                self.request = previous
        return run

    # -- installation -------------------------------------------------------

    def _function_span(self, module: str, name: str, fn):
        span = f"{module}.{name}"
        if module == "qarith" and name == "poly_gcd":
            return self.span(fn, span, after=self._gcd_done)
        if module == "qarith" and name == "q_factorial":
            return self.span(fn, span, before=self._count("qarith.q_factorial.calls"))
        if module == "families" and name == "qweyl_binomial":
            return self.span(fn, lambda a, k: "families.qweyl_binomial."
                             + (a[3] if len(a) > 3 else k.get("path", "closed")))
        if module == "verify" and name in ("verify_theorem", "verify_identity"):
            return self.span(fn, lambda a, k: f"verify.case.{a[0] if a else k['case_id']}")
        if module == "cli" and name == "run":
            return self.span(self._cli_run(fn), span)
        return self.span(fn, span)

    def _method_span(self, module: str, cls: str, name: str, fn):
        if cls == "IntPoly" and name in ("__mul__", "__rmul__"):
            return self.span(fn, "qarith.intpoly_mul", before=self._intpoly_mul)
        if cls == "QScalar" and name == "__init__":
            return self.span(fn, "qarith.qscalar", before=self._qscalar_init)
        if cls == "NormalOp" and name in ("__mul__", "__rmul__"):
            return self.span(fn, self._compose_name)
        if cls == "NormalOp" and name == "apply":
            return self.span(fn, "opalg.apply")
        if cls == "XSPoly" and name == "dq":
            return self.span(fn, "polyring.xspoly", before=self._count("polyring.dq.calls"))
        return self.span(fn, f"{module}.{cls.lower()}")

    def install(self, package) -> None:
        """Wrap every public function and method of the qweyl modules."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        self.opalg = modules["opalg"]
        self.memo_families = [getattr(modules["families"], name) for name in MEMO_FAMILIES]
        replaced: dict[int, object] = {}
        for m, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if name.startswith("_") or issubclass(obj, BaseException):
                        continue
                    for attr, fn in list(vars(obj).items()):
                        if _wanted(obj, attr, fn):
                            if id(fn) not in replaced:
                                replaced[id(fn)] = self._method_span(m, obj.__name__, attr, fn)
                            setattr(obj, attr, replaced[id(fn)])
                elif callable(obj) and not name.startswith("_"):
                    replaced[id(obj)] = self._function_span(m, name, obj)
        # Rebind each wrapped function wherever a module imported it by name.
        for mod in [package] + list(modules.values()):
            for name, obj in list(vars(mod).items()):
                if not isinstance(obj, type) and id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def snapshot(self) -> dict:
        """Raw totals, plus the memo-table sizes and lru-cache hit ratio."""
        hits = misses = 0
        for fn in self.memo_families:
            info = fn.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "counts": dict(self.counts),
                "memo": {"d_pow_past_x": len(self.opalg._D_POW_PAST_X),
                         "families_hits": hits, "families_misses": misses}}
