"""Per-layer tracing of primevisit from outside the program.

install() rebinds each public function of the traced modules, in every
primevisit module that holds a reference to it: `from .primes import
is_prime` leaves separate bindings in clusters and dynamics, so patching
primes alone would miss those calls.  Three methods are patched on their
classes.

Each wrapped call records a span (operation, id, parent, name, start, end,
self seconds, work).  Self seconds are the span's duration minus its child
spans and hot-leaf calls.  The hot leaf functions (is_prime, factorize,
squarefree_split, QuadExt.sign) run millions of times, so they are
aggregated per operation as a count and a time instead of one span each.
Spans are kept in memory and written out at the end.

Untraced runs never import this module.
"""

import functools
import inspect
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "primes", "clusters", "exactreal", "contfrac", "dynamics",
           "sieve_weights")
METHODS = (("primes", "PrimeRange", "primes"), ("exactreal", "QuadExt", "floor"),
           ("exactreal", "QuadExt", "sign"))
LEAVES = frozenset(("primes.is_prime", "primes.factorize",
                    "exactreal.squarefree_split", "exactreal.QuadExt.sign"))
# work counters, read from a span's result
WORK = {
    "primes.sieve_range": ("flags", lambda r: r.hi - r.lo),
    "contfrac.cf_expand": ("depth", lambda r: r.depth),
    "sieve_weights.s_sum_bruteforce": ("residues", lambda r: r.residues_enumerated),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (op, id, parent, name, start, end, self_s, work)
        self.leaves = []  # per operation: {name: [calls, seconds]}
        self._leaf_now = {}
        self._stack = []  # open spans: [id, child seconds]
        self._ids = itertools.count()
        self._op = -1
        self._patches = []  # (owner, attribute, original)

    def begin_op(self, op: int):
        self._op = op
        self._leaf_now = {}
        self.leaves.append(self._leaf_now)

    # --- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        stack, spans, ids = self._stack, self.spans, self._ids
        work = WORK.get(name, (None, None))[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                w = work(result) if work is not None and result is not None else 0
                spans.append((self._op, frame[0], parent[0] if parent else -1, name,
                              start, end, duration - frame[1], w))

        return wrapper

    def _leaf(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                agg = self._leaf_now.get(name)
                if agg is None:
                    agg = self._leaf_now[name] = [0, 0.0]
                agg[0] += 1
                agg[1] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def _wrap(self, name, fn):
        return self._leaf(name, fn) if name in LEAVES else self._span(name, fn)

    # --- installation -------------------------------------------------------

    def install(self):
        """Wrap every public function of MODULES (generators excepted) and
        the METHODS, in every primevisit module that binds them."""
        import primevisit.cli  # noqa: F401  (loads every traced module)

        wrapped = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = sys.modules[f"primevisit.{short}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "primevisit" and not name.startswith("primevisit."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"primevisit.{short}"], cls_name)
            self._patch(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}",
                                              cls.__dict__[meth]))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- output -------------------------------------------------------------

    def write(self, path):
        """One JSON line per span, then one per operation's leaf aggregate."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"op": s[0], "id": s[1], "parent": s[2],
                                     "name": s[3], "start": s[4], "end": s[5],
                                     "self_s": s[6], "work": s[7]}) + "\n")
            for op, agg in enumerate(self.leaves):
                fh.write(json.dumps({"op": op, "leaves": agg}) + "\n")

    def layer_metrics(self) -> dict:
        """Totals per function and per module: <name>.calls, <name>.s
        (inclusive), <name>.self_s, work counters and <module>.self_s."""
        out = defaultdict(float)
        for _, _, _, name, start, end, self_s, w in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += self_s
            out[name.split(".")[0] + ".self_s"] += self_s
            if name in WORK:
                out[f"{name}.{WORK[name][0]}"] += w
        for agg in self.leaves:
            for name, (calls, seconds) in agg.items():
                out[f"{name}.calls"] += calls
                out[f"{name}.s"] += seconds
                out[name.split(".")[0] + ".self_s"] += seconds
        return dict(out)
