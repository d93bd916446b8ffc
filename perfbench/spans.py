"""Outside-in per-layer trace: wraps public gefp_lab functions in place.

Each wrapped function gets a call count, an inclusive time (recursive
re-entries are counted once) and a self time (inclusive time minus the
time spent in directly nested wrapped calls).  Two multiplications also
count their work in terms, and ``residue_workspace`` counts how often it
returns an object it has returned before.

The wrappers replace every binding of the original object: module globals
bound by ``from .x import y`` and class attributes such as the
``__rmul__ = __mul__`` aliases.  Install once per process, after import.
"""

import sys
import time

PACKAGE = "gefp_lab"

# (module, dotted attribute) of every function that gets layer metrics
TARGETS = (
    ("oracle", "gefp_oracle"),
    ("oracle", "boundary_distribution_oracle"),
    ("hfun", "build_h_tables"),
    ("hfun", "h_polynomial"),
    ("hfun", "boundary_H_table_via_K"),
    ("gefp", "gefp_residue"),
    ("gefp", "residue_workspace"),
    ("gefp", "IntegrandSeries.coefficient"),
    ("gefp", "gefp_determinant_jets"),
    ("ik", "k_polynomial"),
    ("algebra", "det"),
    ("algebra", "TruncatedSeries.mul"),
    ("algebra", "TruncatedSeries.invert"),
    ("algebra", "UniPoly.mul"),
    ("algebra", "Jet.mul"),
    ("algebra", "Jet.invert"),
)

# ".mul" names the __mul__ slot; __rmul__ is bound to the same function
_ATTR = {"mul": "__mul__"}


def layer_name(module, attr):
    return f"{module}.{attr}"


def _series_terms(a, b):
    """Work of one TruncatedSeries product: nonzero count times nonzero count."""
    na = sum(1 for v in a.data if v != 0)
    nb = sum(1 for v in b.data if v != 0) if hasattr(b, "data") else 1
    return na * nb


def _poly_terms(a, b):
    """Work of one UniPoly product: coefficient-list lengths multiplied."""
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


_TERMS = {
    "algebra.TruncatedSeries.mul": _series_terms,
    "algebra.UniPoly.mul": _poly_terms,
}


class Tracer:
    """Span totals for the wrapped functions of one process."""

    def __init__(self):
        self.calls = {}
        self.inclusive = {}
        self.self_time = {}
        self.terms = {name: 0 for name in _TERMS}
        self.workspaces_seen = []        # keeps objects alive so ids stay unique
        self.workspace_hits = 0
        self._stack = []                 # [start, time in nested spans]
        self._active = {}

    def wrap(self, name, fn):
        clock = time.perf_counter
        stack, active = self._stack, self._active
        terms = _TERMS.get(name)
        track_workspace = name == "gefp.residue_workspace"
        self.calls[name] = 0
        self.inclusive[name] = 0.0
        self.self_time[name] = 0.0

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if terms is not None:
                self.terms[name] += terms(*args)
            frame = [clock(), 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                active[name] -= 1
                if not active[name]:
                    self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if track_workspace:
                if any(out is seen for seen in self.workspaces_seen):
                    self.workspace_hits += 1
                else:
                    self.workspaces_seen.append(out)
            return out

        return wrapper

    def install(self):
        """Wrap every target and rebind every name that refers to it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            slot = _ATTR.get(parts[-1], parts[-1])
            original = vars(owner)[slot]
            wrapped = self.wrap(layer_name(mod_name, attr), original)
            rebound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        rebound += 1
                    elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                        for ckey, cvalue in list(vars(value).items()):
                            if cvalue is original:
                                setattr(value, ckey, wrapped)
                                rebound += 1
            if not rebound:
                raise RuntimeError(f"no binding of {mod_name}.{attr} was found")

    def metrics(self):
        """Flat per-layer metrics: calls, inclusive and self seconds, counters."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.inclusive[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for name, n in self.terms.items():
            out[f"{name}.terms"] = (n, "count")
        ws_calls = self.calls["gefp.residue_workspace"]
        out["gefp.residue_workspace.hit_ratio"] = (
            self.workspace_hits / ws_calls if ws_calls else 0.0, "ratio")
        return out
